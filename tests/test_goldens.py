"""The regression oracle: every default-grid report's canonical bytes.

``perfbench/goldens.json`` holds the sha256 of ``canonical_bytes()`` for
each grid point; it is only read here.  A refactor that changes any byte of
a default-grid report fails this test.
"""

import hashlib
import json
from pathlib import Path

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def test_default_grid_reports_match_their_golden_digests(gl_reports,
                                                         o_reports):
    goldens = json.loads(GOLDENS.read_text())
    reports = {f"gl{big}q{q}": r for (big, q), r in gl_reports.items()}
    reports |= {f"o{big}q{q}": r for (big, q), r in o_reports.items()}
    assert sorted(reports) == sorted(goldens["default_grid"])
    for name, report in reports.items():
        golden = goldens["points"][name]
        assert (report.kind, report.n, report.q) == \
            (golden["kind"], golden["n"], golden["q"]), name
        digest = hashlib.sha256(report.canonical_bytes()).hexdigest()
        assert digest == golden["sha256"], name
