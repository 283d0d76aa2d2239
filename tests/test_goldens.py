"""The regression oracle: every golden point's report's canonical bytes.

``perfbench/goldens.json`` holds the sha256 of ``canonical_bytes()`` for
each grid point, the default grid and the extended points past it; it is
only read here.  A refactor that changes any byte of such a report fails
these tests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gelfand.pipeline import run_verify

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"
GOLDEN = json.loads(GOLDENS.read_text())
# O row extension with q = 5, 7 and n = 4, and GF(8): ~0.1 s in all
EXTENDED = sorted(set(GOLDEN["points"]) - set(GOLDEN["default_grid"]))


def test_default_grid_reports_match_their_golden_digests(gl_reports,
                                                         o_reports):
    reports = {f"gl{big}q{q}": r for (big, q), r in gl_reports.items()}
    reports |= {f"o{big}q{q}": r for (big, q), r in o_reports.items()}
    assert sorted(reports) == sorted(GOLDEN["default_grid"])
    for name, report in reports.items():
        golden = GOLDEN["points"][name]
        assert (report.kind, report.n, report.q) == \
            (golden["kind"], golden["n"], golden["q"]), name
        digest = hashlib.sha256(report.canonical_bytes()).hexdigest()
        assert digest == golden["sha256"], name


def test_the_extended_points_are_the_five_past_the_default_grid():
    assert EXTENDED == ["gl2q7", "gl2q8", "o3q5", "o3q7", "o4q3"]


@pytest.mark.parametrize("name", EXTENDED)
def test_extended_reports_match_their_golden_digests(name):
    golden = GOLDEN["points"][name]
    report = run_verify(golden["kind"], golden["n"], golden["q"])
    assert report.passed
    digest = hashlib.sha256(report.canonical_bytes()).hexdigest()
    assert digest == golden["sha256"]
