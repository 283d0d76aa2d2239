"""The regression oracle: every golden point's report's canonical bytes.

``perfbench/goldens.json`` holds the sha256 of ``canonical_bytes()`` for
each grid point, the default grid and the extended points past it; it is
only read here.  A refactor that changes any byte of such a report fails
these tests.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from gelfand.chartab import character_table, conjugacy_classes
from gelfand.field import field_from_q
from gelfand.groups import enumerate_gl
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


# GL2(F_q) past the benchmark's points, digests taken before the class
# algebra was counted as separators; GL2(F13) (order 26,208) needs a cap
# above the default
PAST_THE_GRID = {
    9: ("174ff828fc3433b6a1ea9bcb79f1bf578dfb9885375f172a60699292ff37a925",
        None),
    11: ("2b8bf487fe76fe1c1dca14f68dd0945586ef15610282b9c238d2c07307a297ac",
         None),
    13: ("effaeaa20e8d4b8cd7e79913ee1ee482e002fdf4492f9809f00dc086fd94fae2",
         30_000),
}


@pytest.mark.parametrize("q", sorted(PAST_THE_GRID))
def test_gl2_reports_past_the_grid_match_their_digests(q):
    digest, cap = PAST_THE_GRID[q]
    report = run_verify("gl", 1, q, **({"cap": cap} if cap else {}))
    assert report.passed
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == digest


def test_the_gl2_f11_table_peaks_below_4_mb():
    # k = 120 classes: a (k, k, k) int64 tensor alone would take 13.8 MB
    g = enumerate_gl(2, field_from_q(11))
    classes = conjugacy_classes(g)
    tracemalloc.start()
    try:
        table = character_table(g, classes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.count == 120
    assert peak < 4 * 2 ** 20
