"""The benchmark's workloads: fixed input sets, their set-up and one pass.

Input sets never depend on the seed; the seed only shuffles the order in
which a pass visits them.  Every output is checked: a grid point is OK when
its report passes and the sha256 of ``canonical_bytes()`` equals the golden
in ``goldens.json``; a solver instance when both the solver's and the
oracle's B are symmetric, invertible and map phi to v; a reflection pair
when g^T g = I, g^2 = I and g swaps u and v.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
from contextlib import contextmanager
from itertools import product
from pathlib import Path

from tracing import GRID_SPANS, GridInstrument, Tracer, traced

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# ROADMAP item 4's extended grid, as (kind, small n, q)
EXTENDED_POINTS = (("o", 2, 5), ("o", 2, 7), ("o", 3, 3),
                   ("gl", 1, 7), ("gl", 1, 8))
# acceptance criterion 4 plus GF(4), as (q, n)
SOLVER_GRID = tuple((q, n) for q in (2, 3, 5) for n in (1, 2, 3)) \
    + ((4, 1), (4, 2))
# acceptance criterion 5, as (n, q); prime fields only
REFLECTION_GRID = ((2, 3), (3, 3), (2, 5), (3, 5))

# spans of a solver pass, in the order SolverWorkload.run_pass unpacks them
SOLVER_SPANS = ("symsolve.solve_symmetric", "symsolve.oracle_symmetric",
                "reflections.sphere_points", "reflections.swap_element",
                "matrix.check")
# every layer span any workload records
LAYER_SPANS = GRID_SPANS + SOLVER_SPANS


def point_label(kind: str, n: int, q: int) -> str:
    """Name of the pair KIND_{n+1}(F_q) > KIND_n(F_q), e.g. gl4q2."""
    return f"{kind}{n + 1}q{q}"


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def report_digest(report) -> str:
    return hashlib.sha256(report.canonical_bytes()).hexdigest()


def _warn(msg: str) -> None:
    print(msg, file=sys.stderr)


class GridWorkload:
    """run_verify over a fixed list of grid points, one call per point.

    Every pass uses a fresh, empty cache dir, so each character table is
    computed and written.
    """

    def __init__(self, name: str):
        self.name = name

    def points(self, gelfand) -> list[tuple]:
        if self.name == "grid_extended":
            return list(EXTENDED_POINTS)
        return gelfand.pipeline.default_points()

    def setup(self, gelfand, seed: int) -> None:
        points = self.points(gelfand)
        goldens = load_goldens()
        if (self.name != "grid_extended" and [point_label(*p) for p in points]
                != goldens["default_grid"]):
            raise ValueError("default_points() is not the golden default grid")
        self.expected = {p: goldens["points"][point_label(*p)] for p in points}
        self.order = list(points)
        random.Random(seed).shuffle(self.order)

    def expected_counts(self) -> dict:
        counts = {key: sum(e[key] for e in self.expected.values())
                  for key in ("elements", "classes", "double_cosets")}
        counts["cache_hits"] = 0
        counts["cache_misses"] = len(self.expected)
        return counts

    @contextmanager
    def pass_context(self, scratch: Path):
        cache_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=scratch))
        try:
            yield cache_dir
        finally:
            shutil.rmtree(cache_dir)

    def _ok(self, report, point) -> bool:
        golden = self.expected[point]["sha256"]
        if report.passed and report_digest(report) == golden:
            return True
        _warn(f"{point_label(*point)}: report differs from the golden "
              f"(passed={report.passed})")
        return False

    def run_pass(self, gelfand, cache_dir: Path, tracer: Tracer | None):
        """One run_verify per point; returns (ok flags, counts or None)."""
        run_verify = gelfand.pipeline.run_verify
        instrument = GridInstrument(gelfand, tracer) if tracer else None
        oks = []
        try:
            for point in self.order:
                span = tracer.begin("point." + point_label(*point)) \
                    if tracer else None
                report = None
                try:
                    report = run_verify(*point, cache_dir=cache_dir)
                except Exception as exc:  # a crash counts as a failed item
                    _warn(f"{point_label(*point)}: {type(exc).__name__}: {exc}")
                finally:
                    if tracer:
                        tracer.end(span)
                        instrument.end_point()
                oks.append(report is not None and self._ok(report, point))
        finally:
            if instrument:
                instrument.restore()
        return oks, instrument.counts if instrument else None


class SolverWorkload:
    """Exhaustive symmetric-solver instances and sphere swap reflections."""

    name = "solver_exhaustive"

    def setup(self, gelfand, seed: int) -> None:
        field_from_q = gelfand.field.field_from_q
        oracle = gelfand.symsolve.oracle_symmetric
        items = []
        for q, n in SOLVER_GRID:
            field = field_from_q(q)
            vecs = [v for v in product(range(q), repeat=n) if any(v)]
            items += [("sym", field, phi, v) for phi in vecs for v in vecs]
            # builds the oracle's per-(q, n) table of symmetric matrices
            oracle(field, vecs[0], vecs[0])
        self.spheres = {}
        for n, q in REFLECTION_GRID:
            field = field_from_q(q)
            # independent of sphere_points: integer arithmetic mod prime q
            pts = [x for x in product(range(q), repeat=n)
                   if sum(c * c for c in x) % q == 1]
            self.spheres[(n, q)] = (field, pts)
            items += [("swap", field, u, v) for u in pts for v in pts]
        random.Random(seed).shuffle(items)
        self.items = items

    def expected_counts(self) -> dict:
        return load_goldens()["solver"]

    @contextmanager
    def pass_context(self, scratch: Path):
        yield None

    def run_pass(self, gelfand, _ctx, tracer: Tracer | None):
        symsolve, reflections = gelfand.symsolve, gelfand.reflections
        MatFq, mat_vec = gelfand.matrix.MatFq, gelfand.matrix.mat_vec

        def check_sym(b, phi, v):
            return (b is not None and b.is_symmetric() and b.det() != 0
                    and mat_vec(b, phi) == v)

        def check_swap(field, g, u, v):
            ident = MatFq.identity(field, len(u))
            return (g.transpose() * g == ident and g * g == ident
                    and mat_vec(g, u) == v and mat_vec(g, v) == u)

        solve, oracle = symsolve.solve_symmetric, symsolve.oracle_symmetric
        sphere, swap = reflections.sphere_points, reflections.swap_element
        if tracer:
            s_solve, s_oracle, s_sphere, s_swap, s_check = SOLVER_SPANS
            solve = traced(tracer, s_solve, solve)
            oracle = traced(tracer, s_oracle, oracle)
            sphere = traced(tracer, s_sphere, sphere)
            swap = traced(tracer, s_swap, swap)
            check_sym = traced(tracer, s_check, check_sym)
            check_swap = traced(tracer, s_check, check_swap)

        oks = []
        for (n, q), (field, pts) in self.spheres.items():
            oks.append(sphere(n, field) == pts)
            if not oks[-1]:
                _warn(f"sphere_points({n}, F_{q}) differs from the brute force")

        counts = {"instances": 0, "pairs": 0}
        for kind, field, a, b in self.items:
            try:
                if kind == "sym":
                    counts["instances"] += 1
                    ok = (check_sym(solve(field, a, b), a, b)
                          and check_sym(oracle(field, a, b), a, b))
                else:
                    counts["pairs"] += 1
                    ok = check_swap(field, swap(field, a, b), a, b)
                problem = "check failed"
            except Exception as exc:  # a crash counts as a failed item
                ok = False
                problem = f"{type(exc).__name__}: {exc}"
            if not ok:
                _warn(f"{kind} {a} -> {b} over F_{field.q}: {problem}")
            oks.append(ok)
        return oks, counts


WORKLOADS = ("grid_cold", "grid_extended", "solver_exhaustive")


def make_workload(name: str):
    if name == "solver_exhaustive":
        return SolverWorkload()
    return GridWorkload(name)
