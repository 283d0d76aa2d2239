"""End-to-end verification runs and the grid sweep.

A run for (kind, n, q) checks the pair (KIND_{n+1}(F_q), KIND_n(F_q)):
enumerate both groups, embed, decompose into double cosets (plain and mod
center), act by transpose, build the character table, compute invariant
dimensions, and evaluate the named checks.  ``groups.admit`` takes the big
group, then the small one, before either is enumerated.  Grid points in
sweep specs are written with the size of the BIG group, matching the usual
pair naming; run_verify itself takes the small size n.

Reports serialize to JSON deterministically: byte-identical across runs
except for the "timings" field, which is excluded from the canonical
encoding.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .chartab import (_sums_exact, character_table, conjugacy_classes,
                      dim_invariants, transpose_preserves_classes,
                      verify_pair)
from .cosets import classify_nonfixed_gl, double_cosets, involution_action
from .errors import CapExceededError, DomainError
from .field import Fq, field_from_q
from .groups import (DEFAULT_GROUP_CAP, GroupTable, admit, embed_standard,
                     enumerate_gl, enumerate_o)

REPORT_SCHEMA = "gelfand-report/1"

# grid points as (big group size, q)
DEFAULT_GL_GRID = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2))
DEFAULT_O_GRID = ((2, 3), (3, 3), (2, 5))


@dataclass
class VerificationReport:
    kind: str
    n: int  # small group size; the pair is (KIND_{n+1}, KIND_n)
    q: int
    group_order: int
    subgroup_order: int
    center_order: int
    plain_count: int
    mod_center_count: int
    sigma_fixed: int
    sigma_nonfixed: int
    k: int
    characters: list[dict]
    max_dim_inv: int
    bound: int
    attained: bool
    checks: dict[str, bool]
    passed: bool
    timings: dict[str, float] = dc_field(default_factory=dict)
    failures: list[str] = dc_field(default_factory=list)

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out = {
            "schema": REPORT_SCHEMA,
            "pair": {"kind": self.kind, "n": self.n, "q": self.q},
            "group_order": self.group_order,
            "subgroup_order": self.subgroup_order,
            "center_order": self.center_order,
            "cosets": {
                "plain_count": self.plain_count,
                "mod_center_count": self.mod_center_count,
                "sigma_fixed": self.sigma_fixed,
                "sigma_nonfixed": self.sigma_nonfixed,
                "k": self.k,
            },
            "characters": self.characters,
            "max_dim_inv": self.max_dim_inv,
            "bound": self.bound,
            "attained": self.attained,
            "checks": self.checks,
            "failures": self.failures,
            "pass": self.passed,
        }
        if include_timings:
            out["timings"] = self.timings
        return out

    def canonical_bytes(self) -> bytes:
        """Deterministic encoding; the timings field is quarantined out."""
        return (json.dumps(self.to_json_dict(include_timings=False),
                           sort_keys=True, indent=1) + "\n").encode()

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict(), sort_keys=True,
                                   indent=1) + "\n")
        return path


def enumerate_group(kind: str, n: int, field: Fq,
                    cap: int = DEFAULT_GROUP_CAP) -> GroupTable:
    """KIND_n(F_q) for kind "gl" or "o", in either case."""
    admit(kind, n, field)
    # looked up per call, so a replaced enumerate_gl or enumerate_o is used
    enum = enumerate_gl if kind.lower() == "gl" else enumerate_o
    return enum(n, field, cap)


def check_table_fits(kind: str, n: int, field: Fq) -> None:
    """Refuse, before it is enumerated, a group that ``admit`` refuses or
    whose character table no modulus keeps exact: ``character_table``'s
    first bound fails already at its smallest modulus, l = 2|G| + 1."""
    order = admit(kind, n, field)
    if not _sums_exact(order, 1, 2 * order + 1):
        raise CapExceededError(
            f"|{kind.upper()}_{n}(F_{field.q})| = {order} is too large for "
            "an exact character table")


def make_cache_dir(cache_dir: str | Path | None) -> None:
    """Create the character table cache directory, or refuse it as a usage
    error when it cannot be created, before any group is enumerated."""
    if cache_dir is None:
        return
    try:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cache directory {str(cache_dir)!r} cannot be "
                          f"created: {exc.strerror}") from None


def run_verify(kind: str, n: int, q: int, *,
               cap: int = DEFAULT_GROUP_CAP,
               cache_dir: str | Path | None = None) -> VerificationReport:
    """Full pipeline for the pair (KIND_{n+1}(F_q), KIND_n(F_q))."""
    kind = kind.lower()
    timings: dict[str, float] = {}

    def staged(name, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            exc.args = (f"[stage {name}] {exc}",) + exc.args[1:]
            raise
        timings[name] = round(time.perf_counter() - t0, 6)
        return result

    make_cache_dir(cache_dir)
    field = staged("field", lambda: field_from_q(q))
    check_table_fits(kind, n + 1, field)
    admit(kind, n, field)
    big = staged("enumerate_group",
                 lambda: enumerate_group(kind, n + 1, field, cap))
    small = staged("enumerate_subgroup",
                   lambda: enumerate_group(kind, n, field, cap))
    emb = staged("embed", lambda: embed_standard(small, big))
    center = staged("center", lambda: big.center_ids())

    plain = staged("cosets_plain", lambda: double_cosets(big, emb, False))
    mod_center = staged("cosets_mod_center",
                        lambda: double_cosets(big, emb, True, plain))
    act_plain = staged("involution_plain", lambda: involution_action(plain))
    act_mc = staged("involution_mod_center",
                    lambda: involution_action(mod_center))
    k = act_mc.k

    classes = staged("classes", lambda: conjugacy_classes(big))
    table = staged("character_table",
                   lambda: character_table(big, classes, cache_dir=cache_dir))
    rows = staged("invariants", lambda: dim_invariants(table, emb))
    failures = staged("verify", lambda: verify_pair(table, rows, k))

    checks: dict[str, bool] = {}
    bound_ok = not failures
    if kind == "gl":
        lemma_ok = act_mc.nonfixed_count == 2
        if lemma_ok:
            # representative shape check; mismatches raise loudly
            classify_nonfixed_gl(act_mc)
        else:
            failures.append(
                f"expected 2 transpose-non-fixed mod-center cosets, got "
                f"{act_mc.nonfixed_count}")
        checks["lemma_3_1"] = lemma_ok
        checks["corollary_3_3"] = bound_ok
    else:
        # verify_pair already holds every dim_inv to min(k + 1, 1)
        theorem_ok = k == 0 and act_plain.nonfixed_count == 0 and bound_ok
        if not theorem_ok and bound_ok:
            failures.append(
                f"transpose moved some double coset: k = {k}, plain "
                f"nonfixed = {act_plain.nonfixed_count}")
        checks["theorem_4_1"] = theorem_ok

    mackey = sum(r.dim_inv ** 2 for r in rows)
    checks["mackey_sum"] = mackey == plain.count
    if not checks["mackey_sum"]:
        failures.append(f"sum of squared invariant dims {mackey} != plain "
                        f"double-coset count {plain.count}")
    checks["dual_dims"] = all(r.dim_inv == r.dim_dual_inv for r in rows)
    if not checks["dual_dims"]:
        failures.append("some irreducible has dim_inv != dim_dual_inv")
    checks["transpose_classes"] = transpose_preserves_classes(big, classes)
    if not checks["transpose_classes"]:
        failures.append("some element is not conjugate to its transpose")

    max_dim_inv = max(r.dim_inv for r in rows)
    return VerificationReport(
        kind=kind, n=n, q=q,
        group_order=big.order,
        subgroup_order=small.order,
        center_order=len(center),
        plain_count=plain.count,
        mod_center_count=mod_center.count,
        sigma_fixed=act_mc.fixed_count,
        sigma_nonfixed=act_mc.nonfixed_count,
        k=k,
        characters=[{"degree": r.degree, "dim_inv": r.dim_inv,
                     "dim_dual_inv": r.dim_dual_inv}
                    for r in rows],
        max_dim_inv=max_dim_inv,
        bound=k + 1,
        attained=max_dim_inv == k + 1,
        checks=checks,
        passed=all(checks.values()),
        timings=timings,
        failures=failures,
    )


# -- sweep ------------------------------------------------------------------------

@dataclass
class SweepRow:
    kind: str
    n: int  # small group size
    q: int
    passed: bool
    k: int | None = None
    max_dim_inv: int | None = None
    bound: int | None = None
    seconds: float = 0.0
    error: str | None = None
    error_kind: str | None = None  # "domain", "cap" or "internal"
    report_path: str | None = None

    def label(self) -> str:
        big = self.kind.upper()
        return f"{big}{self.n + 1}/{big}{self.n}(F_{self.q})"


@dataclass
class SweepSummary:
    rows: list[SweepRow]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def any_internal(self) -> bool:
        return any(r.error_kind == "internal" for r in self.rows)

    def table_text(self) -> str:
        lines = [f"{'pair':<18} {'k':>3} {'max_dim':>8} {'bound':>6} "
                 f"{'pass':>5} {'seconds':>8}"]
        for r in self.rows:
            if r.error is not None:
                lines.append(f"{r.label():<18} {r.error_kind} error: "
                             f"{r.error}")
                continue
            lines.append(f"{r.label():<18} {r.k:>3} {r.max_dim_inv:>8} "
                         f"{r.bound:>6} {str(r.passed).lower():>5} "
                         f"{r.seconds:>8.2f}")
        lines.append(f"total: {len(self.rows)} points, "
                     f"{'all pass' if self.all_passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "schema": "gelfand-sweep/1",
            "points": [{
                "pair": {"kind": r.kind, "n": r.n, "q": r.q},
                "pass": r.passed,
                "k": r.k,
                "max_dim_inv": r.max_dim_inv,
                "bound": r.bound,
                "error": r.error,
                "error_kind": r.error_kind,
                "report": r.report_path,
            } for r in self.rows],
            "all_pass": self.all_passed,
        }


def default_points(kind: str = "all") -> list[tuple[str, int, int]]:
    """Default grid as (kind, small n, q) triples."""
    pts = []
    if kind in ("gl", "all"):
        pts += [("gl", big - 1, q) for big, q in DEFAULT_GL_GRID]
    if kind in ("o", "all"):
        pts += [("o", big - 1, q) for big, q in DEFAULT_O_GRID]
    return pts


def error_kind(exc: Exception) -> str:
    """A sweep row's error kind: cap or domain for a refused input,
    internal for anything else (a failed consistency check or a crash)."""
    if isinstance(exc, CapExceededError):
        return "cap"
    if isinstance(exc, DomainError):
        return "domain"
    return "internal"


def _sweep_point(args) -> tuple[SweepRow, VerificationReport | None]:
    """A point's row and its report, None on an error; the caller writes
    the report and sets the row's report_path."""
    kind, n, q, cap, cache_dir = args
    t0 = time.perf_counter()
    try:
        report = run_verify(kind, n, q, cap=cap, cache_dir=cache_dir)
    except Exception as exc:
        return SweepRow(kind, n, q, passed=False, error=str(exc),
                        error_kind=error_kind(exc),
                        seconds=round(time.perf_counter() - t0, 3)), None
    return SweepRow(kind, n, q, passed=report.passed, k=report.k,
                    max_dim_inv=report.max_dim_inv, bound=report.bound,
                    seconds=round(time.perf_counter() - t0, 3)), report


def _write_report(row: SweepRow, report: VerificationReport | None,
                  out_dir: str | Path | None) -> SweepRow:
    """The point's row, its report written to out_dir as soon as it is made."""
    if report is not None and out_dir is not None:
        path = Path(out_dir) / f"{row.kind}-n{row.n}-q{row.q}.json"
        report.write(path)
        row.report_path = str(path)
    return row


def _pool_rows(tasks, indices, workers, rows, out_dir) -> dict:
    """Run tasks[i] for the given indices in one fresh process pool, each
    row set as its point returns; returns {i: exception} for the points
    whose futures raised or that a broken pool refused to take."""
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool
    lost, futures = {}, {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for i in indices:
            try:
                futures[pool.submit(_sweep_point, tasks[i])] = i
            except BrokenProcessPool as exc:  # a worker died meanwhile
                lost[i] = exc
        for fut in as_completed(futures):
            i = futures[fut]
            try:
                result = fut.result()
            except Exception as exc:
                lost[i] = exc
                continue
            rows[i] = _write_report(*result, out_dir)
    return lost


def run_sweep(points: list[tuple[str, int, int]] | None = None,
              out_dir: str | Path | None = None, *,
              cap: int = DEFAULT_GROUP_CAP,
              cache_dir: str | Path | None = None,
              jobs: int = 1) -> SweepSummary:
    """run_verify over a grid; per-point failures are recorded, not fatal.

    With jobs != 1 each point is its own future.  A worker process that
    dies breaks the pool for every point still running, queued or not yet
    submitted, so each such point runs once more, alone in a fresh pool.
    Only a point lost there too becomes an internal error row; points that
    finished keep their rows and reports.  A negative jobs or a cache_dir
    that cannot be created is refused before any point runs."""
    if jobs < 0:
        raise DomainError("sweep worker count must be >= 0 (0 = auto), "
                          f"got {jobs}")
    make_cache_dir(cache_dir)
    if points is None:
        points = default_points()
    tasks = [(kind, n, q, cap, cache_dir) for kind, n, q in points]
    if jobs == 1 or len(tasks) <= 1:
        rows = [_write_report(*_sweep_point(t), out_dir) for t in tasks]
    else:
        rows = [None] * len(tasks)
        lost = _pool_rows(tasks, range(len(tasks)), jobs or None, rows,
                          out_dir)
        for i in sorted(lost):
            for exc in _pool_rows(tasks, [i], 1, rows, out_dir).values():
                rows[i] = SweepRow(*tasks[i][:3], passed=False,
                                   error=f"worker process failed: {exc!r}",
                                   error_kind="internal")
    summary = SweepSummary(rows)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "summary.txt").write_text(summary.table_text() + "\n")
        (Path(out_dir) / "summary.json").write_text(
            json.dumps(summary.to_json_dict(), sort_keys=True, indent=1) + "\n")
    return summary
