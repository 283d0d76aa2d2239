"""End-to-end verification runs and the grid sweep.

A run for (kind, n, q) checks the pair (KIND_{n+1}(F_q), KIND_n(F_q)):
enumerate both groups, embed, decompose into double cosets (plain and mod
center), act by transpose, build the character table, compute invariant
dimensions, and evaluate the named checks.  Grid points in sweep specs are
written with the size of the BIG group, matching the usual pair naming;
run_verify itself takes the small size n.

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
from .groups import (DEFAULT_GROUP_CAP, GroupTable, check_code_range,
                     embed_standard, enumerate_gl, enumerate_o, gl_order,
                     o_order)

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
    """KIND_n(F_q) for kind "gl" or "o"."""
    # looked up per call, so a replaced enumerate_gl or enumerate_o is used
    enum = {"gl": enumerate_gl, "o": enumerate_o}.get(kind)
    if enum is None:
        raise DomainError(f"unknown pair kind {kind!r}")
    if n < 1:
        raise DomainError("n must be >= 1")
    return enum(n, field, cap)


def check_table_fits(kind: str, n: int, field: Fq) -> None:
    """Refuse, before it is enumerated, a group whose character table no
    modulus keeps exact: the first of ``character_table``'s bounds fails
    already at the smallest modulus it could use, l = 2|G| + 1.  Matrix
    codes past int64 are refused first, before |G| is computed."""
    if kind not in ("gl", "o") or n < 1:
        return  # enumerate_group names the unknown kind or the bad n
    check_code_range(n, field.q)
    order = gl_order(n, field.q) if kind == "gl" else o_order(n, field)
    if not _sums_exact(order, 1, 2 * order + 1):
        raise CapExceededError(
            f"|{kind.upper()}_{n}(F_{field.q})| = {order} is too large for "
            "an exact character table")


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

    field = staged("field", lambda: field_from_q(q))
    check_table_fits(kind, n + 1, field)
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
    invariants = staged("invariants", lambda: dim_invariants(table, emb))
    outcome = staged("verify", lambda: verify_pair(table, invariants, k))

    checks: dict[str, bool] = {}
    failures = list(outcome.failures)
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
        checks["corollary_3_3"] = outcome.passed and invariants.max_dim_inv <= 2
    else:
        theorem_ok = (k == 0 and act_plain.nonfixed_count == 0
                      and outcome.passed and invariants.max_dim_inv <= 1)
        if not theorem_ok and not outcome.failures:
            failures.append(
                f"transpose moved some double coset: k = {k}, plain "
                f"nonfixed = {act_plain.nonfixed_count}")
        checks["theorem_4_1"] = theorem_ok

    mackey = sum(r.dim_inv ** 2 for r in invariants.rows)
    checks["mackey_sum"] = mackey == plain.count
    if not checks["mackey_sum"]:
        failures.append(f"sum of squared invariant dims {mackey} != plain "
                        f"double-coset count {plain.count}")
    checks["dual_dims"] = invariants.dual_dims_match
    if not checks["dual_dims"]:
        failures.append("some irreducible has dim_inv != dim_dual_inv")
    checks["transpose_classes"] = transpose_preserves_classes(big, classes)
    if not checks["transpose_classes"]:
        failures.append("some element is not conjugate to its transpose")

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
                    for r in invariants.rows],
        max_dim_inv=invariants.max_dim_inv,
        bound=outcome.bound,
        attained=outcome.attained,
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


def _sweep_point(args):
    kind, n, q, cap, cache_dir = args
    t0 = time.perf_counter()
    try:
        report = run_verify(kind, n, q, cap=cap, cache_dir=cache_dir)
    except Exception as exc:
        return (kind, n, q, None, str(exc), error_kind(exc),
                time.perf_counter() - t0)
    return kind, n, q, report, None, None, time.perf_counter() - t0


def _sweep_row(result, out_dir: str | Path | None) -> SweepRow:
    """A point's row; its report goes to out_dir as soon as it is made."""
    kind, n, q, report, error, why, seconds = result
    if report is None:
        return SweepRow(kind, n, q, passed=False, error=error,
                        error_kind=why, seconds=round(seconds, 3))
    path_str = None
    if out_dir is not None:
        path = Path(out_dir) / f"{kind}-n{n}-q{q}.json"
        report.write(path)
        path_str = str(path)
    return SweepRow(kind, n, q, passed=report.passed, k=report.k,
                    max_dim_inv=report.max_dim_inv, bound=report.bound,
                    seconds=round(seconds, 3), report_path=path_str)


def _pool_rows(tasks, indices, workers, rows, out_dir) -> dict:
    """Run tasks[i] for the given indices in one fresh process pool, each
    row set as its point returns; returns {i: exception} for the points
    whose futures raised."""
    from concurrent.futures import ProcessPoolExecutor, as_completed
    lost = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_sweep_point, tasks[i]): i for i in indices}
        for fut in as_completed(futures):
            i = futures[fut]
            try:
                result = fut.result()
            except Exception as exc:
                lost[i] = exc
                continue
            rows[i] = _sweep_row(result, out_dir)
    return lost


def run_sweep(points: list[tuple[str, int, int]] | None = None,
              out_dir: str | Path | None = None, *,
              cap: int = DEFAULT_GROUP_CAP,
              cache_dir: str | Path | None = None,
              jobs: int = 1) -> SweepSummary:
    """run_verify over a grid; per-point failures are recorded, not fatal.

    With jobs != 1 each point is its own future.  A worker process that
    dies breaks the pool for every point still running or queued in it, so
    each point whose future raised runs once more, alone in a fresh pool.
    Only a point lost there too becomes an internal error row; points that
    finished keep their rows and reports."""
    if points is None:
        points = default_points()
    tasks = [(kind, n, q, cap, cache_dir) for kind, n, q in points]
    if jobs == 1 or len(tasks) <= 1:
        rows = [_sweep_row(_sweep_point(t), out_dir) for t in tasks]
    else:
        rows = [None] * len(tasks)
        lost = _pool_rows(tasks, range(len(tasks)), jobs if jobs > 0 else None,
                          rows, out_dir)
        for i in sorted(lost):
            for exc in _pool_rows(tasks, [i], 1, rows, out_dir).values():
                kind, n, q = tasks[i][:3]
                rows[i] = _sweep_row(
                    (kind, n, q, None, f"worker process failed: {exc!r}",
                     "internal", 0.0), out_dir)
    summary = SweepSummary(rows)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "summary.txt").write_text(summary.table_text() + "\n")
        (Path(out_dir) / "summary.json").write_text(
            json.dumps(summary.to_json_dict(), sort_keys=True, indent=1) + "\n")
    return summary
