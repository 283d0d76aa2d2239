"""Benchmark of the gelfand verifier, run from the repository root:

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 40 --trace 0

Everything runs in this one process with no worker pool.  After set-up the
run makes whole passes over the workload's fixed input set until another
pass would overrun ``--seconds`` (at least one pass) and checks every output
against the goldens.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: setup_s (median of several
fresh set-ups), and wall_s, cpu_s (median per pass), peak_rss_mb and
ok_ratio.  ``--trace 1`` makes one untraced pass and then traced passes,
and reports the per-layer metrics: self seconds per layer and per grid point,
exact counts, the host drift probe and the tracing overhead.  Spans and a
record of the run are written to ``.perfbench_out/`` in the repository root.

See ``perfbench/ABOUT.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, self_times
from workloads import LAYER_SPANS, WORKLOADS, load_goldens, make_workload

perf_counter = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# fresh set-ups per run that setup_s is the median of
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

LAYER_COUNTS = {
    "groups.elements": "elements", "groups.generators": "generators",
    "chartab.classes": "classes", "cosets.double_cosets": "double_cosets",
    "chartab.cache_hits": "cache_hits", "chartab.cache_misses": "cache_misses",
    "matrix.mul_flat_calls": "mul_flat_calls",
    "symsolve.instances": "instances", "reflections.pairs": "pairs",
}


def import_gelfand():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import gelfand
        import gelfand.pipeline
    except ImportError as exc:
        raise SystemExit(f"cannot import gelfand from {SRC}: {exc}")
    if not Path(gelfand.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gelfand was imported from {gelfand.__file__}, "
                         f"not from {SRC}")
    return gelfand


def cpu_now() -> float:
    """User plus system seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def host_ref_loop(reps: int = 5) -> list[float]:
    """Milliseconds per fixed pure-Python loop; runs no gelfand code."""
    out = []
    for _ in range(reps):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        out.append((perf_counter() - t0) * 1000)
    return out


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time import plus the workload's set-up, print it."""
    t0 = perf_counter()
    gelfand = import_gelfand()
    make_workload(workload).setup(gelfand, seed)
    print(perf_counter() - t0)


def probe_setups(workload: str, seed: int, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True, cwd=ROOT)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Pass:
    wall: float
    cpu: float
    oks: list[bool]
    counts: dict | None
    tracer: Tracer | None


def run_passes(wl, gelfand, scratch: Path, seconds: float,
               traced: bool) -> list[Pass]:
    """Whole passes until the next would overrun `seconds`; at least one."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        tracer = Tracer() if traced else None
        gc.collect()  # every pass starts from the same heap
        with wl.pass_context(scratch) as ctx:
            c0, t0 = cpu_now(), perf_counter()
            oks, counts = wl.run_pass(gelfand, ctx, tracer)
            wall, cpu = perf_counter() - t0, cpu_now() - c0
        passes.append(Pass(wall, cpu, oks, counts, tracer))
        typical = statistics.median(p.wall for p in passes)
        if perf_counter() - start + typical > seconds:
            return passes


def check_counts(wl, passes: list[Pass]) -> list[str]:
    """Counts must equal the goldens, and every count must repeat in each pass.

    Counts that a faster group kernel is meant to move (mul_flat calls,
    generators) have no golden; they are only checked to repeat.
    """
    counted = [p.counts for p in passes if p.counts is not None]
    if not counted:
        return []
    problems = []
    for key, want in wl.expected_counts().items():
        got = [c[key] for c in counted]
        if any(g != want for g in got):
            problems.append(f"count {key}: golden {want}, got {got}")
    for key, first in counted[0].items():
        got = [c[key] for c in counted]
        if any(g != first for g in got):
            problems.append(f"count {key}: differs between passes: {got}")
    return problems


def layer_metrics(passes: list[Pass], untraced_wall: float,
                  ref_ms: list[float]) -> dict:
    point_names = sorted(load_goldens()["points"])
    per_pass = []
    for p in passes:
        by_name, dur, child = self_times(p.tracer.spans)
        top = [i for i, s in enumerate(p.tracer.spans) if s[3] == -1]
        point_idx = [i for i in top
                     if p.tracer.spans[i][0].startswith("point.")]
        points = {p.tracer.spans[i][0]: dur[i] for i in point_idx}
        if points:
            # share of run_verify time inside layer spans: whole pass, worst point
            coverage = sum(child[i] for i in point_idx) / sum(points.values())
            worst = min(child[i] / dur[i] for i in point_idx)
        else:
            coverage = worst = sum(dur[i] for i in top) / p.wall
        m = {f"{name}_s": by_name.get(name, 0.0) for name in LAYER_SPANS}
        m.update({f"point.{name}_s": points.get(f"point.{name}", 0.0)
                  for name in point_names})
        m["pipeline.self_s"] = sum(by_name[n] for n in points)
        m["trace.span_coverage"] = coverage
        m["trace.min_point_coverage"] = worst
        per_pass.append(m)

    metrics = {}
    for key in per_pass[0]:
        unit = "ratio" if key.endswith("coverage") else "s"
        metrics[key] = (statistics.median(m[key] for m in per_pass), unit)
    counts = passes[0].counts
    for name, key in LAYER_COUNTS.items():
        metrics[name] = (counts.get(key, 0), "count")
    metrics["host.ref_loop_ms"] = (statistics.median(ref_ms), "ms")
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in passes) - untraced_wall, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    t0 = perf_counter()
    gelfand = import_gelfand()
    import_s = perf_counter() - t0
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        wl = make_workload(args.workload)
        t1 = perf_counter()
        wl.setup(gelfand, args.seed)
        setup_samples = [import_s + perf_counter() - t1]
        if not args.trace:
            setup_samples += probe_setups(args.workload, args.seed,
                                          SETUP_SAMPLES - 1)
        ref_start = host_ref_loop()
        if args.trace:
            untraced = run_passes(wl, gelfand, scratch, 0, traced=False)
            rest = max(args.seconds - untraced[0].wall, 0)
            passes = run_passes(wl, gelfand, scratch, rest, traced=True)
            all_passes = untraced + passes
        else:
            passes = all_passes = run_passes(wl, gelfand, scratch,
                                             args.seconds, traced=False)
        ref_end = host_ref_loop()
    finally:
        shutil.rmtree(scratch)

    oks = [ok for p in all_passes for ok in p.oks]
    failed = oks.count(False)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    problems = check_counts(wl, passes)
    for msg in problems:
        print(f"WORKLOAD CHANGED: {msg}", file=sys.stderr)
    correct = failed == 0 and not problems

    if args.trace:
        metrics = layer_metrics(passes, untraced[0].wall, ref_start + ref_end)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            "ok_ratio": ((len(oks) - failed) / len(oks), "ratio"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "setup_samples_s": setup_samples,
        "pass_wall_s": [p.wall for p in all_passes],
        "pass_cpu_s": [p.cpu for p in all_passes],
        "host_ref_loop_ms": {"start": ref_start, "end": ref_end},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "problems": problems,
    }
    (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(
            [p.tracer.spans for p in passes]))
    print(f"{args.workload}: passes {[round(p.wall, 3) for p in all_passes]} s,"
          f" host.ref_loop_ms start {statistics.median(ref_start):.2f}"
          f" end {statistics.median(ref_end):.2f}", file=sys.stderr)

    print(json.dumps({
        "correct": correct, "attempted": len(oks), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
