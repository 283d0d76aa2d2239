"""Regenerate goldens.json from the current tree:

    python3 perfbench/make_goldens.py

Run it only at a commit whose reports are known to be right; every later
benchmark run compares its outputs with what this writes.
"""

from __future__ import annotations

import json
import sys

from run import import_gelfand
from workloads import (EXTENDED_POINTS, GOLDENS, SolverWorkload, point_label,
                       report_digest)


def main() -> int:
    gelfand = import_gelfand()
    default = gelfand.pipeline.default_points()
    points = {}
    for kind, n, q in default + list(EXTENDED_POINTS):
        report = gelfand.pipeline.run_verify(kind, n, q)
        if not report.passed:
            raise SystemExit(f"{point_label(kind, n, q)} does not pass")
        points[point_label(kind, n, q)] = {
            "kind": kind, "n": n, "q": q,
            "sha256": report_digest(report),
            "elements": report.group_order + report.subgroup_order,
            "classes": len(report.characters),
            "double_cosets": report.plain_count + report.mod_center_count,
        }
    solver = SolverWorkload()
    solver.setup(gelfand, 0)
    kinds = [item[0] for item in solver.items]
    GOLDENS.write_text(json.dumps({
        "default_grid": [point_label(*p) for p in default],
        "points": points,
        "solver": {"instances": kinds.count("sym"),
                   "pairs": kinds.count("swap")},
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
