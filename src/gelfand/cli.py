"""Command-line interface.

Commands: field info, group order, cosets, solve-symmetric, swap-reflection,
chartab, verify, sweep.  Pair commands (cosets, verify, sweep points) take
the SMALL group size n: the pair verified is (KIND_{n+1}(F_q), KIND_n(F_q)).

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 internal consistency error or any other crash; a sweep exits 3 when any
point hit one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .chartab import character_table, conjugacy_classes, table_payload
from .cosets import double_cosets, involution_action
from .errors import DomainError, InternalCheckError
from .field import field_from_q
from .groups import DEFAULT_GROUP_CAP, admit, embed_standard
from .matrix import MatFq, format_matrix, mat_vec, parse_vector
from .pipeline import (check_table_fits, default_points, enumerate_group,
                       make_cache_dir, run_sweep, run_verify)
from .reflections import swap_element
from .symsolve import solve_symmetric
from . import __version__

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--cap-group-order", type=int, default=DEFAULT_GROUP_CAP,
                   help="refuse to enumerate groups larger than this")


def _cache_flag(p: argparse.ArgumentParser):
    # empty means unset, in the flag and the variable: Path("") would be "."
    p.add_argument("--cache-dir", type=lambda s: s or None,
                   default=os.environ.get("GELFAND_CACHE_DIR") or None,
                   help="character table cache directory "
                        "(default: $GELFAND_CACHE_DIR)")


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        print(text)


def cmd_field_info(args) -> int:
    f = field_from_q(args.q)
    modulus = ",".join(str(c) for c in f.modulus) if f.e > 1 else "(prime field)"
    payload = {"q": f.q, "p": f.p, "e": f.e,
               "modulus": list(f.modulus), "generator": f.generator()}
    text = (f"q: {f.q}\np: {f.p}\ne: {f.e}\nmodulus: {modulus}\n"
            f"generator: {f.generator()}")
    _emit(args, payload, text)
    return EXIT_PASS


def cmd_group_order(args) -> int:
    table = enumerate_group(args.type, args.n, field_from_q(args.q),
                            args.cap_group_order)
    if args.dump:
        with open(args.dump, "w") as fh:
            for m in table.elements:
                fh.write(format_matrix(m) + "\n")
    payload = {"kind": args.type, "n": args.n, "q": args.q,
               "order": table.order}
    _emit(args, payload, f"order: {table.order}")
    return EXIT_PASS


def cmd_cosets(args) -> int:
    field = field_from_q(args.q)
    for size in (args.n + 1, args.n):
        admit(args.pair, size, field)
    big = enumerate_group(args.pair, args.n + 1, field, args.cap_group_order)
    small = enumerate_group(args.pair, args.n, field, args.cap_group_order)
    emb = embed_standard(small, big)
    decomp = double_cosets(big, emb, args.mod_center)
    payload = {"pair": {"kind": args.pair, "n": args.n, "q": args.q},
               "mod_center": args.mod_center, "count": decomp.count}
    lines = [f"count: {decomp.count}"]
    if args.involution == "transpose":
        action = involution_action(decomp)
        payload.update(fixed=action.fixed_count,
                       nonfixed=action.nonfixed_count, k=action.k,
                       nonfixed_reps=[
                           format_matrix(big.element(decomp.reps[c]))
                           for c in action.nonfixed_coset_ids()])
        lines.append(f"fixed: {action.fixed_count}")
        lines.append(f"nonfixed: {action.nonfixed_count}")
        lines.append(f"k: {action.k}")
        for c in action.nonfixed_coset_ids():
            lines.append(
                f"nonfixed rep: {format_matrix(big.element(decomp.reps[c]))}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_PASS


def cmd_solve_symmetric(args) -> int:
    f = field_from_q(args.q)
    phi = parse_vector(f, args.phi)
    v = parse_vector(f, args.v)
    b = solve_symmetric(f, phi, v)
    checks = {"symmetric": b.is_symmetric(),
              "invertible": b.det() != 0,
              "maps_phi_to_v": mat_vec(b, phi) == v}
    payload = {"q": args.q, "phi": list(phi), "v": list(v),
               "B": format_matrix(b), "checks": checks}
    text = (f"B: {format_matrix(b)}\n"
            f"symmetric: {str(checks['symmetric']).lower()} "
            f"invertible: {str(checks['invertible']).lower()} "
            f"maps_phi_to_v: {str(checks['maps_phi_to_v']).lower()}")
    _emit(args, payload, text)
    return EXIT_PASS


def cmd_swap_reflection(args) -> int:
    f = field_from_q(args.q)
    u = parse_vector(f, args.u)
    v = parse_vector(f, args.v)
    g = swap_element(f, u, v)
    ident = MatFq.identity(f, g.rows)
    checks = {"orthogonal": g.transpose() * g == ident,
              "involution": g * g == ident,
              "maps_u_to_v": mat_vec(g, u) == v,
              "maps_v_to_u": mat_vec(g, v) == u}
    payload = {"q": args.q, "u": list(u), "v": list(v),
               "g": format_matrix(g), "checks": checks}
    text = (f"g: {format_matrix(g)}\n" +
            " ".join(f"{k}: {str(b).lower()}" for k, b in checks.items()))
    _emit(args, payload, text)
    return EXIT_PASS


def cmd_chartab(args) -> int:
    make_cache_dir(args.cache_dir)
    field = field_from_q(args.q)
    check_table_fits(args.type, args.n, field)
    table = enumerate_group(args.type, args.n, field, args.cap_group_order)
    classes = conjugacy_classes(table)
    t = character_table(table, classes, cache_dir=args.cache_dir)
    if args.json is not None:
        text = json.dumps(table_payload(t), sort_keys=True, indent=1)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json}")
        return EXIT_PASS
    print(f"classes: {classes.count}")
    print(f"l: {t.l} root: {t.root}")
    print(f"degrees: {','.join(str(d) for d in t.degrees)}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    report = run_verify(args.kind, args.n, args.q,
                        cap=args.cap_group_order, cache_dir=args.cache_dir)
    if args.out:
        report.write(args.out)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=1))
    else:
        kindU = args.kind.upper()
        print(f"pair: {args.kind} n={args.n} q={args.q} "
              f"({kindU}{args.n + 1}(F_{args.q}) > {kindU}{args.n}(F_{args.q}))")
        print(f"group_order: {report.group_order} "
              f"subgroup_order: {report.subgroup_order} "
              f"center_order: {report.center_order}")
        print(f"cosets: plain={report.plain_count} "
              f"mod_center={report.mod_center_count} "
              f"sigma_fixed={report.sigma_fixed} "
              f"sigma_nonfixed={report.sigma_nonfixed} k={report.k}")
        print(f"max_dim_inv: {report.max_dim_inv} bound: {report.bound} "
              f"attained: {str(report.attained).lower()}")
        print("checks: " + " ".join(
            f"{name}={'ok' if ok else 'FAIL'}"
            for name, ok in report.checks.items()))
        for f in report.failures:
            print(f"failure: {f}")
        print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_PASS if report.passed else EXIT_VERIFY_FAIL


def _parse_points(spec: str) -> list[tuple[str, int, int]]:
    """Points like "gl:3:2,o:3:3" with the BIG group size, as in grid naming."""
    points = []
    if not spec.strip():
        return points
    for part in spec.split(","):
        bits = part.strip().split(":")
        if len(bits) != 3 or bits[0] not in ("gl", "o"):
            raise DomainError(f"bad sweep point {part!r}; want kind:N:q")
        try:
            big, q = int(bits[1]), int(bits[2])
        except ValueError:
            raise DomainError(f"bad sweep point {part!r}; N and q must be "
                              "integers") from None
        if big < 2:
            raise DomainError(f"bad sweep point {part!r}; N must be >= 2")
        points.append((bits[0], big - 1, q))
    return points


def cmd_sweep(args) -> int:
    if args.points is not None:
        points = _parse_points(args.points)
    else:
        points = default_points(args.kind)
    summary = run_sweep(points, args.out_dir, cap=args.cap_group_order,
                        cache_dir=args.cache_dir, jobs=args.threads)
    if args.json:
        print(json.dumps(summary.to_json_dict(), sort_keys=True, indent=1))
    else:
        print(summary.table_text())
    if summary.any_internal:
        return EXIT_INTERNAL
    return EXIT_PASS if summary.all_passed else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gelfand",
        description="Exact desk-scale verification of invariant-dimension "
                    "bounds for GL and O pairs over small finite fields.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common)

    p_field = sub.add_parser("field", help="finite field utilities")
    field_sub = p_field.add_subparsers(dest="subcommand", required=True)
    p_info = field_sub.add_parser("info",
                                  help="print p, e, modulus, generator")
    p_info.add_argument("--q", type=int, required=True)
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(func=cmd_field_info)

    p_group = sub.add_parser("group", help="group enumeration utilities")
    group_sub = p_group.add_subparsers(dest="subcommand", required=True)
    p_order = group_sub.add_parser("order", parents=[common],
                                   help="order of GL_n or O_n over F_q")
    p_order.add_argument("--type", choices=("gl", "o"), required=True)
    p_order.add_argument("--n", type=int, required=True)
    p_order.add_argument("--q", type=int, required=True)
    p_order.add_argument("--dump", help="write elements to a file, one "
                                        "matrix literal per line")
    p_order.add_argument("--json", action="store_true")
    p_order.set_defaults(func=cmd_group_order)

    p_cosets = sub.add_parser("cosets", parents=[common],
                              help="double cosets of the standard pair; "
                                   "n is the small group size")
    p_cosets.add_argument("--pair", choices=("gl", "o"), required=True)
    p_cosets.add_argument("--n", type=int, required=True)
    p_cosets.add_argument("--q", type=int, required=True)
    p_cosets.add_argument("--mod-center", action="store_true")
    p_cosets.add_argument("--involution", choices=("transpose",))
    p_cosets.add_argument("--json", action="store_true")
    p_cosets.set_defaults(func=cmd_cosets)

    p_solve = sub.add_parser("solve-symmetric",
                             help="symmetric invertible B with B*phi = v")
    p_solve.add_argument("--q", type=int, required=True)
    p_solve.add_argument("--phi", required=True)
    p_solve.add_argument("--v", required=True)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve_symmetric)

    p_swap = sub.add_parser("swap-reflection",
                            help="orthogonal g with gu = v, gv = u")
    p_swap.add_argument("--q", type=int, required=True)
    p_swap.add_argument("--u", required=True)
    p_swap.add_argument("--v", required=True)
    p_swap.add_argument("--json", action="store_true")
    p_swap.set_defaults(func=cmd_swap_reflection)

    p_chartab = sub.add_parser("chartab", parents=[common],
                               help="character table of GL_n or O_n")
    _cache_flag(p_chartab)
    p_chartab.add_argument("--type", choices=("gl", "o"), required=True)
    p_chartab.add_argument("--n", type=int, required=True)
    p_chartab.add_argument("--q", type=int, required=True)
    p_chartab.add_argument("--json", nargs="?", const="-", default=None,
                           metavar="FILE",
                           help="emit JSON (to FILE, or stdout if bare)")
    p_chartab.set_defaults(func=cmd_chartab)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="verify one pair; n is the small group "
                                   "size, the pair is KIND_{n+1} > KIND_n")
    _cache_flag(p_verify)
    p_verify.add_argument("--kind", choices=("gl", "o"), required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--q", type=int, required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out", help="also write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="verify a grid of pairs")
    _cache_flag(p_sweep)
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="worker processes; 1 = sequential in this "
                              "process (default), 0 = auto")
    p_sweep.add_argument("--kind", choices=("gl", "o", "all"), default="all")
    p_sweep.add_argument("--points",
                         help='explicit grid "kind:N:q,..." with N the BIG '
                              "group size; empty string = empty grid")
    p_sweep.add_argument("--out-dir", help="write per-point reports here")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # any other crash is an internal error, as a sweep row counts it
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
