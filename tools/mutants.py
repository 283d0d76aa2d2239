"""The mutation catalogue: every entry breaks one check or one computation in
``src/gelfand``, and tier-1 must notice.

    python3 tools/mutants.py

An entry is ``(file, old, new, why)``: ``old`` must occur exactly once in
``src/gelfand/<file>`` and is replaced by ``new``.  Each entry is applied
alone to a fresh copy of ``src/``, ``tests/`` and ``perfbench/`` in a
temporary directory, and tier-1 runs there with ``-x`` and without
criterion 4 (the exhaustive solver run, most of tier-1's time).  A failing
run kills the mutant; a passing one lets it survive.

An entry whose ``why`` starts with ``equivalent:`` changes nothing that a
GL or O input can show, for the reason given.  It is applied, so that a
stale entry is still caught, but its tests are not run.

Prints killed, survived or equivalent per entry.  Exits 1 if any entry not
marked equivalent survives, and 2 if some entry's ``old`` is not found
exactly once.  Standard library only; not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--deselect",
         "tests/test_acceptance.py::test_criterion_4_symmetric_solver_exhaustive"]
TIMEOUT_S = 900

MUTANTS = [
    # -- the report's checks
    ("chartab.py",
     "    return np.array_equal(cls[g.transpose_ids], cls)",
     "    return True",
     "transpose_classes never fails"),
    ("pipeline.py",
     'checks["mackey_sum"] = mackey == plain.count',
     'checks["mackey_sum"] = mackey <= plain.count',
     "mackey_sum accepts a short sum"),
    ("pipeline.py",
     'checks["dual_dims"] = all(r.dim_inv == r.dim_dual_inv for r in rows)',
     'checks["dual_dims"] = True',
     "dual_dims never fails"),
    ("pipeline.py",
     "lemma_ok = act_mc.nonfixed_count == 2",
     "lemma_ok = act_mc.nonfixed_count <= 2",
     "lemma_3_1 accepts fewer than 2 non-fixed cosets"),
    ("pipeline.py",
     "        bound=k + 1,",
     "        bound=k + 2,",
     "the reported bound is k + 2"),
    ("pipeline.py",
     "attained=max_dim_inv == k + 1,",
     "attained=max_dim_inv >= k,",
     "equivalent: the two differ only at max_dim_inv = k, which no pair "
     "reaches (GL has a dim_inv of 2 = k + 1, and O has k = 0 while the "
     "trivial character gives 1), or above k + 1, which fails verify_pair"),
    # -- the bound and the invariant dimensions
    ("chartab.py",
     "    bound = min(k + 1, kind_bound)",
     "    bound = min(k + 2, kind_bound)",
     "verify_pair holds dim_inv to k + 2"),
    ("chartab.py",
     'kind_bound = 2 if table.group.kind == "GL" else 1',
     'kind_bound = 3 if table.group.kind == "GL" else 1',
     "equivalent: on GL, k = 1 by Lemma 3.1, so k + 1 = 2 binds first; the "
     "2 only guards against a wrong k"),
    ("chartab.py",
     "            if r > degree:",
     "            if r > degree + 1:",
     "dim_invariants lifts into [0, degree + 1]"),
    # -- the center's and transpose's actions on double cosets
    ("cosets.py",
     "    if bad.size:",
     "    if False:",
     "an induced coset action is not checked element by element"),
    ("cosets.py",
     "    if not np.array_equal(perm[perm], ids):",
     "    if False:",
     "the coset action is not checked to be an involution"),
    ("cosets.py",
     "    if emb.big is not g:",
     "    if False:",
     "double_cosets takes an embedding into another group"),
    ("cosets.py",
     "    if len(nf) != 2 or a.perm[nf[0]] != nf[1]:",
     "    if False:",
     "classify_nonfixed_gl's one-swapped-pair raise is removed"),
    ("cosets.py",
     "        if row_zero == col_zero:",
     "        if False:",
     "classify_nonfixed_gl's shape raise is removed"),
    ("cosets.py",
     "    if shapes[0] == shapes[1]:",
     "    if False:",
     "classify_nonfixed_gl's same-side raise is removed"),
    # -- the character table
    ("chartab.py",
     "    if sizes[class_of[g.identity_id]] != 1:",
     "    if False:",
     "the identity class is not checked to be a singleton"),
    ("chartab.py",
     "    if not np.array_equal(n_s[:, class_of[g.identity_id]],",
     "    if False and np.array_equal(n_s[:, class_of[g.identity_id]],",
     "the separator's inverse-class identity is removed"),
    ("chartab.py",
     "    if not pivot.all():",
     "    if False:",
     "a central character vanishing at the identity is not caught"),
    ("chartab.py",
     "    if not np.array_equal(rows, order % l * np.eye(",
     "    if False and np.array_equal(rows, order % l * np.eye(",
     "row orthogonality, the table's one relation check, is removed"),
    ("chartab.py",
     "return order * (l - 1) < 2 ** 53 and",
     "return order * (l - 1) < 2 ** 54 and",
     "the float64 separator bound is raised"),
    ("chartab.py",
     "(k + 1) * l * l < 2 ** 63",
     "(k + 1) * l * l < 2 ** 64",
     "the int64 product bound is raised"),
    ("chartab.py",
     "    return (hits.argmax(1) + 1).tolist()",
     "    return (hits.argmax(1) + 1 + (np.arange(len(ids)) == len(ids) - 1)"
     ").tolist()",
     "power_orders is off by one for the last rep"),
    ("chartab.py",
     "for i, o in enumerate(_block_orders(g, rows), m):",
     "for i, o in enumerate(_block_orders(g, rows) if s == 2 else [], m):",
     "only the first walk checks the orders"),
    ("chartab.py",
     "if m == 0 and rep != g.identity_id and not np.array_equal(",
     "if False and not np.array_equal(",
     "the walked right row is not compared with GroupTable.perm"),
    ("chartab.py",
     "    if r > cap:",
     "    if False:",
     "_lagrange_split's Krylov size check is removed"),
    ("chartab.py",
     "        if d * d != d2 or not 1 <= d <= sqrt_cap:",
     "        if False:",
     "a degree residue that is no admissible square is lifted anyway"),
    ("chartab.py",
     "    if sum(d * d for d in t.degrees) != order:",
     "    if False:",
     "the squared degrees are not checked to sum to |G|"),
    ("chartab.py",
     "        if d < 1 or order % d:",
     "        if False:",
     "a degree that does not divide |G| is kept"),
    ("chartab.py",
     "        if d < 1 or order % d:",
     "        if order % d:",
     "a cached degree 0 divides |G| by zero instead of raising a named "
     "error"),
    ("chartab.py",
     "        if row[e] != d:",
     "        if False:",
     "a degree is not checked against its row's value at the identity, "
     "so a cache with permuted degrees is used"),
    ("chartab.py",
     "    if rows != sorted(rows):",
     "    if False:",
     "a cache whose rows are permuted together is used, reordering the "
     "report"),
    ("chartab.py",
     "isinstance(v, int) and not isinstance(v, bool)",
     "isinstance(v, int)",
     "a cached JSON true or false is taken as a residue"),
    ("chartab.py",
     "        if s == 0:",
     "        if False:",
     "a vanishing degree denominator is inverted anyway"),
    ("chartab.py",
     "            if m >= g.order:",
     "            if False:",
     "_block_orders walks powers that never reach the identity"),
    ("chartab.py",
     "        return None  # stale cache for a different enumeration",
     "        pass",
     "a cached table for other class data is used"),
    ("chartab.py",
     "    if emb.big is not t.group:",
     "    if False:",
     "dim_invariants takes an embedding into another group"),
    ("chartab.py",
     "    if len(mu) != r:",
     "    if False:",
     "_lagrange_split's root count is removed"),
    ("chartab.py",
     "        if not np.array_equal(images, vecs * images[identity_class] % l):",
     "        if False:",
     "equivalent: the root count in _lagrange_split raises first on every "
     "corruption tried (all 4,914 single +1 corruptions of the class "
     "matrices of GL2(F2), GL2(F3), GL2(F4) and O3(F3))"),
    # -- whole-group maps as one row-code gather
    ("groups.py",
     "    codes = tables[0].take(row_codes[0])",
     "    codes = np.zeros(row_codes.shape[1], dtype=np.int64)",
     "the gather skips row 0"),
    ("groups.py",
     "* q ** np.arange(n - 1, -1, -1)[:, None], self.row_codes))",
     "* q ** np.arange(n)[:, None], self.row_codes))",
     "the transpose weights are reversed"),
    ("groups.py",
     "_gather(shares, h.row_codes) + 1)",
     "_gather(shares, h.row_codes))",
     "the embedding drops the last row's 1"),
    # -- left permutations: rho_(m^T) between transposes, kept by the closure
    ("groups.py",
     "            return t[self.perm(m.T)[t]]",
     "            return self.perm(m.T)[t]",
     "a left permutation drops the outer transpose gather"),
    ("groups.py",
     "            return t[self.perm(m.T)[t]]",
     "            return t[self.perm(m)[t]]",
     "a left permutation is built from m in place of m^T"),
    ("groups.py",
     "            left.append(self.perm(self.matrices(cand), left=True))",
     "            left.append(self.perm(self.matrices(cand)))",
     "the closure keeps right permutations where the left ones belong"),
    # -- the group tables' own checks
    ("groups.py",
     "                if center != sorted(self.ids_of(scalars).tolist()):",
     "                if False:",
     "the GL center is not compared with the scalar matrices"),
    ("groups.py",
     "    if np.any(gram != np.array(identity_flat(n), dtype=np.uint8)):",
     "    if False:",
     "O's g^T g = I check is removed"),
    ("groups.py",
     "        if len(set(map_ids)) != len(map_ids):",
     "        if False:",
     "an embedding is not checked to be injective"),
    ("groups.py",
     "    if map_ids[h.identity_id] != g.identity_id:",
     "    if False:",
     "embed_standard does not check the identity's image"),
    # -- refusals before work: admit, in the order of the causes
    ("groups.py",
     '    if kind not in ("gl", "o"):',
     "    if False:",
     "admit takes an unknown kind for O"),
    ("groups.py",
     "    if n < 1:",
     "    if False:",
     "admit takes n < 1"),
    ("groups.py",
     '    if kind == "o" and field.p == 2:',
     "    if False:",
     "admit takes O over an even q"),
    ("groups.py",
     "    if n * n >= 63 or field.q ** (n * n) >= 2 ** 63:",
     "    if n * n >= 63:",
     "admit takes codes past int64 below n^2 = 63"),
    ("groups.py",
     "        if not np.all(codes[1:] > codes[:-1]):",
     "        if False:",
     "the table's code-order check is removed"),
    ("groups.py",
     "        if len(codes) != self.order:",
     "        if False:",
     "the table's count is not checked against the closed form"),
    ("pipeline.py",
     "    if not _sums_exact(order, 1, 2 * order + 1):",
     "    if False:",
     "check_table_fits refuses no group too large for a table"),
    ("pipeline.py",
     "    if jobs < 0:",
     "    if jobs < -1:",
     "a sweep accepts jobs = -1"),
    # -- the symmetric solver
    ("symsolve.py",
     "    if not m.is_symmetric():",
     "    if False:",
     "a non-symmetric solver output is returned"),
    ("symsolve.py",
     "    if m.det() == 0:",
     "    if False:",
     "a singular solver output is returned"),
    ("symsolve.py",
     "    if mat_vec(m, phi) != v:",
     "    if False:",
     "a solver output that misses v is returned"),
    ("symsolve.py",
     "        b[m][m] = div(add(v[m], v[m]), phi[m])",
     "        b[m][m] = div(v[m], phi[m])",
     "the c = 0 corner is halved"),
    ("symsolve.py",
     "    j = next(i for i, x in enumerate(v) if x)",
     "    j = next(i for i, x in enumerate(phi) if x)",
     "j is taken from phi"),
    ("symsolve.py",
     "        if i == j:\n            continue",
     "        if False:\n            continue",
     "the rank-one sum runs over every i"),
    # -- the oracle's scan
    ("symsolve.py",
     "encode(kept[:, i], q)",
     "encode(kept[:, 0], q)",
     "every row code of the stock is its matrix's row 0"),
    ("symsolve.py",
     "np.array(phi, dtype=np.uint8)",
     "np.array(phi[::-1], dtype=np.uint8)",
     "the row fold reads phi reversed"),
    ("symsolve.py",
     "    for i in range(1, n):\n        cand",
     "    for i in range(1, n - 1):\n        cand",
     "the last coordinate of B*phi never narrows the candidates"),
    ("symsolve.py",
     "take(stock[i].take(cand))",
     "take(stock[i][:len(cand)])",
     "a later coordinate reads the first stock rows, not the candidates'"),
    ("symsolve.py",
     "cand = cand[(dots == v[i]).take(stock[i].take(cand))]",
     "cand = np.flatnonzero((dots == v[i]).take(stock[i].take(cand)))",
     "a coordinate's hits replace the candidates instead of indexing them"),
    ("symsolve.py",
     "stock[:, cand[0]]",
     "stock[:, cand[-1]]",
     "the oracle returns the last survivor, not the first"),
    ("symsolve.py",
     "    if not len(cand):",
     "    if False:",
     "an oracle with no hit fails with an IndexError, not a named one"),
    # -- the solver's and oracle's input check
    ("symsolve.py",
     "if isinstance(x, bool) or not isinstance(x, (int, np.integer)):",
     "if not isinstance(x, (int, np.integer)):",
     "a bool entry passes the input check"),
    ("symsolve.py",
     "    return tuple(map(int, phi)), tuple(map(int, v))",
     "    return phi, v",
     "numpy uint8 entries reach Fq's a*q + b and wrap"),
    # -- double cosets from the generators' own pairs
    ("cosets.py",
     "known = dict(zip(g.generator_ids, zip(left, right)))",
     "known = dict(zip(g.generator_ids, zip(right, left)))",
     "equivalent: orbits takes the set of permutations, and a pair read as "
     "(right, left) is the same two permutations"),
    ("cosets.py",
     "known = dict(zip(g.generator_ids, zip(left, right)))",
     "known = dict(zip(g.generator_ids, zip(left, left)))",
     "a reused pair carries its left permutation twice, no right one"),
    # -- group order --dump
    ("cli.py",
     'fmt=";".join([",".join(["%d"] * n)] * n))',
     'fmt=",".join([";".join(["%d"] * n)] * n))',
     "the dump swaps format_matrix's row and entry separators"),
    # -- matrix products
    ("matrix.py",
     "                bi += cols",
     "                bi += inner",
     "_mul_entries steps down b's columns by the inner size"),
    # -- the names perfbench/tracing.py patches
    ("groups.py",
     "    @property\n    def generator_ids",
     "    @functools.cached_property\n    def generator_ids",
     "generator_ids is no longer a plain property"),
    ("chartab.py",
     "from .matrix import format_matrix, mul_batch, mul_flat  # noqa: F401",
     "from .matrix import format_matrix, mul_batch",
     "chartab's mul_flat import is dropped"),
    ("groups.py",
     "from .matrix import mul_flat  # noqa: F401",
     "",
     "groups' mul_flat import is dropped"),
]


def run_mutant(file: str, old: str, new: str, run: bool) -> str | None:
    """'killed' or 'survived' (None when not run); raises LookupError
    unless old occurs exactly once."""
    with tempfile.TemporaryDirectory(prefix="gelfand-mutant-") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns(
                    "__pycache__"))
            else:
                shutil.copy2(src, tmp / name)
        path = tmp / "src" / "gelfand" / file
        text = path.read_text()
        if text.count(old) != 1:
            raise LookupError(f"{file}: found {text.count(old)} times: "
                              f"{old!r}")
        path.write_text(text.replace(old, new))
        if not run:
            return None
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(TIER1, cwd=tmp, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"  # a hang is a visible failure too
        return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    survived = stale = 0
    for file, old, new, why in MUTANTS:
        equivalent = why.startswith("equivalent:")
        try:
            verdict = run_mutant(file, old, new, run=not equivalent)
        except LookupError as exc:
            print(f"stale      {exc}", flush=True)
            stale += 1
            continue
        verdict = verdict or "equivalent"
        survived += verdict == "survived"
        print(f"{verdict:<10} {file:<12} {why}", flush=True)
    print(f"{len(MUTANTS)} mutants: {survived} survived, {stale} stale")
    return 2 if stale else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
