import json
import time
from itertools import product

import pytest

from gelfand.cli import main
from gelfand.field import field_from_q
from gelfand.matrix import MatFq
from gelfand.pipeline import default_points, run_sweep, run_verify


# ---------------------------------------------------------
# pipeline reports
# ---------------------------------------------------------

def test_run_verify_gl_1_2():
    r = run_verify("gl", 1, 2)
    assert r.passed and r.k == 1 and r.max_dim_inv == 2 and r.attained
    assert set(r.checks) == {"lemma_3_1", "corollary_3_3", "mackey_sum",
                             "dual_dims", "transpose_classes"}
    assert all(r.checks.values())


def test_run_verify_o_2_3():
    r = run_verify("o", 2, 3)
    assert r.passed and r.k == 0 and r.max_dim_inv <= 1
    assert set(r.checks) == {"theorem_4_1", "mackey_sum", "dual_dims",
                             "transpose_classes"}


def test_run_verify_rejects_even_q_for_o():
    from gelfand.errors import DomainError
    with pytest.raises(DomainError):
        run_verify("o", 1, 4)


def test_report_schema_and_shape():
    r = run_verify("gl", 1, 3)
    d = r.to_json_dict()
    assert d["schema"] == "gelfand-report/1"
    assert d["pair"] == {"kind": "gl", "n": 1, "q": 3}
    assert d["group_order"] == 48 and d["subgroup_order"] == 2
    assert d["center_order"] == 2
    assert set(d["cosets"]) == {"plain_count", "mod_center_count",
                                "sigma_fixed", "sigma_nonfixed", "k"}
    assert d["cosets"]["k"] == 1 and d["bound"] == 2
    assert all(set(c) == {"degree", "dim_inv", "dim_dual_inv"}
               for c in d["characters"])
    assert "timings" in d
    assert "timings" not in r.to_json_dict(include_timings=False)


def test_report_determinism():
    a = run_verify("gl", 1, 3).canonical_bytes()
    b = run_verify("gl", 1, 3).canonical_bytes()
    assert a == b


def test_cache_coherence(tmp_path):
    cold = run_verify("gl", 1, 3, cache_dir=tmp_path)
    assert (tmp_path / "chartab-gl2-q3-v1.json").is_file()
    warm = run_verify("gl", 1, 3, cache_dir=tmp_path)
    assert cold.canonical_bytes() == warm.canonical_bytes()
    no_cache = run_verify("gl", 1, 3)
    assert no_cache.canonical_bytes() == cold.canonical_bytes()


def test_stage_name_is_attached_to_errors():
    from gelfand.errors import CapExceededError
    with pytest.raises(CapExceededError, match=r"\[stage enumerate_group\]"):
        run_verify("gl", 2, 5, cap=100)


# ---------------------------------------------------------
# sweep
# ---------------------------------------------------------

def test_default_points():
    pts = default_points("gl")
    assert pts[0] == ("gl", 1, 2) and len(pts) == 7
    assert default_points("o") == [("o", 1, 3), ("o", 2, 3), ("o", 1, 5)]
    assert len(default_points("all")) == 10


def test_empty_sweep():
    summary = run_sweep([])
    assert summary.rows == [] and summary.all_passed
    assert "0 points" in summary.table_text()


def test_sweep_writes_reports(tmp_path):
    summary = run_sweep([("gl", 1, 2), ("o", 1, 3)], tmp_path)
    assert summary.all_passed
    assert (tmp_path / "gl-n1-q2.json").is_file()
    assert (tmp_path / "o-n1-q3.json").is_file()
    assert (tmp_path / "summary.txt").is_file()
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["all_pass"] is True and len(data["points"]) == 2
    report = json.loads((tmp_path / "gl-n1-q2.json").read_text())
    assert report["schema"] == "gelfand-report/1"


def test_sweep_records_per_point_failures():
    summary = run_sweep([("o", 1, 4), ("gl", 1, 2)])
    assert not summary.all_passed
    assert summary.rows[0].error is not None
    assert summary.rows[1].passed


def test_default_o_sweep_is_gelfand_everywhere():
    summary = run_sweep(default_points("o"))
    assert summary.all_passed and len(summary.rows) == 3
    assert all(r.k == 0 and r.max_dim_inv <= 1 and r.bound == 1
               for r in summary.rows)


# ---------------------------------------------------------
# command line
# ---------------------------------------------------------

def test_cli_field_info(capsys):
    assert main(["field", "info", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert out == "q: 4\np: 2\ne: 2\nmodulus: 1,1,1\ngenerator: 2\n"


def test_cli_field_info_json(capsys):
    assert main(["field", "info", "--q", "5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"q": 5, "p": 5, "e": 1, "modulus": [], "generator": 2}


def test_cli_field_info_bad_q(capsys):
    assert main(["field", "info", "--q", "6"]) == 2


def test_cli_group_order_and_dump(tmp_path, capsys):
    # oracle: every n x n entry tuple in lexicographic order, kept by
    # det != 0 (GL) or g^T g = I (O), written as matrix literals
    for kind, n, q in (("gl", 2, 2), ("gl", 3, 2), ("gl", 2, 4), ("o", 3, 3)):
        field = field_from_q(q)
        ident = MatFq.identity(field, n)
        expected = []
        for entries in product(range(q), repeat=n * n):
            m = MatFq(field, n, n, entries)
            if (m.det() != 0 if kind == "gl"
                    else m.transpose() * m == ident):
                expected.append(";".join(",".join(map(str, m.row(i)))
                                         for i in range(n)) + "\n")
        dump = tmp_path / f"{kind}{n}{q}.txt"
        assert main(["group", "order", "--type", kind, "--n", str(n),
                     "--q", str(q), "--dump", str(dump)]) == 0
        assert capsys.readouterr().out == f"order: {len(expected)}\n"
        assert dump.read_text() == "".join(expected)
    # lexicographically least invertible
    assert (tmp_path / "gl22.txt").read_text().startswith("0,1;1,0\n")


def test_cli_group_order_past_int64_codes_exits_2_at_once(capsys):
    # the guard trips on n^2 >= 63 without computing 3^(10^10)
    t0 = time.perf_counter()
    assert main(["group", "order", "--type", "gl", "--n", "100000",
                 "--q", "3"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "100000x100000 matrices over F_3 overflow int64" in \
        capsys.readouterr().err
    # verify and chartab refuse it before |G| is computed
    for argv, size in ((["verify", "--kind", "gl"], 100001),
                       (["chartab", "--type", "gl"], 100000)):
        t0 = time.perf_counter()
        assert main(argv + ["--n", "100000", "--q", "3"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert f"{size}x{size} matrices over F_3 overflow int64" in \
            capsys.readouterr().err


def test_cli_cosets_json(capsys):
    assert main(["cosets", "--pair", "gl", "--n", "1", "--q", "2",
                 "--mod-center", "--involution", "transpose", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 6 and data["nonfixed"] == 2 and data["k"] == 1
    assert sorted(data["nonfixed_reps"]) == ["1,0;1,1", "1,1;0,1"]


def test_cli_solve_symmetric(capsys):
    assert main(["solve-symmetric", "--q", "2", "--phi", "1,0",
                 "--v", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "B: 1,1;1,0" in out
    assert "symmetric: true invertible: true maps_phi_to_v: true" in out


def test_cli_solve_symmetric_zero_vector_is_usage_error(capsys):
    assert main(["solve-symmetric", "--q", "3", "--phi", "0,0",
                 "--v", "1,0"]) == 2


def test_cli_swap_reflection(capsys):
    assert main(["swap-reflection", "--q", "3", "--u", "1,0",
                 "--v", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "g: 0,1;1,0" in out
    assert "orthogonal: true" in out and "maps_v_to_u: true" in out


def test_cli_chartab_json_stdout(capsys):
    assert main(["chartab", "--type", "o", "--n", "2", "--q", "3",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sum(d * d for d in data["degrees"]) == 8
    assert len(data["class_reps"]) == len(data["class_sizes"])


@pytest.mark.parametrize("kind,n,q", [("gl", 3, 3), ("o", 4, 3)])
def test_the_cache_file_is_the_json_output_plus_its_schema(tmp_path, capsys,
                                                           kind, n, q):
    from gelfand.chartab import CACHE_SCHEMA, cache_path
    argv = ["chartab", "--type", kind, "--n", str(n), "--q", str(q),
            "--json", "-", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0  # computed and written
    printed = capsys.readouterr().out
    cached = json.loads(cache_path(tmp_path, kind, n, q).read_text())
    assert cached == dict(json.loads(printed), schema=CACHE_SCHEMA)
    assert main(argv) == 0  # read back
    assert capsys.readouterr().out == printed


def test_cli_chartab(tmp_path, capsys):
    assert main(["chartab", "--type", "gl", "--n", "2", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "degrees: 1,1,2" in out
    target = tmp_path / "table.json"
    assert main(["chartab", "--type", "gl", "--n", "2", "--q", "2",
                 "--json", str(target)]) == 0
    capsys.readouterr()
    data = json.loads(target.read_text())
    assert data["degrees"] == [1, 1, 2] and data["l"] == 13


def test_cli_verify_json_and_exit_codes(capsys):
    assert main(["verify", "--kind", "gl", "--n", "1", "--q", "2",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True

    assert main(["verify", "--kind", "o", "--n", "1", "--q", "4"]) == 2


def test_cli_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "--kind", "o", "--n", "2", "--q", "3",
                 "--out", str(target)]) == 0
    capsys.readouterr()
    data = json.loads(target.read_text())
    assert data["pass"] is True and data["cosets"]["k"] == 0


def test_parallel_sweep_matches_sequential(tmp_path):
    points = [("gl", 1, 2), ("gl", 1, 3), ("o", 1, 3)]
    seq = run_sweep(points, tmp_path / "seq")
    par = run_sweep(points, tmp_path / "par", jobs=3)
    assert seq.all_passed and par.all_passed
    for name in ("gl-n1-q2.json", "gl-n1-q3.json", "o-n1-q3.json"):
        a = json.loads((tmp_path / "seq" / name).read_text())
        b = json.loads((tmp_path / "par" / name).read_text())
        a.pop("timings")
        b.pop("timings")
        assert a == b


def test_cli_verify_uses_cache_dir(tmp_path, capsys):
    assert main(["verify", "--kind", "gl", "--n", "1", "--q", "3",
                 "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "chartab-gl2-q3-v1.json").is_file()


def test_cli_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GELFAND_CACHE_DIR", str(tmp_path))
    assert main(["verify", "--kind", "gl", "--n", "1", "--q", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "chartab-gl2-q2-v1.json").is_file()


@pytest.mark.parametrize("from_env", [False, True])
def test_an_empty_cache_dir_is_unset(from_env, tmp_path, capsys,
                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--kind", "gl", "--n", "1", "--q", "2"]
    if from_env:
        monkeypatch.setenv("GELFAND_CACHE_DIR", "")
    else:
        monkeypatch.delenv("GELFAND_CACHE_DIR", raising=False)
        argv += ["--cache-dir", ""]
    assert main(argv) == 0
    capsys.readouterr()
    assert list(tmp_path.glob("chartab-*.json")) == []


def test_a_sweep_of_the_default_grid_runs_in_this_process(monkeypatch,
                                                          capsys):
    from gelfand import pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(pipeline, "_pool_rows", refuse)
    assert main(["sweep", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_pass"] is True
    assert [(p["pair"]["kind"], p["pair"]["n"], p["pair"]["q"])
            for p in data["points"]] == default_points()
    summary = run_sweep()
    assert summary.all_passed
    assert [(r.kind, r.n, r.q) for r in summary.rows] == default_points()


def test_cli_sweep_empty_points(capsys):
    assert main(["sweep", "--points", ""]) == 0
    assert "0 points" in capsys.readouterr().out


def test_cli_sweep_explicit_points(tmp_path, capsys):
    assert main(["sweep", "--points", "gl:2:2,o:2:3",
                 "--out-dir", str(tmp_path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_pass"] is True
    assert [p["pair"] for p in data["points"]] == [
        {"kind": "gl", "n": 1, "q": 2}, {"kind": "o", "n": 1, "q": 3}]


def test_cli_sweep_bad_points(capsys):
    assert main(["sweep", "--points", "gl:2"]) == 2
    assert main(["sweep", "--points", "sp:2:3"]) == 2
    assert main(["sweep", "--points", "gl:x:2"]) == 2
    assert main(["sweep", "--points", "gl:1:2"]) == 2
    assert "N must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["group", "order", "--type", "gl", "--n", "0", "--q", "2"],
    ["cosets", "--pair", "gl", "--n", "0", "--q", "2"],
    ["chartab", "--type", "o", "--n", "0", "--q", "3"],
    ["verify", "--kind", "gl", "--n", "0", "--q", "2"],
    ["field", "info", "--q", str(2 ** 31 - 1)],
])
def test_cli_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    from gelfand import cli
    from gelfand.errors import InternalCheckError

    def boom(*args, **kwargs):
        raise InternalCheckError("synthetic consistency failure")

    monkeypatch.setattr(cli, "run_verify", boom)
    assert main(["verify", "--kind", "gl", "--n", "1", "--q", "2"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_sweep_exits_3_on_an_internal_error(monkeypatch, tmp_path, capsys):
    from gelfand import pipeline
    from gelfand.errors import InternalCheckError

    def boom(*args, **kwargs):
        raise InternalCheckError("synthetic consistency failure")

    monkeypatch.setattr(pipeline, "run_verify", boom)
    assert main(["sweep", "--points", "gl:2:2,gl:2:3", "--threads", "1",
                 "--out-dir", str(tmp_path)]) == 3
    assert "internal error: synthetic" in capsys.readouterr().out
    data = json.loads((tmp_path / "summary.json").read_text())
    assert [p["error_kind"] for p in data["points"]] == ["internal"] * 2


def test_crashed_worker_loses_only_its_point(monkeypatch, tmp_path, capsys):
    import os
    import time
    from gelfand import pipeline

    verify = pipeline.run_verify
    others = [("gl", 1, 2), ("o", 1, 3), ("gl", 1, 3)]
    reports = [tmp_path / f"{kind}-n{n}-q{q}.json" for kind, n, q in others]

    def crash_after_the_others(kind, n, q, **kwargs):
        if (kind, n, q) != ("gl", 1, 4):
            return verify(kind, n, q, **kwargs)
        # the other worker runs every other point; the parent writes each
        # report as its point returns, so this worker can wait for all of
        # them before it dies
        deadline = time.monotonic() + 30
        while (not all(p.exists() for p in reports)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        if all(p.exists() for p in reports):
            (tmp_path / "saw-every-report").touch()
        os._exit(1)

    monkeypatch.setattr(pipeline, "run_verify", crash_after_the_others)
    assert main(["sweep", "--points", "gl:2:4,gl:2:2,o:2:3,gl:2:3",
                 "--threads", "2", "--out-dir", str(tmp_path)]) == 3
    assert (tmp_path / "saw-every-report").exists()
    assert "internal error: worker process failed" in capsys.readouterr().out
    data = json.loads((tmp_path / "summary.json").read_text())
    assert [p["error_kind"] for p in data["points"]] == ["internal"] + \
        [None] * 3
    assert [p["pass"] for p in data["points"]] == [False, True, True, True]
    assert [p["report"] for p in data["points"]] == \
        [None] + [str(p) for p in reports]
    assert not (tmp_path / "gl-n1-q4.json").exists()


def test_points_lost_with_a_broken_pool_run_again(monkeypatch, tmp_path,
                                                 capsys):
    import os
    from gelfand import pipeline

    verify = pipeline.run_verify
    crashed = tmp_path / "crashed"

    def crash_before_the_others(kind, n, q, **kwargs):
        if (kind, n, q) == ("gl", 1, 4):
            with open(tmp_path / "attempts", "a") as fh:
                fh.write("x")
            crashed.touch()
            os._exit(1)
        if not crashed.exists():
            # the first pool: wait for the crash, which ends this worker
            deadline = time.monotonic() + 30
            while not crashed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(5)
        return verify(kind, n, q, **kwargs)

    monkeypatch.setattr(pipeline, "run_verify", crash_before_the_others)
    assert main(["sweep", "--points", "gl:2:4,gl:2:2,o:2:3,gl:2:3",
                 "--threads", "2", "--out-dir", str(tmp_path)]) == 3
    assert "internal error: worker process failed" in capsys.readouterr().out
    # the crashing point ran twice, once in the shared pool and once alone
    assert (tmp_path / "attempts").read_text() == "xx"
    data = json.loads((tmp_path / "summary.json").read_text())
    assert [p["error_kind"] for p in data["points"]] == ["internal"] + \
        [None] * 3
    assert [p["pass"] for p in data["points"]] == [False, True, True, True]
    for p in data["points"][1:]:
        assert json.loads(open(p["report"]).read())["pass"]
    assert not (tmp_path / "gl-n1-q4.json").exists()


def test_a_group_too_large_for_a_table_is_refused_unenumerated(monkeypatch,
                                                                capsys):
    from gelfand import pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(pipeline, "enumerate_gl", refuse)
    # GL6(F2) has about 2 * 10^10 elements; a raised cap lets it through
    for argv in (["verify", "--kind", "gl", "--n", "5"],
                 ["chartab", "--type", "gl", "--n", "6"]):
        assert main(argv + ["--q", "2", "--cap-group-order",
                            str(10 ** 12)]) == 2
        assert "too large for an exact character table" in \
            capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--kind", "gl", "--n", "1", "--q", "3"],
    ["chartab", "--type", "gl", "--n", "2", "--q", "3"],
    ["sweep", "--points", "gl:2:2,gl:2:3", "--threads", "1"],
])
@pytest.mark.parametrize("from_env", [False, True])
def test_a_cache_dir_that_cannot_be_made_is_refused_unenumerated(
        argv, from_env, tmp_path, monkeypatch, capsys):
    from gelfand import pipeline
    enumerated = []

    def count(*args, **kwargs):
        enumerated.append(args)
        raise AssertionError("enumerated")

    monkeypatch.setattr(pipeline, "enumerate_gl", count)
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = blocker / "cache"  # under a regular file
    if from_env:
        monkeypatch.setenv("GELFAND_CACHE_DIR", str(bad))
        assert main(argv) == 2
    else:
        assert main(argv + ["--cache-dir", str(bad)]) == 2
    assert f"cache directory '{bad}' cannot be created" in \
        capsys.readouterr().err
    assert enumerated == []


def test_a_negative_thread_count_is_refused(capsys):
    from gelfand.errors import DomainError
    # one point runs in process: an accepted count would exit 0
    assert main(["sweep", "--points", "gl:2:2", "--threads", "-1"]) == 2
    assert "worker count must be >= 0" in capsys.readouterr().err
    with pytest.raises(DomainError, match="got -3"):
        run_sweep([("gl", 1, 2)], jobs=-3)


def test_a_cache_file_missing_a_key_is_recomputed_by_verify_and_sweep(
        tmp_path, capsys):
    assert main(["verify", "--kind", "gl", "--n", "1", "--q", "3",
                 "--cache-dir", str(tmp_path)]) == 0
    path = tmp_path / "chartab-gl2-q3-v1.json"
    payload = json.loads(path.read_text())
    for argv in (["verify", "--kind", "gl", "--n", "1", "--q", "3"],
                 ["sweep", "--points", "gl:2:3", "--threads", "1"]):
        path.write_text(json.dumps({k: v for k, v in payload.items()
                                    if k != "l"}))
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
        assert json.loads(path.read_text()) == payload
    capsys.readouterr()


def test_verify_and_sweep_exit_3_on_any_crash(monkeypatch, capsys):
    from gelfand import cli, pipeline

    def crash(*args, **kwargs):
        raise KeyError("l")

    monkeypatch.setattr(cli, "run_verify", crash)
    monkeypatch.setattr(pipeline, "run_verify", crash)
    assert main(["verify", "--kind", "gl", "--n", "1", "--q", "2"]) == 3
    assert "internal error: KeyError: 'l'" in capsys.readouterr().err
    assert main(["sweep", "--points", "gl:2:2", "--threads", "1"]) == 3
    assert "internal error: 'l'" in capsys.readouterr().out


def test_sweep_domain_and_cap_errors_exit_1(tmp_path, capsys):
    assert main(["sweep", "--points", "o:2:4,gl:3:5", "--threads", "1",
                 "--cap-group-order", "100", "--out-dir", str(tmp_path)]) == 1
    assert "domain error:" in capsys.readouterr().out
    data = json.loads((tmp_path / "summary.json").read_text())
    assert [p["error_kind"] for p in data["points"]] == ["domain", "cap"]


def test_even_q_o_is_a_domain_error_at_every_size(capsys):
    # O6(F4)'s matrix codes overflow int64 and O2(F4)'s do not; both are
    # refused for q, by verify and by sweep alike
    for n in (5, 1):
        assert main(["verify", "--kind", "o", "--n", str(n),
                     "--q", "4"]) == 2
        assert "requires odd q" in capsys.readouterr().err
    summary = run_sweep([("o", 5, 4), ("o", 1, 4)])
    assert [r.error_kind for r in summary.rows] == ["domain", "domain"]
    assert all("requires odd q" in r.error for r in summary.rows)


def test_the_small_group_is_admitted_before_either_is_enumerated(
        monkeypatch, capsys):
    from gelfand import pipeline
    from gelfand.errors import DomainError

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(pipeline, "enumerate_gl", refuse)
    with pytest.raises(DomainError, match="n must be >= 1"):
        run_verify("gl", 0, 2)
    assert main(["cosets", "--pair", "gl", "--n", "0", "--q", "2"]) == 2
    assert "n must be >= 1" in capsys.readouterr().err


def test_enumerate_group_takes_either_case_and_refuses_other_kinds():
    from gelfand.errors import DomainError
    from gelfand.field import field_from_q
    from gelfand.pipeline import enumerate_group
    f3 = field_from_q(3)
    assert enumerate_group("GL", 2, f3).kind == "GL"
    assert enumerate_group("O", 2, f3).kind == "O"
    with pytest.raises(DomainError, match="unknown pair kind 'sp'"):
        enumerate_group("sp", 2, f3)


@pytest.mark.parametrize("argv", [
    ["field", "info", "--q", "4", "--threads", "2"],
    ["group", "order", "--type", "gl", "--n", "2", "--q", "2",
     "--cache-dir", "x"],
    ["verify", "--kind", "gl", "--n", "1", "--q", "2", "--threads", "2"],
    ["field", "info", "--q", "4", "--cap-group-order", "10"],
    ["solve-symmetric", "--q", "3", "--phi", "1,0", "--v", "0,1",
     "--cap-group-order", "10"],
    ["swap-reflection", "--q", "5", "--u", "1,0", "--v", "0,1",
     "--cap-group-order", "10"],
])
def test_flags_only_where_they_act(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
