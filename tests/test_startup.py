"""`import gelfand` starts numpy with one OpenBLAS thread, unless the caller
chose a thread count or numpy was imported first."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gelfand

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(gelfand.__file__).resolve().parents[1])


def _fresh(code: str, **preset: str) -> dict:
    """Run code in a fresh interpreter whose environment has none of the
    thread variables but those preset; return the JSON it prints."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(preset)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


READ = ("import json, os; print(json.dumps({k: os.environ.get(k) for k in "
        + repr(THREAD_VARS) + "}))")


def test_import_sets_one_openblas_thread():
    assert _fresh("import gelfand; " + READ) == {
        "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
        "OMP_NUM_THREADS": None}


@pytest.mark.parametrize("var, value", [("OPENBLAS_NUM_THREADS", "3"),
                                        ("GOTO_NUM_THREADS", "2"),
                                        ("OMP_NUM_THREADS", "2")])
def test_a_preset_thread_count_wins(var, value):
    seen = _fresh("import gelfand; " + READ, **{var: value})
    assert seen == {k: value if k == var else None for k in THREAD_VARS}


def test_numpy_imported_first_is_left_alone():
    seen = _fresh("import numpy, gelfand; " + READ)
    assert seen == dict.fromkeys(THREAD_VARS)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc/self/task")
def test_the_process_has_one_thread_after_import():
    assert _fresh("import gelfand, gelfand.pipeline, json, os; "
                  "print(len(os.listdir('/proc/self/task')))") == 1
