"""What a command costs before it computes anything: the package pins
OpenBLAS to one thread, and the process-pool modules load only when --jobs
above 1 starts a pool. Each check runs a fresh interpreter, since the test
process has loaded numpy and the pool long before."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the state a process is in once `import cascadefin.cli` returns
REPORT = """
import json, os, sys
{before}
import cascadefin.cli
task = "/proc/self/task"
print(json.dumps({{
    "pool_modules": sorted(m for m in sys.modules
                           if m.split(".")[0] in ("concurrent", "multiprocessing")),
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "os_threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}}))
"""


def environ(**exported) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": SRC, **exported}


def startup(before="", **exported) -> dict:
    proc = subprocess.run([sys.executable, "-c", REPORT.format(before=before)],
                          env=environ(**exported), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_pool_and_pins_one_blas_thread():
    state = startup()
    assert state["pool_modules"] == []
    assert state["blas_threads"] == "1"
    if sys.platform.startswith("linux"):
        assert state["os_threads"] == 1


def test_an_exported_blas_thread_count_stands():
    assert startup(OPENBLAS_NUM_THREADS="3")["blas_threads"] == "3"


def test_a_process_that_loaded_numpy_first_is_left_alone():
    assert startup(before="import numpy")["blas_threads"] is None


def test_the_blas_thread_count_changes_no_byte(tmp_path):
    argv = ["phase", "--synthetic", "n=200", "--p", "0.6", "--alpha", "0:1:0.25",
            "--eta", "0.2", "--replicates", "3", "--seed", "5"]
    outs = [tmp_path / "pinned", tmp_path / "exported-4"]
    for out, exported in zip(outs, ({}, {"OPENBLAS_NUM_THREADS": "4"})):
        proc = subprocess.run([sys.executable, "-m", "cascadefin.cli", *argv,
                               "--out", str(out)], env=environ(**exported),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    for name in ("phase.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
