"""What a command costs before it computes anything: the package pins
OpenBLAS to one thread, the process-pool modules never load, as --jobs above
1 forks its workers directly, numpy.random loads only when a cascade with
eta > 0 or a synthetic network needs a stream, OpenSSL (hashlib's _hashlib)
only with numpy.random, whose secrets import loads it, and numpy.ma,
numpy.strings and numpy.char never. A
manifest hashes with the interpreter's built-in SHA-256 unless hashlib is
loaded already. Each check runs a fresh interpreter, since the test process
has loaded numpy, hashlib and numpy.random long before."""

import json
import os
import subprocess
import sys

import pytest

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
    "lazy_modules": sorted(m for m in sys.modules if m in {lazy!r}),
    "os_threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}}))
"""


# OpenSSL, which hashlib maps (~3.5 MB of RSS) and no eta = 0 sweep or phase
# needs, numpy's generators, numpy.ma, which np.unique imports on first use
# (~1.7 MB), and numpy's string functions: the bank id column is sorted and
# compared with np.sort and ==, which need neither
LAZY = ("_hashlib", "numpy.random", "numpy.ma", "numpy.strings", "numpy.char")

# the interpreter's own SHA-256: _sha2 from CPython 3.12, _sha256 before
BUILTIN_SHA256 = ("_sha2", "_sha256")

# the watched modules a process holds once cli.main(argv) returns
AFTER_COMMAND = """
import json, sys
from cascadefin import cli
code = cli.main({argv!r})
print(json.dumps({{"code": code, "modules": sorted(m for m in sys.modules
                                                    if m in {watch!r})}}))
"""


def environ(**exported) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": SRC, **exported}


def startup(before="", **exported) -> dict:
    proc = subprocess.run([sys.executable, "-c", REPORT.format(before=before, lazy=LAZY)],
                          env=environ(**exported), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def lazy_after(*argv, watch=LAZY) -> list:
    """The watch modules loaded by a command run through cli.main in a fresh
    interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", AFTER_COMMAND.format(argv=list(argv),
                                                                      watch=watch)],
                          env=environ(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state["code"] == 0
    return state["modules"]


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


def test_import_loads_neither_openssl_nor_numpy_random():
    assert startup()["lazy_modules"] == []


RAW = ("bank_id,total_assets,total_liabilities,asset_00,asset_01\n"
       "a,100.0,60.0,60.0,40.0\n"
       "b,100.0,50.0,30.0,\n")


def test_ingest_never_loads_openssl(tmp_path):
    # ingest writes no manifest, so nothing it does hashes
    raw = tmp_path / "raw.csv"
    raw.write_text(RAW)
    assert "_hashlib" not in lazy_after("ingest", "--input", str(raw),
                                        "--out", str(tmp_path / "out"))


def test_ingest_never_loads_numpy_ma(tmp_path):
    # completion groups rows by their count of known cells, without np.unique;
    # the parse tests its id column for a repeat without numpy's string functions
    raw = tmp_path / "raw.csv"
    raw.write_text(RAW)
    assert lazy_after("ingest", "--input", str(raw), "--out", str(tmp_path / "out"),
                      watch=("numpy.ma", "numpy.strings", "numpy.char")) == []


# any submodule of either loads the package itself
POOL_PACKAGES = ("concurrent", "multiprocessing")


def test_a_forked_lattice_loads_no_pool_module(tmp_path):
    # the process-pool modules cost ~2 MB of RSS, and a fork needs none of
    # them; on a host of one CPU this run forks nothing, and test_source.py's
    # import check stands alone
    argv = ["roc", "--synthetic", "n=150,label_asset=0,label_p=0.4,label_alpha=0,"
            "label_eta=0", "--p", "0.5:0.7:0.1", "--alpha", "0:1:0.5",
            "--eta", "0.1", "--replicates", "2", "--seed", "1", "--jobs", "2",
            "--out", str(tmp_path / "roc")]
    assert lazy_after(*argv, watch=POOL_PACKAGES) == []


TOY = ("bank_id,total_assets,total_liabilities,asset_00\n"
       "A,100.0,70.0,100.0\n"
       "B,100.0,55.0,100.0\n"
       "C,100.0,8.0,100.0\n")


@pytest.mark.parametrize("eta, loaded", [("0", []), ("0.2", ["_hashlib", "numpy.random"])],
                         ids=["eta-0", "eta-0.2"])
def test_numpy_random_loads_only_for_barrier_noise(eta, loaded, tmp_path):
    # an eta = 0 cascade draws nothing, so it gets no generator, and the
    # phase and sweep runs hash their input and manifest without OpenSSL; at
    # eta > 0 numpy.random's secrets import loads OpenSSL
    toy = tmp_path / "toy.csv"
    toy.write_text(TOY)
    grid = ["--input", str(toy), "--p", "0.6", "--alpha", "0:1:0.5", "--eta", eta, "--seed", "1"]
    assert lazy_after("phase", *grid, "--replicates", "2", "--out", str(tmp_path / "phase")) \
        == loaded
    assert lazy_after("sweep", *grid, "--out", str(tmp_path / "sweep")) == loaded
    run = ["run", "--input", str(toy), "--p", "0.6", "--alpha", "0.5", "--eta", eta, "--seed",
           "1", "--out", str(tmp_path / "run.json")]
    assert lazy_after(*run) == loaded


def test_a_process_that_loaded_openssl_hashes_with_it(tmp_path):
    # numpy.random has loaded hashlib at eta > 0; the built-in module mapped
    # beside OpenSSL would cost RSS for nothing
    toy = tmp_path / "toy.csv"
    toy.write_text(TOY)
    argv = ["phase", "--input", str(toy), "--p", "0.6", "--alpha", "0:1:0.5", "--eta", "0.2",
            "--replicates", "2", "--seed", "1", "--out", str(tmp_path / "phase")]
    assert lazy_after(*argv, watch=("_hashlib", *BUILTIN_SHA256)) == ["_hashlib"]
