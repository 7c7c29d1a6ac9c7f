"""What a command costs before it computes anything: the package pins
OpenBLAS to one thread, the process-pool modules never load, as --jobs above
1 forks its workers directly, numpy.random loads only when a cascade with
eta > 0 or a synthetic network needs a stream, OpenSSL (hashlib's _hashlib)
never, as the entry cli.console blocks it before numpy.random's secrets
import can load it, and numpy.ma, numpy.strings and numpy.char never. A
manifest hashes with the interpreter's built-in SHA-256. An import of the
package or an in-process cli.main leaves the host's hashing alone. Each check
runs a fresh interpreter, since the test process has loaded numpy, hashlib
and numpy.random long before."""

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


# OpenSSL, which hashlib maps (~3.5 MB of RSS) and no command needs, hashlib
# itself, which no manifest digest needs, numpy's generators, numpy.ma, which
# np.unique imports on first use (~1.7 MB), and numpy's string functions: the
# bank id column is sorted and compared with np.sort and ==, which need neither
LAZY = ("_hashlib", "hashlib", "numpy.random", "numpy.ma", "numpy.strings", "numpy.char")

# the built-in modules hashlib falls back to without OpenSSL
BUILTIN_HASHES = ("_md5", "_sha1",
                  *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")),
                  "_blake2", "_sha3")

# the watched modules a process holds once a command returns, whether it
# maps libcrypto (None where /proc/self/maps is missing) and its exit code;
# a module blocked by a None entry in sys.modules is not loaded
AFTER_COMMAND = """
import json, os, runpy, sys
{before}
sys.argv = ["cascadefin", *{argv!r}]
try:
    {run}
except SystemExit as e:
    code = e.code
maps = "/proc/self/maps"
print(json.dumps({{
    "code": code,
    "modules": sorted(m for m in {watch!r} if sys.modules.get(m) is not None),
    "libcrypto": "libcrypto" in open(maps).read() if os.path.exists(maps) else None,
}}))
"""

# a command as `python -m cascadefin.cli` and the cascadefin script run it,
# through the __main__ guard's cli.console, or as a host calls cli.main
ENTRY = 'runpy.run_module("cascadefin.cli", run_name="__main__")'
IN_PROCESS = "from cascadefin import cli; code = cli.main(sys.argv[1:])"


def environ(**exported) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": SRC, **exported}


def startup(before="", **exported) -> dict:
    proc = subprocess.run([sys.executable, "-c", REPORT.format(before=before, lazy=LAZY)],
                          env=environ(**exported), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def command(*argv, watch=LAZY, run=ENTRY, before=""):
    """(the finished process, its state) of a command run in a fresh
    interpreter; the command must exit 0."""
    script = AFTER_COMMAND.format(argv=list(argv), watch=watch, run=run, before=before)
    proc = subprocess.run([sys.executable, "-c", script], env=environ(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state["code"] == 0
    return proc, state


def lazy_after(*argv, watch=LAZY) -> list:
    """The watch modules loaded by a command run through the entry."""
    return command(*argv, watch=watch)[1]["modules"]


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
    assert lazy_after("ingest", "--input", str(raw), "--out", str(tmp_path / "out"),
                      watch=("_hashlib", "hashlib")) == []


def test_ingest_never_loads_numpy_ma(tmp_path):
    # completion groups rows by their count of known cells, without np.unique;
    # the parse tests its id column for a repeat without numpy's string functions
    raw = tmp_path / "raw.csv"
    raw.write_text(RAW)
    assert lazy_after("ingest", "--input", str(raw), "--out", str(tmp_path / "out"),
                      watch=("numpy.ma", "numpy.strings", "numpy.char")) == []


ROC = ["roc", "--synthetic", "n=150,label_asset=0,label_p=0.4,label_alpha=0,label_eta=0",
       "--p", "0.5:0.7:0.1", "--alpha", "0:1:0.5", "--eta", "0.1", "--replicates", "2",
       "--seed", "1"]


# any submodule of either loads the package itself
POOL_PACKAGES = ("concurrent", "multiprocessing")


def test_a_forked_lattice_loads_no_pool_module(tmp_path):
    # the process-pool modules cost ~2 MB of RSS, and a fork needs none of
    # them; on a host of one CPU this run forks nothing, and test_source.py's
    # import check stands alone
    assert lazy_after(*ROC, "--jobs", "2", "--out", str(tmp_path / "roc"),
                      watch=POOL_PACKAGES) == []


TOY = ("bank_id,total_assets,total_liabilities,asset_00\n"
       "A,100.0,70.0,100.0\n"
       "B,100.0,55.0,100.0\n"
       "C,100.0,8.0,100.0\n")


@pytest.mark.parametrize("eta, loaded", [("0", []), ("0.2", ["hashlib", "numpy.random"])],
                         ids=["eta-0", "eta-0.2"])
def test_numpy_random_loads_only_for_barrier_noise(eta, loaded, tmp_path):
    # an eta = 0 cascade draws nothing, so it gets no generator, and the
    # phase and sweep runs hash their input and manifest with the built-in
    # SHA-256; at eta > 0 numpy.random's secrets import loads hashlib, and
    # the entry's block keeps OpenSSL out of it
    toy = tmp_path / "toy.csv"
    toy.write_text(TOY)
    grid = ["--input", str(toy), "--p", "0.6", "--alpha", "0:1:0.5", "--eta", eta, "--seed", "1"]
    assert lazy_after("phase", *grid, "--replicates", "2", "--out", str(tmp_path / "phase")) \
        == loaded
    assert lazy_after("sweep", *grid, "--out", str(tmp_path / "sweep")) == loaded
    run = ["run", "--input", str(toy), "--p", "0.6", "--alpha", "0.5", "--eta", eta, "--seed",
           "1", "--out", str(tmp_path / "run.json")]
    assert lazy_after(*run) == loaded


def test_the_entry_maps_no_openssl(tmp_path):
    # hashlib and hmac take their fallback for builds without OpenSSL
    # quietly: hashlib would log an error for a hash it could not find
    proc, state = command(*ROC, "--jobs", "2", "--out", str(tmp_path / "roc"))
    assert proc.stderr == ""
    assert state["modules"] == ["hashlib", "numpy.random"]
    assert not state["libcrypto"]


@pytest.mark.parametrize("missing", BUILTIN_HASHES)
def test_the_entry_keeps_openssl_without_every_built_in_hash(missing, tmp_path):
    # where hashlib cannot fall back for every hash, OpenSSL stays
    before = ("import importlib.util; real = importlib.util.find_spec\n"
              f"importlib.util.find_spec = lambda name, *a: None if name == {missing!r} "
              "else real(name, *a)")
    _, state = command("run", "--synthetic", "n=20", "--p", "0.5", "--eta", "0.2",
                       "--seed", "1", "--out", str(tmp_path / "run.json"), before=before)
    assert state["modules"] == ["_hashlib", "hashlib", "numpy.random"]


def test_an_in_process_main_leaves_openssl_importable(tmp_path):
    # a host that imports the package and calls cli.main keeps hashing as it
    # did: numpy.random loads hashlib with OpenSSL, and the digest still
    # takes the built-in SHA-256
    proc, state = command(*ROC, "--out", str(tmp_path / "roc"), run=IN_PROCESS,
                          watch=("_hashlib", "hashlib", "_sha256", "_sha2"))
    assert proc.stderr == ""
    sha256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert state["modules"] == sorted(["_hashlib", "hashlib", sha256])
