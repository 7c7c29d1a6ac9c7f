"""The command-line boundary under generated input.

Every command line either succeeds (exit 0) or is refused as a usage or
schema error (exit 2); exit 1 is left to faults of the environment, such as a
missing file. numpy RuntimeWarnings are raised as errors here, so a bad input
that only a warning betrays shows up as an exit 1. An exit 0 writes only
finite numbers, and a sweep, roc or phase that exits 0 writes a manifest
whose command line alone rewrites every file byte for byte.

Bank and asset counts stay small: a large count is a valid request whose only
cost is memory.
"""

import csv
import json
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadefin import cli

from helpers import assert_same_files, manifest_argv

BOUNDARY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

HEADER = "bank_id,total_assets,total_liabilities"
TEXT_COLUMNS = {"bank_id", "split", "region"}


@st.composite
def mostly(draw, valid, bad):
    """A draw from valid nine times in ten, else from bad: most rows of a
    file then get past the first check and reach the arithmetic."""
    return draw(bad if draw(st.integers(0, 9)) == 0 else valid)


BAD_NUMBER = st.one_of(st.sampled_from(["-1", "-1e308", "inf", "-inf", "nan", " ", "x",
                                        "1_000", "\u0663", "0x10"]),
                       st.floats(allow_nan=True, allow_infinity=True).map(repr))
# numbers as a user may type them, at every magnitude, or malformed
NUMBER = mostly(
    st.one_of(st.sampled_from(["0", "1", "0.5", "0.9", "10", "5e-324", "1e-300", "1e10",
                               "1e300", "1e308"]),
              st.floats(0, 1e6).map(repr)),
    BAD_NUMBER)
CELL = mostly(NUMBER, st.just(""))
BAD_GRID = st.sampled_from(["-1", "2", "nan", "inf", "x", "", "0:inf:1", "0.2:0.1:0.1",
                            "0:1:0", "0:1", "0.5:0.5000000000005:1e-13"])
COUNT = (st.integers(1, 40).map(str),
         st.sampled_from(["0", "-2", "", "x", "1.5", "1e3", "1_0", "\u0663", "\uff11"]))
# each command-line slot as (valid, bad): valid values reach the edges of
# their domain, bad values lie outside it
SYNTHETIC_KEYS = {
    "assets": COUNT,
    "concentration": (st.sampled_from(["5e-324", "1e-300", "0.5", "8", "1e10", "1e300"]),
                      st.one_of(st.just("0"), BAD_NUMBER)),
    "median": (st.sampled_from(["5e-324", "1e-300", "1", "1e5", "1e300"]),
               st.one_of(st.just("0"), BAD_NUMBER)),
    "sigma": (st.one_of(st.sampled_from(["0", "1.2", "5"]), st.floats(0, 10).map(repr)),
              st.one_of(st.sampled_from(["1000", "1e308"]), BAD_NUMBER)),
    "lev_low": (st.sampled_from(["0", "5e-324", "0.5", "0.85"]),
                st.one_of(st.sampled_from(["0.99", "1e308"]), BAD_NUMBER)),
    "lev_high": (st.sampled_from(["0.9", "0.98", "1", "1.5", "1e10"]),
                 st.one_of(st.sampled_from(["0", "0.5"]), BAD_NUMBER)),
    "sparsity": (st.one_of(st.sampled_from(["0", "0.5", "0.99"]), st.floats(0, 0.999).map(repr)),
                 st.one_of(st.sampled_from(["1", "1e308"]), BAD_NUMBER)),
}
# a label cascade that, on ten or more banks, fails some and spares others,
# as roc needs
LABEL_CASCADE = {
    "label_asset": (st.sampled_from(["0", "0", "1"]), st.sampled_from(["-1", "99", "x"])),
    "label_p": (st.sampled_from(["0", "0.2", "0.3"]), st.one_of(st.just("1.5"), BAD_NUMBER)),
    "label_alpha": (st.sampled_from(["0", "0.05"]), st.one_of(st.just("2"), BAD_NUMBER)),
    "label_eta": (st.sampled_from(["0", "0.1"]), st.one_of(st.just("0.7"), BAD_NUMBER)),
}
# valid --p, --alpha and --eta values: (scalars, ranges of two or more values)
GRIDS = {
    "--p": (["0", "0.5", "1", "5e-324"], ["0:1:0.5", "0.4:0.6:0.1"]),
    "--alpha": (["0", "0.1", "1", "1e-300"], ["0:1:0.5", "0:0.2:0.1"]),
    "--eta": (["0", "0.1", "0.5", "1e-300"], ["0:0.5:0.25", "0:0.1:0.1"]),
}
# the grids each command may take as ranges
RANGED = {"run": st.just(set()), "sweep": st.sets(st.sampled_from(["--p", "--alpha"])),
          "roc": st.sets(st.sampled_from(list(GRIDS))),
          "phase": st.sets(st.sampled_from(list(GRIDS)), min_size=1, max_size=2)}
FLAGS = {
    # no --seed is bad only when an eta is above 0
    "--seed": (st.sampled_from(["0", "3"]), st.sampled_from([None, "-1", "x"])),
    "--asset": (st.sampled_from(["0", "0", "1"]), st.sampled_from(["12", "13", "-1"])),
    "--replicates": (st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1"])),
}


def _check_finite(path):
    """Every number in an output file, a CSV or else JSON, is finite."""
    if not path.endswith(".csv"):
        def refuse(constant):   # json writes inf and NaN as these bare words
            raise AssertionError(f"{path}: {constant}")
        with open(path) as fh:
            json.load(fh, parse_constant=refuse)
        return
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    for row in rows:
        for name, field in zip(header, row):
            if name not in TEXT_COLUMNS and field:
                assert math.isfinite(float(field)), (path, name, field)


def run_checked(argv, out) -> int:
    """cli.main's exit code, checked to be 0 or 2 and, on 0, the finite
    contents of everything written to out."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code in (0, 2), argv
    if code == 0 and os.path.exists(out):
        paths = [out] if os.path.isfile(out) else \
            [os.path.join(out, name) for name in os.listdir(out)]
        for path in paths:
            _check_finite(path)
    return code


@st.composite
def synthetic_argv(draw):
    """A --synthetic command line with at most one slot out of its domain,
    so that most lines get past the checks and run their lattice."""
    command = draw(st.sampled_from(["run", "sweep", "roc", "phase"]))
    keys = draw(st.lists(st.sampled_from(sorted(SYNTHETIC_KEYS)), unique=True, max_size=4))
    ranges = draw(RANGED[command])
    flags = [*GRIDS, *(flag for flag in FLAGS
                       if flag != "--replicates" or command in ("roc", "phase"))]
    # roc needs labels and phase takes none; bad swaps the two
    label_slot = ["labels"] if command in ("roc", "phase") else []
    labelled = command == "roc" or (command != "phase" and draw(st.booleans()))
    bad = draw(st.one_of(st.none(), st.sampled_from(
        ["n", *keys, *label_slot, *(LABEL_CASCADE if labelled else ()), *flags])))

    def value(slot, valid_bad):
        return draw(valid_bad[slot == bad])

    items = [f"n={value('n', (st.integers(10 if labelled else 1, 40).map(str), COUNT[1]))}"]
    items += [f"{key}={value(key, SYNTHETIC_KEYS[key])}" for key in keys]
    if labelled != (bad == "labels"):
        items += [f"{key}={value(key, pair)}" for key, pair in LABEL_CASCADE.items()]
    argv = [command, "--synthetic", ",".join(items)]
    for flag in flags:
        pair = (st.sampled_from(GRIDS[flag][flag in ranges]), BAD_GRID) if flag in GRIDS \
            else FLAGS[flag]
        if (text := value(flag, pair)) is not None:
            argv += [flag, text]
    return argv


@BOUNDARY
@given(synthetic_argv())
@example(["run", "--synthetic", "n=50,sigma=1000", "--p", "0.5"])                 # (a)
@example(["run", "--synthetic", "n=50,median=1e308", "--p", "0.5"])               # (a)
@example(["run", "--synthetic", "n=50,sigma=-3"])
# concentration=1e-300 puts every holding in asset 8: a shock on any other
# asset, by --asset, --shock or label_asset, moves nothing and is refused
@example(["run", "--synthetic", "n=50,concentration=1e-300", "--p", "0.5"])
@example(["phase", "--synthetic", "n=50,concentration=1e-300", "--eta", "0"])
@example(["run", "--synthetic", "n=50,concentration=1e-300", "--asset", "8",
          "--shock", "0:0.5"])
@example(["roc", "--synthetic",
          "n=50,concentration=1e-300,label_asset=0,label_p=0.3,label_alpha=0,label_eta=0",
          "--asset", "8", "--p", "0.5", "--alpha", "0", "--eta", "0"])
@example(["sweep", "--synthetic", "n=20", "--p", "0.5:0.5000000000005:1e-13"])
@example(["run", "--synthetic", "n=3,n=2", "--p", "0.5"])
@example(["run", "--synthetic", "n=5,label_seed=0"])
# a number the CSV reader refuses, at each door of the command line
@example(["run", "--synthetic", "n=5", "--p", "\uff11"])
@example(["phase", "--synthetic", "n=5", "--alpha", "0:0.2:0.1_0", "--eta", "0"])
@example(["run", "--synthetic", "n=5", "--shock", "1_0:0.5"])
@example(["run", "--synthetic", "n=5", "--shock", "1:0.5_0"])
@example(["run", "--synthetic", "n=5", "--asset", "1_0"])
@example(["run", "--synthetic", "n=5", "--seed", "1_0"])
@example(["phase", "--synthetic", "n=5", "--eta", "0", "--replicates", "\u0663"])
@example(["phase", "--synthetic", "n=5", "--eta", "0", "--threshold", "0.0_5"])
@example(["phase", "--synthetic", "n=5", "--eta", "0", "--jobs", "\u0662"])
@example(["run", "--synthetic", "n=1_0"])
@example(["run", "--synthetic", "n=5,lev_high=\uff11"])
def test_synthetic_command_lines_exit_0_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if run_checked([*argv, "--out", out], out) == 0 and argv[0] != "run":
            replayed = os.path.join(tmp, "replayed")
            assert run_checked([*manifest_argv(out), "--out", replayed], replayed) == 0
            assert_same_files(out, replayed)


@st.composite
def small_csv(draw):
    """A small balance-sheet CSV as bytes: ids, totals and cells drawn from
    the edges of what the schema accepts. Most totals are the sum of the
    row's cells, so that most rows reach completion."""
    n_assets = draw(st.integers(1, 3))
    lines = [HEADER + "".join(f",asset_{m:02d}" for m in range(n_assets))]
    for _ in range(draw(st.integers(0, 4))):
        bank_id = draw(st.sampled_from(["a", "b", "c", "a ", "", '"x,y"', '"q""r"']))
        cells = [draw(CELL) for _ in range(n_assets)]
        total = draw(NUMBER)
        if draw(st.booleans()):
            try:
                total = repr(sum(float(c) for c in cells if c))
            except ValueError:
                pass
        cells = [total, draw(NUMBER), *cells]
        if draw(st.integers(0, 19)) == 0:
            cells.pop()
        lines.append(",".join([bank_id, *cells]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return (newline.join(lines) + newline).encode()


ONE_ASSET = "bank_id,total_assets,total_liabilities,asset_00\n"
TWO_ASSETS = "bank_id,total_assets,total_liabilities,asset_00,asset_01\n"
THREE_ASSETS = TWO_ASSETS[:-1] + ",asset_02\n"


@BOUNDARY
@given(small_csv())
@example((ONE_ASSET + "A,100,70,100\n").encode("latin-1")
         + "Soci\xe9t\xe9,100,55,100\n".encode("latin-1"))                      # (c)
@example((THREE_ASSETS + "a,10,5,4,6,0\nc,1.1,412488.16,784568.14,297480.13,0.0\n").encode())
@example((THREE_ASSETS + "a,10,5,4,6,0\nb,1e308,1e308,1e308,1e308,0\n").encode())  # (b)
@example((ONE_ASSET + '"a\rb",10,5,10\n').encode())                               # (d)
@example((ONE_ASSET + 'a,10,5,10\n"b\nc",10,5,10\n').encode())                    # (d)
@example((TWO_ASSETS + "a,1e308,5,1e308,0\nb,1e308,5,1e308,0\n").encode())        # (e)
@example((THREE_ASSETS + "a,10,5,4,6,0\nb,1e308,5,1e308,1e308,\n").encode())      # (e)
@example((ONE_ASSET + "a,10,5,٣\n").encode())                                # (g)
@example((ONE_ASSET + "a,1_000,5,1000\n").encode())                               # (g)
@example((TWO_ASSETS + "a,1e-300,0,1e10,0\nb,10,5,5,5\nc,10,5,,5\n").encode())
@example((TWO_ASSETS + "a,1e-300,0,1e10,0\nb,10,5,5,5\n").encode())
@example((TWO_ASSETS + "a,1e-300,0,1e10,0\nb,10,5,0,0\n").encode())
@example((TWO_ASSETS + "a,10,5,0,10\nb,10,5,0,10\n").encode())   # nobody holds asset 0
def test_small_csv_files_exit_0_or_2(content):
    # ingest the file, then run on it as given and on ingest's output
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "out")
        with open(path, "wb") as fh:
            fh.write(content)
        if run_checked(["ingest", "--input", path, "--out", out], out) == 0:
            completed = os.path.join(out, "completed.csv")
            run_checked(["run", "--input", completed, "--p", "0.5", "--alpha", "0.5",
                         "--out", os.path.join(tmp, "ingested.json")],
                        os.path.join(tmp, "ingested.json"))
        run_checked(["run", "--input", path, "--p", "0.5", "--alpha", "0.5",
                     "--out", os.path.join(tmp, "raw.json")], os.path.join(tmp, "raw.json"))


def test_a_worthless_shocked_asset_is_refused(tmp_path):
    # concentration=1e-300 leaves asset 0 with no holdings anywhere: a shock
    # there moves nothing, so the run is refused before it writes a byte
    out = tmp_path / "result.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_checked(["run", "--synthetic", "n=50,concentration=1e-300", "--p", "0.5",
                            "--out", str(out)], str(out)) == 2
    assert not out.exists()
