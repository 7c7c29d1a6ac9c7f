"""End-to-end command-line checks, in process via cli.main except where a
check needs a fresh interpreter."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import typing
from dataclasses import fields

import pytest

from cascadefin import SyntheticConfig, cli, ingestion

from helpers import assert_same_files, host_cores, manifest_argv, serial_pool


def run_cli(*argv):
    return cli.main(list(argv))


TOY_CSV = ("bank_id,total_assets,total_liabilities,asset_00\n"
           "A,100.0,70.0,100.0\n"
           "B,100.0,55.0,100.0\n")

# bank C keeps enough slack to outlive both fire-sale rounds
TRIO_CSV = ("bank_id,total_assets,total_liabilities,asset_00\n"
            "A,100.0,70.0,100.0\n"
            "B,100.0,55.0,100.0\n"
            "C,100.0,8.0,100.0\n")

TWO_ASSET_CSV = ("bank_id,total_assets,total_liabilities,asset_00,asset_01\n"
                 "A,100.0,60.0,50.0,50.0\n"
                 "B,100.0,40.0,80.0,20.0\n")


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV)
    return str(path)


@pytest.fixture
def trio_csv(tmp_path):
    path = tmp_path / "trio.csv"
    path.write_text(TRIO_CSV)
    return str(path)


def test_version(capsys):
    assert run_cli("--version") == 0
    assert "cascadefin" in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli("explode") == 2


# --- ingest --------------------------------------------------------------

def test_ingest_completes_and_is_idempotent(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("bank_id,total_assets,total_liabilities,"
                   "asset_00,asset_01,asset_02\n"
                   "donor,100.0,60.0,60.0,10.0,30.0\n"
                   "gappy,100.0,50.0,40.0,,\n")
    out1 = tmp_path / "pass1"
    assert run_cli("ingest", "--input", str(raw), "--out", str(out1)) == 0
    assert "ingested 2 banks" in capsys.readouterr().out
    completed = out1 / "completed.csv"
    report = json.loads((out1 / "repair_report.json").read_text())
    assert report["rows"] == 2

    out2 = tmp_path / "pass2"
    assert run_cli("ingest", "--input", str(completed), "--out", str(out2)) == 0
    assert (out2 / "completed.csv").read_bytes() == completed.read_bytes()
    report2 = json.loads((out2 / "repair_report.json").read_text())
    assert report2["repairs"] == []


def test_ingest_prints_the_blank_cells_of_its_input(tmp_path, capsys):
    # completion fills the table's blanks in place, so they are counted first
    raw = tmp_path / "raw.csv"
    raw.write_text("bank_id,total_assets,total_liabilities,asset_00,asset_01,asset_02\n"
                   "donor,100.0,60.0,60.0,10.0,30.0\n"
                   "gappy,100.0,50.0,40.0,,\n"
                   "holey,100.0,50.0,,20.0,\n"
                   "off,100.0,50.0,10.0,10.0,10.0\n")
    out = tmp_path / "out"
    assert run_cli("ingest", "--input", str(raw), "--out", str(out)) == 0
    assert capsys.readouterr().out == (f"ingested 4 banks (4 blank cells completed, 1 repaired "
                                       f"rows) -> {out / 'completed.csv'}\n")
    assert run_cli("ingest", "--input", str(out / "completed.csv"),
                   "--out", str(tmp_path / "again")) == 0
    assert "(0 blank cells completed, 0 repaired rows)" in capsys.readouterr().out


def test_duplicate_bank_id_is_a_schema_error(tmp_path, capsys):
    raw = tmp_path / "dup.csv"
    raw.write_text(TRIO_CSV + "B,100.0,50.0,100.0\n")
    message = "row 5: duplicate bank_id 'B', first on row 3"
    assert run_cli("ingest", "--input", str(raw), "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert run_cli("run", "--input", str(raw)) == 2
    assert message in capsys.readouterr().err


def test_ingest_rejects_bad_schema(tmp_path, capsys):
    raw = tmp_path / "bad.csv"
    raw.write_text("name,total_assets,total_liabilities,asset_00\nA,1,1,1\n")
    assert run_cli("ingest", "--input", str(raw)) == 2
    assert "schema error" in capsys.readouterr().err


def test_ingest_rejects_a_column_nobody_reports(tmp_path, capsys):
    raw = tmp_path / "blank_column.csv"
    raw.write_text(TWO_ASSET_CSV.splitlines(keepends=True)[0] +
                   "a,10,5,10,\n"
                   "b,10,5,5,\n")
    assert run_cli("ingest", "--input", str(raw), "--out", str(tmp_path / "out")) == 2
    assert ("schema error: bank a: asset 1 missing but its average weight is undefined"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# --- run -----------------------------------------------------------------

def test_run_prints_cascade_json(toy_csv, tmp_path, capsys):
    assert run_cli("run", "--input", toy_csv, "--p", "0.6", "--alpha", "1") == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["fates"] == [1, 2]
    assert doc["rounds"] == 2
    assert doc["price_index"][0] == pytest.approx(0.15, rel=1e-12)
    assert doc["survival_fraction_all"] == 0.0
    assert doc["survival_fraction_labeled"] is None
    assert doc["params"] == {"alpha": 1.0, "eta": 0.0, "shocked_assets": {"0": 0.6}}
    assert text.count('"seed"') == 1 and doc["seed"] == 0
    assert list(doc) == ["params", "seed", "rounds", "fates", "price_index",
                         "survival_fraction_all", "survival_fraction_labeled",
                         "diagnostics"]
    # labeled survival counts the labeled banks of the network only
    labels = tmp_path / "labels.csv"
    labels.write_text("bank_id\nB\nghost\n")
    assert run_cli("run", "--input", toy_csv, "--p", "0.6", "--alpha", "1",
                   "--labels", str(labels)) == 0
    assert json.loads(capsys.readouterr().out)["survival_fraction_labeled"] == 0.0
    assert run_cli("run", "--input", toy_csv, "--labels", str(labels)) == 0
    gentle = json.loads(capsys.readouterr().out)
    assert gentle["fates"] == [None, None]
    assert (gentle["survival_fraction_all"], gentle["survival_fraction_labeled"]) == (1.0, 1.0)


def test_run_out_file_matches_stdout(toy_csv, tmp_path, capsys):
    args = ("run", "--input", toy_csv, "--p", "0.6", "--alpha", "1")
    assert run_cli(*args) == 0
    streamed = capsys.readouterr().out
    out = tmp_path / "result.json"
    assert run_cli(*args, "--out", str(out)) == 0
    assert out.read_text() == streamed


def test_run_merges_extra_shocks(tmp_path, capsys):
    csv_path = tmp_path / "two.csv"
    csv_path.write_text(TWO_ASSET_CSV)
    assert run_cli("run", "--input", str(csv_path), "--p", "0.8",
                   "--shock", "1:0.5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["shocked_assets"] == {"0": 0.8, "1": 0.5}
    # A: 50*0.8 + 50*0.5 = 65 >= 60 holds; B: 64 + 10 = 74 >= 40 holds
    assert doc["fates"] == [None, None]


def test_run_rejects_ranges(toy_csv, capsys):
    assert run_cli("run", "--input", toy_csv, "--p", "0:1:0.5") == 2
    assert "usage error" in capsys.readouterr().err


def test_run_rejects_bad_shock_spec(toy_csv, capsys):
    assert run_cli("run", "--input", toy_csv, "--shock", "oops") == 2


def test_run_missing_input_is_runtime_error(capsys):
    assert run_cli("run", "--input", "/nonexistent/net.csv") == 1
    assert "error" in capsys.readouterr().err


def test_run_needs_exactly_one_source(toy_csv, capsys):
    assert run_cli("run") == 2
    assert run_cli("run", "--input", toy_csv, "--synthetic", "n=10") == 2


def test_run_checks_asset_range(toy_csv, capsys):
    assert run_cli("run", "--input", toy_csv, "--asset", "5") == 2
    assert "out of range" in capsys.readouterr().err


# --- seed resolution -----------------------------------------------------

def test_eta_without_seed_is_refused(toy_csv, capsys):
    assert run_cli("run", "--input", toy_csv, "--eta", "0.26") == 2
    assert "--seed is required" in capsys.readouterr().err


def test_environment_does_not_change_outputs(tmp_path, monkeypatch, capsys):
    # no environment variable stands in for a flag: the same command line
    # writes the same bytes whatever the caller has exported
    argv = ("phase", "--synthetic", "n=200", "--p", "0.6", "--alpha", "0:1:0.25",
            "--eta", "0", "--replicates", "1")
    outs = [tmp_path / "plain", tmp_path / "exported"]
    assert run_cli(*argv, "--out", str(outs[0])) == 0
    monkeypatch.setenv("CASCADEFIN_SEED", "77")
    assert run_cli(*argv, "--out", str(outs[1])) == 0
    for name in ("phase.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert json.loads((outs[0] / "manifest.json").read_text())["config"]["seed"] == 0


# --- sweep ---------------------------------------------------------------

def test_sweep_writes_csv_and_manifest(toy_csv, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--input", toy_csv, "--p", "0:1:0.5",
                   "--alpha", "0:1:1", "--out", str(out)) == 0
    lines = (out / "survival.csv").read_text().splitlines()
    assert lines[0] == "p,alpha,eta,survival_all,survival_labeled"
    assert len(lines) == 1 + 3 * 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["tool"]["name"] == "cascadefin"
    assert manifest["config"]["input_sha256"]
    digest = hashlib.sha256((out / "survival.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["survival.csv"] == digest


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 1_000_003])
@pytest.mark.parametrize("module", ["hashlib-loaded", "built-in", "hashlib-fallback"])
def test_manifest_digest_is_plain_sha256(module, size, tmp_path, monkeypatch):
    # _sha256 reads 65,536-byte blocks with the interpreter's built-in
    # SHA-256, even once hashlib is loaded; hashlib only where the
    # interpreter has no built-in module
    data = (bytes(range(251)) * (size // 251 + 1))[:size]
    path = tmp_path / "data"
    path.write_bytes(data)
    expected = hashlib.sha256(data).hexdigest()
    calls = []
    if module == "hashlib-loaded":
        real = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda: calls.append(1) or real())
    else:
        monkeypatch.delitem(sys.modules, "hashlib")
    if module == "hashlib-fallback":
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
    assert cli._sha256(path) == expected
    assert calls == []
    assert ("hashlib" in sys.modules) == (module != "built-in")


def test_sweep_eta_must_be_scalar(toy_csv, capsys):
    assert run_cli("sweep", "--input", toy_csv, "--eta", "0:0.5:0.1",
                   "--seed", "1") == 2


def test_sweep_bytes_stable_across_runs_and_jobs(toy_csv, tmp_path, capsys):
    outs = [tmp_path / f"o{i}" for i in range(3)]
    base = ("sweep", "--input", toy_csv, "--p", "0:1:0.25", "--alpha", "0:1:0.5",
            "--eta", "0.26", "--seed", "11")
    assert run_cli(*base, "--out", str(outs[0])) == 0
    assert run_cli(*base, "--out", str(outs[1])) == 0
    assert run_cli(*base, "--jobs", "2", "--out", str(outs[2])) == 0
    ref_csv = (outs[0] / "survival.csv").read_bytes()
    ref_man = (outs[0] / "manifest.json").read_bytes()
    assert json.loads(ref_man)["config"]["seed"] == 11
    for out in outs[1:]:
        assert (out / "survival.csv").read_bytes() == ref_csv
        assert (out / "manifest.json").read_bytes() == ref_man


# --- roc -----------------------------------------------------------------

def test_roc_requires_labels(toy_csv, capsys):
    assert run_cli("roc", "--input", toy_csv, "--p", "0.6", "--alpha", "0",
                   "--eta", "0") == 2
    assert "requires --labels" in capsys.readouterr().err


def test_roc_with_label_file(trio_csv, tmp_path, capsys):
    labels = tmp_path / "failed.csv"
    labels.write_text("bank_id\nA\nB\n")
    out = tmp_path / "roc"
    assert run_cli("roc", "--input", trio_csv, "--labels", str(labels),
                   "--p", "0.6", "--alpha", "0:1:1", "--eta", "0",
                   "--out", str(out)) == 0
    lines = (out / "roc.csv").read_text().splitlines()
    assert lines[0] == "alpha,eta,p,split,fpr,tpr,tp_count"
    assert len(lines) == 1 + 2 * 3
    assert "1.0,0.0,0.6,full,0.0,1.0,2" in lines
    # the manifest alone replays the run, byte for byte
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["labels_sha256"] == hashlib.sha256(labels.read_bytes()).hexdigest()
    replayed = tmp_path / "replayed"
    assert run_cli(*manifest_argv(out), "--out", str(replayed)) == 0
    assert_same_files(out, replayed)


def test_roc_from_synthetic_label_cascade(tmp_path, capsys):
    out = tmp_path / "roc"
    assert run_cli("roc", "--synthetic",
                   "n=150,label_asset=0,label_p=0.4,label_alpha=0,label_eta=0",
                   "--p", "0.4:0.8:0.4", "--alpha", "0:0.2:0.2",
                   "--eta", "0", "--out", str(out)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["labels"] is None and "label_asset=0" in config["synthetic"]
    assert len((out / "roc.csv").read_text().splitlines()) == 1 + 4 * 3


def test_roc_without_a_labeled_bank_exits_2(tmp_path, capsys):
    # the label cascade fails every bank, so no negative is left
    out = tmp_path / "roc"
    assert run_cli("roc", "--synthetic",
                   "n=300,label_asset=1,label_p=0.4,label_alpha=0.2,label_eta=0",
                   "--p", "0.2:1:0.2", "--alpha", "0:0.8:0.4", "--eta", "0:0.2:0.1",
                   "--replicates", "4", "--seed", "5", "--out", str(out)) == 2
    assert "the labels give 300 positive and 0 negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ids, counts", [("X\nY\n", "0 positive and 3 negative"),
                                         ("A\nB\nC\nX\n", "3 positive and 0 negative")],
                         ids=["disjoint", "all-labeled"])
def test_roc_label_file_without_both_classes_exits_2(ids, counts, trio_csv, tmp_path,
                                                     capsys):
    labels = tmp_path / "failed.csv"
    labels.write_text("bank_id\n" + ids)
    out = tmp_path / "roc"
    assert run_cli("roc", "--input", trio_csv, "--labels", str(labels), "--p", "0.6",
                   "--alpha", "0", "--eta", "0", "--out", str(out)) == 2
    assert f"usage error: roc needs at least one positive and one negative bank; " \
        f"the labels give {counts}" in capsys.readouterr().err
    assert not out.exists()


def test_roc_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # labels are a frozenset of strings, whose iteration order follows the
    # interpreter's string hash seed
    labels = tmp_path / "failed.csv"
    labels.write_text("bank_id\n" + "".join(f"B{i:05d}\n" for i in range(0, 120, 3)))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"roc{hash_seed}"
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, "-m", "cascadefin.cli", "roc", "--synthetic", "n=120",
                        "--labels", str(labels), "--p", "0.3:0.9:0.3", "--alpha", "0:0.4:0.2",
                        "--eta", "0:0.2:0.1", "--replicates", "2", "--seed", "3",
                        "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    for name in ("roc.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert len((outs[0] / "roc.csv").read_text().splitlines()) == 1 + 27 * 3


# --- labels that name no bank --------------------------------------------

@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("source, banks", [("file", 3), ("label-cascade", 50)])
def test_labels_naming_no_bank_exit_2(command, source, banks, trio_csv, tmp_path, capsys):
    labels = tmp_path / "failed.csv"
    labels.write_text("bank_id\nX\nY\n")
    # the label cascade leaves the market unshocked, so it fails no bank
    flags = (["--input", trio_csv, "--labels", str(labels)] if source == "file" else
             ["--synthetic", "n=50,label_asset=0,label_p=1,label_alpha=0,label_eta=0"])
    out = tmp_path / "out"
    assert run_cli(command, *flags, "--p", "0.6", "--out", str(out)) == 2
    assert f"usage error: the labels name none of the network's {banks} banks" \
        in capsys.readouterr().err
    assert not out.exists()


def test_synthetic_spec_round_trips_every_field():
    # every field set away from its default and written back as a spec parses
    # to an equal config of the same types: each key is read as its field's type
    config = SyntheticConfig(n=7, assets=3, concentration=2.5, median=10.0, sigma=0.5,
                             lev_low=0.5, lev_high=0.75, sparsity=0.25, label_asset=2,
                             label_p=0.5, label_alpha=0.125, label_eta=0.25, label_seed=3)
    values = {f.name: getattr(config, f.name) for f in fields(SyntheticConfig)}
    assert all(values[f.name] != f.default for f in fields(SyntheticConfig))
    parsed = cli._parse_synthetic(",".join(f"{k}={v!r}" for k, v in values.items()))
    assert parsed == config
    assert [type(getattr(parsed, k)) for k in values] == list(map(type, values.values()))


def test_synthetic_spec_errors(capsys):
    assert run_cli("run", "--synthetic", "assets=13") == 2          # n missing
    assert run_cli("run", "--synthetic", "n=10,flavor=mild") == 2   # unknown key
    assert run_cli("run", "--synthetic", "n=10,label_p=0.5") == 2   # partial label spec
    assert run_cli("run", "--synthetic", "n=ten") == 2


# --- phase ---------------------------------------------------------------

def test_phase_one_axis_output(toy_csv, tmp_path, capsys):
    out = tmp_path / "phase"
    assert run_cli("phase", "--input", toy_csv, "--p", "0.6",
                   "--alpha", "0:1:1", "--eta", "0", "--replicates", "1",
                   "--out", str(out)) == 0
    assert (out / "phase.csv").read_text() == ("alpha,mean_survival,ci_half,region\n"
                                               "0.0,0.5,,I\n"
                                               "1.0,0.0,,II\n")
    assert "max step drop" in capsys.readouterr().out


def test_phase_needs_an_axis(toy_csv, capsys):
    assert run_cli("phase", "--input", toy_csv, "--p", "0.6", "--alpha", "0.5",
                   "--eta", "0") == 2
    assert run_cli("phase", "--input", toy_csv, "--p", "0:1:0.5",
                   "--alpha", "0:1:0.5", "--eta", "0:0.5:0.25",
                   "--seed", "1") == 2


def test_phase_bytes_stable_across_runs_and_jobs(tmp_path, capsys):
    outs = [tmp_path / f"o{i}" for i in range(3)]
    base = ("phase", "--synthetic", "n=100", "--p", "0.5", "--alpha", "0:1:0.5",
            "--eta", "0.1", "--replicates", "2", "--seed", "3")
    assert run_cli(*base, "--out", str(outs[0])) == 0
    assert run_cli(*base, "--out", str(outs[1])) == 0
    assert run_cli(*base, "--jobs", "2", "--out", str(outs[2])) == 0
    ref_csv = (outs[0] / "phase.csv").read_bytes()
    ref_man = (outs[0] / "manifest.json").read_bytes()
    for out in outs[1:]:
        assert (out / "phase.csv").read_bytes() == ref_csv
        assert (out / "manifest.json").read_bytes() == ref_man


# --- bad inputs are usage errors, caught before any network is built -------

MISSING = "/nonexistent/net.csv"   # any check that ran later would exit 1 on it
HEADER_ONLY = "<a CSV with a header and no data row>"
A_FILE = "<an existing regular file>"
A_DIR = "<an existing directory>"
NOT_FINITE = "--synthetic: concentration, median, sigma and leverage must be finite"
OVERFLOW = "--synthetic: the spec gives no valid network: holdings has a non-finite value"
LABELS_NEEDED = ("--synthetic: label cascade needs ['label_alpha', 'label_asset', 'label_eta', "
                 "'label_p']")


@pytest.mark.parametrize("argv, message", [
    (["roc", "--input", MISSING, "--labels", MISSING, "--p", "0.5", "--alpha", "0",
      "--eta", "0", "--replicates", "0"], "argument --replicates: must be >= 1, got 0"),
    (["phase", "--input", MISSING, "--replicates", "0", "--eta", "0"],
     "argument --replicates: must be >= 1, got 0"),
    (["phase", "--input", MISSING, "--threshold", "7", "--eta", "0"],
     "argument --threshold: must be in [0, 1], got 7.0"),
    (["phase", "--input", MISSING, "--threshold", "nan", "--eta", "0"],
     "argument --threshold: must be in [0, 1], got nan"),
    (["run", "--input", MISSING, "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["run", "--input", MISSING, "--alpha", "2"], "--alpha: 2.0 is outside [0, 1]"),
    (["run", "--input", MISSING, "--eta", "0.7", "--seed", "1"],
     "--eta: 0.7 is outside [0, 0.5]"),
    (["run", "--input", MISSING, "--p", "1.5"], "--p: 1.5 is outside [0, 1]"),
    (["sweep", "--input", MISSING, "--p", "0:1.5:0.5"], "--p: 1.5 is outside [0, 1]"),
    (["run", "--input", MISSING, "--shock", "2:1.5"], "--shock 2:1.5: p 1.5 is outside [0, 1]"),
    (["run", "--input", MISSING, "--asset", "0", "--p", "0.5", "--shock", "0:0.9",
      "--shock", "0:0.7"], "--shock 0:0.9: asset 0 is already shocked"),
    (["phase", "--input", MISSING, "--eta", "0", "--jobs", "0"],
     "argument --jobs: must be >= 1, got 0"),
    (["sweep", "--input", MISSING, "--jobs", "-3"], "argument --jobs: must be >= 1, got -3"),
    (["roc", "--input", MISSING, "--p", "0:1:0.001", "--alpha", "0:1:0.001", "--eta", "0"],
     "the grid has 1002001 cells, more than 1000000"),
    (["sweep", "--input", MISSING, "--p", "0:1:0.0005", "--alpha", "0:1:0.001"],
     "the grid has 2003001 cells, more than 1000000"),
    (["run", "--input", MISSING, "--alpha", "0:inf:1"], "need finite lo <= hi and step > 0"),
    (["run", "--synthetic", "n=10,concentration=0"],
     "--synthetic: concentration and median must be positive"),
    (["run", "--synthetic", "n=10,concentration=-1"],
     "--synthetic: concentration and median must be positive"),
    (["run", "--synthetic", "n=10,median=-5"],
     "--synthetic: concentration and median must be positive"),
    (["run", "--input", MISSING, "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    (["phase", "--input", MISSING, "--labels", MISSING, "--eta", "0"],
     "unrecognized arguments: --labels"),
    (["run", "--synthetic", "n=10,sigma=nan"], NOT_FINITE),
    (["run", "--synthetic", "n=10,sigma=inf"], NOT_FINITE),
    (["run", "--synthetic", "n=10,median=inf"], NOT_FINITE),
    (["run", "--synthetic", "n=10,concentration=inf"], NOT_FINITE),
    (["run", "--synthetic", "n=10,lev_high=inf"], NOT_FINITE),
    (["run", "--synthetic", "n=10,sigma=-3"], "--synthetic: sigma must be non-negative"),
    (["run", "--synthetic", "n=50,sigma=1000", "--p", "0.5"], OVERFLOW),
    (["run", "--synthetic", "n=50,median=1e308", "--p", "0.5"], OVERFLOW),
    (["phase", "--synthetic", "n=50,label_asset=0,label_p=0.3,label_alpha=0,label_eta=0",
      "--eta", "0"], "--synthetic: phase takes no labels; drop the label_* keys"),
    (["run", "--input", MISSING, "--config", MISSING], "unrecognized arguments: --config"),
    (["run", "--input", HEADER_ONLY], "schema error: no data rows in input"),
    (["ingest", "--input", HEADER_ONLY], "schema error: no data rows in input"),
    (["sweep", "--synthetic", "n=50,label_asset=0,label_p=0.3,label_alpha=0,label_eta=0",
      "--labels", MISSING, "--p", "0.5", "--alpha", "0"],
     "--labels and the --synthetic label_* keys both give labels; drop one"),
    (["run", "--synthetic", "n=10,sigma"], "--synthetic: expected key=value, got 'sigma'"),
    (["run", "--synthetic", "n=10,sigma=abc"], "--synthetic: bad value for sigma: 'abc'"),
    (["run", "--input", MISSING, "--p", "0:x:0.5"], "--p: non-numeric range bound in '0:x:0.5'"),
    (["run", "--input", MISSING, "--p", "1:1:1e-17"],
     "--p: '1:1:1e-17' repeats values once rounded to 12 decimals"),
    (["sweep", "--input", MISSING, "--p", "0.5:0.5000000000005:1e-13"],
     "--p: '0.5:0.5000000000005:1e-13' repeats values once rounded to 12 decimals"),
    (["phase", "--input", MISSING, "--eta", "0", "--jobs", "x"],
     "argument --jobs: expected int, got 'x'"),
    (["sweep", "--synthetic", "n=20", "--p", "0.5", "--alpha", "0", "--out", A_FILE],
     f"usage error: --out '{A_FILE}': '{A_FILE}' is not a directory"),
    (["phase", "--input", MISSING, "--eta", "0", "--out", f"{A_FILE}/sub"],
     f"usage error: --out '{A_FILE}/sub': '{A_FILE}' is not a directory"),
    (["ingest", "--input", MISSING, "--out", A_FILE],
     f"usage error: --out '{A_FILE}': '{A_FILE}' is not a directory"),
    (["run", "--synthetic", "n=20", "--p", "0.5", "--out", A_DIR],
     f"usage error: --out '{A_DIR}' is a directory; run writes one file"),
    (["run", "--input", MISSING, "--out", f"{A_DIR}/missing/result.json"],
     f"usage error: --out '{A_DIR}/missing/result.json': '{A_DIR}/missing' is not a directory"),
    (["run", "--synthetic", "n=3,n=2", "--p", "0.5"], "--synthetic: key 'n' given twice"),
    (["run", "--synthetic", "n=50,label_asset=0,label_p=0.3,label_alpha=0,label_eta=0,"
      "label_p=0.9", "--p", "0.5"], "--synthetic: key 'label_p' given twice"),
    (["run", "--synthetic", "n=5,label_seed=0"], LABELS_NEEDED),
    (["run", "--synthetic", "n=5,label_seed=2"], LABELS_NEEDED),
], ids=["roc-replicates-0", "phase-replicates-0", "phase-threshold-7", "phase-threshold-nan",
        "seed-negative",
        "alpha-2", "eta-0.7", "p-1.5", "p-range-past-1", "shock-p-1.5", "shock-twice", "jobs-0",
        "jobs-negative", "roc-grid-too-large", "sweep-grid-too-large", "range-infinite",
        "concentration-0", "concentration-negative", "median-negative", "run-jobs",
        "phase-labels", "sigma-nan", "sigma-inf", "median-inf", "concentration-inf",
        "lev-high-inf", "sigma-negative", "sigma-overflow", "median-overflow",
        "phase-label-cascade", "run-config", "run-header-only",
        "ingest-header-only", "two-label-sources", "synthetic-key-without-value",
        "synthetic-bad-value", "range-non-numeric", "range-one-point-repeats",
        "range-repeats-values", "jobs-non-numeric", "sweep-out-file", "phase-out-under-file",
        "ingest-out-file", "run-out-dir", "run-out-in-missing-dir", "synthetic-key-twice",
        "synthetic-label-key-twice", "label-seed-0-alone", "label-seed-2-alone"])
def test_bad_input_exits_2_before_loading(argv, message, tmp_path, capsys):
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(TOY_CSV.splitlines(keepends=True)[0])
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_dir").mkdir()
    paths = {HEADER_ONLY: str(header_only), A_FILE: str(tmp_path / "a_file"),
             A_DIR: str(tmp_path / "a_dir")}
    for placeholder, path in paths.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
        message = message.replace(placeholder, path)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before   # nothing created


# a spreadsheet's plain "CSV" export writes Latin-1; the text reader decodes a
# chunk ahead of the row it parses, so the error must find the line itself
LATIN1_CSV = (TOY_CSV + "Soci\xe9t\xe9,100.0,55.0,100.0\n").encode("latin-1")
LATIN1_LABELS = "bank_id\nB00001\n\nSoci\xe9t\xe9\n".encode("latin-1")
NOT_UTF8 = "schema error: line 4: byte 0xe9 is not UTF-8"
ONE_GOOD_ROW = "bank_id,total_assets,total_liabilities,asset_00,asset_01,asset_02\na,10,5,4,6,0\n"
ONE_ASSET = "bank_id,total_assets,total_liabilities,asset_00\n"
# each row matches its total, but the asset column's sum overflows
COLUMN_OVERFLOW = (TWO_ASSET_CSV.splitlines(keepends=True)[0]
                   + "a,1e308,5,1e308,0\nb,1e308,5,1e308,0\n").encode()
COLUMN_INF = "schema error: column 'asset_00' sums to inf over all rows"
ROW_OVERFLOW = (ONE_GOOD_ROW + "b,1e308,1e308,1e308,1e308,0\n").encode()
# row a's weight for asset_00 is 1e10 / 1e-300, which overflows; row c fills from it
WEIGHT_OVERFLOW = (TWO_ASSET_CSV.splitlines(keepends=True)[0]
                   + "a,1e-300,0,1e10,0\nb,10,5,5,5\nc,10,5,,5\n").encode()
# row b holds nothing, so completion fills all of it, asset 0 from that weight
ZERO_ROW_WEIGHT_OVERFLOW = (TWO_ASSET_CSV.splitlines(keepends=True)[0]
                            + "a,1e-300,0,1e10,0\nb,10,5,0,0\n").encode()


@pytest.mark.parametrize("argv, content, message", [
    (["ingest", "--input"], LATIN1_CSV, NOT_UTF8),
    (["run", "--input"], LATIN1_CSV, NOT_UTF8),
    (["run", "--synthetic", "n=20", "--labels"], LATIN1_LABELS, NOT_UTF8),
    (["run", "--input"], (ONE_GOOD_ROW + "c,1.1,412488.16,784568.14,297480.13,0.0\n").encode(),
     "row 3: holdings sum 1082048.27 does not match total_assets 1.1; run ingest first"),
    (["run", "--input"], ROW_OVERFLOW,
     "row 3: holdings sum inf does not match total_assets 1e+308; run ingest first"),
    (["ingest", "--input"], (ONE_ASSET + '"a\rb",10,5,10\n').encode(),
     "schema error: row 2: bank_id contains a line break"),
    (["run", "--input"], (ONE_ASSET + 'a,10,5,10\n"b\nc",10,5,10\n').encode(),
     "schema error: row 3: bank_id contains a line break"),
    (["ingest", "--input"], COLUMN_OVERFLOW, COLUMN_INF),
    (["run", "--input"], COLUMN_OVERFLOW, COLUMN_INF),
    (["ingest", "--input"], (ONE_GOOD_ROW + "b,1e308,5,1e308,1e308,\n").encode(),
     "schema error: bank b: reported holdings sum to inf"),
    (["ingest", "--input"], (ONE_ASSET + "a,10,5,\u0663\n").encode(),
     "schema error: row 2: column 'asset_00' has non-numeric value '\u0663'"),
    (["ingest", "--input"], (ONE_ASSET + "a,1_000,5,1000\n").encode(),
     "schema error: row 2: column 'total_assets' has non-numeric value '1_000'"),
    (["ingest", "--input"], (ONE_ASSET + "a,-10,5,0\n").encode(),
     "schema error: row 2: negative totals"),
    (["ingest", "--input"], (ONE_ASSET + "a,10,-5,10\n").encode(),
     "schema error: row 2: negative totals"),
    (["ingest", "--input"], WEIGHT_OVERFLOW,
     "schema error: bank c: asset 0 missing but its average weight overflows to inf"),
    (["ingest", "--input"], ZERO_ROW_WEIGHT_OVERFLOW,
     "schema error: bank b: every holding is 0, and refilling the row needs asset 0, "
     "whose average weight overflows to inf"),
    (["ingest", "--input"], b"bank_id,total_assets,total_liabilities\na,10,5\n",
     "schema error: no asset_NN columns found"),
    (["run", "--input"], b"", "schema error: empty file: missing header row"),
], ids=["ingest-latin1", "run-latin1", "labels-latin1", "run-row-misses-total",
        "run-row-sums-to-inf", "ingest-id-cr", "run-id-lf", "ingest-column-sums-to-inf",
        "run-column-sums-to-inf", "ingest-known-cells-sum-to-inf", "ingest-arabic-indic-digit",
        "ingest-underscore", "ingest-negative-total-assets", "ingest-negative-liabilities",
        "ingest-average-weight-overflows",
        "ingest-zero-row-fills-from-inf-weight", "ingest-no-asset-columns", "run-empty-file"])
def test_bad_file_exits_2(argv, content, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)   # where an ingest that wrongly succeeds writes
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert run_cli(*argv, str(path)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, content", [
    (["run", "--synthetic", "n=50,sigma=1000", "--p", "0.5"], None),
    (["run", "--synthetic", "n=50,median=1e308", "--p", "0.5"], None),
    (["run", "--input"], COLUMN_OVERFLOW),
    (["ingest", "--input"], COLUMN_OVERFLOW),
    (["run", "--input"], ROW_OVERFLOW),
    (["ingest", "--input"], WEIGHT_OVERFLOW),
], ids=["sigma-overflow", "median-overflow", "run-column-overflow", "ingest-column-overflow",
        "run-row-overflow", "ingest-average-weight-overflow"])
def test_overflow_errors_print_one_line(argv, content, tmp_path):
    # a fresh interpreter, since pytest records warnings instead of printing them
    if content is not None:
        path = tmp_path / "overflow.csv"
        path.write_bytes(content)
        argv = [*argv, str(path)]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "cascadefin.cli", *argv, "--out",
                           str(tmp_path / "out")], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_shock_asset_out_of_range_exits_2(toy_csv, capsys):
    assert run_cli("run", "--input", toy_csv, "--shock", "99:0.5") == 2
    assert "--shock 99 out of range (network has 1 assets)" in capsys.readouterr().err


def test_label_cascade_out_of_domain_exits_2(capsys):
    # each message names the --synthetic key, not the flag of the same name
    spec = "n=10,label_asset={},label_p={},label_alpha={},label_eta={}"
    for values, message in [((99, 0.5, 0, 0), "label_asset 99 out of range (13 assets)"),
                            ((0, 1.5, 0, 0), "label_p must be in [0, 1], got 1.5"),
                            ((0, 0.5, 2, 0), "label_alpha must be in [0, 1], got 2.0"),
                            ((0, 0.5, 0, 0.9), "label_eta must be in [0, 0.5], got 0.9")]:
        assert run_cli("run", "--synthetic", spec.format(*values), "--seed", "1") == 2
        assert f"usage error: --synthetic: {message}" in capsys.readouterr().err
    assert run_cli("run", "--synthetic", spec.format(0, 0.5, 0, 0) + ",label_seed=-1") == 2
    assert "label_seed must be non-negative" in capsys.readouterr().err


def test_jobs_clamped_to_core_count(toy_csv, tmp_path, monkeypatch):
    sizes = serial_pool(monkeypatch)
    host_cores(monkeypatch, 2)
    assert run_cli("phase", "--input", toy_csv, "--p", "0.6", "--alpha", "0:1:0.25",
                   "--eta", "0", "--replicates", "2", "--jobs", "64",
                   "--out", str(tmp_path)) == 0
    assert sizes == [2]


def test_range_counted_before_allocating(monkeypatch, capsys):
    real_arange = cli.np.arange

    def bounded_arange(n):
        assert n <= cli.MAX_CELLS, "allocated an oversized axis"
        return real_arange(n)

    monkeypatch.setattr(cli.np, "arange", bounded_arange)
    assert run_cli("phase", "--input", MISSING, "--eta", "0", "--alpha", "0:1:1e-12") == 2
    assert "--alpha: '0:1:1e-12' has more than 1000000 values" in capsys.readouterr().err


@pytest.mark.parametrize("text, values", [
    ("0:0.5:0.3", [0.0, 0.3]),
    ("0.1:0.2:0.15", [0.1]),
    ("0:1:0.6", [0.0, 0.6]),
    ("0.5:0.5:0.1", [0.5]),
    ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),    # 0.3 / 0.1 is 2.9999999999999996
    ("0.05:0.45:0.2", [0.05, 0.25, 0.45]),
    ("0.1:1:0.15", [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0]),
    ("0:1:0.02", [k / 50 for k in range(51)]),
])
def test_range_holds_lo_plus_k_steps_up_to_hi(text, values):
    assert cli._parse_values(text, "p") == values


# --- one number grammar at every door ---------------------------------------

# each form with its value as a float door and as an int door read it, None
# where the reader refuses it; a float door reads what a CSV cell reads
FORMS = {"1_0": (None, None), "\u0663": (None, None), "\uff11": (None, None),
         "+1": (1.0, 1), " 1 ": (1.0, 1), "1e3": (1000.0, None), "0x1": (None, None),
         "inf": (math.inf, None)}
RUN = ["run", "--synthetic", "n=5"]
PHASE = ["phase", "--synthetic", "n=5", "--alpha", "0:1:0.5", "--eta", "0"]


def _csv_cell(form, tmp):
    path = tmp / "cell.csv"
    path.write_text(f"bank_id,total_assets,total_liabilities,asset_00\na,1,0.5,{form}\n",
                    encoding="utf-8")
    return ["ingest", "--input", str(path), "--out", str(tmp / "out")]


# each door: (the kind it reads, its command line for a form, the values it
# takes, the message that refuses a form it cannot read)
DOORS = {
    "csv-cell": (float, _csv_cell, (0.0, sys.float_info.max),
                 "column 'asset_00' has non-numeric value"),
    "p": (float, lambda f, tmp: [*RUN, "--p", f], (0.0, 1.0), "--p: expected a number"),
    "range-bound": (float, lambda f, tmp: ["phase", "--synthetic", "n=5", "--alpha",
                                           f"0:{f}:0.5", "--eta", "0", "--out", str(tmp)],
                    (0.0, 1.0), "--alpha: non-numeric range bound"),
    "shock-asset": (int, lambda f, tmp: [*RUN, "--shock", f"{f}:0.5"], (1, 12),
                    "--shock: expected asset:p"),
    "shock-p": (float, lambda f, tmp: [*RUN, "--shock", f"1:{f}"], (0.0, 1.0),
                "--shock: expected asset:p"),
    "asset": (int, lambda f, tmp: [*RUN, "--asset", f], (0, 12),
              "argument --asset: expected int"),
    "seed": (int, lambda f, tmp: [*RUN, "--seed", f], (0, math.inf),
             "argument --seed: expected int"),
    "replicates": (int, lambda f, tmp: [*PHASE, "--replicates", f, "--out", str(tmp)],
                   (1, math.inf), "argument --replicates: expected int"),
    "threshold": (float, lambda f, tmp: [*PHASE, "--threshold", f, "--out", str(tmp)],
                  (0.0, 1.0), "argument --threshold: expected float"),
    "jobs": (int, lambda f, tmp: [*PHASE, "--jobs", f, "--out", str(tmp)], (1, math.inf),
             "argument --jobs: expected int"),
    "synthetic-int": (int, lambda f, tmp: ["run", "--synthetic", f"n={f}"], (1, math.inf),
                      "--synthetic: bad value for n"),
    "synthetic-float": (float, lambda f, tmp: ["run", "--synthetic", f"n=5,lev_high={f}"],
                        (0.85, sys.float_info.max), "--synthetic: bad value for lev_high"),
}


@pytest.mark.parametrize("door", DOORS)
def test_every_door_reads_numbers_as_a_csv_cell_does(door, tmp_path, capsys):
    # a form the reader refuses exits 2 naming the door's flag, key or column;
    # one it reads is refused only when its value lies outside the door's domain
    kind, argv_for, (lo, hi), refusal = DOORS[door]
    seen, expected = {}, {}
    for form, values in FORMS.items():
        value = values[kind is int]
        code = run_cli(*argv_for(form, tmp_path))
        seen[form] = (code, refusal in capsys.readouterr().err)
        expected[form] = (0 if value is not None and lo <= value <= hi else 2, value is None)
    assert seen == expected


def test_every_numeric_flag_and_spec_key_is_read_by_the_reader(monkeypatch):
    # a bare int or float type reads 1_0 as 10 and \u0663 as 3
    read = []
    monkeypatch.setattr(cli, "number", lambda text, kind: read.append(text) or
                        ingestion.number(text, kind))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    typed = [a for sp in subparsers.choices.values() for a in sp._actions if a.type is not None]
    assert {a.dest for a in typed} == {"asset", "seed", "replicates", "threshold", "jobs"}
    for action in typed:
        read.clear()
        assert action.type("1") == 1 and read == ["1"], action.dest
        for form in ("1_0", "\u0663", "\uff11"):
            with pytest.raises(argparse.ArgumentTypeError):
                action.type(form)
    # a spec value is read as its field's type, so each must be a number's
    # kind: a bool field would read "False" as True
    types = typing.get_type_hints(SyntheticConfig)
    assert {f.name: types[f.name] for f in fields(SyntheticConfig)
            if types[f.name] not in (int, float)} == {}


# --- pinned output bytes ---------------------------------------------------

# a hand-written two-asset market; A, C and E are the labeled failures
MARKET_CSV = ("bank_id,total_assets,total_liabilities,asset_00,asset_01\n"
              "A,100.0,70.0,100.0,0.0\n"
              "B,100.0,55.0,60.0,40.0\n"
              "C,200.0,150.0,50.0,150.0\n"
              "D,80.0,30.0,40.0,40.0\n"
              "E,120.0,100.0,90.0,30.0\n"
              "F,50.0,10.0,0.0,50.0\n")
LABELS = "<a label file naming A, C and E>"


@pytest.mark.parametrize("argv, name, digest", [
    (["run", "--labels", LABELS, "--p", "0.4", "--alpha", "0.8", "--eta", "0.2",
      "--seed", "3"], "result.json",
     "118d99ad23a75df2412a25bd82e8c979a7eda892bb388669adce249363bdebc8"),
    (["sweep", "--labels", LABELS, "--p", "0.4:1:0.3", "--alpha", "0:0.5:0.25",
      "--eta", "0"], "survival.csv",
     "5d0b96b8b60f09f40c8f5a4deaeb54a6554dc7ac5901b737fc86820b8a7b1857"),
    (["roc", "--labels", LABELS, "--p", "0.5:0.9:0.2", "--alpha", "0:0.6:0.3",
      "--eta", "0:0.2:0.1", "--replicates", "3", "--seed", "7"], "roc.csv",
     "1b2545549f834c61f26956fee9b8d99a698b35d8cfab3ca4975968458fac78ae"),
    (["phase", "--p", "0.6", "--alpha", "0:1:0.25", "--eta", "0", "--replicates", "2"],
     "phase.csv", "1201a946facffc8a8bce8d91baca9a05a29b8446aacfa9d500d0a08dd3c8f59d"),
    (["phase", "--p", "0.4:1:0.3", "--alpha", "0:0.8:0.4", "--eta", "0.1",
      "--replicates", "3", "--seed", "5"], "phase.csv",
     "7585fdcc060c4775bafe5e256423820cc519442321be23ce4ed3f21168cde0c9"),
    # eta = 0 runs its cascade without a generator, on the bytes it wrote with one
    (["run", "--labels", LABELS, "--p", "0.4", "--alpha", "0.8", "--eta", "0",
      "--shock", "1:0.7"], "result.json",
     "d50cd2e55f3688c4857ca409146c193e5f068ba1abfa042e329d88aacb307832"),
], ids=["run", "sweep", "roc", "phase-1d-eta-0", "phase-2d", "run-eta-0"])
def test_output_bytes_are_pinned(argv, name, digest, tmp_path, capsys):
    # reruns agreeing with each other would miss a change that moves every
    # run's bytes alike; these digests would not
    market = tmp_path / "market.csv"
    market.write_text(MARKET_CSV)
    labels = tmp_path / "failed.csv"
    labels.write_text("bank_id\nA\nC\nE\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = [str(labels) if arg == LABELS else arg for arg in argv]
    dest = out / name if argv[0] == "run" else out
    assert run_cli(*argv, "--input", str(market), "--out", str(dest)) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digests", [
    (["sweep", "--synthetic", "n=300,label_asset=0,label_p=0.5,label_alpha=0.1,label_eta=0",
      "--p", "0:1:0.25", "--alpha", "0:0.2:0.1", "--eta", "0.1", "--seed", "4"],
     {"survival.csv": "36e974e6ee92c384f19393d28d49dc2a0aae1c78be52584815c1e856a2ef810f",
      "manifest.json": "d0a8af039d1222c81d6cc5114f8ddb092fa6d86c7977ee9be1b19114bc559e3d"}),
], ids=["sweep-eta-0.1-labeled"])
def test_synthetic_output_bytes_are_pinned(argv, digests, tmp_path, capsys):
    # at eta > 0 every cell's stream key (seed, cell index, replicate) reaches
    # the bytes, so a change in cell order moves them; --seed 5 writes others
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
