"""End-to-end command-line checks, all in process via cli.main."""

import json
import os

import pytest

from cascadefin import cli


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


def test_ingest_rejects_bad_schema(tmp_path, capsys):
    raw = tmp_path / "bad.csv"
    raw.write_text("name,total_assets,total_liabilities,asset_00\nA,1,1,1\n")
    assert run_cli("ingest", "--input", str(raw)) == 2
    assert "schema error" in capsys.readouterr().err


# --- run -----------------------------------------------------------------

def test_run_prints_cascade_json(toy_csv, capsys):
    assert run_cli("run", "--input", toy_csv, "--p", "0.6", "--alpha", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fates"] == [1, 2]
    assert doc["rounds"] == 2
    assert doc["price_index"][0] == pytest.approx(0.15, rel=1e-12)
    assert doc["survival_fraction_all"] == 0.0
    assert doc["params"]["shocked_assets"] == {"0": 0.6}
    assert list(doc) == ["params", "seed", "rounds", "fates", "price_index",
                         "survival_fraction_all", "survival_fraction_labeled",
                         "diagnostics"]


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

def test_eta_without_seed_is_refused(toy_csv, capsys, monkeypatch):
    monkeypatch.setenv("CASCADEFIN_SEED", "7")
    assert run_cli("run", "--input", toy_csv, "--eta", "0.26") == 2
    assert "--seed is required" in capsys.readouterr().err


def test_env_seed_used_at_eta_zero(toy_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CASCADEFIN_SEED", "77")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--input", toy_csv, "--p", "1", "--alpha", "0",
                   "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 77


def test_env_seed_must_be_integer(toy_csv, monkeypatch, capsys):
    monkeypatch.setenv("CASCADEFIN_SEED", "many")
    assert run_cli("run", "--input", toy_csv) == 2


def test_explicit_seed_wins(toy_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CASCADEFIN_SEED", "77")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--input", toy_csv, "--p", "1", "--alpha", "0",
                   "--seed", "5", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 5


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
    import hashlib
    digest = hashlib.sha256((out / "survival.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["survival.csv"] == digest


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


def test_roc_from_synthetic_label_cascade(tmp_path, capsys):
    out = tmp_path / "roc"
    assert run_cli("roc", "--synthetic",
                   "n=150,label_asset=0,label_p=0.4,label_alpha=0,label_eta=0",
                   "--p", "0.4:0.8:0.4", "--alpha", "0:0.2:0.2",
                   "--eta", "0", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["labels"] == "synthetic-reference-cascade"
    assert len((out / "roc.csv").read_text().splitlines()) == 1 + 4 * 3


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


# --- config files --------------------------------------------------------

def test_config_file_supplies_flags(toy_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 0.6\nalpha = 1  # full impact\n\n")
    assert run_cli("run", "--input", toy_csv, "--config", str(cfg)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fates"] == [1, 2]


def test_cli_flags_override_config(toy_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 0.6\nalpha = 1\n")
    assert run_cli("run", "--input", toy_csv, "--config", str(cfg),
                   "--p", "1.0") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fates"] == [None, None]


def test_config_errors(toy_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    assert run_cli("run", "--input", toy_csv, "--config", str(cfg)) == 2
    assert run_cli("run", "--input", toy_csv, "--config") == 2


# --- bad inputs are usage errors, caught before any network is built -------

MISSING = "/nonexistent/net.csv"   # any check that ran later would exit 1 on it


@pytest.mark.parametrize("argv, message", [
    (["roc", "--input", MISSING, "--labels", MISSING, "--p", "0.5", "--alpha", "0",
      "--eta", "0", "--replicates", "0"], "--replicates must be >= 1"),
    (["phase", "--input", MISSING, "--replicates", "0", "--eta", "0"],
     "--replicates must be >= 1"),
    (["phase", "--input", MISSING, "--threshold", "7", "--eta", "0"],
     "--threshold must be in [0, 1]"),
    (["run", "--input", MISSING, "--seed", "-1"], "--seed must be a non-negative integer"),
    (["run", "--input", MISSING, "--alpha", "2"], "--alpha: 2.0 is outside [0, 1]"),
    (["run", "--input", MISSING, "--eta", "0.7", "--seed", "1"],
     "--eta: 0.7 is outside [0, 0.5]"),
    (["run", "--input", MISSING, "--p", "1.5"], "--p: 1.5 is outside [0, 1]"),
    (["sweep", "--input", MISSING, "--p", "0:1.5:0.5"], "--p: 1.5 is outside [0, 1]"),
    (["run", "--input", MISSING, "--shock", "2:1.5"], "--shock 2:1.5: p 1.5 is outside [0, 1]"),
], ids=["roc-replicates-0", "phase-replicates-0", "phase-threshold-7", "seed-negative",
        "alpha-2", "eta-0.7", "p-1.5", "p-range-past-1", "shock-p-1.5"])
def test_bad_input_exits_2_before_loading(argv, message, capsys):
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err


def test_negative_env_seed_exits_2(toy_csv, monkeypatch, capsys):
    monkeypatch.setenv("CASCADEFIN_SEED", "-1")
    assert run_cli("run", "--input", toy_csv) == 2
    assert "CASCADEFIN_SEED must be a non-negative integer" in capsys.readouterr().err


def test_shock_asset_out_of_range_exits_2(toy_csv, capsys):
    assert run_cli("run", "--input", toy_csv, "--shock", "99:0.5") == 2
    assert "--shock 99 out of range (network has 1 assets)" in capsys.readouterr().err


def test_label_cascade_out_of_domain_exits_2(capsys):
    spec = "n=10,label_asset={},label_p={},label_alpha=0,label_eta=0"
    assert run_cli("run", "--synthetic", spec.format(99, 0.5)) == 2
    assert "label_asset 99 out of range (13 assets)" in capsys.readouterr().err
    assert run_cli("run", "--synthetic", spec.format(0, 1.5)) == 2
    assert "p must be in [0, 1]" in capsys.readouterr().err
    assert run_cli("run", "--synthetic", spec.format(0, 0.5) + ",label_seed=-1") == 2
    assert "label_seed must be non-negative" in capsys.readouterr().err
