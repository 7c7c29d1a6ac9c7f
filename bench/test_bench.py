"""Tests of the benchmark itself: span arithmetic and the output checks.

    python3 -m pytest bench/test_bench.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import checks  # noqa: E402
import fixtures  # noqa: E402
import tracer as tr  # noqa: E402
from cascadefin import cli  # noqa: E402


def span(id, name, start, end, parent=None, work=0):
    return tr.Span(id, name, start, end, parent, "test", work)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 6.0, parent=0),      # overlaps a: [1, 6] is covered once
        span(3, "a.child", 2.0, 3.0, parent=1),
        span(4, "c", 9.0, 12.0, parent=0),     # runs past the parent: only [9, 10] counts
    ]
    got = tr.self_times(spans)
    assert got == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_lattice_splits_into_its_parts():
    spans = [
        span(0, "cli.main", 0.0, 20.0),
        span(1, "cli.phase_scan", 1.0, 15.0, parent=0),
        span(2, "evaluation.stream", 1.5, 2.0, parent=1),
        span(3, "evaluation.run_cascade", 2.0, 8.0, parent=1, work=1),
        span(4, "cascade.evaluate_round", 2.5, 4.0, parent=3, work=100),
        span(5, "cascade.apply_fire_sales", 4.0, 5.0, parent=3),
        span(6, "cascade.evaluate_round", 5.5, 6.0, parent=3, work=60),
        span(7, "evaluation.stream", 8.0, 8.5, parent=1),
        span(8, "evaluation.run_cascade", 8.5, 14.0, parent=1, work=0),
        span(9, "cascade.evaluate_round", 9.0, 13.0, parent=8, work=100),
        span(10, "cli.write_phase_csv", 16.0, 17.0, parent=0),
    ]
    m = tr.layer_metrics(spans, {"n_assets": 13})
    parts = ("cascade.barrier_s", "cascade.fire_sale_s", "cascade.bookkeeping_s",
             "evaluation.stream_s", "evaluation.self_s")
    assert m["evaluation.lattice_s"] == pytest.approx(14.0)
    assert sum(m[k] for k in parts) == pytest.approx(14.0)
    assert m["cascade.barrier_s"] == pytest.approx(6.0)
    assert m["cascade.bookkeeping_s"] == pytest.approx(11.5 - 6.0 - 1.0)
    assert m["evaluation.self_s"] == pytest.approx(14.0 - 1.0 - 11.5)
    assert (m["cascade.calls"], m["cascade.rounds"], m["cascade.barrier_tests"]) == (2, 3, 260)
    assert m["cascade.gathered_bytes"] == 260 * 13 * 8
    assert m["evaluation.useful_cascade_ratio"] == 0.5
    assert m["cli.self_s"] == pytest.approx(20.0 - 14.0 - 1.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tr.tail_percentile(2020) == 99.0
    assert tr.tail_percentile(441) == 95.0
    assert tr.tail_percentile(100) == 90.0
    assert tr.tail_percentile(50) == 50.0


def test_tracer_records_nesting_and_restores():
    import types
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    t = tr.Tracer("run-1")
    t.patch(mod, "inner", "m.inner", work=lambda a, k: a[0])
    t.patch(mod, "outer", "m.outer")
    assert mod.outer(3) == 8
    t.restore()
    inner, outer = t.spans
    assert (inner.name, inner.parent, inner.work) == ("m.inner", outer.id, 3)
    assert outer.parent is None and outer.start <= inner.start <= inner.end <= outer.end
    assert {s.run_id for s in t.spans} == {"run-1"}
    assert mod.inner(1) == 2 and len(t.spans) == 2


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def _rewrite(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture
def ingested(tmp_path):
    raw = tmp_path / "raw.csv"
    injected, blanks = fixtures.write_raw_ingest_csv(raw, seed=5, n_banks=600)
    assert blanks > 0 and sum(injected.values()) == 6
    out = tmp_path / "out"
    _run_cli(["ingest", "--input", str(raw), "--out", str(out)])
    return out, injected


def test_ingest_check_passes_and_rejects_corruption(ingested):
    out, injected = ingested
    assert checks.check_ingest(out, 600, injected) == []

    def off_by_a_unit(lines):
        cells = lines[5].split(",")
        cells[4] = repr(float(cells[4]) + 1.0)
        lines[5] = ",".join(cells)
    _rewrite(out / "completed.csv", off_by_a_unit)
    assert any("do not sum" in p for p in checks.check_ingest(out, 600, injected))

    def blank(lines):
        cells = lines[5].split(",")
        cells[4] = ""
        lines[5] = ",".join(cells)
    _rewrite(out / "completed.csv", blank)
    assert any("blank" in p for p in checks.check_ingest(out, 600, injected))


def test_ingest_check_rejects_missing_repair(ingested):
    out, injected = ingested
    report_path = out / "repair_report.json"
    report = json.loads(report_path.read_text())
    report["repairs"].pop()
    report_path.write_text(json.dumps(report))
    assert any("repair actions" in p for p in checks.check_ingest(out, 600, injected))


def _write(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n")


def test_phase_check_needs_the_cliff(tmp_path):
    header = "alpha,mean_survival,ci_half,region"
    cliff = ["0.0,0.85,0.0,I", "0.01,0.85,0.0,I", "0.02,0.0,0.0,II"]
    _write(tmp_path / "phase.csv", header, cliff)
    assert checks.check_phase(tmp_path) == []
    _write(tmp_path / "phase.csv", header,
           ["0.0,0.85,0.0,I", "0.01,0.5,0.0,I", "0.02,0.0,0.0,II"])
    assert any("drop" in p for p in checks.check_phase(tmp_path))
    _write(tmp_path / "phase.csv", header, cliff[:2] + ["0.02,0.0,1e-09,II"])
    assert any("ci_half" in p for p in checks.check_phase(tmp_path))
    _write(tmp_path / "phase.csv", header, cliff + ["0.03,1.5,0.0,I"])
    assert any("outside" in p for p in checks.check_phase(tmp_path))


def test_roc_check_rejects_bad_splits(tmp_path):
    header = "alpha,eta,p,split,fpr,tpr,tp_count"
    good = ["0.0,0.1,0.3,full,0.1,0.5,10",
            "0.0,0.1,0.3,first_step,0.05,0.3,6",
            "0.0,0.1,0.3,consecutive_steps,0.05,0.2,4"]
    _write(tmp_path / "roc.csv", header, good)
    assert checks.check_roc(tmp_path) == []
    _write(tmp_path / "roc.csv", header, good[:2] + ["0.0,0.1,0.3,consecutive_steps,0.05,0.2,5"])
    assert any("first + consecutive" in p for p in checks.check_roc(tmp_path))
    _write(tmp_path / "roc.csv", header, good[:2])
    assert any("splits" in p for p in checks.check_roc(tmp_path))
    _write(tmp_path / "roc.csv", header, ["0.0,0.1,0.3,full,1.1,0.5,10"] + good[1:])
    assert any("outside" in p for p in checks.check_roc(tmp_path))


def test_manifest_check_rejects_changed_file(tmp_path):
    _run_cli(["phase", "--synthetic", "n=60", "--p", "0.5", "--alpha", "0:1:0.5",
              "--eta", "0", "--replicates", "2", "--out", str(tmp_path)])
    assert checks.check_manifest(tmp_path) == []
    with open(tmp_path / "phase.csv", "a") as fh:
        fh.write("\n")
    assert checks.check_manifest(tmp_path) == ["manifest hash of phase.csv does not match the file"]


def test_bimodal_fixture_round_trips(tmp_path):
    fixtures.write_bimodal_csv(tmp_path / "bimodal.csv", seed=7)
