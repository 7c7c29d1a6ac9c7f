"""The benchmark's tracer and fixtures (bench/) still fit the package.

The tracer wraps module-level call sites from outside src/; a refactor that
renames or inlines one of them breaks traced benchmark runs. This runs small
phase scans and a small roc grid through a traced cli.main and checks the
counts and the lattice decomposition the benchmark reports. It also pins the
bytes of the phase-cliff input file, which bench/fixtures.py writes through
the package.
"""

import contextlib
import hashlib
import io
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import fixtures  # noqa: E402
import tracer as tr  # noqa: E402
from run import LATTICE_PARTS  # noqa: E402

from cascadefin import cli  # noqa: E402


def traced_metrics(argv, out):
    """The benchmark's per-layer metrics of one traced cli.main run."""
    tracer = tr.Tracer("tier1")
    tr.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.timed("cli.main", cli.main)(argv + ["--out", str(out)])
    finally:
        tracer.restore()
    assert code == 0
    return tr.layer_metrics(tracer.spans, tracer.meta)


def assert_lattice_decomposes(m):
    assert m["cascade.rounds"] > 0
    assert m["cascade.barrier_tests"] > 0
    assert abs(m["evaluation.lattice_s"] - sum(m[k] for k in LATTICE_PARTS)) <= 1e-6


def test_traced_phase_run_decomposes(tmp_path):
    cells, replicates = 5, 3
    m = traced_metrics(["phase", "--synthetic", "n=60", "--p", "0.5", "--alpha", "0:1:0.25",
                        "--eta", "0.1", "--replicates", str(replicates), "--seed", "4",
                        "--jobs", "1"], tmp_path)
    assert m["cascade.calls"] == cells * replicates
    assert_lattice_decomposes(m)
    # cli calls the writer through the name the tracer wraps
    assert m["evaluation.write_s"] > 0


def test_traced_roc_run_decomposes(tmp_path):
    # every cell has eta > 0, so each replicate runs its own cascade; the
    # label cascade is set-up work, outside the lattice's count
    cells, replicates = 2 * 2 * 2, 3
    m = traced_metrics(["roc", "--synthetic",
                        "n=60,label_asset=0,label_p=0.5,label_alpha=0,label_eta=0",
                        "--p", "0.4:0.8:0.4", "--alpha", "0:0.5:0.5", "--eta", "0.1:0.2:0.1",
                        "--replicates", str(replicates), "--seed", "4", "--jobs", "1"],
                       tmp_path)
    assert m["cascade.calls"] == cells * replicates
    assert_lattice_decomposes(m)
    # cli calls the writer through the name the tracer wraps
    assert m["evaluation.write_s"] > 0


def test_traced_eta_zero_phase_runs_each_cell_once(tmp_path):
    cells = 5
    m = traced_metrics(["phase", "--synthetic", "n=60", "--p", "0.5", "--alpha", "0:1:0.25",
                        "--eta", "0", "--replicates", "4", "--seed", "4", "--jobs", "1"],
                       tmp_path)
    assert m["cascade.calls"] == cells
    assert m["evaluation.useful_cascade_ratio"] == 1.0


def test_phase_cliff_input_bytes_are_pinned(tmp_path):
    # bench/fixtures.py writes it from tests/helpers.bimodal_dense_2000
    path = tmp_path / "bimodal.csv"
    fixtures.write_bimodal_csv(path, 1)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "8016327b1ad5354d6b25e116f00d35cd98c19849833a325a52e20cad35a0bb84"
