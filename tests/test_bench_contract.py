"""The benchmark's tracer (bench/tracer.py) still fits the package.

The tracer wraps module-level call sites from outside src/; a refactor that
renames or inlines one of them breaks traced benchmark runs. This runs a small
phase scan through a traced cli.main and checks the counts and the lattice
decomposition the benchmark reports.
"""

import contextlib
import io
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import tracer as tr  # noqa: E402
from run import LATTICE_PARTS  # noqa: E402

from cascadefin import cli  # noqa: E402


def test_traced_phase_run_decomposes(tmp_path):
    cells, replicates = 5, 3
    argv = ["phase", "--synthetic", "n=60", "--p", "0.5", "--alpha", "0:1:0.25",
            "--eta", "0.1", "--replicates", str(replicates), "--seed", "4",
            "--jobs", "1", "--out", str(tmp_path)]
    tracer = tr.Tracer("tier1")
    tr.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.timed("cli.main", cli.main)(argv)
    finally:
        tracer.restore()
    assert code == 0
    m = tr.layer_metrics(tracer.spans, tracer.meta)
    assert m["cascade.calls"] == cells * replicates
    assert m["cascade.rounds"] > 0
    assert m["cascade.barrier_tests"] > 0
    assert abs(m["evaluation.lattice_s"] - sum(m[k] for k in LATTICE_PARTS)) <= 1e-6
