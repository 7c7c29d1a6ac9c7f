"""Survival curves, ROC grids and their splits, phase scans, the CSV writer."""

import gc
import os
import subprocess
import sys
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

import cascadefin as cf
from cascadefin import evaluation
from cascadefin.cascade import DOMAIN_CELL

from helpers import dense_synthetic, host_cores, make_network, rows, serial_pool, toy_network


def three_bank_network():
    # under p=0.6, alpha=1: bank 0 fails round 1, bank 1 round 2, bank 2 rides
    # out the sales (liabilities 8 stay below its shrinking 13.3 position)
    return make_network([[100.0], [100.0], [100.0]], [70.0, 55.0, 8.0],
                        ids=("A", "B", "C"))


FIVE_CELLS = [(0.6, alpha, 0.0) for alpha in (0.0, 0.25, 0.5, 0.75, 1.0)]


def run_five_cells(jobs):
    return evaluation._run_lattice(toy_network(), 0, FIVE_CELLS, 2, 0,
                                   evaluation._reduce_survival, jobs)


def assert_no_child_left():
    # the benchmark counts a worker that outlives its command as a failure
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# --- survival curves -----------------------------------------------------

def test_survival_curon_toy_grid():
    curves = cf.survival_curves(toy_network(), ["B"], 0,
                                [1.0, 0.6], [0.0, 1.0], [0.0], seed=1)
    assert list(curves) == ["p", "alpha", "eta", "survival_all", "survival_labeled"]
    # alpha-major enumeration: each alpha value is one curve over p
    assert rows(curves, "p", "alpha") == [(1.0, 0.0), (0.6, 0.0), (1.0, 1.0), (0.6, 1.0)]
    assert curves["survival_all"][0] == 1.0
    assert curves["survival_labeled"][0] == 1.0
    assert curves["survival_all"][3] == 0.0
    assert curves["survival_labeled"][3] == 0.0
    assert (curves["eta"] == 0.0).all()


def test_survival_curves_run_in_roc_grid_cell_order():
    net = three_bank_network()
    grids = ([1.0, 0.6], [0.0, 1.0], [0.0, 0.1])
    curves = cf.survival_curves(net, ["A"], 0, *grids, seed=2)
    points = cf.roc_grid(net, ["A"], 0, *grids, seed=2)
    assert rows(curves, "p", "alpha", "eta") == \
        [(p, alpha, eta) for p, alpha, eta, split in rows(points, "p", "alpha", "eta", "split")
         if split == "full"]
    assert rows(curves, "alpha", "eta")[:4] == [(0.0, 0.0)] * 2 + [(0.0, 0.1)] * 2


def test_survival_curves_without_labels():
    curves = cf.survival_curves(toy_network(), None, 0, [0.6], [1.0], [0.0])
    assert curves["survival_labeled"] is None


def test_survival_curves_disjoint_labels_warn():
    with pytest.warns(UserWarning, match="disjoint"):
        curves = cf.survival_curves(toy_network(), ["ghost"], 0, [0.6], [1.0], [0.0])
    assert curves["survival_labeled"] is None


def test_survival_curves_empty_grid_rejected():
    with pytest.raises(ValueError, match="empty"):
        cf.survival_curves(toy_network(), None, 0, [], [0.0], [0.0])


def test_survival_curves_jobs_do_not_change_results():
    net, _ = dense_synthetic(60, seed=31)
    kw = dict(seed=4)
    serial = cf.survival_curves(net, None, 0, [0.8, 0.5], [0.0, 0.4], [0.26], **kw)
    parallel = cf.survival_curves(net, None, 0, [0.8, 0.5], [0.0, 0.4], [0.26],
                                  jobs=2, **kw)
    assert rows(serial) == rows(parallel)


# --- ROC grids -----------------------------------------------------------

def oracle_labels(net, params):
    result = cf.run_cascade(net, params, cf.stream(0))
    failed = frozenset(net.bank_ids[i]
                       for i in np.flatnonzero(result.failed_round >= 1))
    # a label set without both classes would make every ROC check vacuous
    assert 0 < len(failed) < net.n_banks
    return failed


def test_roc_oracle_cell_hits_top_left():
    net = three_bank_network()
    cell = cf.CascadeParams.single(0, 0.6, 1.0, 0.0)
    labels = oracle_labels(net, cell)
    assert labels == {"A", "B"}
    points = cf.roc_grid(net, labels, 0, (0.6, 1.0), (0.0, 1.0), (0.0,), seed=0)
    assert list(points) == ["alpha", "eta", "p", "split", "fpr", "tpr", "tp_count"]
    by_cell = {(alpha, p, split): (fpr, tpr, tp) for alpha, p, split, fpr, tpr, tp
               in rows(points, "alpha", "p", "split", "fpr", "tpr", "tp_count")}
    assert by_cell[(1.0, 0.6, "full")] == (0.0, 1.0, 2)
    # the no-shock no-sale cell classifies nobody as failed
    assert by_cell[(0.0, 1.0, "full")][:2] == (0.0, 0.0)


def test_roc_splits_partition_full():
    net = three_bank_network()
    labels = ["A", "B"]
    points = cf.roc_grid(net, labels, 0, (0.6, 1.0), (0.0, 1.0), (0.0,), seed=0)
    cells = {}
    for *cell, split, tp in rows(points, "alpha", "eta", "p", "split", "tp_count"):
        cells.setdefault(tuple(cell), {})[split] = tp
    assert len(cells) == 4
    for splits in cells.values():
        assert splits["full"] == splits["first_step"] + splits["consecutive_steps"]
    sharp = cells[(1.0, 0.0, 0.6)]
    assert sharp["first_step"] == 1      # A, round 1
    assert sharp["consecutive_steps"] == 1  # B, round 2


def test_roc_needs_both_classes():
    net = three_bank_network()
    with pytest.raises(ValueError, match="at least one positive"):
        cf.roc_grid(net, [], 0, (1.0,), (0.0,), (0.0,))
    with pytest.raises(ValueError, match="at least one positive"):
        cf.roc_grid(net, ["A", "B", "C"], 0, (1.0,), (0.0,), (0.0,))


def test_roc_replicates_are_deterministic_and_collapse_at_eta_zero():
    net, _ = dense_synthetic(80, seed=32)
    labels = oracle_labels(net, cf.CascadeParams.single(0, 0.4, 0.0, 0.0))
    grid = ((0.4, 0.8), (0.0, 0.2), (0.0,))
    single = cf.roc_grid(net, labels, 0, *grid, seed=5, replicates=1)
    voted = cf.roc_grid(net, labels, 0, *grid, seed=5, replicates=3)
    assert rows(single) == rows(voted)
    noisy_grid = ((0.4,), (0.2,), (0.26,))
    a = cf.roc_grid(net, labels, 0, *noisy_grid, seed=5, replicates=4)
    b = cf.roc_grid(net, labels, 0, *noisy_grid, seed=5, replicates=4)
    assert rows(a) == rows(b)


def test_roc_invariant_under_bank_reordering():
    net = three_bank_network()
    flipped = make_network(net.holdings[::-1].copy(),
                           net.total_liabilities[::-1].copy(),
                           ids=tuple(reversed(net.bank_ids)))
    a = cf.roc_grid(net, ["A", "B"], 0, (0.6,), (1.0,), (0.0,), seed=0)
    b = cf.roc_grid(flipped, ["A", "B"], 0, (0.6,), (1.0,), (0.0,), seed=0)
    assert rows(a, "split", "tpr", "fpr") == rows(b, "split", "tpr", "fpr")


def test_roc_jobs_do_not_change_results():
    net, _ = dense_synthetic(60, seed=33)
    labels = oracle_labels(net, cf.CascadeParams.single(0, 0.4, 0.0, 0.0))
    grid = ((0.4, 0.9), (0.0, 0.3), (0.0, 0.2))
    assert rows(cf.roc_grid(net, labels, 0, *grid, seed=6)) == \
        rows(cf.roc_grid(net, labels, 0, *grid, seed=6, jobs=2))


def test_roc_counts_preshock_failures_in_no_split():
    # both dead banks fail at round 0; only hit fails after the shock (round 1)
    net = make_network([[100.0]] * 4, [120.0, 120.0, 80.0, 50.0],
                       ids=("dead_pos", "dead_neg", "hit", "safe"))
    for replicates in (1, 3):
        points = cf.roc_grid(net, ["dead_pos", "hit"], 0, (0.6,), (0.0,), (0.0, 0.1),
                             seed=3, replicates=replicates)
        counts = rows(points, "eta", "split", "tp_count", "fpr")
        assert counts == [(eta, split, tp, 0.0) for eta in (0.0, 0.1)
                          for split, tp in (("full", 1), ("first_step", 1),
                                            ("consecutive_steps", 0))]


# --- phase scans ---------------------------------------------------------

def test_phase_scan_validates_axes():
    net = toy_network()
    with pytest.raises(ValueError, match="one or two axes"):
        cf.phase_scan(net, 0, [1.0], [0.0], [0.0])
    with pytest.raises(ValueError, match="one or two axes"):
        cf.phase_scan(net, 0, [0.6, 1.0], [0.0, 1.0], [0.0, 0.1])
    with pytest.raises(ValueError, match="empty parameter grid"):
        cf.phase_scan(net, 0, [0.6], [0.0, 1.0], [])
    with pytest.raises(ValueError, match="replicates"):
        cf.phase_scan(net, 0, [0.6], [0.0, 1.0], [0.0], replicates=0)


def test_phase_scan_one_dimensional():
    diagram = cf.phase_scan(toy_network(), 0, [0.6], [0.0, 1.0], [0.0], replicates=1)
    assert diagram.axis_names == ("alpha",)
    assert np.allclose(diagram.mean_survival, [0.5, 0.0])
    assert diagram.region.tolist() == ["I", "II"]
    assert diagram.max_step_drop == pytest.approx(0.5)
    assert diagram.ci_half is None
    # a mean equal to the threshold is region I
    at = cf.phase_scan(toy_network(), 0, [0.6], [0.0, 1.0], [0.0], replicates=1, threshold=0.5)
    assert at.region.tolist() == ["I", "II"]


def test_phase_scan_ci_zero_when_deterministic():
    diagram = cf.phase_scan(toy_network(), 0, [0.6], [0.0, 1.0], [0.0], replicates=5)
    assert np.allclose(diagram.ci_half, 0.0)


def test_phase_scan_ci_matches_direct_formula():
    net, _ = dense_synthetic(50, seed=34)
    reps = 6
    # cell 0 of a two-cell alpha axis
    diagram = cf.phase_scan(net, 0, [0.5], [0.4, 0.8], [0.26], replicates=reps, seed=9)
    params = cf.CascadeParams.single(0, 0.5, 0.4, 0.26)
    fractions = np.array([
        np.mean(cf.run_cascade(net, params, cf.stream(9, DOMAIN_CELL, 0, rep)).failed_round
                == cf.SURVIVED)
        for rep in range(reps)
    ])
    assert diagram.mean_survival[0] == pytest.approx(fractions.mean(), rel=1e-15)
    expect_ci = 1.96 * fractions.std(ddof=1) / np.sqrt(reps)
    assert diagram.ci_half[0] == pytest.approx(expect_ci, rel=1e-12)


def test_phase_scan_two_dimensional():
    diagram = cf.phase_scan(toy_network(), 0, [1.0, 0.6], [0.0, 1.0], [0.0], replicates=1)
    assert diagram.axis_names == ("p", "alpha")
    assert diagram.mean_survival.shape == (2, 2)
    assert diagram.mean_survival[0, 0] == 1.0   # no shock, no sale
    assert diagram.mean_survival[1, 1] == 0.0   # the toy collapse
    assert diagram.max_step_drop is None


def test_phase_scan_jobs_do_not_change_results(monkeypatch):
    host_cores(monkeypatch, 2)    # real forks, whatever the host
    net, _ = dense_synthetic(50, seed=35)
    kw = dict(replicates=3, seed=2)
    a = cf.phase_scan(net, 0, [0.5], [0.0, 0.5, 1.0], [0.1], **kw)
    b = cf.phase_scan(net, 0, [0.5], [0.0, 0.5, 1.0], [0.1], jobs=2, **kw)
    assert_no_child_left()
    assert np.array_equal(a.mean_survival, b.mean_survival)
    assert np.array_equal(a.ci_half, b.ci_half)


@pytest.mark.parametrize("asset", [0, 5], ids=["returns", "raises"])
def test_serial_lattice_releases_the_network(asset):
    net = toy_network()
    ref = weakref.ref(net)
    with pytest.raises(ValueError, match="not in network") if asset else nullcontext():
        cf.phase_scan(net, asset, [0.6], [0.0, 0.5], [0.0], replicates=1)
    del net
    gc.collect()
    assert ref() is None


# --- CSV writers ---------------------------------------------------------

@pytest.mark.parametrize("columns, text", [
    ({"p": np.array([1.0, 0.1 + 0.2]), "survival_all": np.array([0.75, 0.0]),
      "survival_labeled": None},
     "p,survival_all,survival_labeled\n"
     "1.0,0.75,\n"
     "0.30000000000000004,0.0,\n"),
    ({"alpha": np.array([0.5]), "split": np.array(["full"]), "tpr": np.array([1.0]),
      "tp_count": np.array([7])},
     "alpha,split,tpr,tp_count\n"
     "0.5,full,1.0,7\n"),
    (cf.phase_scan(toy_network(), 0, [0.6], [0.0, 1.0], [0.0], replicates=1).columns(),
     "alpha,mean_survival,ci_half,region\n"
     "0.0,0.5,,I\n"
     "1.0,0.0,,II\n"),
    ({"ci_half": None}, "ci_half\n"),
], ids=["survival", "roc", "phase-1d", "all-none"])
def test_write_csv(columns, text, tmp_path):
    # a float writes its repr, which round-trips; an int or str its str; a
    # None column blank cells
    path = tmp_path / "table.csv"
    cf.write_csv(columns, path)
    assert path.read_text() == text


# --- eta = 0 cells run once ------------------------------------------------

def counting_run_cascade(monkeypatch):
    calls = []
    real = cf.evaluation.run_cascade

    def counted(network, params, rng):
        calls.append(params.eta)
        return real(network, params, rng)

    monkeypatch.setattr(cf.evaluation, "run_cascade", counted)
    return calls


def test_eta_zero_cells_run_one_cascade(monkeypatch):
    net, _ = dense_synthetic(60, seed=36)
    reps, alphas, etas = 4, (0.0, 0.3, 0.6), (0.0, 0.1)
    n0, n1 = len(alphas), len(alphas)   # eta = 0 cells, eta > 0 cells
    calls = counting_run_cascade(monkeypatch)
    cf.phase_scan(net, 0, (0.5,), alphas, etas, replicates=reps, seed=3)
    assert len(calls) == n0 + reps * n1
    calls.clear()
    labels = [net.bank_ids[i] for i in range(0, net.n_banks, 3)]
    cf.roc_grid(net, labels, 0, (0.5,), alphas, etas, seed=3, replicates=reps)
    assert len(calls) == n0 + reps * n1
    assert calls.count(0.0) == n0


def test_eta_zero_phase_cell_is_exact():
    net, _ = dense_synthetic(80, seed=37)
    alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    diagram = cf.phase_scan(net, 0, [0.5], alphas, [0.0], replicates=7, seed=5)
    for i, alpha in enumerate(alphas):
        result = cf.run_cascade(net, cf.CascadeParams.single(0, 0.5, alpha, 0.0), cf.stream(5))
        assert diagram.mean_survival[i] == np.mean(result.failed_round == cf.SURVIVED)
        assert diagram.ci_half[i] == 0.0


def test_pool_is_never_larger_than_the_lattice(monkeypatch):
    sizes = serial_pool(monkeypatch)
    host_cores(monkeypatch, 8)
    net = toy_network()
    serial = cf.phase_scan(net, 0, [0.6], [0.0, 1.0], [0.0], replicates=2)
    pooled = cf.phase_scan(net, 0, [0.6], [0.0, 1.0], [0.0], replicates=2, jobs=8)
    assert sizes == [2]
    # a one-cell lattice runs in process whatever the jobs
    cf.survival_curves(net, None, 0, [0.6], [1.0], [0.0], jobs=8)
    assert sizes == [2]
    assert np.array_equal(serial.mean_survival, pooled.mean_survival)


@pytest.mark.parametrize("cores, affinity, jobs, pools",
                         [(2, True, 64, [2]), (1, True, 2, []), (None, False, 2, []),
                          (2, False, 64, [2])],
                         ids=["2-cores", "1-core", "unknown-cores", "2-cores-no-affinity"])
def test_pool_is_never_larger_than_the_host(cores, affinity, jobs, pools, monkeypatch):
    # extra workers only add forks, so a host of one core, or of a count os
    # cannot tell, runs the lattice in process
    sizes = serial_pool(monkeypatch)
    host_cores(monkeypatch, cores, affinity)
    out = run_five_cells(jobs)
    assert sizes == pools
    assert len(out) == len(FIVE_CELLS)


def test_pool_fits_the_cpus_the_process_may_run_on(monkeypatch):
    # under `taskset -c 0` on an 8-core host two workers would share one core
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_workers(n_cells, workers):
        raise AssertionError("forked workers on one CPU")

    monkeypatch.setattr(evaluation, "_forked", no_workers)
    net = three_bank_network()
    grids = ([1.0, 0.6], [0.0, 1.0], [0.0, 0.1])
    one = cf.roc_grid(net, ["A"], 0, *grids, seed=2, jobs=1)
    two = cf.roc_grid(net, ["A"], 0, *grids, seed=2, jobs=2)
    assert one.keys() == two.keys()
    for key in one:
        assert np.array_equal(one[key], two[key])


def test_lattice_runs_in_process_without_fork(monkeypatch):
    sizes = serial_pool(monkeypatch)
    host_cores(monkeypatch, 2)
    monkeypatch.delattr(os, "fork", raising=False)
    grids = ([0.6], [0.0, 0.5, 1.0], [0.0])
    one = cf.phase_scan(toy_network(), 0, *grids, replicates=2)
    two = cf.phase_scan(toy_network(), 0, *grids, replicates=2, jobs=2)
    assert sizes == []
    assert np.array_equal(one.mean_survival, two.mean_survival)


# --- the fork driver, with real workers ---------------------------------

def test_forked_workers_interleave_the_cells(monkeypatch):
    host_cores(monkeypatch, 2)
    monkeypatch.setattr(evaluation, "_cell", lambda i: (os.getpid(), i))
    out = run_five_cells(2)
    assert_no_child_left()
    pids = [pid for pid, _ in out]
    assert [i for _, i in out] == list(range(5))
    assert pids == [pids[0], pids[1]] * 2 + [pids[0]]
    assert len({os.getpid(), *pids}) == 3


@pytest.mark.parametrize("failing", [{3, 4}, {1}], ids=["two-workers-raise", "one-raises"])
def test_forked_worker_exception_is_the_serial_one(failing, monkeypatch):
    # worker 0 runs cells 0, 2, 4 and worker 1 cells 1, 3: the exception
    # raised is the earliest cell's, whichever worker reports first
    real_cell = evaluation._cell

    def cell(i):
        if i in failing:
            raise ValueError(f"cell {i} failed")
        return real_cell(i)

    monkeypatch.setattr(evaluation, "_cell", cell)
    host_cores(monkeypatch, 2)
    raised = []
    for jobs in (1, 2):
        with pytest.raises(ValueError) as info:
            run_five_cells(jobs)
        raised.append(str(info.value))
        assert_no_child_left()
    assert raised == [f"cell {min(failing)} failed"] * 2


def test_forked_engine_error_is_the_serial_one(monkeypatch):
    host_cores(monkeypatch, 2)
    raised = []
    for jobs in (1, 2):
        with pytest.raises(ValueError) as info:
            cf.phase_scan(toy_network(), 5, [0.6], [0.0, 0.5], [0.0], replicates=1, jobs=jobs)
        raised.append(str(info.value))
        assert_no_child_left()
    assert raised == ["shocked asset 5 not in network"] * 2


@pytest.mark.parametrize("code", [0, 3])
def test_a_worker_lost_without_a_result_raises(code, monkeypatch):
    # worker 0 exits on its first cell, so worker 1 may still be running when
    # the driver raises; it must be stopped and reaped all the same
    real_cell = evaluation._cell

    def cell(i):
        if i == 0:
            os._exit(code)
        return real_cell(i)

    monkeypatch.setattr(evaluation, "_cell", cell)
    host_cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=f"exited with code {code} before returning"):
        run_five_cells(2)
    assert_no_child_left()


# a caller that leaves text in its stderr buffer, and a worker that writes to
# its own, in an interpreter whose stderr is a pipe, as under the benchmark
HALF_LINES = """
import os, sys
import numpy as np
import cascadefin as cf
from cascadefin import evaluation

os.sched_getaffinity = lambda pid: {0, 1}
real_cell = evaluation._cell

def cell(i):
    if i == 1:
        sys.stderr.write("cell 1 warned")
    return real_cell(i)

evaluation._cell = cell
net = cf.BankAssetNetwork(("A", "B"), np.array([[100.0], [100.0]]), np.array([100.0, 100.0]),
                          np.array([70.0, 55.0]))
sys.stderr.write("caller: ")
cf.phase_scan(net, 0, [0.6], [0.0, 0.5, 1.0], [0.0], replicates=1, jobs=2)
"""


def test_worker_and_caller_text_reach_stderr_once():
    # neither line is complete, so line buffering flushes neither: the caller
    # flushes before it forks, else each worker would print its text again,
    # and a worker before os._exit, else its text would be lost
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", HALF_LINES], env={**env, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "caller: cell 1 warned"
