"""Survival curves, ROC grids, attribution, phase scans, CSV writers."""

import numpy as np
import pytest

import cascadefin as cf
from cascadefin.cascade import DOMAIN_CELL

from helpers import dense_synthetic, make_network, toy_network


def three_bank_network():
    # under p=0.6, alpha=1: bank 0 fails round 1, bank 1 round 2, bank 2 rides
    # out the sales (liabilities 8 stay below its shrinking 13.3 position)
    return make_network([[100.0], [100.0], [100.0]], [70.0, 55.0, 8.0],
                        ids=("A", "B", "C"))


# --- survival curves -----------------------------------------------------

def test_survival_curon_toy_grid():
    records = cf.survival_curves(toy_network(), ["B"], 0,
                                 [1.0, 0.6], [0.0, 1.0], 0.0, seed=1)
    # alpha-major enumeration: each alpha value is one curve over p
    assert [(r.p, r.alpha) for r in records] == [(1.0, 0.0), (0.6, 0.0),
                                                (1.0, 1.0), (0.6, 1.0)]
    assert records[0].survival_all == 1.0
    assert records[0].survival_labeled == 1.0
    assert records[3].survival_all == 0.0
    assert records[3].survival_labeled == 0.0
    assert all(r.eta == 0.0 for r in records)


def test_survival_curves_without_labels():
    records = cf.survival_curves(toy_network(), None, 0, [0.6], [1.0], 0.0)
    assert records[0].survival_labeled is None


def test_survival_curves_disjoint_labels_warn():
    with pytest.warns(UserWarning, match="disjoint"):
        records = cf.survival_curves(toy_network(), ["ghost"], 0, [0.6], [1.0], 0.0)
    assert records[0].survival_labeled is None


def test_survival_curves_empty_grid_rejected():
    with pytest.raises(ValueError, match="empty"):
        cf.survival_curves(toy_network(), None, 0, [], [0.0], 0.0)


def test_survival_curves_jobs_do_not_change_results():
    net, _ = dense_synthetic(60, seed=31)
    kw = dict(seed=4)
    serial = cf.survival_curves(net, None, 0, [0.8, 0.5], [0.0, 0.4], 0.26, **kw)
    parallel = cf.survival_curves(net, None, 0, [0.8, 0.5], [0.0, 0.4], 0.26,
                                  jobs=2, **kw)
    assert serial == parallel


# --- ROC grids -----------------------------------------------------------

def oracle_labels(net, params):
    result = cf.run_cascade(net, params)
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
    grid = cf.SweepGrid(alphas=(0.0, 1.0), etas=(0.0,), ps=(0.6, 1.0))
    points = cf.roc_grid(net, labels, 0, grid, seed=0)
    by_cell = {(pt.alpha, pt.p, pt.split): pt for pt in points}
    top = by_cell[(1.0, 0.6, "full")]
    assert (top.fpr, top.tpr) == (0.0, 1.0)
    assert top.true_positives == 2
    # the no-shock no-sale cell classifies nobody as failed
    idle = by_cell[(0.0, 1.0, "full")]
    assert (idle.fpr, idle.tpr) == (0.0, 0.0)


def test_roc_splits_partition_full():
    net = three_bank_network()
    labels = ["A", "B"]
    grid = cf.SweepGrid(alphas=(0.0, 1.0), etas=(0.0,), ps=(0.6, 1.0))
    points = cf.roc_grid(net, labels, 0, grid, seed=0)
    cells = {}
    for pt in points:
        cells.setdefault((pt.alpha, pt.eta, pt.p), {})[pt.split] = pt
    assert len(cells) == 4
    for splits in cells.values():
        assert splits["full"].true_positives == (splits["first_step"].true_positives
                                                 + splits["consecutive_steps"].true_positives)
    sharp = cells[(1.0, 0.0, 0.6)]
    assert sharp["first_step"].true_positives == 1      # A, round 1
    assert sharp["consecutive_steps"].true_positives == 1  # B, round 2


def test_roc_needs_both_classes():
    net = three_bank_network()
    with pytest.warns(UserWarning, match="at least one positive"):
        assert cf.roc_grid(net, [], 0, cf.SweepGrid((0.0,), (0.0,), (1.0,))) == []
    with pytest.warns(UserWarning, match="at least one positive"):
        assert cf.roc_grid(net, ["A", "B", "C"], 0,
                           cf.SweepGrid((0.0,), (0.0,), (1.0,))) == []


def test_roc_replicates_are_deterministic_and_collapse_at_eta_zero():
    net, _ = dense_synthetic(80, seed=32)
    labels = oracle_labels(net, cf.CascadeParams.single(0, 0.4, 0.0, 0.0))
    grid = cf.SweepGrid(alphas=(0.0, 0.2), etas=(0.0,), ps=(0.4, 0.8))
    single = cf.roc_grid(net, labels, 0, grid, seed=5, replicates=1)
    voted = cf.roc_grid(net, labels, 0, grid, seed=5, replicates=3)
    assert single == voted
    noisy_grid = cf.SweepGrid(alphas=(0.2,), etas=(0.26,), ps=(0.4,))
    a = cf.roc_grid(net, labels, 0, noisy_grid, seed=5, replicates=4)
    b = cf.roc_grid(net, labels, 0, noisy_grid, seed=5, replicates=4)
    assert a == b


def test_roc_invariant_under_bank_reordering():
    net = three_bank_network()
    flipped = make_network(net.holdings[::-1].copy(),
                           net.total_liabilities[::-1].copy(),
                           ids=tuple(reversed(net.bank_ids)))
    grid = cf.SweepGrid(alphas=(1.0,), etas=(0.0,), ps=(0.6,))
    a = cf.roc_grid(net, ["A", "B"], 0, grid, seed=0)
    b = cf.roc_grid(flipped, ["A", "B"], 0, grid, seed=0)
    assert [(pt.split, pt.tpr, pt.fpr) for pt in a] == \
        [(pt.split, pt.tpr, pt.fpr) for pt in b]


def test_roc_jobs_do_not_change_results():
    net, _ = dense_synthetic(60, seed=33)
    labels = oracle_labels(net, cf.CascadeParams.single(0, 0.4, 0.0, 0.0))
    grid = cf.SweepGrid(alphas=(0.0, 0.3), etas=(0.0, 0.2), ps=(0.4, 0.9))
    assert cf.roc_grid(net, labels, 0, grid, seed=6) == \
        cf.roc_grid(net, labels, 0, grid, seed=6, jobs=2)


# --- attribution ---------------------------------------------------------

def test_attribution_split_counts_rounds():
    net = three_bank_network()
    result = cf.run_cascade(net, cf.CascadeParams.single(0, 0.6, 1.0, 0.0))
    split = cf.attribution_split(result, ["A", "B"], net)
    assert split == {"first_step_count": 1, "consecutive_count": 1}


def test_attribution_excludes_preshock_failures():
    net = make_network([[100.0], [100.0]], [120.0, 50.0], ids=("dead", "fine"))
    result = cf.run_cascade(net, cf.CascadeParams.single(0, 1.0, 0.0, 0.0))
    split = cf.attribution_split(result, ["dead", "fine"], net)
    assert split == {"first_step_count": 0, "consecutive_count": 0}


# --- phase scans ---------------------------------------------------------

def test_phase_scan_validates_axes():
    net = toy_network()
    with pytest.raises(ValueError, match="one or two axes"):
        cf.phase_scan(net, 0, {}, {"p": 1.0, "alpha": 0.0, "eta": 0.0})
    with pytest.raises(ValueError, match="one or two axes"):
        cf.phase_scan(net, 0, {"p": [1.0], "alpha": [0.0], "eta": [0.0]}, {})
    with pytest.raises(ValueError, match="axes must be among"):
        cf.phase_scan(net, 0, {"gamma": [0.0]}, {"p": 1, "alpha": 0, "eta": 0})
    with pytest.raises(ValueError, match="missing fixed"):
        cf.phase_scan(net, 0, {"alpha": [0.0, 1.0]}, {"p": 0.6})
    with pytest.raises(ValueError, match="replicates"):
        cf.phase_scan(net, 0, {"alpha": [0.0, 1.0]}, {"p": 0.6, "eta": 0.0},
                      replicates=0)


def test_phase_scan_one_dimensional():
    diagram = cf.phase_scan(toy_network(), 0, {"alpha": [0.0, 1.0]},
                            {"p": 0.6, "eta": 0.0}, replicates=1)
    assert diagram.axis_names == ("alpha",)
    assert np.allclose(diagram.mean_survival, [0.5, 0.0])
    assert diagram.region.tolist() == ["I", "II"]
    assert diagram.max_step_drop == pytest.approx(0.5)
    assert diagram.ci_half is None


def test_phase_scan_ci_zero_when_deterministic():
    diagram = cf.phase_scan(toy_network(), 0, {"alpha": [0.0, 1.0]},
                            {"p": 0.6, "eta": 0.0}, replicates=5)
    assert np.allclose(diagram.ci_half, 0.0)


def test_phase_scan_ci_matches_direct_formula():
    net, _ = dense_synthetic(50, seed=34)
    reps = 6
    diagram = cf.phase_scan(net, 0, {"alpha": [0.4]}, {"p": 0.5, "eta": 0.26},
                            replicates=reps, seed=9)
    fractions = np.array([
        cf.run_cascade(net, cf.CascadeParams.single(0, 0.5, 0.4, 0.26, seed=9),
                       rng=cf.stream(9, DOMAIN_CELL, 0, rep)).survival_fraction_all
        for rep in range(reps)
    ])
    assert diagram.mean_survival[0] == pytest.approx(fractions.mean(), rel=1e-15)
    expect_ci = 1.96 * fractions.std(ddof=1) / np.sqrt(reps)
    assert diagram.ci_half[0] == pytest.approx(expect_ci, rel=1e-12)


def test_phase_scan_two_dimensional():
    diagram = cf.phase_scan(toy_network(), 0,
                            {"p": [1.0, 0.6], "alpha": [0.0, 1.0]},
                            {"eta": 0.0}, replicates=1)
    assert diagram.axis_names == ("p", "alpha")
    assert diagram.mean_survival.shape == (2, 2)
    assert diagram.mean_survival[0, 0] == 1.0   # no shock, no sale
    assert diagram.mean_survival[1, 1] == 0.0   # the toy collapse
    assert diagram.max_step_drop is None
    assert diagram.fixed == {"eta": 0.0}


def test_phase_scan_jobs_do_not_change_results():
    net, _ = dense_synthetic(50, seed=35)
    kw = dict(replicates=3, seed=2)
    a = cf.phase_scan(net, 0, {"alpha": [0.0, 0.5, 1.0]}, {"p": 0.5, "eta": 0.1}, **kw)
    b = cf.phase_scan(net, 0, {"alpha": [0.0, 0.5, 1.0]}, {"p": 0.5, "eta": 0.1},
                      jobs=2, **kw)
    assert np.array_equal(a.mean_survival, b.mean_survival)
    assert np.array_equal(a.ci_half, b.ci_half)


# --- CSV writers ---------------------------------------------------------

def test_write_survival_csv(tmp_path):
    records = [cf.SweepRecord(1.0, 0.5, 0.0, 0.75, None)]
    path = tmp_path / "survival.csv"
    cf.write_survival_csv(records, path)
    assert path.read_text() == ("p,alpha,eta,survival_all,survival_labeled\n"
                                "1.0,0.5,0.0,0.75,\n")


def test_write_roc_csv(tmp_path):
    points = [cf.RocPoint(0.5, 0.0, 0.25, 1.0, 0.0, 7, "full")]
    path = tmp_path / "roc.csv"
    cf.write_roc_csv(points, path)
    assert path.read_text() == ("alpha,eta,p,split,fpr,tpr,tp_count\n"
                                "0.5,0.0,0.25,full,0.0,1.0,7\n")


def test_write_phase_csv(tmp_path):
    diagram = cf.phase_scan(toy_network(), 0, {"alpha": [0.0, 1.0]},
                            {"p": 0.6, "eta": 0.0}, replicates=1)
    path = tmp_path / "phase.csv"
    cf.write_phase_csv(diagram, path)
    assert path.read_text() == ("alpha,mean_survival,ci_half,region\n"
                                "0.0,0.5,,I\n"
                                "1.0,0.0,,II\n")
