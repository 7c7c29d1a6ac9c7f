"""Acceptance runner: nine criteria, one printed verdict line each.

Run standalone (python tests/test_acceptance.py) or under pytest; each
criterion prints `criterion N: PASS/FAIL - <title>`. The heavyweight fixtures
(the 5000-bank synthetic market and the 2000-bank collapse network) are cached
across criteria.
"""

import io
import os
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stdout
from functools import lru_cache

import numpy as np
import scipy.ndimage

import cascadefin as cf
from cascadefin import cli

from helpers import bimodal_dense_2000, dense_synthetic, make_network, \
    random_instance, toy_network
from reference import brute_force_cascade

SEED = 20260822


@lru_cache(maxsize=1)
def dense_5000():
    return dense_synthetic(5000, seed=SEED)[0]


def _engine_matches_brute(holdings, liab, alpha, p, eta, key):
    """Run both implementations on shared draw streams and compare everything."""
    net = make_network(holdings, liab)
    params = cf.CascadeParams.single(0, p, alpha, eta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = cf.run_cascade(net, params, rng=cf.stream(*key))
        ref = brute_force_cascade(holdings, liab, {0: p}, alpha, eta,
                                  rng=cf.stream(*key))
    assert np.array_equal(res.failed_round, np.asarray(ref["failed_round"])), \
        f"fates differ: {res.failed_round.tolist()} vs {ref['failed_round']}"
    assert res.rounds_executed == ref["rounds"]
    assert list(res.failures_per_round) == list(ref["failures_per_round"])
    assert np.allclose(res.price_index, ref["price_index"], rtol=1e-12, atol=0.0)
    assert np.allclose(res.market_value, ref["market_value"], rtol=1e-12, atol=1e-9)
    return res, ref


def _survivors(net, p, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = cf.run_cascade(net, cf.CascadeParams.single(0, p, alpha, 0.0))
    return frozenset(np.flatnonzero(res.failed_round == cf.SURVIVED).tolist())


def criterion_1():
    """Monte Carlo failure frequencies vs the closed-form barrier probability."""
    t0 = time.perf_counter()
    points = [
        # never fail: assets cover liabilities even with no barrier slack
        (1.20, 0.26), (1.00, 0.26), (1.05, 0.10), (1.00, 0.50), (1.30, 0.10),
        # interior: probability (1 - b/l) / eta
        (0.95, 0.26), (0.90, 0.26), (0.80, 0.26), (0.96, 0.10), (0.92, 0.10),
        (0.85, 0.50), (0.60, 0.50), (0.99, 0.26), (0.75, 0.50),
        # always fail: below the most tolerant barrier
        (0.70, 0.26), (0.50, 0.26), (0.89, 0.10), (0.40, 0.50), (0.30, 0.10),
        (0.10, 0.26),
    ]
    assert len(points) == 20
    k = 100_000
    worst = 0.0
    branches = set()
    for j, (ratio, eta) in enumerate(points):
        b = 100.0 * ratio
        state = cf.RoundState(
            alive=np.ones(k, dtype=bool),
            price_index=np.ones(1),
            market_value=np.array([b * k]),
            holdings_base=np.full((k, 1), b),
            liabilities=np.full(k, 100.0),
        )
        params = cf.CascadeParams.single(0, 1.0, 0.0, eta)
        failures = cf.evaluate_round(state, params, cf.stream(SEED, 1, j))
        freq = failures.size / k
        expect = cf.failure_probability(b, 100.0, eta)
        assert abs(expect - min(max((1.0 - ratio) / eta, 0.0), 1.0)) < 1e-12
        branches.add(0 if expect == 0.0 else (2 if expect == 1.0 else 1))
        gap = abs(freq - expect)
        worst = max(worst, gap)
        assert gap <= 0.01, \
            f"(b/l={ratio}, eta={eta}): frequency {freq:.4f} vs {expect:.4f}"
    assert branches == {0, 1, 2}, "grid must span all three probability branches"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget: {elapsed:.1f}s >= 10s"
    return f"20 points x {k} draws, worst gap {worst:.4f}"


def criterion_2():
    """No fire sales, no barrier noise: one-shot solvency test in closed form."""
    t0 = time.perf_counter()
    biggest = 0
    for i in range(100):
        g = cf.stream(SEED, 2, i)
        holdings, liab = random_instance(g, n_hi=200, m_hi=13)
        net = make_network(holdings, liab)
        biggest = max(biggest, net.n_banks)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = cf.run_cascade(net, cf.CascadeParams.single(0, p, 0.0, 0.0))
            closed = (net.total_assets - (1.0 - p) * holdings[:, 0]) \
                < net.total_liabilities
            assert np.array_equal(res.failed, closed), f"network {i}, p={p}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget: {elapsed:.1f}s >= 30s"
    return f"100 networks (N up to {biggest}) x 5 shock levels, exact set equality"


def criterion_3():
    """Engine vs the written-first reference loop on exhaustive tiny instances."""
    res, ref = _engine_matches_brute(
        np.array([[100.0], [100.0]]), np.array([70.0, 55.0]),
        1.0, 0.6, 0.0, (SEED, 3, 0))
    assert res.failed_round.tolist() == [1, 2]
    assert res.rounds_executed == 2
    assert abs(res.price_index[0] - 0.15) <= 0.15 * 1e-12
    assert abs(res.market_value[0] - 30.0) <= 30.0 * 1e-12

    pairs = 1
    levs = np.array([0.95, 0.80, 1.02, 0.90])
    for n, m in ((1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)):
        values = 1.0 + 0.5 * ((np.arange(n)[:, None] + np.arange(m)[None, :]) % 3)
        for bits in range(2 ** (n * m)):
            mask = ((bits >> np.arange(n * m)) & 1).reshape(n, m)
            holdings = values * mask
            liab = levs[:n] * holdings.sum(axis=1)
            for alpha in (0.0, 0.5, 1.0):
                for p in (0.0, 0.5, 1.0):
                    _engine_matches_brute(holdings, liab, alpha, p, 0.0,
                                          (SEED, 3, 1))
                    pairs += 1
    for i in range(200):
        g = cf.stream(SEED, 3, 2, i)
        holdings, liab = random_instance(g, n_lo=1, n_hi=4, m_lo=1, m_hi=2,
                                         zero_frac=0.4)
        alpha = (0.0, 0.5, 1.0)[i % 3]
        p = (0.0, 0.5, 1.0)[(i // 3) % 3]
        _engine_matches_brute(holdings, liab, alpha, p, 0.0, (SEED, 3, 2, i))
        pairs += 1
    return f"hand trace + {pairs} engine/reference pairs within 1e-12"


def criterion_4():
    """Holdings stay (original x price index) at every boundary of every run."""
    boundaries = 0
    for t in range(1000):
        g = cf.stream(SEED, 4, t)
        holdings, liab = random_instance(g)
        alpha = float(g.uniform(0.0, 1.0))
        p = float(g.uniform(0.0, 1.0))
        eta = (0.0, 0.1, 0.26, 0.5)[t % 4]
        res, ref = _engine_matches_brute(holdings, liab, alpha, p, eta,
                                         (SEED, 4, t, 1))
        snaps = ref["boundaries"]
        assert len(snaps) == res.price_trajectory.shape[0]
        for snap, engine_price in zip(snaps, res.price_trajectory):
            assert np.allclose(snap["price"], engine_price, rtol=1e-12, atol=0.0)
            alive = np.asarray(snap["alive"], dtype=bool)
            factored = holdings[alive] * np.asarray(snap["price"])
            assert np.allclose(np.asarray(snap["holdings"])[alive], factored,
                               rtol=1e-12, atol=0.0), f"trial {t}"
            boundaries += 1
    return f"1000 seeded cascades, {boundaries} boundaries checked at 1e-12"


def criterion_5():
    """Survivor sets shrink monotonically as the shock deepens or alpha rises."""
    for i in range(200):
        g = cf.stream(SEED, 5, i)
        holdings, liab = random_instance(g)
        net = make_network(holdings, liab)
        prev = None
        for p in (1.0, 0.8, 0.6, 0.4, 0.2, 0.0):
            surv = _survivors(net, p, 0.35)
            if prev is not None:
                assert surv <= prev, f"network {i}: survivors grew as p fell to {p}"
            prev = surv
        prev = None
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            surv = _survivors(net, 0.55, alpha)
            if prev is not None:
                assert surv <= prev, \
                    f"network {i}: survivors grew as alpha rose to {alpha}"
            prev = surv
    return "200 networks, nested along falling p and rising alpha"


def criterion_6():
    """ROC sanity on a 5000-bank market over a 10x10x10 lattice."""
    t0 = time.perf_counter()
    net = dense_5000()
    labels = cf.labels_from_cascade(net, cf.CascadeParams.single(0, 0.3, 0.0, 0.0))
    n_pos = len(labels.ids)
    assert 0 < n_pos < net.n_banks, "label cascade must split the population"
    grid = cf.SweepGrid(
        alphas=tuple(np.round(np.arange(0.0, 0.91, 0.1), 12)),
        etas=tuple(np.round(np.arange(0.0, 0.46, 0.05), 12)),
        ps=tuple(np.round(np.arange(0.1, 1.01, 0.1), 12)),
    )
    assert grid.n_cells == 1000
    points = cf.roc_grid(net, labels, 0, grid, seed=SEED)
    oracle = [pt for pt in points if pt.split == "full"
              and pt.alpha == 0.0 and pt.eta == 0.0 and pt.p == 0.3]
    assert len(oracle) == 1
    assert (oracle[0].fpr, oracle[0].tpr) == (0.0, 1.0), \
        f"oracle labels gave ({oracle[0].fpr}, {oracle[0].tpr})"

    shuffled = frozenset(net.bank_ids[j] for j in
                         cf.stream(SEED, 6).permutation(net.n_banks)[:n_pos])
    noise = cf.roc_grid(net, shuffled, 0, grid, seed=SEED)
    gaps = np.array([abs(pt.tpr - pt.fpr) for pt in noise if pt.split == "full"])
    assert gaps.size == 1000
    assert gaps.mean() < 0.05, f"permuted labels: mean |TPR-FPR| {gaps.mean():.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"budget: {elapsed:.1f}s >= 300s"
    return (f"{n_pos} positives, oracle point (0,1), "
            f"permuted mean |TPR-FPR| {gaps.mean():.4f}")


def criterion_7():
    """First-order collapse: one-step survival cliff and a two-region plane."""
    t0 = time.perf_counter()
    net = bimodal_dense_2000()
    alphas = np.round(np.arange(0.0, 1.0001, 0.01), 12).tolist()
    assert len(alphas) == 101
    scan = cf.phase_scan(net, 0, {"alpha": alphas}, {"p": 0.6, "eta": 0.0},
                         replicates=300, seed=SEED)
    means = scan.mean_survival
    cliff = np.flatnonzero((means[:-1] > 0.8) & (means[1:] < 0.1))
    assert cliff.size, \
        f"no one-step drop >0.8 -> <0.1 (max step drop {scan.max_step_drop:.3f})"
    j = int(cliff[0])

    axis = np.round(np.arange(0.0, 1.0001, 0.05), 12).tolist()
    plane = cf.phase_scan(net, 0, {"p": axis, "alpha": axis}, {"eta": 0.02},
                          replicates=20, seed=SEED, threshold=0.05)
    collapsed = plane.region == "II"
    assert collapsed.any() and (~collapsed).any()
    _, n_ii = scipy.ndimage.label(collapsed)
    _, n_i = scipy.ndimage.label(~collapsed)
    assert n_ii == 1, f"{n_ii} collapsed regions"
    assert n_i == 1, f"{n_i} surviving regions"
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"budget: {elapsed:.1f}s >= 900s"
    return (f"cliff {means[j]:.3f} -> {means[j + 1]:.3f} at alpha={alphas[j + 1]}, "
            f"plane {collapsed.sum()}/{collapsed.size} collapsed cells in one region")


def criterion_8():
    """Completion of a 20%-blanked dataset: totals restored, means exact."""
    net = dense_synthetic(500, seed=SEED)[0]
    mask = cf.stream(SEED, 8).random(net.holdings.shape) < 0.2
    rows = []
    for i, bank in enumerate(net.bank_ids):
        cells = [None if mask[i, m] else float(net.holdings[i, m])
                 for m in range(net.n_assets)]
        rows.append(cf.RawBalanceSheetRow(bank, float(net.total_assets[i]),
                                          float(net.total_liabilities[i]),
                                          cells, i + 2))
    blanks = int(mask.sum())
    assert blanks > 0
    sheets, _ = cf.complete_dataset(rows)
    totals = np.array([s.holdings.sum() for s in sheets])
    assert np.all(np.abs(totals - net.total_assets)
                  <= 1e-9 * np.maximum(net.total_assets, 1.0)), \
        "completion must restore every row sum to its reported total"

    averages = cf.compute_average_weights(rows)
    for m in range(net.n_assets):
        contrib = np.array([r.holdings[m] / r.total_assets for r in rows
                            if r.holdings[m] is not None])
        assert contrib.size > 0
        assert averages.values[m] == np.mean(contrib), f"asset {m} mean not exact"

    with tempfile.TemporaryDirectory() as td:
        first = os.path.join(td, "completed.csv")
        cf.save_completed_csv(sheets, first)
        sheets2, report2 = cf.complete_dataset(cf.load_raw_csv(first))
        assert report2 == [], "re-completing a completed file must change nothing"
        second = os.path.join(td, "again.csv")
        cf.save_completed_csv(sheets2, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read(), "completion is not idempotent"
    return f"500 banks, {blanks} blank cells ({blanks / mask.size:.1%})"


def criterion_9():
    """Identical bytes from every analysis command across reruns and --jobs."""
    cases = [
        ("run",
         lambda out: ["run", "--synthetic", "n=50", "--p", "0.6", "--alpha", "0.3",
                      "--eta", "0.26", "--seed", "11",
                      "--out", os.path.join(out, "result.json")],
         ["result.json"], False),
        ("sweep",
         lambda out: ["sweep", "--synthetic", "n=120", "--p", "0:1:0.25",
                      "--alpha", "0:0.2:0.1", "--eta", "0.26", "--seed", "11",
                      "--out", out],
         ["survival.csv", "manifest.json"], True),
        ("roc",
         lambda out: ["roc", "--synthetic",
                      "n=120,label_asset=0,label_p=0.5,label_alpha=0,label_eta=0",
                      "--p", "0.3:0.9:0.3", "--alpha", "0:0.4:0.2",
                      "--eta", "0:0.2:0.1", "--replicates", "2", "--seed", "11",
                      "--out", out],
         ["roc.csv", "manifest.json"], True),
        ("phase",
         lambda out: ["phase", "--synthetic", "n=120", "--p", "0.5",
                      "--alpha", "0:1:0.25", "--eta", "0.1", "--replicates", "3",
                      "--seed", "11", "--out", out],
         ["phase.csv", "manifest.json"], True),
    ]
    with tempfile.TemporaryDirectory() as td:
        for name, argv_for, files, takes_jobs in cases:
            outs = [os.path.join(td, f"{name}{i}")
                    for i in range(3 if takes_jobs else 2)]
            for i, out in enumerate(outs):
                os.makedirs(out, exist_ok=True)
                argv = argv_for(out) + (["--jobs", "2"] if takes_jobs and i == 2
                                        else [])
                with redirect_stdout(io.StringIO()), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = cli.main(argv)
                assert code == 0, f"{name} exited {code}"
            for fname in files:
                blobs = []
                for out in outs:
                    with open(os.path.join(out, fname), "rb") as fh:
                        blobs.append(fh.read())
                assert all(b == blobs[0] for b in blobs[1:]), \
                    f"{name}/{fname}: bytes differ between runs"
                if fname.endswith(".csv"):
                    assert len(blobs[0].splitlines()) > 1, f"{name}/{fname} is empty"
    return "run/sweep/roc/phase stable across reruns and --jobs 2"


_REGISTRY = [
    (1, "barrier probability, Monte Carlo vs closed form", criterion_1),
    (2, "closed-form failed set at alpha=0, eta=0", criterion_2),
    (3, "engine equals reference loop on tiny instances", criterion_3),
    (4, "holdings factorization at every round boundary", criterion_4),
    (5, "nested survivor sets", criterion_5),
    (6, "ROC oracle and permuted-label diagonal", criterion_6),
    (7, "abrupt collapse and two-region phase plane", criterion_7),
    (8, "blanked-cell completion", criterion_8),
    (9, "byte-reproducible command outputs", criterion_9),
]


def _execute(entry):
    number, title, fn = entry
    start = time.perf_counter()
    try:
        detail = fn()
    except AssertionError as e:
        print(f"criterion {number}: FAIL - {title}: {e}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS - {title} ({detail}; {elapsed:.1f}s)",
          flush=True)


def test_criterion_1():
    _execute(_REGISTRY[0])


def test_criterion_2():
    _execute(_REGISTRY[1])


def test_criterion_3():
    _execute(_REGISTRY[2])


def test_criterion_4():
    _execute(_REGISTRY[3])


def test_criterion_5():
    _execute(_REGISTRY[4])


def test_criterion_6():
    _execute(_REGISTRY[5])


def test_criterion_7():
    _execute(_REGISTRY[6])


def test_criterion_8():
    _execute(_REGISTRY[7])


def test_criterion_9():
    _execute(_REGISTRY[8])


if __name__ == "__main__":
    failures = 0
    for entry in _REGISTRY:
        try:
            _execute(entry)
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
