"""Property tests: the engine against the reference loop on random instances,
screened barrier passes against full ones, nested survivor sets, the lattice
analyses against themselves across --jobs and the ROC reducer against a
bank-by-bank count, and columnar completion against the row-by-row
reference."""

import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadefin as cf

from helpers import make_network, random_instance
from reference import brute_force_cascade, brute_force_roc, complete_rows, full_barrier_round

# derandomized, so every run of the suite checks the same examples
ENGINE = settings(max_examples=300, deadline=None, derandomize=True, database=None)
LATTICE = settings(max_examples=4, deadline=None, derandomize=True, database=None)

# p and alpha stay at 0 or above 1e-6: at subnormal magnitudes alpha * sum(B)
# (engine) and sum(alpha * B) (reference) underflow differently
prices = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(1e-6, 1.0))


@st.composite
def instances(draw):
    """(holdings, liabilities, shocks, alpha, eta, seed); some shocked assets
    may have no holder at all."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4))
    cell = st.one_of(st.just(0.0), st.floats(0.5, 100.0))
    holdings = np.array(draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                      min_size=n, max_size=n)))
    dead = draw(st.sets(st.integers(0, m - 1), max_size=m - 1))
    holdings[:, sorted(dead)] = 0.0
    leverage = np.array(draw(st.lists(st.floats(0.6, 1.1), min_size=n, max_size=n)))
    shocks = draw(st.dictionaries(st.integers(0, m - 1), prices, min_size=1, max_size=m))
    alpha = draw(prices)
    eta = draw(st.one_of(st.sampled_from([0.0, 0.26, 0.5]), st.floats(0.0, 0.5)))
    seed = draw(st.integers(0, 2**32 - 1))
    return holdings, leverage * holdings.sum(axis=1), shocks, alpha, eta, seed


@ENGINE
@given(instances())
def test_engine_matches_reference(instance):
    holdings, liabilities, shocks, alpha, eta, seed = instance
    params = cf.CascadeParams(alpha=alpha, eta=eta, shocked_assets=shocks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = cf.run_cascade(make_network(holdings, liabilities), params,
                             rng=cf.stream(seed))
    ref = brute_force_cascade(holdings.tolist(), liabilities.tolist(), shocks,
                              alpha, eta, rng=cf.stream(seed))
    assert res.failed_round.tolist() == ref["failed_round"]
    assert res.rounds_executed == ref["rounds"]
    assert res.failures_per_round == ref["failures_per_round"]
    # absolute: when a sale takes nearly the whole market (alpha near 1, every
    # holder failing), A - D cancels and only absolute precision survives
    assert np.allclose(res.price_index, ref["price_index"], rtol=0.0, atol=1e-12)
    assert np.allclose(res.market_value, ref["market_value"], rtol=1e-12, atol=1e-9)
    assert res.diagnostics["shock_skipped_assets"] == \
        [m for m in sorted(shocks) if not holdings[:, m].any()]


@st.composite
def barrier_instances(draw):
    """(holdings, liabilities, market values, shocks, alpha, eta, seed) that
    put banks at or next to the barrier. Holdings are multiples of 1/8, so a
    row sums exactly in any order and a total can equal its liabilities;
    leverage is 1, just below 1, or 0 (a bank without liabilities); alpha
    near 1 sells off nearly a whole market, so price factors come close to 0;
    markets shrunk below the holdings' sum make sales clamp; p may be 0."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 4))
    eighths = st.integers(0, 800).map(lambda k: k / 8.0)
    holdings = np.array(draw(st.lists(st.lists(eighths, min_size=m, max_size=m),
                                      min_size=n, max_size=n)))
    leverage = np.array(draw(st.lists(
        st.one_of(st.sampled_from([1.0, 1.0 - 1e-12, 0.0]), st.floats(0.9, 1.0)),
        min_size=n, max_size=n)))
    shrink = np.array(draw(st.lists(st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
                                    min_size=m, max_size=m)))
    shocks = draw(st.dictionaries(
        st.integers(0, m - 1), st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.8, 1.0)),
        min_size=1, max_size=m))
    alpha = draw(st.one_of(st.sampled_from([1.0, 1.0 - 1e-9, 0.5]), st.floats(0.9, 1.0)))
    eta = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    seed = draw(st.integers(0, 2**32 - 1))
    return (holdings, leverage * holdings.sum(axis=1), holdings.sum(axis=0) * shrink,
            shocks, alpha, eta, seed)


@ENGINE
@given(barrier_instances())
def test_screening_changes_nothing_at_the_barrier(instance):
    holdings, liabilities, market, shocks, alpha, eta, seed = instance
    net = make_network(holdings, liabilities, market_value=market)
    params = cf.CascadeParams(alpha=alpha, eta=eta, shocked_assets=shocks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = cf.run_cascade(net, params, rng=cf.stream(seed))
        with mock.patch.object(cf.cascade, "evaluate_round", full_barrier_round):
            full = cf.run_cascade(net, params, rng=cf.stream(seed))
    # summing every row gives the same run, to the bit
    assert res.failed_round.tobytes() == full.failed_round.tobytes()
    assert res.failures_per_round == full.failures_per_round
    assert res.price_trajectory.tobytes() == full.price_trajectory.tobytes()
    assert res.market_value.tobytes() == full.market_value.tobytes()
    assert res.diagnostics == full.diagnostics
    ref = brute_force_cascade(holdings.tolist(), liabilities.tolist(), shocks,
                              alpha, eta, rng=cf.stream(seed), market=market.tolist())
    assert res.failed_round.tolist() == ref["failed_round"]
    assert res.rounds_executed == ref["rounds"]
    assert res.failures_per_round == ref["failures_per_round"]
    assert np.allclose(res.price_index, ref["price_index"], rtol=0.0, atol=1e-12)


@ENGINE
@given(instances(), prices, prices, prices, prices)
def test_survivor_sets_nest_at_eta_zero(instance, p1, p2, alpha1, alpha2):
    # a deeper shock or a larger alpha never saves a bank
    holdings, liabilities, _, _, _, _ = instance
    net = make_network(holdings, liabilities)

    def survivors(p, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = cf.run_cascade(net, cf.CascadeParams.single(0, p, alpha, 0.0))
        return set(np.flatnonzero(res.failed_round == cf.SURVIVED).tolist())

    p_lo, p_hi = sorted((p1, p2))
    a_lo, a_hi = sorted((alpha1, alpha2))
    assert survivors(p_lo, a_hi) <= survivors(p_lo, a_lo) <= survivors(p_hi, a_lo)
    assert survivors(p_lo, a_hi) <= survivors(p_hi, a_hi) <= survivors(p_hi, a_lo)


@st.composite
def small_markets(draw):
    """A random network of up to 30 banks and a label set drawn from it."""
    seed = draw(st.integers(0, 2**32 - 1))
    holdings, liabilities = random_instance(cf.stream(seed), n_lo=4, n_hi=30, m_hi=4)
    net = make_network(holdings, liabilities)
    labels = draw(st.sets(st.sampled_from(net.bank_ids), min_size=1,
                          max_size=net.n_banks - 1))
    return net, labels, draw(st.integers(0, 1000))


# at least two values, so every lattice has cells for both workers
grids = st.lists(prices, min_size=2, max_size=3)
etas = st.lists(st.sampled_from([0.0, 0.1, 0.26]), min_size=1, max_size=2)


@LATTICE
@given(small_markets(), grids, grids, etas)
def test_survival_curves_same_at_jobs_2(market, ps, alphas, eta_grid):
    net, labels, seed = market
    serial = cf.survival_curves(net, labels, 0, ps, alphas, eta_grid, seed=seed)
    assert len(serial) == len(ps) * len(alphas) * len(eta_grid)
    assert cf.survival_curves(net, labels, 0, ps, alphas, eta_grid, seed=seed, jobs=2) == serial


@LATTICE
@given(small_markets(), grids, grids, etas, st.integers(1, 3))
def test_roc_grid_same_at_jobs_2(market, ps, alphas, eta_grid, replicates):
    net, labels, seed = market
    serial = cf.roc_grid(net, labels, 0, ps, alphas, eta_grid, seed=seed,
                         replicates=replicates)
    assert len(serial) == 3 * len(ps) * len(alphas) * len(eta_grid)
    assert cf.roc_grid(net, labels, 0, ps, alphas, eta_grid, seed=seed,
                       replicates=replicates, jobs=2) == serial


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_markets(), grids, grids, etas, st.integers(1, 4))
def test_roc_grid_matches_bank_by_bank_count(market, ps, alphas, eta_grid, replicates):
    # even replicate counts put banks on a tied vote, which is not a majority
    net, labels, seed = market
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        points = cf.roc_grid(net, labels, 0, ps, alphas, eta_grid, seed=seed,
                             replicates=replicates)
        expect = brute_force_roc(net, labels, 0, alphas, eta_grid, ps, seed, replicates)
    n_pos = len(labels)
    assert [(pt.alpha, pt.eta, pt.p, pt.split, pt.true_positives) for pt in points] == \
        [cell[:5] for cell in expect]
    assert [(pt.tpr, pt.fpr) for pt in points] == \
        [(tp / n_pos, fp / (net.n_banks - n_pos)) for *_, tp, fp in expect]


@LATTICE
@given(small_markets(), grids, etas, st.integers(1, 3))
def test_phase_scan_same_at_jobs_2(market, alphas, eta_grid, replicates):
    net, _, seed = market
    kw = dict(replicates=replicates, seed=seed)
    serial = cf.phase_scan(net, 0, [0.5], alphas, eta_grid, **kw)
    parallel = cf.phase_scan(net, 0, [0.5], alphas, eta_grid, jobs=2, **kw)
    assert np.array_equal(serial.mean_survival, parallel.mean_survival)
    if replicates >= 2:
        assert np.array_equal(serial.ci_half, parallel.ci_half)
    else:
        assert serial.ci_half is None and parallel.ci_half is None
    assert np.array_equal(serial.region, parallel.region)


@st.composite
def raw_tables(draw):
    """(total assets, holdings with NaN blanks) of up to 8 banks and 16
    assets, so rows reach numpy's pairwise summation blocks. Rows may be
    consistent, off their total either way (with or without blanks), all
    zero with a positive total, or have a zero total; some columns hold only
    zeros, and row 0 may be a complete donor row."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 16))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))
    holdings = np.array(draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                      min_size=n, max_size=n)))
    holdings[:, sorted(draw(st.sets(st.integers(0, m - 1), max_size=m)))] = 0.0
    blank = np.array(draw(st.lists(st.lists(st.sampled_from([False, False, False, True]),
                                            min_size=m, max_size=m),
                                   min_size=n, max_size=n)))
    factor = np.array(draw(st.lists(st.one_of(st.sampled_from([1.0, 0.0]),
                                              st.floats(0.5, 1.5)),
                                    min_size=n, max_size=n)))
    totals = holdings.sum(axis=1) * factor
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        holdings[i] = 0.0
        blank[i] = False
        totals[i] = draw(st.floats(1.0, 1e6))
    if draw(st.booleans()):
        blank[0] = False
        totals[0] = holdings[0].sum()
    return totals, np.where(blank, np.nan, holdings)


@ENGINE
@given(raw_tables())
def test_completion_matches_row_by_row_reference(tab):
    totals, holdings = tab
    ids = tuple(f"b{i}" for i in range(len(totals)))
    raw = cf.RawTable(ids, totals, 0.9 * totals, holdings, np.arange(len(ids)) + 2)
    try:
        avg, expect, report = complete_rows(ids, totals, holdings)
    except (ValueError, cf.SchemaError) as e:
        with pytest.raises(type(e)) as got:
            cf.complete_dataset(raw)
        assert str(got.value) == str(e)
        return
    assert cf.compute_average_weights(raw).tobytes() == avg.tobytes()
    net, got_report = cf.complete_dataset(raw)
    assert net.holdings.tobytes() == expect.tobytes()
    assert json.dumps(got_report) == json.dumps(report)
    sums = net.holdings.sum(axis=1)
    assert np.all(np.abs(sums - totals) <= 1e-9 * np.maximum(totals, 1.0))
