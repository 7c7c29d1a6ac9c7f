"""Property tests: the engine against the reference loop on random instances,
and the lattice analyses against themselves across --jobs."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadefin as cf

from helpers import make_network, random_instance
from reference import brute_force_cascade

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
@given(small_markets(), grids, grids, st.sampled_from([0.0, 0.26]))
def test_survival_curves_same_at_jobs_2(market, ps, alphas, eta):
    net, labels, seed = market
    serial = cf.survival_curves(net, labels, 0, ps, alphas, eta, seed=seed)
    assert cf.survival_curves(net, labels, 0, ps, alphas, eta, seed=seed, jobs=2) == serial


@LATTICE
@given(small_markets(), grids, grids, etas, st.integers(1, 3))
def test_roc_grid_same_at_jobs_2(market, ps, alphas, eta_grid, replicates):
    net, labels, seed = market
    grid = cf.SweepGrid(tuple(alphas), tuple(eta_grid), tuple(ps))
    serial = cf.roc_grid(net, labels, 0, grid, seed=seed, replicates=replicates)
    assert len(serial) == 3 * grid.n_cells
    assert cf.roc_grid(net, labels, 0, grid, seed=seed, replicates=replicates,
                       jobs=2) == serial


@LATTICE
@given(small_markets(), grids, etas, st.integers(1, 3))
def test_phase_scan_same_at_jobs_2(market, alphas, eta_grid, replicates):
    net, _, seed = market
    kw = dict(replicates=replicates, seed=seed)
    axes = {"alpha": alphas, "eta": eta_grid}
    serial = cf.phase_scan(net, 0, axes, {"p": 0.5}, **kw)
    parallel = cf.phase_scan(net, 0, axes, {"p": 0.5}, jobs=2, **kw)
    assert np.array_equal(serial.mean_survival, parallel.mean_survival)
    if replicates >= 2:
        assert np.array_equal(serial.ci_half, parallel.ci_half)
    else:
        assert serial.ci_half is None and parallel.ci_half is None
    assert np.array_equal(serial.region, parallel.region)
