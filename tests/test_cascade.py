"""Engine semantics: barrier probability, shock, fire sale, full cascades.

The frozen numbers here were worked out by hand on paper first and the
reference simulator (tests/reference.py) was written before the engine, so
several tests cross-check the two implementations on the same RNG streams.
"""

import json
import warnings
from unittest import mock

import numpy as np
import pytest

import cascadefin as cf
from cascadefin import cli
from cascadefin.cascade import DOMAIN_CELL

from helpers import make_network, random_instance, toy_network
from reference import brute_force_cascade, failure_probability, full_barrier_round


def state_for(totals, liabilities):
    # K banks on a single unit-priced asset, one holding each
    totals = np.asarray(totals, dtype=np.float64).reshape(-1, 1)
    return cf.cascade.RoundState(
        alive=np.ones(totals.shape[0], dtype=bool),
        price_index=np.ones(1),
        market_value=np.array([float(totals.sum())]),
        holdings_base=totals,
        liabilities=np.asarray(liabilities, dtype=np.float64),
        bound=np.zeros(totals.shape[0]),   # no bound yet: every row is summed
    )


# --- Eq-style barrier probability ---------------------------------------

def test_failure_probability_branches():
    assert failure_probability(100.0, 100.0, 0.26) == 0.0
    assert failure_probability(120.0, 100.0, 0.26) == 0.0
    assert failure_probability(70.0, 100.0, 0.26) == 1.0
    assert failure_probability(90.0, 100.0, 0.26) == pytest.approx(10.0 / 26.0, rel=1e-15)
    assert failure_probability(80.0, 100.0, 0.5) == pytest.approx(0.4, rel=1e-15)


def test_failure_probability_eta_zero_is_a_step():
    assert failure_probability(99.999, 100.0, 0.0) == 1.0
    assert failure_probability(100.0, 100.0, 0.0) == 0.0


def test_failure_probability_domain():
    with pytest.raises(ValueError):
        failure_probability(-1.0, 10.0, 0.1)
    with pytest.raises(ValueError):
        failure_probability(10.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        failure_probability(10.0, 10.0, 0.6)
    with pytest.raises(ValueError):
        failure_probability(10.0, 10.0, -0.1)


def test_barrier_monte_carlo_matches_closed_form():
    # B=80, L=100, eta=0.5 sits in the interior branch at P=0.4
    k = 100_000
    state = state_for(np.full(k, 80.0), np.full(k, 100.0))
    params = cf.CascadeParams.single(0, 1.0, 0.0, 0.5)
    failures = cf.cascade.evaluate_round(state, params, cf.stream(1234))
    assert abs(failures.size / k - 0.4) < 0.01


# --- parameters ----------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        cf.CascadeParams.single(0, 0.5, 1.5, 0.0)
    with pytest.raises(ValueError, match="eta"):
        cf.CascadeParams.single(0, 0.5, 0.5, 0.7)
    with pytest.raises(ValueError, match="p must be"):
        cf.CascadeParams.single(0, -0.1, 0.5, 0.0)


def test_params_single_and_sorted_shocks():
    params = cf.CascadeParams.single(3, 0.6, 0.1, 0.2)
    assert params.shocked_assets == {3: 0.6}
    multi = cf.CascadeParams(alpha=0.0, eta=0.0, shocked_assets={1: 0.5, 0: 0.7})
    assert list(multi.shocked_assets) == [0, 1]


# --- shock ---------------------------------------------------------------
# At alpha = 0 a fire sale moves no price or market value, so a run's market
# is the post-shock one; the post-shock prices are price_trajectory[0].

def test_shock_scales_price_and_market():
    net = toy_network()
    result = cf.run_cascade(net, cf.CascadeParams.single(0, 0.6, 0.0, 0.0), None)
    assert np.allclose(result.price_trajectory[0], [0.6])
    assert np.allclose(result.market_value, [120.0])
    # the network itself is never touched
    assert np.array_equal(net.market_value, [200.0])
    # p = 1 is a no-op shock, p = 0 wipes the asset
    s1 = cf.run_cascade(net, cf.CascadeParams.single(0, 1.0, 0.0, 0.0), None)
    assert np.array_equal(s1.price_trajectory[0], [1.0])
    s0 = cf.run_cascade(net, cf.CascadeParams.single(0, 0.0, 0.0, 0.0), None)
    assert np.array_equal(s0.price_trajectory[0], [0.0])
    assert np.array_equal(s0.market_value, [0.0])


def test_shock_reduces_bank_total_per_holding():
    # a 100 holding of the shocked asset at p=0.6 costs a bank 40: 110 is
    # left, below the first bank's 111 and above the second's 109
    net = make_network([[100.0, 50.0], [100.0, 50.0]], [111.0, 109.0])
    result = cf.run_cascade(net, cf.CascadeParams.single(0, 0.6, 0.0, 0.0), None)
    totals = (net.holdings * result.price_trajectory[0]).sum(axis=1)
    assert totals == pytest.approx([110.0, 110.0])
    assert result.failed_round.tolist() == [1, cf.SURVIVED]


@pytest.mark.parametrize("shocks", [{0: 0.5}, {0: 0.5, 1: 0.6}],
                         ids=["dead-alone", "dead-then-live"])
def test_shock_on_dead_asset_raises(shocks):
    # nobody holds asset 0, so no shock can move it: the run is refused
    # outright, with no warning, even beside a live shocked asset
    net = make_network([[0.0, 100.0]], [50.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^shocked asset 0 has zero market value "):
            cf.run_cascade(net, cf.CascadeParams(0.0, 0.0, shocks), None)


def test_shock_unknown_asset_raises():
    for asset in (7, -1):
        with pytest.raises(ValueError, match=f"shocked asset {asset} not in network"):
            cf.run_cascade(toy_network(), cf.CascadeParams.single(asset, 0.5, 0.0, 0.0), None)


# --- round evaluation ----------------------------------------------------

def test_evaluate_round_eta_zero_needs_no_rng():
    state = state_for([90.0, 110.0], [100.0, 100.0])
    params = cf.CascadeParams.single(0, 1.0, 0.0, 0.0)
    failures = cf.cascade.evaluate_round(state, params, None)
    assert failures.tolist() == [0]
    assert state.alive.tolist() == [False, True]


def test_evaluate_round_records_draws_for_alive_banks():
    state = state_for([90.0, 110.0, 80.0], [100.0, 100.0, 100.0])
    state.alive[2] = False
    params = cf.CascadeParams.single(0, 1.0, 0.0, 0.26)
    rng = cf.stream(5)
    failures = cf.cascade.evaluate_round(state, params, rng)
    # one uniform per alive bank, ascending; only bank 0 can fail
    r = cf.stream(5).random(2) * 0.26
    assert failures.tolist() == ([0] if 90.0 < (1.0 - r[0]) * 100.0 else [])
    assert rng.random() == cf.stream(5).random(3)[2]
    assert not state.alive[2]


def test_evaluate_round_simultaneous_at_fixed_prices():
    # both marginal banks are judged at the same pre-round prices
    state = state_for([99.0, 99.5], [100.0, 100.0])
    failures = cf.cascade.evaluate_round(state, cf.CascadeParams.single(0, 1.0, 0.0, 0.0), None)
    assert failures.tolist() == [0, 1]


class RowCounter(np.ndarray):
    """A holdings matrix that records how many rows each take gathers."""

    def take(self, idx, axis=None):
        self.gathered.append(np.size(idx))
        return np.asarray(self).take(idx, axis=axis)


def screening_run(liabilities, market_value=None):
    # A and B hold 100 of asset 0 and C 100 of asset 1; p = 0.5 shocks asset
    # 0 and alpha is 0.5. Returns the run and the rows each take gathered,
    # in the barrier passes and the fire sales alike
    net = make_network([[100.0, 0.0], [100.0, 0.0], [0.0, 100.0]], liabilities,
                       market_value=market_value)
    net.holdings = net.holdings.view(RowCounter)
    net.holdings.gathered = []
    result = cf.run_cascade(net, cf.CascadeParams.single(0, 0.5, 0.5, 0.0), None)
    return result, net.holdings.gathered


def test_barrier_pass_skips_banks_their_bound_proves_solvent():
    # each bound starts at its row's total, 100, so round 0 sums no row. The
    # shock scales every bound by 0.5 less the margin, to within 1e-9 below
    # 50: A, against 50 - 1e-9, is skipped, and B, whose total is exactly
    # its 50, and C are summed
    result, gathered = screening_run([50.0 - 1e-9, 50.0, 99.0])
    assert result.failed_round.tolist() == [cf.SURVIVED] * 3
    assert gathered == [0, 2]
    # B fails against 95, and its sale (factor 0.75 on asset 0) takes A's
    # bound to within 1e-9 below 37.5, above its 37.5 - 1e-9, and C's, 100
    # as its row was summed, to within 1e-9 below 75, above its 75 - 1e-9:
    # round 2 sums no row
    result, gathered = screening_run([37.5 - 1e-9, 95.0, 75.0 - 1e-9])
    assert result.failed_round.tolist() == [cf.SURVIVED, 1, cf.SURVIVED]
    assert gathered == [0, 2, 1, 0]


def test_round_zero_sums_only_banks_below_their_row_total():
    # round 0 runs at prices 1, so each bound starts as its row's total: only
    # bank 1, whose 90 lies below its 95, is summed, and it fails
    net = make_network([[100.0, 0.0], [50.0, 40.0], [10.0, 10.0]], [50.0, 95.0, 10.0])
    net.holdings = net.holdings.view(RowCounter)
    net.holdings.gathered = []
    result = cf.run_cascade(net, cf.CascadeParams.single(0, 1.0, 0.0, 0.0), cf.stream(0))
    assert result.failed_round.tolist() == [cf.SURVIVED, 0, cf.SURVIVED]
    assert net.holdings.gathered == [1, 0]


def test_fortran_ordered_holdings_run_bit_for_bit():
    # a Fortran-ordered matrix sums its rows in another order than a gathered
    # C-ordered row; the network stores holdings C-contiguous, so the round-0
    # bounds carry the bits the full pass sums. Every even bank's liabilities
    # lie one ulp above its total, so one ulp up in a bound would save it
    gen = cf.stream(11)
    holdings = gen.uniform(0.0, 1.0, (60, 13)) * 10.0 ** gen.integers(-6, 7, (60, 13))
    totals = holdings.sum(axis=1)
    liabilities = np.where(np.arange(60) % 2 == 0, np.nextafter(totals, np.inf), 0.9 * totals)
    nets = [make_network(h, liabilities) for h in (holdings, np.asfortranarray(holdings))]
    assert all(net.holdings.flags.c_contiguous for net in nets)
    for eta, preshock in ((0.0, 30), (0.2, 0)):
        params = cf.CascadeParams.single(0, 0.5, 0.3, eta)
        runs = [cf.run_cascade(net, params, rng=cf.stream(5)) for net in nets]
        with mock.patch.object(cf.cascade, "evaluate_round", full_barrier_round):
            runs.append(cf.run_cascade(nets[0], params, rng=cf.stream(5)))
        assert runs[0].failures_per_round[0] == preshock
        for run in runs[1:]:
            assert run.failed_round.tobytes() == runs[0].failed_round.tobytes()
            assert run.failures_per_round == runs[0].failures_per_round
            assert run.price_trajectory.tobytes() == runs[0].price_trajectory.tobytes()
            assert run.market_value.tobytes() == runs[0].market_value.tobytes()
            assert run.diagnostics == runs[0].diagnostics


def test_clamped_fire_sale_forces_a_full_pass():
    # asset 0 is tracked at 30, below its holdings, so B's sale in round 1
    # clamps it. The clamp zeroes every bound: round 2 sums A and C again,
    # and A fails at price 0; A's sale moves no price, so round 3 skips C
    result, gathered = screening_run([10.0, 95.0, 99.0], market_value=[30.0, 100.0])
    assert result.diagnostics["clamp_events"] == [[1, 0]]
    assert result.failed_round.tolist() == [2, 1, cf.SURVIVED]
    assert gathered == [0, 2, 1, 2, 1, 0]


# --- fire sale -----------------------------------------------------------

def test_fire_sale_worked_example():
    # A=200, failed bank holds 50, alpha=0.5: D=25, f=0.875, 100 -> 87.5
    state = state_for([50.0, 100.0, 50.0], [60.0, 60.0, 60.0])
    state.alive[0] = False
    params = cf.CascadeParams.single(0, 1.0, 0.5, 0.0)
    clamped = cf.cascade.apply_fire_sales(state, np.array([0]), params)
    assert state.price_index[0] == pytest.approx(0.875, rel=1e-15)
    assert state.market_value[0] == pytest.approx(175.0, rel=1e-15)
    holdings = state.holdings_base * state.price_index
    assert holdings[1, 0] == pytest.approx(87.5, rel=1e-15)
    assert clamped == []


def test_fire_sale_alpha_zero_changes_nothing():
    state = state_for([50.0, 100.0], [60.0, 60.0])
    assert cf.cascade.apply_fire_sales(state, np.array([0]),
                                       cf.CascadeParams.single(0, 1.0, 0.0, 0.0)) == []
    assert state.price_index[0] == 1.0
    assert state.market_value[0] == 150.0


def test_fire_sale_requires_failures():
    state = state_for([50.0], [60.0])
    with pytest.raises(ValueError, match="non-empty"):
        cf.cascade.apply_fire_sales(state, np.array([], dtype=np.int64),
                                    cf.CascadeParams.single(0, 1.0, 0.5, 0.0))


def test_fire_sale_clamps_oversold_asset():
    # defensive path: a deduction exceeding the tracked value pins price at 0
    state = cf.cascade.RoundState(
        alive=np.array([True]),
        price_index=np.ones(1),
        market_value=np.array([20.0]),
        holdings_base=np.array([[30.0]]),
        liabilities=np.array([10.0]),
        bound=np.zeros(1),
    )
    clamped = cf.cascade.apply_fire_sales(state, np.array([0]),
                                          cf.CascadeParams.single(0, 1.0, 1.0, 0.0))
    assert clamped == [0]
    assert state.price_index[0] == 0.0
    assert state.market_value[0] == 0.0


def test_fire_sale_leaves_a_worthless_asset_nobody_sells():
    # asset 0 is worth nothing and the failed bank holds none of it: selling
    # asset 1 goes through, leaves asset 0 as it was, and prices asset 1 as
    # in a market where every asset has value
    def sale(market_value):
        state = cf.cascade.RoundState(alive=np.array([False, True]), price_index=np.ones(2),
                                      market_value=np.array(market_value),
                                      holdings_base=np.array([[0.0, 30.0], [0.0, 50.0]]),
                                      liabilities=np.array([40.0, 40.0]), bound=np.zeros(2))
        params = cf.CascadeParams.single(1, 1.0, 0.3, 0.0)
        assert cf.cascade.apply_fire_sales(state, np.array([0]), params) == []
        return state

    dead, live = sale([0.0, 80.0]), sale([5.0, 80.0])
    assert (dead.price_index[0], dead.market_value[0]) == (1.0, 0.0)
    assert dead.price_index[1] < 1.0
    assert dead.price_index[1].tobytes() == live.price_index[1].tobytes()
    assert dead.market_value[1].tobytes() == live.market_value[1].tobytes()


def test_fire_sale_on_zero_value_asset_raises():
    # holdings of an asset whose market value is already 0 cannot be sold
    state = cf.cascade.RoundState(
        alive=np.array([True]),
        price_index=np.ones(1),
        market_value=np.array([0.0]),
        holdings_base=np.array([[30.0]]),
        liabilities=np.array([10.0]),
        bound=np.zeros(1),
    )
    with pytest.raises(ValueError, match="zero-value asset"):
        cf.cascade.apply_fire_sales(state, np.array([0]),
                                    cf.CascadeParams.single(0, 1.0, 1.0, 0.0))


# --- full cascades -------------------------------------------------------

def test_toy_cascade_frozen_trace():
    # p=0.6, alpha=1, eta=0: A fails round 1 (60 < 70), the sale halves the
    # price twice more, B follows round 2; final index 0.15, market 30
    result = cf.run_cascade(toy_network(), cf.CascadeParams.single(0, 0.6, 1.0, 0.0),
                            cf.stream(0))
    assert result.failed_round.tolist() == [1, 2]
    assert result.rounds_executed == 2
    assert result.failures_per_round == [0, 1, 1]
    assert result.price_index[0] == pytest.approx(0.15, rel=1e-12)
    assert result.market_value[0] == pytest.approx(30.0, rel=1e-12)
    assert np.allclose(result.price_trajectory, [[0.6], [0.3], [0.15]], rtol=1e-12)
    assert not result.diagnostics["non_converged"]


def test_toy_cascade_brute_force_agreement():
    bf = brute_force_cascade([[100.0], [100.0]], [70.0, 55.0], {0: 0.6}, 1.0, 0.0)
    assert bf["failed_round"] == [1, 2]
    assert bf["rounds"] == 2
    assert bf["price_index"][0] == pytest.approx(0.15, rel=1e-12)
    assert bf["market_value"][0] == pytest.approx(30.0, rel=1e-12)


def test_preshock_insolvency_tagged_round_zero():
    net = make_network([[100.0], [100.0]], [120.0, 50.0])
    result = cf.run_cascade(net, cf.CascadeParams.single(0, 1.0, 1.0, 0.0), cf.stream(0))
    assert result.failed_round.tolist() == [0, -1]
    assert result.diagnostics["preshock_failed"] == 1
    # prices were still 1 when the shock landed: no round-0 fire sale
    assert np.array_equal(result.price_trajectory[0], [1.0])
    assert result.failures_per_round[0] == 1


def test_eta_zero_is_seed_independent():
    net = make_network(*random_instance(cf.stream(77)))
    params = cf.CascadeParams.single(0, 0.5, 0.8, 0.0)
    a = cf.run_cascade(net, params, cf.stream(1))
    b = cf.run_cascade(net, params, cf.stream(999))
    assert np.array_equal(a.failed_round, b.failed_round)
    assert np.array_equal(a.price_index, b.price_index)
    # eta = 0 draws nothing, so it runs without a generator
    c = cf.run_cascade(net, params, None)
    assert np.array_equal(a.failed_round, c.failed_round)
    assert np.array_equal(a.price_trajectory, c.price_trajectory)


def test_positive_eta_without_a_generator_raises():
    # a check of its own, before any round: evaluate_round would otherwise
    # fail on None.random with an AttributeError
    params = cf.CascadeParams.single(0, 0.5, 0.8, 0.26)
    with pytest.raises(ValueError, match="pass a generator"):
        cf.run_cascade(toy_network(), params, None)


def test_fixed_seed_is_deterministic_at_positive_eta():
    net = make_network(*random_instance(cf.stream(78)))
    params = cf.CascadeParams.single(0, 0.4, 0.6, 0.26)
    a = cf.run_cascade(net, params, cf.stream(42))
    b = cf.run_cascade(net, params, cf.stream(42))
    assert np.array_equal(a.failed_round, b.failed_round)
    assert np.array_equal(a.price_trajectory, b.price_trajectory)


def test_max_rounds_flags_non_convergence():
    result = cf.run_cascade(toy_network(),
                            cf.CascadeParams(alpha=1.0, eta=0.0, shocked_assets={0: 0.6},
                                             max_rounds=1),
                            cf.stream(0))
    assert result.diagnostics["non_converged"]
    assert result.rounds_executed == 1
    assert result.failed_round.tolist() == [1, -1]


# --- run's JSON: survival fractions and layout, built around run_cascade ----

def run_json(tmp_path, capsys, *argv):
    # three banks on one asset: p=0.6, alpha=1 fails A in round 1 and B in
    # round 2; C's slack outlives both fire sales
    path = tmp_path / "trio.csv"
    path.write_text("bank_id,total_assets,total_liabilities,asset_00\n"
                    "A,100.0,70.0,100.0\n"
                    "B,100.0,55.0,100.0\n"
                    "C,100.0,8.0,100.0\n")
    code = cli.main(["run", "--input", str(path), "--p", "0.6", "--alpha", "1", *argv])
    return code, json.loads(capsys.readouterr().out or "null")


def test_survival_fractions_with_labels(tmp_path, capsys):
    def labeled(*ids):
        path = tmp_path / "labels.csv"
        path.write_text("bank_id\n" + "".join(f"{i}\n" for i in ids))
        return run_json(tmp_path, capsys, "--labels", str(path))

    code, doc = labeled("B", "C")
    assert code == 0
    assert doc["survival_fraction_all"] == pytest.approx(1 / 3, rel=1e-15)
    assert doc["survival_fraction_labeled"] == 0.5
    # a repeated id counts its bank once; an id naming no bank is not counted
    assert labeled("C", "C", "ghost")[1]["survival_fraction_labeled"] == 1.0
    # a label set naming no bank of the network is refused, not written as null
    assert labeled("ghost")[0] == 2


def test_json_dict_layout(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys)
    assert code == 0
    assert doc["fates"] == [1, 2, None]
    assert doc["rounds"] == 3
    assert doc["price_index"] == [pytest.approx(0.6 * (2 / 3) * (2 / 3), rel=1e-12)]
    assert list(doc["diagnostics"]) == ["preshock_failed", "clamp_events", "non_converged"]


def test_matches_brute_force_on_random_instances():
    checked = refused = 0
    for trial in range(120):
        g = cf.stream(5000 + trial)
        holdings, liabilities = random_instance(g, n_hi=8, m_hi=3, zero_frac=0.3)
        alpha = float(g.choice([0.0, 0.3, 0.7, 1.0]))
        eta = float(g.choice([0.0, 0.2, 0.5]))
        p = float(g.choice([0.0, 0.4, 0.8, 1.0]))
        asset = int(g.integers(0, holdings.shape[1]))
        params = cf.CascadeParams.single(asset, p, alpha, eta)
        net = make_network(holdings, liabilities)
        if not holdings[:, asset].any():
            # nobody holds the asset: both refuse its shock
            with pytest.raises(ValueError, match="zero market value"):
                cf.run_cascade(net, params, rng=cf.stream(trial, DOMAIN_CELL))
            with pytest.raises(ValueError, match="zero market value"):
                brute_force_cascade(holdings.tolist(), liabilities.tolist(), {asset: p},
                                    alpha, eta, rng=cf.stream(trial, DOMAIN_CELL))
            refused += 1
            continue
        result = cf.run_cascade(net, params, rng=cf.stream(trial, DOMAIN_CELL))
        bf = brute_force_cascade(holdings.tolist(), liabilities.tolist(),
                                 {asset: p}, alpha, eta,
                                 rng=cf.stream(trial, DOMAIN_CELL))
        assert result.failed_round.tolist() == bf["failed_round"]
        assert result.rounds_executed == bf["rounds"]
        assert result.failures_per_round == bf["failures_per_round"]
        assert np.allclose(result.price_index, bf["price_index"], rtol=1e-12, atol=0)
        assert np.allclose(result.market_value, bf["market_value"], rtol=1e-12, atol=1e-9)
        checked += 1
    assert (checked, refused) == (119, 1)


def test_price_index_never_increases():
    for trial in range(30):
        g = cf.stream(6200 + trial)
        holdings, liabilities = random_instance(g, n_hi=20, m_hi=4)
        params = cf.CascadeParams.single(0, float(g.uniform(0, 1)),
                                         float(g.uniform(0, 1)),
                                         float(g.choice([0.0, 0.26])))
        result = cf.run_cascade(make_network(holdings, liabilities), params, cf.stream(trial))
        trajectory = result.price_trajectory
        assert np.all(np.diff(trajectory, axis=0) <= 1e-15)
        assert np.all(trajectory >= 0.0)
        assert np.all(trajectory <= 1.0 + 1e-15)
