"""The bank-asset network: validation and derived quantities."""

import numpy as np
import pytest
from numpy.dtypes import StringDType
from scipy import stats

import cascadefin as cf
from cascadefin.network import SUM_RTOL

from helpers import dense_synthetic, make_network


def test_default_mean_weights_are_per_holder_averages():
    w = cf.DEFAULT_MEAN_WEIGHTS
    assert w.shape == (13,)
    assert np.all(w > 0)
    # averages over holders only, so they deliberately do not sum to 1
    assert 0.8 < w.sum() < 0.9
    assert len(cf.ASSET_NAMES) == w.size


@pytest.mark.parametrize("holdings, liabilities, message", [
    ([[1.0], [-1.0]], [0.5, 0.5], "bank b001: negative holding"),
    ([[1.0], [1.0]], [0.5, -5.0], "negative liabilities"),
], ids=["holding", "liabilities"])
def test_network_rejects_negatives(holdings, liabilities, message):
    with pytest.raises(ValueError, match=message):
        make_network(holdings, liabilities)


def test_network_validates_holdings_sum():
    with pytest.raises(ValueError, match="bank b1"):
        cf.BankAssetNetwork(
            bank_ids=("b0", "b1"),
            holdings=np.array([[50.0, 50.0], [10.0, 10.0]]),
            total_assets=np.array([100.0, 30.0]),
            total_liabilities=np.array([90.0, 20.0]),
        )


def test_network_sum_tolerance_is_relative():
    b = 1e9
    wiggle = 0.5 * SUM_RTOL * b
    net = cf.BankAssetNetwork(
        bank_ids=("b0",),
        holdings=np.array([[b + wiggle]]),
        total_assets=np.array([b]),
        total_liabilities=np.array([0.5 * b]),
    )
    assert net.n_banks == 1


def test_network_sum_tolerance_is_absolute_below_a_total_of_1():
    # SUM_RTOL of 1, not of the total, for totals below 1
    net = cf.BankAssetNetwork(("b0",), np.array([[0.5 * SUM_RTOL]]), np.array([0.0]),
                              np.array([0.0]))
    assert net.n_banks == 1


@pytest.mark.parametrize("ids, holdings", [
    (("b0",), [3.0]),
    (("b0", "b1"), [[1.0, 2.0]]),
    (np.array([["b0"], ["b1"]], dtype=StringDType()), [[1.0], [2.0]]),
], ids=["1-d-holdings", "more-ids-than-rows", "2-d-ids"])
def test_network_needs_one_holdings_row_per_bank_id(ids, holdings):
    with pytest.raises(ValueError, match="bank ids do not match the rows"):
        cf.BankAssetNetwork(ids, np.array(holdings), np.array([3.0]), np.array([1.0]))


def test_network_rejects_duplicate_ids():
    # a duplicate is found whether or not it follows its first
    for ids in (("same", "same"), ("b", "a", "b")):
        with pytest.raises(ValueError, match="duplicate"):
            make_network([[1.0]] * len(ids), [0.5] * len(ids), ids=ids)
    # a trailing NUL makes another id, and repeats like any other character
    assert make_network([[1.0]] * 2, [0.5] * 2, ids=("a", "a\x00")).n_banks == 2
    with pytest.raises(ValueError, match="duplicate"):
        make_network([[1.0]] * 3, [0.5] * 3, ids=("a\x00", "a", "a\x00"))


def test_network_keeps_a_string_column_it_is_handed():
    # the column ingest parses into is the network's, not a copy of it
    ids = np.array(["b0", "b1"], dtype=StringDType())
    net = cf.BankAssetNetwork(ids, np.ones((2, 1)), np.ones(2), np.full(2, 0.5))
    assert net.bank_ids is ids
    # a tuple, a list or another dtype becomes the same kind of column
    for given in (("b0", "b1"), ["b0", "b1"], np.array(["b0", "b1"])):
        net = cf.BankAssetNetwork(given, np.ones((2, 1)), np.ones(2), np.full(2, 0.5))
        assert isinstance(net.bank_ids.dtype, StringDType)
        assert net.bank_ids.shape == (2,)
        assert [type(b) for b in net.bank_ids] == [str, str]
        assert tuple(net.bank_ids) == ("b0", "b1")



@pytest.mark.parametrize("holdings, liabilities, name", [
    ([[np.nan], [1.0]], [0.5, 0.5], "holdings"),
    ([[1.0], [1.0]], [0.5, np.inf], "total_liabilities"),
], ids=["nan-holding", "inf-liabilities"])
def test_network_rejects_non_finite_values(holdings, liabilities, name):
    # NaN fails no comparison, so only an explicit check stops it
    with pytest.raises(ValueError, match=f"{name} has a non-finite value"):
        make_network(holdings, liabilities)


def test_derived_quantities():
    net = make_network([[60.0, 40.0], [0.0, 10.0]], [80.0, 5.0])
    assert np.array_equal(net.market_value, [60.0, 50.0])
    assert net.mask(["nope", "b001", "b000", "b001"]).tolist() == [True, True]
    assert net.mask(["b001"]).tolist() == [False, True]
    assert net.mask(None).tolist() == [False, False]


def test_network_from_sheets_refuses_an_empty_table():
    empty = cf.RawTable((), np.empty(0), np.empty(0), np.empty((0, 1)))
    with pytest.raises(ValueError, match="empty network"):
        cf.network_from_sheets(empty)


def test_failed_banks_have_lower_equity_ratio():
    # the classic separation: cascade failures concentrate among thin-equity
    # banks, so a two-sample KS test rejects identical distributions
    net, labels = dense_synthetic(800, seed=91, label_asset=0, label_p=0.3, label_alpha=0.0,
                                  label_eta=0.0)
    assert 30 < len(labels) < 770
    ratio = (net.total_assets - net.total_liabilities) / net.total_assets
    failed_mask = np.array([b in labels for b in net.bank_ids])
    ks = stats.ks_2samp(ratio[failed_mask], ratio[~failed_mask])
    assert ks.pvalue < 1e-6
    assert ratio[failed_mask].mean() < ratio[~failed_mask].mean()
    same = stats.ks_2samp(ratio[failed_mask], ratio[failed_mask])
    assert same.pvalue == pytest.approx(1.0)
