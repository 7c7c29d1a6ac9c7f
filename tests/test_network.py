"""Domain types: balance sheets, network validation, derived quantities,
distribution summaries."""

import numpy as np
import pytest
from scipy import stats

import cascadefin as cf
from cascadefin.network import SUM_RTOL, generic_asset_categories

from helpers import dense_synthetic, make_network, toy_network


def test_canonical_categories():
    cats = cf.CANONICAL_ASSET_CATEGORIES
    assert len(cats) == 13
    assert [c.index for c in cats] == list(range(13))
    by_group = {}
    for c in cats:
        by_group.setdefault(c.group, []).append(c.index)
    assert by_group[cf.AssetGroup.REAL_ESTATE_LOANS] == [0, 1, 2, 3, 4]
    assert by_group[cf.AssetGroup.OTHER_LOANS] == [5, 6, 7, 8, 9]
    assert by_group[cf.AssetGroup.OTHER_ASSETS] == [10, 11, 12]


def test_default_mean_weights_are_per_holder_averages():
    w = cf.DEFAULT_MEAN_WEIGHTS
    assert w.shape == (13,)
    assert np.all(w > 0)
    # averages over holders only, so they deliberately do not sum to 1
    assert 0.8 < w.sum() < 0.9


def test_generic_categories():
    assert generic_asset_categories(13) is cf.CANONICAL_ASSET_CATEGORIES
    cats = generic_asset_categories(3)
    assert [c.name for c in cats] == ["asset_00", "asset_01", "asset_02"]


def test_balance_sheet_from_holdings():
    t = cf.BalanceSheet.from_holdings("y", [30.0, 20.0], 45.0)
    assert t.holdings.dtype == np.float64
    assert (t.total_assets, t.total_liabilities) == (50.0, 45.0)


def test_balance_sheet_rejects_negatives():
    with pytest.raises(ValueError, match="negative holding"):
        cf.BalanceSheet("x", np.array([-1.0]), 10.0, 5.0)
    with pytest.raises(ValueError, match="negative totals"):
        cf.BalanceSheet("x", np.array([1.0]), 1.0, -5.0)


def test_network_validates_holdings_sum():
    with pytest.raises(ValueError, match="bank b1"):
        cf.BankAssetNetwork(
            bank_ids=("b0", "b1"),
            holdings=np.array([[50.0, 50.0], [10.0, 10.0]]),
            total_assets=np.array([100.0, 30.0]),
            total_liabilities=np.array([90.0, 20.0]),
            assets=generic_asset_categories(2),
        )


def test_network_sum_tolerance_is_relative():
    b = 1e9
    wiggle = 0.5 * SUM_RTOL * b
    net = cf.BankAssetNetwork(
        bank_ids=("b0",),
        holdings=np.array([[b + wiggle]]),
        total_assets=np.array([b]),
        total_liabilities=np.array([0.5 * b]),
        assets=generic_asset_categories(1),
    )
    assert net.n_banks == 1


def test_network_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        make_network([[1.0], [1.0]], [0.5, 0.5], ids=("same", "same"))


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
    assert np.allclose(net.weights(), [[0.6, 0.4], [0.0, 1.0]])
    assert net.indices_of(["nope", "b001", "b000", "b001"]).tolist() == [0, 1]
    assert net.indices_of(None).tolist() == []
    with pytest.raises(ValueError, match="bank b001: total assets not positive"):
        make_network([[1.0, 0.0], [0.0, 0.0]], [0.5, 0.0]).weights()


def test_round_trip_banks_property():
    net = toy_network()
    sheets = net.banks
    assert [s.bank_id for s in sheets] == ["A", "B"]
    rebuilt = cf.network_from_sheets(sheets)
    assert rebuilt.bank_ids == net.bank_ids
    assert np.array_equal(rebuilt.holdings, net.holdings)
    assert np.array_equal(rebuilt.total_liabilities, net.total_liabilities)
    with pytest.raises(ValueError, match="empty network"):
        cf.network_from_sheets([])


def test_summary_statistics_shapes_and_mass():
    net, _ = dense_synthetic(300, seed=90)
    summary = cf.summary_statistics(net)
    assert len(summary.tables) == net.n_assets + 1
    assert summary.tables[-1].variable == "equity_ratio"
    for table in summary.tables:
        widths = np.diff(table.bin_edges)
        mass = float((table.density_all * widths).sum())
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert table.density_failed is None
    # no labels given, so the labeled subset is empty (and no warning fires)
    assert summary.empty_labels


def test_summary_statistics_single_bin_placement():
    # every bank at equity ratio 0.05 puts all equity mass in bin [0.04, 0.06)
    net = make_network([[100.0], [200.0]], [95.0, 190.0])
    table = cf.summary_statistics(net).tables[-1]
    expect = np.zeros(50)
    expect[2] = 1.0 / 0.02
    assert np.allclose(table.density_all, expect)


def test_summary_statistics_labeled_split():
    net = make_network([[100.0], [100.0], [100.0]], [95.0, 50.0, 60.0],
                       ids=("weak", "strong1", "strong2"))
    summary = cf.summary_statistics(net, labels=["weak", "not-in-network"])
    table = summary.tables[-1]
    assert table.density_failed is not None
    # the labeled bank sits at ratio 0.05, bin 2
    assert table.density_failed[2] == pytest.approx(50.0)
    assert table.density_failed.sum() == pytest.approx(50.0)


def test_summary_statistics_disjoint_labels_warn():
    net = toy_network()
    with pytest.warns(UserWarning, match="disjoint"):
        summary = cf.summary_statistics(net, labels=["ghost"])
    assert summary.empty_labels
    assert summary.tables[0].density_failed is None


def test_summary_statistics_custom_bins():
    net = toy_network()
    edges = np.array([0.0, 0.5, 1.0])
    summary = cf.summary_statistics(net, bin_edges=edges)
    assert np.array_equal(summary.tables[0].bin_edges, edges)
    assert summary.tables[0].density_all.shape == (2,)


def test_failed_banks_have_lower_equity_ratio():
    # the classic separation: cascade failures concentrate among thin-equity
    # banks, so a two-sample KS test rejects identical distributions
    net, labels = dense_synthetic(
        800, seed=91,
        label_cascade=cf.CascadeParams.single(0, 0.3, 0.0, 0.0))
    assert 30 < len(labels) < 770
    ratio = (net.total_assets - net.total_liabilities) / net.total_assets
    failed_mask = np.array([b in labels for b in net.bank_ids])
    ks = stats.ks_2samp(ratio[failed_mask], ratio[~failed_mask])
    assert ks.pvalue < 1e-6
    assert ratio[failed_mask].mean() < ratio[~failed_mask].mean()
    same = stats.ks_2samp(ratio[failed_mask], ratio[failed_mask])
    assert same.pvalue == pytest.approx(1.0)
