"""Core domain types for the bipartite bank-asset system.

Banks hold amounts of 13 balance-sheet asset categories; a link between bank i
and asset m exists iff the holding is strictly positive. Derived quantities
(portfolio weights, market values, market shares) live here, along with the
binned distribution summaries used to compare failed banks against the
population.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.typing import NDArray

FloatA = NDArray[np.float64]
IntA = NDArray[np.int64]
BoolA = NDArray[np.bool_]

# |sum(holdings) - total_assets| must stay below this relative tolerance
SUM_RTOL = 1e-9


class AssetGroup(Enum):
    REAL_ESTATE_LOANS = "RealEstateLoans"
    OTHER_LOANS = "OtherLoans"
    OTHER_ASSETS = "OtherAssets"


@dataclass(frozen=True)
class AssetCategory:
    index: int
    name: str
    group: AssetGroup


# Canonical 13-category balance-sheet schema (US commercial-bank call-report
# asset classes, in fixed index order).
CANONICAL_ASSET_CATEGORIES: tuple[AssetCategory, ...] = tuple(
    AssetCategory(i, name, group)
    for i, (name, group) in enumerate(
        [
            ("Construction and land development loans", AssetGroup.REAL_ESTATE_LOANS),
            ("Loans secured by farmland", AssetGroup.REAL_ESTATE_LOANS),
            ("Loans secured by 1-4 family residential properties", AssetGroup.REAL_ESTATE_LOANS),
            ("Loans secured by multifamily residential properties", AssetGroup.REAL_ESTATE_LOANS),
            ("Loans secured by nonfarm nonresidential properties", AssetGroup.REAL_ESTATE_LOANS),
            ("Agricultural loans", AssetGroup.OTHER_LOANS),
            ("Commercial and industrial loans", AssetGroup.OTHER_LOANS),
            ("Loans to individuals", AssetGroup.OTHER_LOANS),
            ("Obligations of states and political subdivisions", AssetGroup.OTHER_LOANS),
            ("All other loans", AssetGroup.OTHER_LOANS),
            ("Held-to-maturity securities", AssetGroup.OTHER_ASSETS),
            ("Available-for-sale securities", AssetGroup.OTHER_ASSETS),
            ("Premises and fixed assets", AssetGroup.OTHER_ASSETS),
        ]
    )
)

# Average portfolio weights of US commercial banks (2007 snapshot), indexed by
# asset category. They do not sum to 1: each entry averages only over banks
# actually holding that category.
DEFAULT_MEAN_WEIGHTS: FloatA = np.array(
    [0.082, 0.038, 0.167, 0.013, 0.150, 0.041,
     0.031, 0.097, 0.171, 0.046, 0.003, 0.004, 0.020]
)


def generic_asset_categories(m: int) -> tuple[AssetCategory, ...]:
    """Placeholder categories for networks that are not on the 13-asset schema."""
    if m == len(CANONICAL_ASSET_CATEGORIES):
        return CANONICAL_ASSET_CATEGORIES
    return tuple(
        AssetCategory(i, f"asset_{i:02d}", AssetGroup.OTHER_ASSETS) for i in range(m)
    )


@dataclass(frozen=True)
class BalanceSheet:
    """One bank: per-asset holdings plus totals. Currency unit is thousands."""

    bank_id: str
    holdings: FloatA
    total_assets: float
    total_liabilities: float
    equity: float = None  # filled in as total_assets - total_liabilities

    def __post_init__(self):
        object.__setattr__(self, "holdings", np.asarray(self.holdings, dtype=np.float64))
        if self.equity is None:
            object.__setattr__(self, "equity", self.total_assets - self.total_liabilities)
        if np.any(self.holdings < 0):
            raise ValueError(f"bank {self.bank_id}: negative holding")
        if self.total_assets < 0 or self.total_liabilities < 0:
            raise ValueError(f"bank {self.bank_id}: negative totals")

    @classmethod
    def from_holdings(cls, bank_id: str, holdings, total_liabilities: float) -> "BalanceSheet":
        h = np.asarray(holdings, dtype=np.float64)
        return cls(bank_id, h, float(h.sum()), float(total_liabilities))


@dataclass
class BankAssetNetwork:
    """The bipartite system in array form.

    holdings is the N x M matrix of original (pre-shock) positions; market_value
    holds the per-asset totals A_m = sum_i B_{i,m}. A cascade only reads them.
    """

    bank_ids: tuple[str, ...]
    holdings: FloatA
    total_assets: FloatA
    total_liabilities: FloatA
    assets: tuple[AssetCategory, ...]
    market_value: FloatA = None
    _index_of: dict = field(default=None, repr=False)

    def __post_init__(self):
        self.holdings = np.asarray(self.holdings, dtype=np.float64)
        self.total_assets = np.asarray(self.total_assets, dtype=np.float64)
        self.total_liabilities = np.asarray(self.total_liabilities, dtype=np.float64)
        n, m = self.holdings.shape
        if len(self.bank_ids) != n or len(self.assets) != m:
            raise ValueError("bank/asset labels do not match holdings shape")
        if len(set(self.bank_ids)) != n:
            raise ValueError("duplicate bank_id")
        if np.any(self.holdings < 0):
            bad = self.bank_ids[int(np.argwhere(np.any(self.holdings < 0, axis=1))[0, 0])]
            raise ValueError(f"bank {bad}: negative holding")
        if np.any(self.total_liabilities < 0):
            raise ValueError("negative liabilities")
        sums = self.holdings.sum(axis=1)
        tol = SUM_RTOL * np.maximum(self.total_assets, 1.0)
        off = np.abs(sums - self.total_assets) > tol
        if np.any(off):
            bad = self.bank_ids[int(np.argmax(off))]
            raise ValueError(
                f"bank {bad}: holdings sum {sums[np.argmax(off)]} does not match "
                f"total_assets {self.total_assets[np.argmax(off)]}"
            )
        if self.market_value is None:
            self.market_value = self.holdings.sum(axis=0)
        self._index_of = {b: i for i, b in enumerate(self.bank_ids)}

    @classmethod
    def from_balance_sheets(cls, sheets, assets=None) -> "BankAssetNetwork":
        sheets = list(sheets)
        if not sheets:
            raise ValueError("empty network")
        m = len(sheets[0].holdings)
        if assets is None:
            assets = generic_asset_categories(m)
        return cls(
            bank_ids=tuple(s.bank_id for s in sheets),
            holdings=np.stack([s.holdings for s in sheets]),
            total_assets=np.array([s.total_assets for s in sheets]),
            total_liabilities=np.array([s.total_liabilities for s in sheets]),
            assets=tuple(assets),
        )

    @property
    def n_banks(self) -> int:
        return self.holdings.shape[0]

    @property
    def n_assets(self) -> int:
        return self.holdings.shape[1]

    @property
    def banks(self) -> list[BalanceSheet]:
        return [
            BalanceSheet(
                self.bank_ids[i],
                self.holdings[i].copy(),
                float(self.total_assets[i]),
                float(self.total_liabilities[i]),
            )
            for i in range(self.n_banks)
        ]

    def index_of(self, bank_id: str) -> int:
        try:
            return self._index_of[bank_id]
        except KeyError:
            raise KeyError(f"unknown bank_id {bank_id!r}") from None

    def indices_of(self, bank_ids) -> IntA:
        """Ascending row indices of the given bank ids; ids not in the network,
        and None for no ids, give none."""
        ids = set(bank_ids) if bank_ids is not None else ()
        return np.array(sorted(self._index_of[b] for b in ids if b in self._index_of),
                        dtype=np.int64)

    def links(self) -> BoolA:
        """Bipartite adjacency: a link exists iff the holding is strictly positive."""
        return self.holdings > 0

    def weights(self) -> FloatA:
        """N x M portfolio-weight matrix B_{i,m}/B_i. Requires positive totals."""
        if np.any(self.total_assets <= 0):
            bad = self.bank_ids[int(np.argmax(self.total_assets <= 0))]
            raise ValueError(f"bank {bad}: total assets not positive")
        return self.holdings / self.total_assets[:, None]


def weight(bank: BalanceSheet, m: int) -> float:
    """Portfolio weight of asset m in a bank's book: holding divided by total assets."""
    if bank.total_assets <= 0:
        raise ValueError(f"bank {bank.bank_id}: total assets not positive")
    return float(bank.holdings[m] / bank.total_assets)


def market_share(network: BankAssetNetwork, bank_id: str, m: int) -> float:
    """Bank's share of asset m's total market value."""
    a_m = network.market_value[m]
    if a_m <= 0:
        raise ValueError(f"asset {m}: zero market value, share undefined")
    i = network.index_of(bank_id)
    return float(network.holdings[i, m] / a_m)


@dataclass(frozen=True)
class DistributionTable:
    """Binned empirical density of one variable, all banks vs labeled-failed banks."""

    variable: str
    bin_edges: FloatA
    density_all: FloatA
    density_failed: FloatA = None  # None when no labeled banks are present


@dataclass(frozen=True)
class SummaryStatistics:
    tables: tuple[DistributionTable, ...]
    empty_labels: bool


def summary_statistics(network: BankAssetNetwork, labels=None, bin_edges=None) -> SummaryStatistics:
    """Binned densities of per-asset weights and the equity/asset ratio.

    labels may be any iterable of bank ids; ids absent from the network are
    ignored. Default bins: 50 uniform bins on [0, 1].
    """
    if bin_edges is None:
        bin_edges = np.linspace(0.0, 1.0, 51)
    bin_edges = np.asarray(bin_edges, dtype=np.float64)

    idx = network.indices_of(labels)
    empty = idx.size == 0
    if empty and labels is not None:
        warnings.warn("label set is empty or disjoint from the network; "
                      "emitting all-banks densities only")

    w = network.weights()
    equity_ratio = (network.total_assets - network.total_liabilities) / network.total_assets

    def table(name, values):
        dens_all, _ = np.histogram(values, bins=bin_edges, density=True)
        dens_failed = None
        if not empty:
            dens_failed, _ = np.histogram(values[idx], bins=bin_edges, density=True)
        return DistributionTable(name, bin_edges, dens_all, dens_failed)

    tables = [table(f"weight_asset_{a.index:02d}", w[:, a.index]) for a in network.assets]
    tables.append(table("equity_ratio", equity_ratio))
    return SummaryStatistics(tuple(tables), empty)
