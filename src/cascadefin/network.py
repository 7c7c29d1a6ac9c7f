"""Core domain types for the bipartite bank-asset system.

Banks hold amounts of M assets (13 balance-sheet categories in the canonical
schema); a link between bank i and asset m exists iff the holding is strictly
positive. The network is arrays: one StringDType column of bank ids, the
holdings, the totals and the per-asset market values a cascade reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.dtypes import StringDType
from numpy.typing import NDArray

FloatA = NDArray[np.float64]
IntA = NDArray[np.int64]
BoolA = NDArray[np.bool_]

# |sum(holdings) - total_assets| must stay below this relative tolerance;
# completion repairs every row off by more, so it keeps no row this rejects
SUM_RTOL = 1e-9

# Canonical 13-category balance-sheet schema (US commercial-bank call-report
# asset classes), in asset-index order.
ASSET_NAMES: tuple[str, ...] = (
    "Construction and land development loans",
    "Loans secured by farmland",
    "Loans secured by 1-4 family residential properties",
    "Loans secured by multifamily residential properties",
    "Loans secured by nonfarm nonresidential properties",
    "Agricultural loans",
    "Commercial and industrial loans",
    "Loans to individuals",
    "Obligations of states and political subdivisions",
    "All other loans",
    "Held-to-maturity securities",
    "Available-for-sale securities",
    "Premises and fixed assets",
)

# Average portfolio weights of US commercial banks (2007 snapshot), indexed by
# asset category. They do not sum to 1: each entry averages only over banks
# actually holding that category.
DEFAULT_MEAN_WEIGHTS: FloatA = np.array(
    [0.082, 0.038, 0.167, 0.013, 0.150, 0.041,
     0.031, 0.097, 0.171, 0.046, 0.003, 0.004, 0.020]
)


def off_total(holdings: FloatA, total_assets: FloatA) -> BoolA:
    """The rows whose holdings sum misses total_assets by more than SUM_RTOL
    of the total (of 1, for totals below 1); a sum that overflows misses it."""
    with np.errstate(over="ignore"):
        miss = holdings.sum(axis=1)
    np.abs(np.subtract(miss, total_assets, out=miss), out=miss)   # in place, as is tol
    tol = np.maximum(total_assets, 1.0)
    return miss > np.multiply(tol, SUM_RTOL, out=tol)


def has_repeat(ids: np.ndarray) -> bool:
    """Whether a 1-D StringDType column of ids holds one id twice: two
    neighbours of its sorted copy are equal. The copy takes 16 bytes an id; a
    set of 50k ids took 2 MB."""
    ordered = np.sort(ids)
    return bool((ordered[1:] == ordered[:-1]).any())


@dataclass
class BankAssetNetwork:
    """The bipartite system in array form.

    bank_ids is a 1-D numpy.dtypes.StringDType array, one id a row: a tuple
    or list is converted once, and a StringDType column is kept as it is,
    not copied. Being an array, it compares elementwise with ==. holdings is
    the N x M matrix of original (pre-shock) positions; market_value is
    derived from them, the per-asset totals A_m = sum_i B_{i,m}, so it never
    disagrees with the holdings. A cascade only reads them.
    """

    bank_ids: np.ndarray
    holdings: FloatA
    total_assets: FloatA
    total_liabilities: FloatA
    market_value: FloatA = field(init=False)

    def __post_init__(self):
        # np.asarray(ids, dtype=StringDType()) would copy a StringDType column:
        # each StringDType() is a new descriptor
        if not (isinstance(self.bank_ids, np.ndarray)
                and isinstance(self.bank_ids.dtype, StringDType)):
            self.bank_ids = np.array(self.bank_ids, dtype=StringDType())
        self.holdings = np.ascontiguousarray(self.holdings, dtype=np.float64)
        self.total_assets = np.asarray(self.total_assets, dtype=np.float64)
        self.total_liabilities = np.asarray(self.total_liabilities, dtype=np.float64)
        if (self.holdings.ndim != 2 or self.bank_ids.ndim != 1
                or len(self.bank_ids) != len(self.holdings)):
            raise ValueError("bank ids do not match the rows of a 2-D holdings matrix")
        for name in ("total_assets", "total_liabilities"):
            if (shape := getattr(self, name).shape) != self.bank_ids.shape:
                raise ValueError(f"{name} has shape {shape}, not one value per bank id "
                                 f"{self.bank_ids.shape}")
        if has_repeat(self.bank_ids):
            raise ValueError("duplicate bank_id")
        with np.errstate(over="ignore"):   # the finite check below refuses inf
            self.market_value = self.holdings.sum(axis=0)
        # reductions, not N x M boolean temporaries: min and max carry a NaN through
        for name in ("holdings", "total_assets", "total_liabilities", "market_value"):
            values = getattr(self, name)
            if values.size and not np.isfinite([values.min(), values.max()]).all():
                raise ValueError(f"{name} has a non-finite value")
        if self.holdings.size and self.holdings.min() < 0:
            bad = self.bank_ids[int(np.argwhere(np.any(self.holdings < 0, axis=1))[0, 0])]
            raise ValueError(f"bank {bad}: negative holding")
        if self.total_liabilities.size and self.total_liabilities.min() < 0:
            raise ValueError("negative liabilities")
        off = off_total(self.holdings, self.total_assets)
        if off.any():
            i = int(np.argmax(off))
            raise ValueError(f"bank {self.bank_ids[i]}: holdings sum {self.holdings[i].sum()} "
                             f"does not match total_assets {self.total_assets[i]}")

    @property
    def n_banks(self) -> int:
        return self.holdings.shape[0]

    @property
    def n_assets(self) -> int:
        return self.holdings.shape[1]

    def mask(self, bank_ids) -> BoolA:
        """True at the rows of the given bank ids; ids not in the network,
        and None for no ids, mark none."""
        ids = frozenset(() if bank_ids is None else bank_ids)
        return np.fromiter((b in ids for b in self.bank_ids), dtype=bool, count=self.n_banks)
