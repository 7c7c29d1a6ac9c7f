"""Balance-sheet CSV ingestion, missing-value completion, labels, synthetics.

The on-disk schema is one header row
    bank_id,total_assets,total_liabilities,asset_00,...,asset_12
with a blank asset cell meaning "not reported" (which is not the same as a
zero holding). Completion distributes each bank's unexplained residual across
its missing assets in proportion to the population-average weights, computed
beforehand from the rows where the asset is present.

The synthetic generator substitutes for proprietary data at desk scale:
log-normal bank sizes, Dirichlet-style portfolio weights around configurable
targets, uniform leverage. Labels for classifier self-tests are only ever
produced by running a reference cascade, never invented.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .cascade import DOMAIN_SYNTHETIC, CascadeParams, run_cascade, stream
from .network import (
    DEFAULT_MEAN_WEIGHTS,
    BalanceSheet,
    BankAssetNetwork,
    FloatA,
    generic_asset_categories,
)

COMPLETION_RTOL = 1e-9
FIXED_COLUMNS = ("bank_id", "total_assets", "total_liabilities")


class SchemaError(Exception):
    """Input file does not match the expected schema."""


def expected_columns(n_assets: int) -> list[str]:
    return list(FIXED_COLUMNS) + [f"asset_{m:02d}" for m in range(n_assets)]


@dataclass
class RawBalanceSheetRow:
    """One CSV data row before completion; holdings entries may be None."""

    bank_id: str
    total_assets: float
    total_liabilities: float
    holdings: list  # float or None per asset
    line_number: int = 0


def _check_header(header: list[str]) -> int:
    """Validate the column layout, returning the asset count."""
    for pos, name in enumerate(FIXED_COLUMNS):
        if pos >= len(header) or header[pos] != name:
            found = header[pos] if pos < len(header) else "<missing>"
            raise SchemaError(f"expected column {name!r} at position {pos}, found {found!r}")
    n_assets = len(header) - len(FIXED_COLUMNS)
    if n_assets < 1:
        raise SchemaError("no asset_NN columns found")
    for m in range(n_assets):
        pos = len(FIXED_COLUMNS) + m
        want = f"asset_{m:02d}"
        if header[pos] != want:
            raise SchemaError(f"expected column {want!r} at position {pos}, found {header[pos]!r}")
    return n_assets


def _parse_cell(text: str, column: str, line_number: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(
            f"row {line_number}: column {column!r} has non-numeric value {text!r}"
        ) from None
    if not np.isfinite(value):
        raise SchemaError(f"row {line_number}: column {column!r} is not finite")
    return value


def load_raw_csv(path) -> list[RawBalanceSheetRow]:
    """Read a balance-sheet CSV; blank asset cells become None."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: missing header row") from None
        n_assets = _check_header(header)
        for line_number, rec in enumerate(reader, start=2):
            if not rec or (len(rec) == 1 and rec[0].strip() == ""):
                continue
            if len(rec) != len(header):
                raise SchemaError(
                    f"row {line_number}: expected {len(header)} fields, found {len(rec)}"
                )
            bank_id = rec[0].strip()
            if not bank_id:
                raise SchemaError(f"row {line_number}: empty bank_id")
            total_a = _parse_cell(rec[1], "total_assets", line_number)
            total_l = _parse_cell(rec[2], "total_liabilities", line_number)
            if total_a < 0 or total_l < 0:
                raise SchemaError(f"row {line_number}: negative totals")
            holdings = []
            for m in range(n_assets):
                cell = rec[3 + m].strip()
                if cell == "":
                    holdings.append(None)
                else:
                    v = _parse_cell(cell, f"asset_{m:02d}", line_number)
                    if v < 0:
                        raise SchemaError(f"row {line_number}: negative holding asset_{m:02d}")
                    holdings.append(v)
            rows.append(RawBalanceSheetRow(bank_id, total_a, total_l, holdings, line_number))
    return rows


@dataclass(frozen=True)
class AverageWeights:
    """Population-average portfolio weight per asset, from present cells only."""

    values: FloatA           # NaN where no row reports the asset
    contributing: np.ndarray  # row counts per asset

    def defined(self) -> np.ndarray:
        return ~np.isnan(self.values)


def compute_average_weights(rows) -> AverageWeights:
    """Mean of B_{i,m}/B_i over the rows that actually report asset m."""
    if not rows:
        raise ValueError("no rows")
    n_assets = len(rows[0].holdings)
    values = np.full(n_assets, np.nan)
    counts = np.zeros(n_assets, dtype=np.int64)
    for m in range(n_assets):
        contrib = [r.holdings[m] / r.total_assets for r in rows
                   if r.holdings[m] is not None and r.total_assets > 0]
        counts[m] = len(contrib)
        if contrib:
            values[m] = np.mean(np.array(contrib))
    return AverageWeights(values, counts)


def complete_balance_sheet(row: RawBalanceSheetRow, avg: AverageWeights):
    """Fill a row's missing assets, returning (BalanceSheet, repair or None).

    The residual R = B - sum(known) is split across the missing assets in
    proportion to their average weights. Inconsistent rows are repaired rather
    than dropped; every repair is reported as a dict {row_id, action, residual}.
    """
    b = row.total_assets
    known = [v for v in row.holdings if v is not None]
    missing = [m for m, v in enumerate(row.holdings) if v is None]
    known_sum = float(np.sum(known)) if known else 0.0
    residual = b - known_sum
    tol = COMPLETION_RTOL * max(b, 1.0)
    repair = None
    filled = list(row.holdings)

    if not missing:
        if abs(residual) > tol:
            if known_sum > 0:
                scale = b / known_sum
                filled = [v * scale for v in filled]
                repair = {"row_id": row.bank_id, "action": "rescaled_inconsistent_row",
                          "residual": residual}
            else:
                # all-zero holdings yet a positive total: fall back to averages
                filled = _spread(b, list(range(len(filled))), avg, row.bank_id)
                repair = {"row_id": row.bank_id, "action": "redistributed_zero_row",
                          "residual": residual}
    else:
        undefined = [m for m in missing if np.isnan(avg.values[m])]
        if undefined:
            raise ValueError(
                f"bank {row.bank_id}: asset {undefined[0]} missing but its average "
                "weight is undefined (no row reports it)"
            )
        if residual < -tol:
            if known_sum <= 0:
                raise ValueError(f"bank {row.bank_id}: negative residual with no known holdings")
            scale = b / known_sum
            filled = [0.0 if v is None else v * scale for v in filled]
            sheet = BalanceSheet(row.bank_id, np.array(filled, dtype=np.float64),
                                 b, row.total_liabilities)
            return sheet, {"row_id": row.bank_id, "action": "negative_residual_rescaled",
                           "residual": residual}
        r = max(residual, 0.0)
        weight_sum = float(np.sum([avg.values[m] for m in missing]))
        if weight_sum > 0.0:
            for m in missing:
                filled[m] = r * avg.values[m] / weight_sum
        else:
            share = r / len(missing)
            for m in missing:
                filled[m] = share
            if r > tol:
                repair = {"row_id": row.bank_id, "action": "uniform_fill_zero_average_weights",
                          "residual": residual}

    sheet = BalanceSheet(row.bank_id, np.array(filled, dtype=np.float64),
                         b, row.total_liabilities)
    return sheet, repair


def _spread(total, assets, avg, bank_id):
    weights = [avg.values[m] for m in assets]
    if any(np.isnan(w) for w in weights):
        raise ValueError(f"bank {bank_id}: average weight undefined for redistribution")
    s = float(np.sum(weights))
    if s <= 0:
        return [total / len(assets)] * len(assets)
    return [total * w / s for w in weights]


def complete_dataset(rows, avg: AverageWeights = None):
    """Complete every row. Returns (list of BalanceSheet, repair report list)."""
    if avg is None:
        avg = compute_average_weights(rows)
    sheets, report = [], []
    for row in rows:
        sheet, repair = complete_balance_sheet(row, avg)
        sheets.append(sheet)
        if repair is not None:
            report.append(repair)
    return sheets, report


def network_from_sheets(sheets) -> BankAssetNetwork:
    return BankAssetNetwork.from_balance_sheets(sheets)


def load_completed_network(path) -> BankAssetNetwork:
    """Load a CSV that must have no blanks (i.e. already completed)."""
    rows = load_raw_csv(path)
    for row in rows:
        for m, v in enumerate(row.holdings):
            if v is None:
                raise SchemaError(
                    f"row {row.line_number}: blank asset_{m:02d}; run ingest first"
                )
    sheets = [BalanceSheet(r.bank_id, np.array(r.holdings, dtype=np.float64),
                           r.total_assets, r.total_liabilities) for r in rows]
    return network_from_sheets(sheets)


def save_completed_csv(sheets, path):
    """Write completed sheets back out in the canonical schema."""
    sheets = list(sheets)
    n_assets = len(sheets[0].holdings) if sheets else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(expected_columns(n_assets))
        for s in sheets:
            writer.writerow([s.bank_id, repr(float(s.total_assets)),
                             repr(float(s.total_liabilities))]
                            + [repr(float(v)) for v in s.holdings])


@dataclass(frozen=True)
class GroundTruthLabels:
    """Set of bank ids marked as failed, with an informational window string."""

    ids: frozenset
    duplicate_count: int = 0
    window: str = None

    def intersection_report(self, network: BankAssetNetwork):
        return len(self.ids), network.indices_of(self.ids).size

    def __contains__(self, bank_id):
        return bank_id in self.ids

    def __iter__(self):
        return iter(sorted(self.ids))

    def __len__(self):
        return len(self.ids)


def load_labels(path, window=None) -> GroundTruthLabels:
    """Read a one-column bank_id CSV (header optional, duplicates deduped)."""
    ids = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for pos, rec in enumerate(reader):
            if not rec or not rec[0].strip():
                continue
            value = rec[0].strip()
            if pos == 0 and value.lower() == "bank_id":
                continue
            ids.append(value)
    unique = frozenset(ids)
    dupes = len(ids) - len(unique)
    if dupes:
        warnings.warn(f"label file contains {dupes} duplicate ids; deduplicated")
    return GroundTruthLabels(unique, dupes, window)


def save_labels(labels, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bank_id"])
        for bank_id in sorted(set(labels)):
            writer.writerow([bank_id])


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic network generator.

    mean_weights defaults to the 13-entry population averages; because those
    average only over holders, they do not sum to 1 and are renormalized (with
    a warning). label_cascade, when given, produces ground-truth labels by
    running that reference cascade on the generated network.
    """

    n_banks: int
    n_assets: int = 13
    mean_weights: tuple = None
    concentration: float = 8.0
    size_median: float = 1e5
    size_sigma: float = 1.2
    leverage_low: float = 0.85
    leverage_high: float = 0.98
    sparsity: float = 0.0
    label_cascade: CascadeParams = None

    def __post_init__(self):
        if self.n_banks < 1 or self.n_assets < 1:
            raise ValueError("need at least one bank and one asset")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        if not 0.0 <= self.leverage_low <= self.leverage_high:
            raise ValueError("need 0 <= leverage_low <= leverage_high")


def _target_weights(config: SyntheticConfig) -> FloatA:
    if config.mean_weights is not None:
        target = np.asarray(config.mean_weights, dtype=np.float64)
        if target.size != config.n_assets:
            raise ValueError("mean_weights length does not match n_assets")
    elif config.n_assets == DEFAULT_MEAN_WEIGHTS.size:
        target = DEFAULT_MEAN_WEIGHTS.copy()
    else:
        target = np.full(config.n_assets, 1.0 / config.n_assets)
    if np.any(target < 0) or target.sum() <= 0:
        raise ValueError("mean weights must be non-negative with positive sum")
    if abs(target.sum() - 1.0) > 1e-9:
        warnings.warn(f"mean weights sum to {target.sum():.4f}; renormalizing to 1")
        target = target / target.sum()
    return target


def generate_synthetic(config: SyntheticConfig, seed: int):
    """Generate (network, labels-or-None), deterministic for a fixed seed."""
    rng = stream(seed, DOMAIN_SYNTHETIC)
    n, m = config.n_banks, config.n_assets
    target = _target_weights(config)

    sizes = config.size_median * np.exp(config.size_sigma * rng.standard_normal(n))
    leverage = rng.uniform(config.leverage_low, config.leverage_high, n)
    raw = rng.standard_gamma(config.concentration * target, size=(n, m))
    if config.sparsity > 0.0:
        raw[rng.random((n, m)) < config.sparsity] = 0.0
    dead_rows = raw.sum(axis=1) == 0.0
    if np.any(dead_rows):
        raw[dead_rows, int(np.argmax(target))] = 1.0
    weights = raw / raw.sum(axis=1, keepdims=True)

    holdings = sizes[:, None] * weights
    total_assets = holdings.sum(axis=1)
    total_liabilities = leverage * total_assets
    network = BankAssetNetwork(
        bank_ids=tuple(f"B{i:05d}" for i in range(n)),
        holdings=holdings,
        total_assets=total_assets,
        total_liabilities=total_liabilities,
        assets=generic_asset_categories(m),
    )
    labels = None
    if config.label_cascade is not None:
        labels = labels_from_cascade(network, config.label_cascade)
    return network, labels


def labels_from_cascade(network: BankAssetNetwork, params: CascadeParams) -> GroundTruthLabels:
    """Ground-truth labels = banks failed (round >= 1) by a reference cascade."""
    result = run_cascade(network, params)
    failed = [network.bank_ids[i] for i in np.flatnonzero(result.failed_round >= 1)]
    return GroundTruthLabels(frozenset(failed), 0, "reference-cascade")
