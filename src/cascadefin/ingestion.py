"""Balance-sheet CSV ingestion, missing-value completion, labels, synthetics.

The on-disk schema is one header row
    bank_id,total_assets,total_liabilities,asset_00,...,asset_12
with a blank asset cell meaning "not reported" (which is not the same as a
zero holding), read as NaN into one RawTable of columns. Completion
distributes each bank's unexplained residual across its missing assets in
proportion to the population-average weights, computed beforehand from the
rows where the asset is present.

The synthetic generator substitutes for proprietary data at desk scale:
log-normal bank sizes, Dirichlet-style portfolio weights around the
population averages, uniform leverage. Its SyntheticConfig is the command
line's --synthetic spec, one field per key. Labels for classifier self-tests
are only ever produced by running a reference cascade, never invented.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.dtypes import StringDType

from .cascade import DOMAIN_SYNTHETIC, CascadeParams, run_cascade, stream
from .network import (DEFAULT_MEAN_WEIGHTS, SUM_RTOL, BankAssetNetwork, FloatA, has_repeat,
                      off_total)

FIXED_COLUMNS = ("bank_id", "total_assets", "total_liabilities")
# rows parsed or written at a time: bounds the Python objects alive at once
BLOCK_ROWS = 128
# rows completed at a time: bounds the N x M temporaries of completion, while
# keeping numpy's per-call cost, paid per block, small
COMPLETE_ROWS = 2048
REPAIR_ACTIONS = ("rescaled_inconsistent_row", "redistributed_zero_row",
                  "negative_residual_rescaled", "uniform_fill_zero_average_weights")


class SchemaError(Exception):
    """Input file does not match the expected schema."""


def expected_columns(n_assets: int) -> list[str]:
    return list(FIXED_COLUMNS) + [f"asset_{m:02d}" for m in range(n_assets)]


@dataclass(frozen=True)
class RawTable:
    """A balance-sheet CSV as arrays: bank_ids is a StringDType column,
    holdings is N x M with NaN for each blank cell. The file line of a row is
    found by reading the file again (_row_lines), as only an error names it."""

    bank_ids: np.ndarray
    total_assets: FloatA
    total_liabilities: FloatA
    holdings: FloatA


def _check_header(header: list[str]) -> int:
    """Validate the column layout, returning the asset count."""
    n_assets = len(header) - len(FIXED_COLUMNS)
    for pos, name in enumerate(expected_columns(max(n_assets, 0))):
        found = header[pos] if pos < len(header) else "<missing>"
        if found != name:
            raise SchemaError(f"expected column {name!r} at position {pos}, found {found!r}")
    if n_assets < 1:
        raise SchemaError("no asset_NN columns found")
    return n_assets


def _plain(text: str) -> bool:
    """Plain ASCII without `_`: float() and int() also read 1_000 and other scripts' digits."""
    return text.isascii() and "_" not in text


def number(text: str, kind):
    """text read as kind, int or float, by the grammar of a CSV cell, or ValueError."""
    if not _plain(text):
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return kind(text)


def _file_error(path, header, ids, block=()) -> SchemaError:
    """The SchemaError of the first bad data row of the file at path, in one
    walk made only once the file is known to be bad. ids are its first rows'
    bank_ids, which may repeat, and block the (line, record) rows after them,
    each checked in the order of its columns: field count, an empty bank_id or
    one holding a line break, a repeat of an earlier id, then each cell."""
    first = {}
    for i, bank_id in enumerate(ids):
        if (j := first.setdefault(bank_id, i)) != i:
            line, first_line = _row_lines(path, i, j)
            return SchemaError(f"row {line}: duplicate bank_id {bank_id!r}, "
                               f"first on row {first_line}")
    for i, (line, rec) in enumerate(block, start=len(ids)):
        if len(rec) != len(header):
            return SchemaError(f"row {line}: expected {len(header)} fields, found {len(rec)}")
        bank_id = rec[0].strip()
        if not bank_id:
            return SchemaError(f"row {line}: empty bank_id")
        if "\r" in bank_id or "\n" in bank_id:
            return SchemaError(f"row {line}: bank_id contains a line break")
        if (j := first.setdefault(bank_id, i)) != i:
            return SchemaError(f"row {line}: duplicate bank_id {bank_id!r}, "
                               f"first on row {_row_lines(path, j)[0]}")
        for k in range(1, len(rec)):
            text = rec[k] if k < 3 else rec[k].strip()
            if k >= 3 and not text:
                continue
            try:
                value = number(text, float)
            except ValueError:
                return SchemaError(f"row {line}: column {header[k]!r} has non-numeric value "
                                   f"{text!r}")
            if not math.isfinite(value):
                return SchemaError(f"row {line}: column {header[k]!r} is not finite")
            if k == 2 and (value < 0 or float(rec[1]) < 0):
                return SchemaError(f"row {line}: negative totals")
            if k >= 3 and value < 0:
                return SchemaError(f"row {line}: negative holding {header[k]}")


def _parse_block(block, header) -> FloatA | None:
    """The numbers of a block of (line, record) data rows, one row each of the
    two totals and the holdings, NaN for a blank holding, or None when any of
    its rows is bad; repeated bank_ids are left to the caller.

    The cells, a blank written "nan", go to float64 in one numpy call, which
    reads each string with float() itself, so no cell becomes a Python float."""
    texts, blanks = [], 0
    for _, rec in block:
        bank_id = rec[0].strip()
        if len(rec) != len(header) or not bank_id or "\r" in bank_id or "\n" in bank_id:
            return None
        cells = [c.strip() for c in rec[3:]]
        # number's rule, tested once per row on its joined text: the parse's speed
        if not _plain("".join((rec[1], rec[2], *cells))):
            return None
        texts += rec[1:3]
        texts += [c or "nan" for c in cells]
        blanks += cells.count("")
    try:
        array = np.array(texts, dtype=np.float64)
    except ValueError:
        return None
    # NaN from a blank cell is fine; a non-finite number written in a cell is not
    if np.count_nonzero(~np.isfinite(array)) != blanks or (array < 0).any():
        return None
    return array.reshape(len(block), len(header) - 1)


def _records(reader):
    """(first file line, record) of each non-blank record left in a csv.reader;
    a quoted cell can span lines, so the record count is not the line. A record
    the reader refuses (a field over its size limit) raises SchemaError at its line."""
    end = reader.line_num
    try:
        for rec in reader:
            start, end = end + 1, reader.line_num
            if rec and not (len(rec) == 1 and rec[0].strip() == ""):
                yield start, rec
    except csv.Error as e:
        raise SchemaError(f"row {end + 1}: {e}") from None


def _row_lines(path, *rows: int) -> list[int]:
    """The file lines data rows `rows` of a balance-sheet CSV start on, in one
    walk of the file read again as load_raw_csv reads it: only the error of a
    bad file needs a line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)   # the header
        records = itertools.islice(enumerate(_records(reader)), max(rows) + 1)
        found = {i: line for i, (line, _) in records if i in rows}
    return [found[i] for i in rows]


def _not_utf8(path) -> SchemaError:
    """The error for a file that is not UTF-8, naming its first bad line; a
    text reader decodes ahead of the row it reads, so its position cannot."""
    with open(path, "rb") as fh:
        for line, data in enumerate(fh, start=1):
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as e:
                return SchemaError(f"line {line}: byte {data[e.start]:#04x} is not UTF-8")
    return SchemaError("the file is not UTF-8")


def _max_rows(path) -> int:
    """An upper bound on the data rows of a file: a record ends at a CR, an LF
    or the end of the file, and the first record is the header."""
    count = 0
    with open(path, "rb") as fh:
        # 64 KB reads measured 0.1 MB more peak RSS on a 50k-row ingest
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            count += chunk.count(b"\n") + chunk.count(b"\r")
    return count


def load_raw_csv(path) -> RawTable:
    """Read a balance-sheet CSV; blank asset cells become NaN. A bad file
    raises SchemaError for its first bad row, or for having no data row.

    Each block of BLOCK_ROWS rows is parsed straight into the table's
    columns, which _max_rows sizes, so no second copy of the table is made;
    a block's cells become float64 in one numpy call, so no cell is ever a
    Python float, and the bank ids are one of the columns, so no per-row
    Python object outlives its block. Only whole blocks are stored: the first
    block _parse_block refuses, or a repeated id once every block is read,
    sends the rows read so far to _file_error, which names the first bad one."""
    size = _max_rows(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError("empty file: missing header row")
            n_assets = _check_header(header)
            total_assets, total_liabilities = np.empty(size), np.empty(size)
            holdings = np.empty((size, n_assets))
            ids = np.empty(size, dtype=StringDType())
            records, n = _records(reader), 0
            while block := list(itertools.islice(records, BLOCK_ROWS)):
                values = _parse_block(block, header)
                if values is None:
                    raise _file_error(path, header, ids[:n], block)
                rows = slice(n, n + len(block))
                total_assets[rows], total_liabilities[rows] = values[:, 0], values[:, 1]
                holdings[rows] = values[:, 2:]
                ids[rows] = [rec[0].strip() for _, rec in block]
                n += len(block)
                # unbound before the next block is read, so one block's records
                # are alive at a time
                del block, values
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except csv.Error as e:   # the header's: _records turns a data row's into SchemaError
            raise SchemaError(f"row 1: {e}") from None
    if not n:
        raise SchemaError("no data rows in input")
    # on a sorted copy, as BankAssetNetwork tests: a dict of each id's row holds an int per row
    if has_repeat(ids[:n]):
        raise _file_error(path, header, ids[:n])
    return RawTable(ids[:n], total_assets[:n], total_liabilities[:n], holdings[:n])


def compute_average_weights(raw: RawTable) -> FloatA:
    """Per asset m, the mean of B_{i,m}/B_i over the rows that report m and
    have B_i > 0; NaN where no row does. A holding far above a tiny B_i
    makes the weight inf, which completion refuses to fill from."""
    positive = raw.total_assets > 0
    weights = np.full(raw.holdings.shape[1], np.nan)
    for m, column in enumerate(raw.holdings.T):   # a column at a time: no N x M mask
        if (rows := positive & ~np.isnan(column)).any():
            quotient = column[rows]
            with np.errstate(over="ignore"):
                weights[m] = np.mean(np.divide(quotient, raw.total_assets[rows], out=quotient))
    return weights


def _row_sums(values, mask) -> FloatA:
    """np.sum over each row's cells where mask holds, in column order.

    Numpy's pairwise summation groups a row of 8 or more cells by position, so
    a zero-filled row sum can differ in the last bit; instead each row's cells
    are packed to the left and the rows are summed by count."""
    packed = np.take_along_axis(values, np.argsort(~mask, axis=1, kind="stable"), axis=1)
    counts = np.count_nonzero(mask, axis=1)
    sums = np.zeros(len(counts))
    for k in np.flatnonzero(np.bincount(counts)):   # np.unique(counts) loads numpy.ma
        rows = counts == k
        sums[rows] = packed[rows, :k].sum(axis=1)
    return sums


def complete_dataset(raw: RawTable):
    """Complete every row of raw in place; returns (network, repair report in
    row order). The call consumes raw: the network's holdings are
    raw.holdings, blanks filled, so ingest holds one N x M table.

    A row's residual R = B - sum(known) is split across its missing assets in
    proportion to their average weights, or evenly when those sum to 0
    (uniform_fill_zero_average_weights). A row without blanks that is off its
    total B is scaled to it (rescaled_inconsistent_row) or, when all zero,
    filled as if every cell were blank (redistributed_zero_row); known
    holdings above B are scaled to it and the blanks get 0
    (negative_residual_rescaled). Each repair is a {row_id, action, residual}.

    The average weights see the whole table before any row changes; the rows
    are then completed COMPLETE_ROWS at a time, and no row's result depends
    on which rows share its block. A row that cannot be completed raises,
    leaving raw's earlier blocks completed.
    """
    avg = compute_average_weights(raw)
    report = []
    for lo in range(0, len(raw.bank_ids), COMPLETE_ROWS):
        rows = slice(lo, lo + COMPLETE_ROWS)
        report += _complete_rows(raw.bank_ids[rows], raw.total_assets[rows],
                                 raw.holdings[rows], avg)
    return network_from_sheets(raw), report


def _complete_rows(bank_ids, b, values, avg) -> list:
    """complete_dataset on the rows of one block, written over values;
    returns their repairs, or raises the error of their first row that
    cannot be completed."""
    missing = np.isnan(values)
    has_missing = missing.any(axis=1)
    with np.errstate(over="ignore"):
        known_sum = _row_sums(values, ~missing)
    residual = b - known_sum
    tol = SUM_RTOL * np.maximum(b, 1.0)
    off = ~has_missing & (np.abs(residual) > tol)
    rescaled = off & (known_sum > 0)
    zero = off & (known_sum <= 0)
    negative = has_missing & (residual < -tol)

    fill = missing | zero[:, None]
    r = np.where(negative, 0.0, np.maximum(residual, 0.0))[:, None]
    # an overflow here shows as a non-finite value or a missed total below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weight_sum = _row_sums(np.broadcast_to(avg, fill.shape), fill)[:, None]
        share = np.where(weight_sum > 0, r * avg / weight_sum, r / fill.sum(axis=1)[:, None])
        scale = np.where(rescaled | negative, b / known_sum, 1.0)[:, None]
        values[:] = np.where(fill, share, values * scale)

    undefined = fill & ~np.isfinite(avg)
    overflow = np.isinf(known_sum)
    # the rows BankAssetNetwork would refuse
    broken = ~np.isfinite(values).all(axis=1) | off_total(values, b)
    failing = undefined.any(axis=1) | (negative & (known_sum <= 0)) | overflow | broken
    if failing.any():
        i = int(np.argmax(failing))
        bank = bank_ids[i]
        if overflow[i]:
            raise SchemaError(f"bank {bank}: reported holdings sum to inf")
        if undefined[i].any():
            m = int(np.argmax(undefined[i]))
            if zero[i]:
                raise SchemaError(f"bank {bank}: every holding is 0, and refilling the row "
                                  f"needs asset {m}, whose average weight overflows to inf")
            if np.isinf(avg[m]):
                raise SchemaError(f"bank {bank}: asset {m} missing but its average weight "
                                  "overflows to inf")
            raise SchemaError(f"bank {bank}: asset {m} missing but its average weight is "
                              "undefined (no row reports it)")
        if negative[i] and known_sum[i] <= 0:
            raise ValueError(f"bank {bank}: negative residual with no known holdings")
        raise SchemaError(f"bank {bank}: completing the row overflows; its holdings "
                          f"cannot meet total_assets {b[i]}")

    uniform = has_missing & (weight_sum[:, 0] <= 0) & (r[:, 0] > tol)
    action = np.select([rescaled, zero, negative, uniform], [0, 1, 2, 3], default=-1)
    return [{"row_id": bank_ids[i], "action": REPAIR_ACTIONS[action[i]],
             "residual": float(residual[i])} for i in np.flatnonzero(action >= 0)]


def network_from_sheets(raw: RawTable) -> BankAssetNetwork:
    """The network of a RawTable without blanks. An asset column that sums to
    inf raises SchemaError; the network sums the columns, and they are summed
    again only to name that column."""
    if not len(raw.bank_ids):
        raise ValueError("empty network")
    try:
        return BankAssetNetwork(raw.bank_ids, raw.holdings, raw.total_assets,
                                raw.total_liabilities)
    except ValueError:
        with np.errstate(over="ignore"):
            inf = np.isinf(raw.holdings.sum(axis=0))
        if not inf.any():
            raise
    raise SchemaError(f"column 'asset_{int(np.argmax(inf)):02d}' sums to inf over all rows")


def load_completed_network(path) -> BankAssetNetwork:
    """Load a CSV that must have no blanks (i.e. already completed)."""
    raw = load_raw_csv(path)
    if np.isnan(raw.holdings.min()):   # NaN when a cell is: no N x M temporary
        i, m = np.argwhere(np.isnan(raw.holdings))[0]
        raise SchemaError(f"row {_row_lines(path, i)[0]}: blank asset_{m:02d}; run ingest first")
    off = off_total(raw.holdings, raw.total_assets)
    if off.any():
        i = int(np.argmax(off))
        with np.errstate(over="ignore"):
            row_sum = raw.holdings[i].sum()
        raise SchemaError(f"row {_row_lines(path, i)[0]}: holdings sum {row_sum} "
                          f"does not match total_assets {raw.total_assets[i]}; run ingest first")
    return network_from_sheets(raw)


_QUOTE_CHARS = frozenset(',"\r\n')


def _csv_field(value) -> str:
    """str of value as a CSV field: quoted, with its quotes doubled, when it
    holds a comma, a quote or a line break. csv.writer does the same, except
    that it leaves a bare CR unquoted, where its own reader then ends the row."""
    text = str(value)
    if _QUOTE_CHARS.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


@contextlib.contextmanager
def replacing(path):
    """A name to write the file at path under: one beside it, moved onto it
    once the block ends and removed if the block raises, so a write that fails
    or is cut off leaves the file as it was, never a shorter file that still
    parses. The move goes through a symlink to the file it names and keeps that
    file's mode. What a rename would not leave as it was, anything but a
    regular file of one name that this process owns (a device such as
    /dev/null, a FIFO, a hard-linked or another user's file), is written in
    place under path itself."""
    target = os.path.realpath(path)
    try:
        st = os.stat(target)
    except FileNotFoundError:
        st = None
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                               and st.st_uid == os.geteuid()):
        yield path
        return
    part = f"{target}.{os.getpid()}.part"
    try:
        yield part
        if st is not None:
            os.chmod(part, stat.S_IMODE(st.st_mode))
        os.replace(part, target)
    finally:
        if os.path.exists(part):
            os.remove(part)


def write_csv(columns, path):
    """Write a dict of equal-length columns as CSV in UTF-8, its keys as the
    header, BLOCK_ROWS rows at a time: the one writer of every table. A float
    column writes the repr of each value, which round-trips and never varies,
    any other column str of each value as a CSV field, a None column blanks.
    The file takes its name only once it is whole (replacing); columns of
    unequal length raise ValueError before it is opened."""
    lengths = {name: len(col) for name, col in columns.items() if col is not None}
    if len(set(lengths.values())) > 1:
        raise ValueError("columns of unequal length: "
                         + ", ".join(f"{name} {n}" for name, n in lengths.items()))
    n_rows = max(lengths.values(), default=0)
    with replacing(path) as part, open(part, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, n_rows, BLOCK_ROWS):
            cells = [itertools.repeat("") if col is None
                     else map(repr if col.dtype.kind == "f" else _csv_field,
                              col[lo:lo + BLOCK_ROWS].tolist())
                     for col in columns.values()]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def save_completed_csv(network: BankAssetNetwork, path):
    """Write a network in the canonical schema, which load_raw_csv reads."""
    columns = (network.bank_ids, network.total_assets, network.total_liabilities,
               *network.holdings.T)
    write_csv(dict(zip(expected_columns(network.n_assets), columns)), path)


def load_labels(path) -> frozenset:
    """The bank ids of a one-column bank_id CSV (header optional, duplicates
    dropped with a warning); a record with a second non-blank field is a
    SchemaError, as its id would be a guess."""
    ids = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for line, rec in _records(csv.reader(fh)):
                if any(field.strip() for field in rec[1:]):
                    raise SchemaError(f"row {line}: expected one field (a bank_id), "
                                      f"found {len(rec)}")
                if value := rec[0].strip():
                    ids.append(value)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    if ids and ids[0].lower() == "bank_id":   # the header is the first non-blank record
        del ids[0]
    unique = frozenset(ids)
    dupes = len(ids) - len(unique)
    if dupes:
        warnings.warn(f"label file contains {dupes} duplicate ids; deduplicated")
    return unique


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic network generator; each field is a key of the
    command line's --synthetic spec, and __post_init__ checks them all.

    The target portfolio weights are the 13-entry population averages,
    normalized to sum to 1 (they average only over holders, so they do not),
    when assets is 13, and uniform otherwise. label_asset, label_p,
    label_alpha and label_eta, given together, produce ground-truth labels by
    running that single-asset reference cascade on the generated network, on
    the stream of label_seed (0 when absent).
    """

    n: int
    assets: int = 13
    concentration: float = 8.0
    median: float = 1e5
    sigma: float = 1.2
    lev_low: float = 0.85
    lev_high: float = 0.98
    sparsity: float = 0.0
    label_asset: int = None
    label_p: float = None
    label_alpha: float = None
    label_eta: float = None
    label_seed: int = None

    def __post_init__(self):
        labels = (self.label_asset, self.label_p, self.label_alpha, self.label_eta)
        # label_seed alone asks for a label cascade too, so it needs the other four
        labelled = self.label_seed is not None or any(v is not None for v in labels)
        if labelled:
            if any(v is None for v in labels):
                raise ValueError("label cascade needs "
                                 "['label_alpha', 'label_asset', 'label_eta', 'label_p']")
            if self.label_seed is not None and self.label_seed < 0:
                raise ValueError("label_seed must be non-negative")
            try:
                CascadeParams.single(self.label_asset, self.label_p, self.label_alpha,
                                     self.label_eta)
            except ValueError as e:
                # CascadeParams' message starts with the parameter's name
                raise ValueError(f"label_{e}") from None
        if self.n < 1 or self.assets < 1:
            raise ValueError("need at least one bank and one asset")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        if not 0.0 <= self.lev_low <= self.lev_high:
            raise ValueError("need 0 <= lev_low <= lev_high")
        if not (self.concentration > 0 and self.median > 0):
            raise ValueError("concentration and median must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not all(map(math.isfinite, (self.concentration, self.median, self.sigma,
                                       self.lev_low, self.lev_high))):
            raise ValueError("concentration, median, sigma and leverage must be finite")
        # last, once assets is known to be a count
        if labelled and not 0 <= self.label_asset < self.assets:
            raise ValueError(f"label_asset {self.label_asset} out of range "
                             f"({self.assets} assets)")


def generate_synthetic(config: SyntheticConfig, seed: int):
    """Generate (network, labels-or-None), deterministic for a fixed seed."""
    rng = stream(seed, DOMAIN_SYNTHETIC)
    n, m = config.n, config.assets
    target = (DEFAULT_MEAN_WEIGHTS / DEFAULT_MEAN_WEIGHTS.sum()
              if m == DEFAULT_MEAN_WEIGHTS.size else np.full(m, 1.0 / m))

    # an overflowing spec makes inf, or inf * 0 = NaN, which BankAssetNetwork
    # refuses as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = config.median * np.exp(config.sigma * rng.standard_normal(n))
        leverage = rng.uniform(config.lev_low, config.lev_high, n)
        raw = rng.standard_gamma(config.concentration * target, size=(n, m))
        if config.sparsity > 0.0:
            raw[rng.random((n, m)) < config.sparsity] = 0.0
        dead_rows = raw.sum(axis=1) == 0.0
        if np.any(dead_rows):
            raw[dead_rows, int(np.argmax(target))] = 1.0
        # the weights, then the holdings, in the gamma draws' own buffer
        raw /= raw.sum(axis=1, keepdims=True)
        holdings = np.multiply(raw, sizes[:, None], out=raw)
        total_assets = holdings.sum(axis=1)
        total_liabilities = leverage * total_assets
    network = BankAssetNetwork(
        bank_ids=np.fromiter((f"B{i:05d}" for i in range(n)), dtype=StringDType(), count=n),
        holdings=holdings,
        total_assets=total_assets,
        total_liabilities=total_liabilities,
    )
    labels = None
    if config.label_asset is not None:
        params = CascadeParams.single(config.label_asset, config.label_p, config.label_alpha,
                                      config.label_eta)
        labels = labels_from_cascade(network, params, stream(config.label_seed or 0))
    return network, labels


def labels_from_cascade(network: BankAssetNetwork, params: CascadeParams,
                        rng: np.random.Generator) -> frozenset:
    """Ground-truth labels: the ids of the banks a reference cascade, drawing
    from rng, fails (round >= 1)."""
    result = run_cascade(network, params, rng)
    return frozenset(network.bank_ids[i] for i in np.flatnonzero(result.failed_round >= 1))
