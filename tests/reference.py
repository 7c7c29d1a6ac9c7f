"""Closed-form barrier probability, straight-line reference cascade,
unscreened barrier pass, bank-by-bank ROC counts, row-by-row balance-sheet
completion and a record-by-record CSV reader, used as oracles by the test
suite.

Deliberately naive: explicit per-bank holdings updated with python loops, no
vectorization, no shortcuts. The production engine tracks holdings through a
per-asset price index instead; this module recomputes everything the slow way
so the two can be compared bit-for-bit (well, to 1e-12) on small instances.

Model recap, one round at a time:
  shock      multiply the target asset's unit price by p (holdings and the
             tracked market value A_m scale with it)
  barrier    a bank fails when its current total assets drop below (1-r)*L,
             r drawn fresh each round, uniform on [0, eta]
  fire sale  every bank that failed this round dumps alpha * holding of each
             asset; prices drop by the aggregated factor (A - D)/A
  repeat     until a round produces no failures or nobody is left

Pre-shock insolvencies are tagged round 0 and do NOT fire-sell (prices must
still be 1 when the shock lands).
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

from cascadefin import CascadeParams, SchemaError, run_cascade, stream
from cascadefin.cascade import DOMAIN_CELL, PARAM_UPPER


def failure_probability(b: float, l: float, eta: float) -> float:
    """Probability that a bank with assets b and liabilities l fails a round.

    Piecewise: 0 when b >= l; (l - b)/(eta*l) on the open band
    (1-eta)*l < b < l when eta > 0; 1 when b <= (1-eta)*l. With eta = 0 the
    band is empty and failure is certain exactly when b < l.
    """
    if b < 0 or l < 0:
        raise ValueError("assets and liabilities must be non-negative")
    if not 0.0 <= eta <= PARAM_UPPER["eta"]:
        raise ValueError(f"eta must be in [0, 0.5], got {eta}")
    if b >= l:
        return 0.0
    if eta != 0.0 and (1.0 - eta) * l < b:
        return (l - b) / (eta * l)
    return 1.0


def brute_force_cascade(holdings, liabilities, shocks, alpha, eta, rng=None,
                        max_rounds=None, market=None):
    """Run one cascade the slow way.

    holdings     N x M nested lists (or anything indexable) of non-negative floats
    liabilities  length-N list
    shocks       dict {asset index: p}
    market       per-asset tracked market values A_m; the holdings' column
                 sums when None
    rng          numpy Generator; only consulted when eta > 0. Draw discipline
                 matches the engine: one uniform per alive bank per round, in
                 ascending bank order (the final zero-failure round included).

    Returns a dict with per-bank fates, the executed round count, final and
    per-boundary prices, and snapshots of the explicit holdings matrix at each
    round boundary (index 0 = just after the shock).
    """
    n = len(liabilities)
    m = len(holdings[0]) if n else 0
    hold = [[float(v) for v in row] for row in holdings]
    liab = [float(v) for v in liabilities]
    if max_rounds is None:
        max_rounds = 10 * n

    if market is None:
        market = [0.0] * m
        for a in range(m):
            for i in range(n):
                market[a] += hold[i][a]
    else:
        market = [float(v) for v in market]

    price = [1.0] * m
    alive = [True] * n
    failed_round = [-1] * n
    failures_per_round = []

    def draw(k):
        if eta == 0.0:
            return [0.0] * k
        return [rng.random() * eta for _ in range(k)]

    # round 0: barrier check before the shock, no fire sale
    r0 = draw(n)
    pos = 0
    count0 = 0
    for i in range(n):
        total = 0.0
        for a in range(m):
            total += hold[i][a]
        if total < (1.0 - r0[pos]) * liab[i]:
            failed_round[i] = 0
            alive[i] = False
            count0 += 1
        pos += 1
    failures_per_round.append(count0)

    # the shock itself
    for a, p in sorted(shocks.items()):
        if market[a] == 0.0:
            continue
        price[a] *= p
        market[a] *= p
        for i in range(n):
            if alive[i]:
                hold[i][a] *= p

    def snapshot():
        return {
            "price": list(price),
            "market": list(market),
            "alive": list(alive),
            "holdings": [list(row) for row in hold],
        }

    boundaries = [snapshot()]

    rounds = 0
    non_converged = False
    while any(alive):
        if rounds >= max_rounds:
            non_converged = True
            break
        rounds += 1
        alive_idx = [i for i in range(n) if alive[i]]
        r = draw(len(alive_idx))
        newly_failed = []
        for k, i in enumerate(alive_idx):
            total = 0.0
            for a in range(m):
                total += hold[i][a]
            if total < (1.0 - r[k]) * liab[i]:
                newly_failed.append(i)
        failures_per_round.append(len(newly_failed))
        if not newly_failed:
            break
        for i in newly_failed:
            failed_round[i] = rounds
            alive[i] = False
        # aggregated fire sale of this round's failures
        for a in range(m):
            d = 0.0
            for i in newly_failed:
                d += alpha * hold[i][a]
            if market[a] > 0.0:
                f = (market[a] - d) / market[a]
                if f < 0.0:
                    f = 0.0
            else:
                f = 1.0
            market[a] = max(market[a] - d, 0.0)
            price[a] *= f
            for i in range(n):
                if alive[i]:
                    hold[i][a] *= f
        boundaries.append(snapshot())

    return {
        "failed_round": failed_round,
        "rounds": rounds,
        "failures_per_round": failures_per_round,
        "price_index": list(price),
        "market_value": list(market),
        "boundaries": boundaries,
        "non_converged": non_converged,
    }


def full_barrier_round(state, params, rng):
    """The barrier pass without screening: sums every alive bank's row, with
    the draws and arithmetic of cascade.evaluate_round, so the two can be
    compared bit for bit by patching it in."""
    alive_idx = np.flatnonzero(state.alive)
    totals = (state.holdings_base[alive_idx] * state.price_index).sum(axis=1)
    threshold = state.liabilities[alive_idx]
    if params.eta != 0.0:
        threshold = (1.0 - rng.random(alive_idx.size) * params.eta) * threshold
    failures = alive_idx[totals < threshold]
    state.alive[failures] = False
    return failures


def brute_force_roc(network, labels, asset, alphas, etas, ps, seed, replicates):
    """ROC counts recomputed bank by bank from every replicate's fates.

    Runs every replicate of every (alpha, eta, p) cell, eta = 0 cells
    included, on the lattice's streams. A bank is model-failed when more than
    half of the replicates fail it in round 1 or later, and counts towards the
    first step when at least half of those failing runs failed it in round 1.
    Returns one (alpha, eta, p, split, tp, fp) per cell and split, in
    roc_grid's order.
    """
    labels = set(labels)
    positive = [bank in labels for bank in network.bank_ids]
    out = []
    cells = itertools.product(alphas, etas, ps)
    for i, (alpha, eta, p) in enumerate(cells):
        params = CascadeParams.single(asset, p, alpha, eta)
        fates = [run_cascade(network, params, rng=stream(seed, DOMAIN_CELL, i, r)).failed_round
                 for r in range(replicates)]
        counts = {"full": [0, 0], "first_step": [0, 0], "consecutive_steps": [0, 0]}
        for b in range(network.n_banks):
            failing = [int(f[b]) for f in fates if f[b] >= 1]
            if 2 * len(failing) <= replicates:
                continue
            first = 2 * failing.count(1) >= len(failing)
            column = 0 if positive[b] else 1
            counts["full"][column] += 1
            counts["first_step" if first else "consecutive_steps"][column] += 1
        out += [(alpha, eta, p, split, tp, fp) for split, (tp, fp) in counts.items()]
    return out


def _average_weights(rows):
    """Per asset, the mean of B_{i,m}/B_i over the rows that report it (NaN if none)."""
    values = []
    for m in range(len(rows[0][2])):
        contrib = [h[m] / b for _, b, h in rows if h[m] is not None and b > 0]
        values.append(np.mean(np.array(contrib)) if contrib else np.nan)
    return values


def _spread(total, assets, avg, bank_id):
    weights = [avg[m] for m in assets]
    if any(np.isnan(w) for w in weights):
        raise SchemaError(f"bank {bank_id}: average weight undefined for redistribution")
    s = float(np.sum(weights))
    if s <= 0:
        return [total / len(assets)] * len(assets)
    return [total * w / s for w in weights]


def _complete_row(bank_id, b, holdings, avg):
    """(filled holdings, repair or None) of one row; holdings entries may be None."""
    known = [v for v in holdings if v is not None]
    missing = [m for m, v in enumerate(holdings) if v is None]
    known_sum = float(np.sum(known)) if known else 0.0
    residual = b - known_sum
    tol = 1e-9 * max(b, 1.0)
    filled = list(holdings)

    if not missing:
        if abs(residual) <= tol:
            return filled, None
        if known_sum > 0:
            scale = b / known_sum
            return [v * scale for v in filled], {
                "row_id": bank_id, "action": "rescaled_inconsistent_row", "residual": residual}
        # all-zero holdings yet a positive total: fall back to averages
        return _spread(b, list(range(len(filled))), avg, bank_id), {
            "row_id": bank_id, "action": "redistributed_zero_row", "residual": residual}
    undefined = [m for m in missing if np.isnan(avg[m])]
    if undefined:
        raise SchemaError(f"bank {bank_id}: asset {undefined[0]} missing but its average "
                          "weight is undefined (no row reports it)")
    if residual < -tol:
        if known_sum <= 0:
            raise ValueError(f"bank {bank_id}: negative residual with no known holdings")
        scale = b / known_sum
        return [0.0 if v is None else v * scale for v in filled], {
            "row_id": bank_id, "action": "negative_residual_rescaled", "residual": residual}
    r = max(residual, 0.0)
    weight_sum = float(np.sum([avg[m] for m in missing]))
    repair = None
    if weight_sum > 0.0:
        for m in missing:
            filled[m] = r * avg[m] / weight_sum
    else:
        for m in missing:
            filled[m] = r / len(missing)
        if r > tol:
            repair = {"row_id": bank_id, "action": "uniform_fill_zero_average_weights",
                      "residual": residual}
    return filled, repair


def complete_rows(bank_ids, total_assets, holdings):
    """Row-by-row completion: (average weights, N x M completed holdings,
    repair report).

    holdings is N x M with NaN for a blank cell. Each row is completed on its
    own in Python floats and lists, as a check on the columnar arithmetic.
    """
    rows = [(bank_id, float(b), [None if np.isnan(v) else float(v) for v in h])
            for bank_id, b, h in zip(bank_ids, total_assets, holdings)]
    avg = _average_weights(rows)
    filled, report = [], []
    for bank_id, b, h in rows:
        values, repair = _complete_row(bank_id, b, h, avg)
        filled.append(values)
        if repair is not None:
            report.append(repair)
    return np.array(avg), np.array(filled, dtype=np.float64).reshape(holdings.shape), report


def _number(text):
    """A cell's number: plain ASCII without `_`, read by float(); ValueError otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return float(text)


def _bad_row(line, rec, header, first):
    """The message of the first problem of one data record, checked in the
    order of its columns, or None; first maps each earlier row's bank_id to
    its line, and gains this row's."""
    if len(rec) != len(header):
        return f"row {line}: expected {len(header)} fields, found {len(rec)}"
    bank_id = rec[0].strip()
    if not bank_id:
        return f"row {line}: empty bank_id"
    if "\r" in bank_id or "\n" in bank_id:
        return f"row {line}: bank_id contains a line break"
    if bank_id in first:
        return f"row {line}: duplicate bank_id {bank_id!r}, first on row {first[bank_id]}"
    first[bank_id] = line
    for k, name in enumerate(header[1:], start=1):
        # the totals are read as written, a holding stripped and maybe blank
        text = rec[k] if k < 3 else rec[k].strip()
        if k >= 3 and text == "":
            continue
        try:
            value = _number(text)
        except ValueError:
            return f"row {line}: column {name!r} has non-numeric value {text!r}"
        if not math.isfinite(value):
            return f"row {line}: column {name!r} is not finite"
        if k == 2 and (value < 0 or _number(rec[1]) < 0):
            return f"row {line}: negative totals"
        if k >= 3 and value < 0:
            return f"row {line}: negative holding {name}"
    return None


def load_csv(text):
    """A balance-sheet CSV's text read one csv record at a time: the message
    of its first error, or (bank ids, total assets, total liabilities,
    holdings with NaN for a blank, each row's first file line).

    The header comes first: bank_id, total_assets, total_liabilities, then
    asset_00, asset_01, ... in order, at least one. A leading byte order mark
    is dropped, a blank record skipped, and a record starts on the line after
    the last one's end. Each data row is then checked in the order of its
    columns (_bad_row), and a file without one is an error too."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    header = next(reader, None)
    if header is None:
        return "empty file: missing header row"
    n_assets = len(header) - 3
    names = ["bank_id", "total_assets", "total_liabilities"]
    names += [f"asset_{m:02d}" for m in range(max(n_assets, 0))]
    for pos, name in enumerate(names):
        found = header[pos] if pos < len(header) else "<missing>"
        if found != name:
            return f"expected column {name!r} at position {pos}, found {found!r}"
    if n_assets < 1:
        return "no asset_NN columns found"
    first, rows, end = {}, [], reader.line_num
    for rec in reader:
        line, end = end + 1, reader.line_num
        if not rec or (len(rec) == 1 and rec[0].strip() == ""):
            continue
        if error := _bad_row(line, rec, header, first):
            return error
        rows.append((rec[0].strip(), float(rec[1]), float(rec[2]),
                     [float(c) if c.strip() else math.nan for c in rec[3:]], line))
    if not rows:
        return "no data rows in input"
    ids, assets, liabilities, holdings, lines = map(list, zip(*rows))
    return ids, np.array(assets), np.array(liabilities), np.array(holdings), lines
