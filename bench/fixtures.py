"""Input files for the benchmark workloads, generated from the workload seed.

The networks come from the test suite's own builders (tests/helpers.py), so
the benchmark and the acceptance suite run on the same fixtures. Run as a
child process with src/ and tests/ on PYTHONPATH:

    fixtures.py ingest RAW_CSV SEED     (also writes RAW_CSV.json: rows,
                                         injected repairs per action, blank cells)
    fixtures.py bimodal COMPLETED_CSV SEED
"""

from __future__ import annotations

import json
import sys

import numpy as np

import cascadefin as cf
from cascadefin.ingestion import expected_columns
from helpers import bimodal_dense_2000, dense_synthetic

INGEST_BANKS = 50_000
BLANK_SHARE = 0.2
REPAIR_SHARE = 0.01
REPAIR_ACTIONS = ("rescaled_inconsistent_row", "negative_residual_rescaled",
                  "redistributed_zero_row")


def _cell(v) -> str:
    return repr(float(v))


def write_raw_ingest_csv(path, seed: int, n_banks: int = INGEST_BANKS):
    """Write a raw call-report CSV; returns (repair count per injected action,
    number of blank cells).

    Cells are blank with probability BLANK_SHARE. REPAIR_SHARE of the rows are
    rebuilt so that completion must repair them, cycling through
    REPAIR_ACTIONS:
      rescaled_inconsistent_row  -- no blanks, stated total 5 % above the sum;
      negative_residual_rescaled -- one blank, stated total 10 % below the
                                    sum of the reported cells;
      redistributed_zero_row     -- no blanks, every holding 0, total > 0.
    """
    network, _ = dense_synthetic(n_banks, seed)
    holdings = network.holdings.copy()
    totals = network.total_assets.copy()
    gen = np.random.default_rng([seed, 8])
    blank = gen.random(holdings.shape) < BLANK_SHARE
    # a row with every cell blank has no reported weight to complete from
    blank[blank.all(axis=1), 0] = False
    injected = gen.choice(n_banks, size=int(n_banks * REPAIR_SHARE), replace=False)
    counts = dict.fromkeys(REPAIR_ACTIONS, 0)
    for k, i in enumerate(injected):
        action = REPAIR_ACTIONS[k % len(REPAIR_ACTIONS)]
        counts[action] += 1
        blank[i] = False
        if action == "rescaled_inconsistent_row":
            totals[i] = holdings[i].sum() * 1.05
        elif action == "negative_residual_rescaled":
            blank[i, gen.integers(holdings.shape[1])] = True
            totals[i] = float(np.sum(holdings[i][~blank[i]])) * 0.9
        else:
            holdings[i] = 0.0
    lines = [",".join(expected_columns(holdings.shape[1]))]
    for i, bank_id in enumerate(network.bank_ids):
        cells = ["" if b else _cell(v) for v, b in zip(holdings[i], blank[i])]
        lines.append(",".join([bank_id, _cell(totals[i]),
                               _cell(network.total_liabilities[i])] + cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return counts, int(blank.sum())


def write_bimodal_csv(path, seed: int) -> None:
    """Write criterion 7's bimodal-2000 network as a completed CSV.

    Raises RuntimeError unless loading the file back gives holdings and
    liabilities bit-identical to the in-memory network.
    """
    network = bimodal_dense_2000(seed)
    cf.save_completed_csv(network.banks, path)
    loaded = cf.load_completed_network(path)
    if not (np.array_equal(loaded.holdings, network.holdings)
            and np.array_equal(loaded.total_liabilities, network.total_liabilities)):
        raise RuntimeError("bimodal-2000 CSV round trip is not bit-identical")


def main(argv) -> int:
    kind, path, seed = argv[0], argv[1], int(argv[2])
    if kind == "ingest":
        injected, blanks = write_raw_ingest_csv(path, seed)
        with open(path + ".json", "w") as fh:
            json.dump({"rows": INGEST_BANKS, "injected": injected, "blank_cells": blanks}, fh)
    elif kind == "bimodal":
        write_bimodal_csv(path, seed)
    else:
        raise SystemExit(f"unknown fixture {kind!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
