"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the output passed.
The checks stream their files row by row in plain Python: they run in the
benchmark's own process, whose peak RSS every child it spawns inherits as a
floor on its reported peak RSS.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter

ROW_SUM_RTOL = 1e-9
CI_HALF_ATOL = 1e-12
ROC_SPLITS = ("full", "first_step", "consecutive_steps")


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(out_dir) -> dict[str, str]:
    """SHA-256 of every file in an output directory, by file name."""
    return {name: sha256(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        yield {name: k for k, name in enumerate(header)}
        yield from reader


def check_manifest(out_dir) -> list[str]:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        outputs = json.load(fh)["outputs"]
    problems = []
    for name, digest in outputs.items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"manifest lists missing file {name}")
        elif sha256(path) != digest:
            problems.append(f"manifest hash of {name} does not match the file")
    return problems


def check_ingest(out_dir, n_rows: int, injected: dict) -> list[str]:
    """completed.csv has no blanks and every row sums to its total; the repair
    report lists exactly the injected repairs."""
    problems = []
    rows = blanks = off = 0
    first_off = None
    lines = _rows(os.path.join(out_dir, "completed.csv"))
    next(lines)
    for r in lines:
        rows += 1
        cells = r[3:]
        if any(v.strip() == "" for v in cells):
            blanks += 1
            continue
        total = float(r[1])
        if abs(math.fsum(map(float, cells)) - total) > ROW_SUM_RTOL * max(abs(total), 1.0):
            off += 1
            first_off = first_off or r[0]
    if rows != n_rows:
        problems.append(f"completed.csv has {rows} rows, expected {n_rows}")
    if blanks:
        problems.append(f"completed.csv still has blank cells in {blanks} rows")
    if off:
        problems.append(f"{off} rows do not sum to total_assets, first {first_off}")
    with open(os.path.join(out_dir, "repair_report.json")) as fh:
        report = json.load(fh)
    found = Counter(r["action"] for r in report["repairs"])
    if found != Counter(injected):
        problems.append(f"repair actions {dict(found)} != injected {injected}")
    if report["rows"] != n_rows:
        problems.append(f"repair report counts {report['rows']} rows, expected {n_rows}")
    return problems


def check_phase(out_dir) -> list[str]:
    """The criterion 7 cliff is present, survival is a fraction, and the
    deterministic (eta = 0) cells report no confidence interval width."""
    lines = _rows(os.path.join(out_dir, "phase.csv"))
    col = next(lines)
    problems = []
    means, wide = [], 0
    for r in lines:
        means.append(float(r[col["mean_survival"]]))
        ci = r[col["ci_half"]]
        wide += ci == "" or abs(float(ci)) > CI_HALF_ATOL
    if len(means) < 2:
        return ["phase.csv has fewer than two cells"]
    if any(not 0.0 <= m <= 1.0 for m in means):
        problems.append("mean_survival outside [0, 1]")
    if not any(a > 0.8 and b < 0.1 for a, b in zip(means, means[1:])):
        problems.append("no one-step survival drop from above 0.8 to below 0.1")
    if wide:
        problems.append(f"ci_half above {CI_HALF_ATOL} on {wide} eta = 0 cells")
    return problems


def check_roc(out_dir) -> list[str]:
    """Rates are fractions, every cell has its three splits, and first-step
    plus consecutive-steps true positives add up to the full split's."""
    lines = _rows(os.path.join(out_dir, "roc.csv"))
    col = next(lines)
    problems = []
    cells: dict[tuple, dict] = {}
    n = 0
    for r in lines:
        n += 1
        for rate in ("fpr", "tpr"):
            if not 0.0 <= float(r[col[rate]]) <= 1.0:
                problems.append(f"{rate} {r[col[rate]]} outside [0, 1]")
        key = (r[col["alpha"]], r[col["eta"]], r[col["p"]])
        cells.setdefault(key, {})[r[col["split"]]] = int(r[col["tp_count"]])
    if not n:
        return ["roc.csv has no points"]
    for key, splits in cells.items():
        if sorted(splits) != sorted(ROC_SPLITS):
            problems.append(f"cell {key} has splits {sorted(splits)}")
        elif splits["first_step"] + splits["consecutive_steps"] != splits["full"]:
            problems.append(f"cell {key}: first + consecutive tp != full tp")
    if n != 3 * len(cells):
        problems.append(f"{n} rows for {len(cells)} cells")
    return problems
