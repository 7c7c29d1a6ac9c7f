"""Survival curves, ROC grids, failure attribution and phase-diagram scans.

Every analysis is a lattice of cells. One driver runs each cell's replicates,
with RNG streams derived from (master seed, cell index, replicate index), and
feeds their fate vectors one at a time to the analysis' reducer in the worker
that ran them. An eta = 0 cell is deterministic, so its cascade runs once and
its one fate vector is fed to the reducer once per replicate. Only the reduced
cell results come back, in lattice order, so the outputs are independent of
execution order and of --jobs.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cascade import DOMAIN_CELL, SURVIVED, CascadeParams, run_cascade, stream
from .network import BankAssetNetwork, BoolA, FloatA

SPLIT_FULL = "full"
SPLIT_FIRST = "first_step"
SPLIT_CONSECUTIVE = "consecutive_steps"

REGION_STABLE = "I"
REGION_COLLAPSED = "II"

DEFAULT_REGION_THRESHOLD = 0.05
DEFAULT_REPLICATES = 300

@dataclass(frozen=True)
class RocPoint:
    alpha: float
    eta: float
    p: float
    tpr: float
    fpr: float
    true_positives: int
    split: str


@dataclass(frozen=True)
class SweepRecord:
    p: float
    alpha: float
    eta: float
    survival_all: float
    survival_labeled: float  # None when no labeled bank is in the network


@dataclass
class PhaseDiagram:
    axis_names: tuple
    axis_values: tuple          # one array per axis
    mean_survival: FloatA       # shaped like the axes
    ci_half: FloatA             # None when replicates < 2
    region: np.ndarray          # 'I' / 'II' per cell
    threshold: float
    replicates: int
    fixed: dict
    max_step_drop: float = None  # only for 1-D scans


# ---------------------------------------------------------------------------
# the lattice driver: one _Lattice is shipped to each worker once, cell tasks
# are plain indices, results come back in lattice order

@dataclass
class _Lattice:
    network: BankAssetNetwork
    cells: list          # CascadeParams per cell, in lattice order
    replicates: int
    seed: int
    reduce: Callable     # module-level (fate vectors, lattice) -> cell result
    positives: BoolA = None   # labeled banks present in the network


_LATTICE = None


def _init_worker(lattice):
    global _LATTICE
    _LATTICE = lattice


def _cell(i):
    """Run cell i's replicates one at a time through the lattice's reducer.

    An eta = 0 cell runs one cascade, on replicate 0's stream, and feeds that
    fate vector to the reducer once per replicate. This is exact: at eta = 0
    the barrier is a step, so evaluate_round draws no random number, and
    neither apply_shock nor apply_fire_sales ever touches the rng. Every
    replicate of such a cell therefore has the same fates, and the reducer
    sees the same R vectors, in the same order, as a per-replicate loop.
    """
    lat = _LATTICE
    params = lat.cells[i]
    if params.eta == 0.0:
        fate = run_cascade(lat.network, params,
                           rng=stream(lat.seed, DOMAIN_CELL, i, 0)).failed_round
        return lat.reduce(itertools.repeat(fate, lat.replicates), lat)
    fates = (run_cascade(lat.network, params,
                         rng=stream(lat.seed, DOMAIN_CELL, i, rep)).failed_round
             for rep in range(lat.replicates))
    return lat.reduce(fates, lat)


def _run_lattice(lattice: _Lattice, jobs: int) -> list:
    n_cells = len(lattice.cells)
    if jobs is None or jobs <= 1 or n_cells <= 1:
        _init_worker(lattice)
        return [_cell(i) for i in range(n_cells)]
    # the pool forks every worker up front, so never more than there are cells
    workers = min(jobs, n_cells)
    chunk = max(1, n_cells // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(lattice,)) as pool:
        return list(pool.map(_cell, range(n_cells), chunksize=chunk))


def _survival_fraction(fate) -> float:
    return float((fate == SURVIVED).sum() / fate.size)


def _reduce_survival(fates, lat):
    """(survival of all banks, of labeled banks or None) of the one replicate."""
    (fate,) = fates
    labeled = None
    if lat.positives.any():
        labeled = float((fate[lat.positives] == SURVIVED).mean())
    return _survival_fraction(fate), labeled


def _reduce_roc(fates, lat):
    """(true, false) positive counts of the full, first-step and
    consecutive-steps splits.

    A bank is classified failed (fate round >= 1) by strict majority vote over
    the replicates, and attributed to the first step when at least half of its
    failing runs failed in round 1.
    """
    failed_votes = np.zeros(lat.network.n_banks, dtype=np.int64)
    first_votes = np.zeros(lat.network.n_banks, dtype=np.int64)
    for fate in fates:
        failed_votes += fate >= 1
        first_votes += fate == 1
    model_failed = failed_votes * 2 > lat.replicates
    first_step = model_failed & (first_votes * 2 >= failed_votes)
    pos = lat.positives
    return [(int((mask & pos).sum()), int((mask & ~pos).sum()))
            for mask in (model_failed, first_step, model_failed & ~first_step)]


def _reduce_phase(fates, lat):
    """(mean survival, 95 % CI half-width or None) over the replicates.

    When every replicate agrees, as in any eta = 0 cell, the mean is that
    value and the half-width exactly 0.0; the floating-point mean and std of
    R equal values can be off by an ulp.
    """
    fractions = np.array([_survival_fraction(fate) for fate in fates])
    if fractions.min() == fractions.max():
        mean, std = fractions[0], 0.0
    else:
        mean, std = fractions.mean(), fractions.std(ddof=1)
    ci = None
    if lat.replicates >= 2:
        ci = float(1.96 * std / np.sqrt(lat.replicates))
    return float(mean), ci


def _positives(network, labels) -> BoolA:
    pos = np.zeros(network.n_banks, dtype=bool)
    pos[network.indices_of(labels)] = True
    return pos


def _params(asset, seed, cells) -> list:
    """One single-shock CascadeParams per (p, alpha, eta) cell."""
    return [CascadeParams.single(int(asset), p, alpha, eta, seed=int(seed))
            for p, alpha, eta in cells]


def survival_curves(network, labels, shocked_asset, p_grid, alpha_grid, eta,
                    *, seed=0, jobs=1):
    """Survival fraction (all banks, labeled banks) per (p, alpha) cell.

    One cascade per cell; cells are enumerated alpha-major so each alpha value
    forms one curve over the p grid.
    """
    p_grid = [float(p) for p in p_grid]
    alpha_grid = [float(a) for a in alpha_grid]
    if not p_grid or not alpha_grid:
        raise ValueError("empty parameter grid")
    eta, seed = float(eta), int(seed)
    positives = _positives(network, labels)
    if labels is not None and not positives.any():
        warnings.warn("labels are disjoint from the network; labeled fraction undefined")
    cells = [(p, a, eta) for a in alpha_grid for p in p_grid]
    out = _run_lattice(_Lattice(network, _params(shocked_asset, seed, cells), 1, seed,
                                _reduce_survival, positives), jobs)
    return [SweepRecord(*cell, *r) for cell, r in zip(cells, out)]


def roc_grid(network, labels, shocked_asset, ps, alphas, etas,
             *, seed=0, replicates=1, jobs=1):
    """ROC points over the (p, alpha, eta) lattice, three splits per cell.

    Cells run alpha-major, then eta, then p. Positives are the labeled banks
    present in the network; negatives are the rest. A bank counts as
    model-failed when its fate round is >= 1, so pre-shock insolvencies never
    contribute to any split. The first-step and consecutive-steps splits
    partition the full split's true positives.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    positives = _positives(network, labels)
    n_pos = int(positives.sum())
    n_neg = network.n_banks - n_pos
    if n_pos == 0 or n_neg == 0:
        warnings.warn("ROC undefined: need at least one positive and one negative bank; "
                      "no points emitted")
        return []
    cells = [(p, alpha, eta) for alpha, eta, p in itertools.product(alphas, etas, ps)]
    lattice = _Lattice(network, _params(shocked_asset, seed, cells), int(replicates),
                       int(seed), _reduce_roc, positives)
    splits = (SPLIT_FULL, SPLIT_FIRST, SPLIT_CONSECUTIVE)
    return [RocPoint(alpha, eta, p, tp / n_pos, fp / n_neg, tp, split)
            for (p, alpha, eta), counts in zip(cells, _run_lattice(lattice, jobs))
            for split, (tp, fp) in zip(splits, counts)]


def attribution_split(result, labels, network) -> dict:
    """Count correctly-identified failures by first step vs later steps.

    Pre-shock failures (round 0) are excluded from both counts; the two counts
    sum to the full split's true positives.
    """
    pos = _positives(network, labels)
    first = int(((result.failed_round == 1) & pos).sum())
    consecutive = int(((result.failed_round >= 2) & pos).sum())
    return {"first_step_count": first, "consecutive_count": consecutive}


def phase_scan(network, shocked_asset, ps, alphas, etas,
               replicates=DEFAULT_REPLICATES, *, seed=0,
               threshold=DEFAULT_REGION_THRESHOLD, jobs=1) -> PhaseDiagram:
    """Mean survival over the (p, alpha, eta) lattice, with region labels.

    The axes are the grids with more than one value, in (p, alpha, eta)
    order; there must be one or two, and the other grids fix their parameter.
    Region II marks cells whose mean survival falls below the threshold. 1-D
    scans also report the largest jump between adjacent cells (the
    abrupt-transition detector).
    """
    grids = [[float(v) for v in g] for g in (ps, alphas, etas)]
    if not all(grids):
        raise ValueError("empty parameter grid")
    axes = [k for k, g in enumerate(grids) if len(g) > 1]
    if not 1 <= len(axes) <= 2:
        raise ValueError("phase_scan needs one or two axes (grids with more than one value)")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")

    cells = list(itertools.product(*grids))
    out = _run_lattice(_Lattice(network, _params(shocked_asset, seed, cells),
                                int(replicates), int(seed), _reduce_phase), jobs)

    shape = tuple(len(grids[k]) for k in axes)
    mean = np.array([m for m, _ in out]).reshape(shape)
    ci = None
    if replicates >= 2:
        ci = np.array([c for _, c in out]).reshape(shape)
    region = np.where(mean < threshold, REGION_COLLAPSED, REGION_STABLE)
    drop = float(np.max(np.abs(np.diff(mean)))) if len(axes) == 1 else None
    names = ("p", "alpha", "eta")
    return PhaseDiagram(tuple(names[k] for k in axes),
                        tuple(np.asarray(grids[k]) for k in axes), mean, ci, region,
                        float(threshold), int(replicates),
                        {names[k]: g[0] for k, g in enumerate(grids) if len(g) == 1}, drop)


# ---------------------------------------------------------------------------
# plot-ready CSV output; repr() keeps every float round-trippable and stable


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


def write_roc_csv(points, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "eta", "p", "split", "fpr", "tpr", "tp_count"])
        for pt in points:
            writer.writerow([_fmt(pt.alpha), _fmt(pt.eta), _fmt(pt.p), pt.split,
                             _fmt(pt.fpr), _fmt(pt.tpr), pt.true_positives])


def write_survival_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "alpha", "eta", "survival_all", "survival_labeled"])
        for rec in records:
            writer.writerow([_fmt(rec.p), _fmt(rec.alpha), _fmt(rec.eta),
                             _fmt(rec.survival_all), _fmt(rec.survival_labeled)])


def write_phase_csv(diagram: PhaseDiagram, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(diagram.axis_names) + ["mean_survival", "ci_half", "region"])
        combos = list(itertools.product(*[range(len(v)) for v in diagram.axis_values]))
        for idx in combos:
            row = [_fmt(diagram.axis_values[k][i]) for k, i in enumerate(idx)]
            ci = diagram.ci_half[idx] if diagram.ci_half is not None else None
            writer.writerow(row + [_fmt(diagram.mean_survival[idx]), _fmt(ci),
                                   str(diagram.region[idx])])
