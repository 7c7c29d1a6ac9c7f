"""Survival curves, ROC grids with first-step/consecutive splits, and
phase-diagram scans.

Every analysis is a lattice of cells. One driver runs each cell's replicates,
with RNG streams derived from (master seed, cell index, replicate index), and
feeds their fate vectors one at a time to the analysis' reducer in the worker
that ran them. An eta = 0 cell is deterministic, so its cascade runs once and
its one fate vector is fed to the reducer once per replicate. Only the reduced
cell results come back, in lattice order, so the outputs are independent of
execution order and of --jobs.
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .cascade import DOMAIN_CELL, SURVIVED, CascadeParams, run_cascade, stream
from .network import FloatA

SPLIT_FULL = "full"
SPLIT_FIRST = "first_step"
SPLIT_CONSECUTIVE = "consecutive_steps"

REGION_STABLE = "I"
REGION_COLLAPSED = "II"

DEFAULT_REGION_THRESHOLD = 0.05
DEFAULT_REPLICATES = 300

@dataclass
class PhaseDiagram:
    axis_names: tuple
    axis_values: tuple          # one array per axis
    mean_survival: FloatA       # shaped like the axes
    ci_half: FloatA             # None when replicates < 2
    region: np.ndarray          # 'I' / 'II' per cell
    max_step_drop: float = None  # only for 1-D scans

    def columns(self) -> dict:
        """write_csv's columns: one row per cell, the first axis slowest."""
        axes = np.meshgrid(*self.axis_values, indexing="ij")
        return {**{name: a.ravel() for name, a in zip(self.axis_names, axes)},
                "mean_survival": self.mean_survival.ravel(),
                "ci_half": None if self.ci_half is None else self.ci_half.ravel(),
                "region": self.region.ravel()}


# ---------------------------------------------------------------------------
# the lattice driver: a cell is a closure that forked workers inherit, cell
# tasks are plain indices, results come back in lattice order

def _cores() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the host's core count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_lattice(network, asset, cells, replicates, seed, reduce, jobs,
                 positives=None) -> list:
    """The reduced result of each (p, alpha, eta) cell of a single shock on
    asset, in the order of cells, computed by up to jobs workers. reduce
    takes (fate vectors, replicates, positives), positives being the labeled
    banks present in the network."""
    if not cells:
        raise ValueError("empty parameter grid")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    asset, replicates, seed = int(asset), int(replicates), int(seed)

    def cell(i):
        """Run cell i's replicates one at a time through reduce.

        An eta = 0 cell runs one cascade, with no generator, and feeds that fate
        vector to the reducer once per replicate. This is exact: at eta = 0 the
        barrier is a step, so evaluate_round draws no random number, and neither
        the shock nor apply_fire_sales ever touches the rng. Every replicate of
        such a cell therefore has the same fates, and the reducer sees the same R
        vectors, in the same order, as a per-replicate loop. A lattice of eta = 0
        cells builds no stream, so it never loads numpy.random.
        """
        params = CascadeParams.single(asset, *cells[i])
        if params.eta == 0.0:
            fate = run_cascade(network, params, None).failed_round
            return reduce(itertools.repeat(fate, replicates), replicates, positives)
        fates = (run_cascade(network, params, stream(seed, DOMAIN_CELL, i, rep)).failed_round
                 for rep in range(replicates))
        return reduce(fates, replicates, positives)

    n_cells = len(cells)
    # each worker is a fork, so never more than there are cells or CPUs to
    # run them on
    workers = min(jobs or 1, n_cells, _cores())
    if workers <= 1 or not hasattr(os, "fork"):
        return [cell(i) for i in range(n_cells)]
    return _forked(cell, n_cells, workers)


def _flush_std_streams():
    for fh in (sys.stdout, sys.stderr):
        if fh is not None:
            fh.flush()


def _forked(cell, n_cells, workers) -> list:
    """[cell(i) for i in range(n_cells)], run by forked workers that inherit
    cell; worker w runs cells w, w + workers, ...

    A worker's exception is raised here; when several raise, the one of the
    earliest cell, as a serial run would. A worker that exits without a
    result raises RuntimeError. No worker outlives the call.
    """
    out = [None] * n_cells
    pending = []    # (pid, read end of its pipe, its cells) of each unreaped worker
    failures = []   # (cell, exception) of each worker that raised
    try:
        for w in range(workers):
            share = range(w, n_cells, workers)
            read_fd, write_fd = os.pipe()
            try:
                _flush_std_streams()  # else a worker inherits, and prints, unflushed text
                pid = os.fork()
            except BaseException:
                for fd in (read_fd, write_fd):
                    os.close(fd)
                raise
            if pid == 0:
                _work(cell, share, write_fd)
            os.close(write_fd)
            pending.append((pid, open(read_fd, "rb"), share))
        while pending:
            pid, pipe, share = pending[0]
            data = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pending.pop(0)
            if code or not data:
                raise RuntimeError(f"lattice worker {pid} exited with code {code} "
                                   f"before returning its cells")
            ok, result = pickle.loads(data)
            if not ok:
                failures.append(result)
                continue
            for i, cell_result in zip(share, result):
                out[i] = cell_result
    finally:
        if pending:
            # imported here: its enums cost every command ~30 KB of RSS, and
            # only a failed call has workers left to stop
            import signal
        for pid, pipe, _ in pending:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return out


def _work(cell, share, write_fd):
    """A forked worker's whole life: pickle (True, results) of its share of
    cells, or (False, (cell, exception)) of the first one that raises, into
    its pipe, then exit without returning to the caller's code."""
    code = 1
    try:
        results = []
        payload = True, results
        for i in share:
            try:
                results.append(cell(i))
            except Exception as e:
                payload = False, (i, e)
                break
        with open(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe)
        code = 0
    finally:
        try:
            _flush_std_streams()   # os._exit flushes nothing, so warnings would be lost
        finally:
            os._exit(code)


def _reduce_survival(fates, replicates, positives):
    """(mean survival of all banks, its 95 % CI half-width, mean survival of
    the labeled banks or None) over the replicates.

    When every replicate agrees, as in any eta = 0 cell or a single
    replicate, the mean is that value and the half-width exactly 0.0; the
    floating-point mean and std of R equal values can be off by an ulp.
    """
    labeled = positives is not None and positives.any()
    of_all, of_labeled = [], []
    for fate in fates:
        survived = fate == SURVIVED
        of_all.append(survived.sum() / fate.size)
        if labeled:
            of_labeled.append(survived[positives].mean())
    of_all = np.array(of_all)
    if of_all.min() == of_all.max():
        mean, std = of_all[0], 0.0
    else:
        mean, std = of_all.mean(), of_all.std(ddof=1)
    return (float(mean), float(1.96 * std / np.sqrt(replicates)),
            float(np.mean(of_labeled)) if labeled else None)


def _reduce_roc(fates, replicates, positives):
    """(true, false) positive counts of the full, first-step and
    consecutive-steps splits.

    A bank is classified failed (fate round >= 1) by strict majority vote over
    the replicates, and attributed to the first step when at least half of its
    failing runs failed in round 1.
    """
    failed_votes = np.zeros(positives.size, dtype=np.int64)
    first_votes = np.zeros(positives.size, dtype=np.int64)
    for fate in fates:
        failed_votes += fate >= 1
        first_votes += fate == 1
    model_failed = failed_votes * 2 > replicates
    first_step = model_failed & (first_votes * 2 >= failed_votes)
    return [(int((mask & positives).sum()), int((mask & ~positives).sum()))
            for mask in (model_failed, first_step, model_failed & ~first_step)]


def _alpha_eta_p(ps, alphas, etas) -> list:
    """The (p, alpha, eta) cells, alpha-major, then eta, then p."""
    return [(float(p), float(alpha), float(eta))
            for alpha, eta, p in itertools.product(alphas, etas, ps)]


def survival_curves(network, labels, shocked_asset, ps, alphas, etas,
                    *, seed=0, jobs=1) -> dict:
    """Survival fraction (all banks, labeled banks) per (p, alpha, eta) cell.

    One cascade per cell; cells run in roc_grid's order, alpha-major, then
    eta, then p, so each (alpha, eta) pair forms one curve over the p grid.
    Returns write_csv's columns, one row per cell; survival_labeled is None
    when no labeled bank is in the network.
    """
    positives = network.mask(labels)
    if labels is not None and not positives.any():
        warnings.warn("labels are disjoint from the network; labeled fraction undefined")
    cells = _alpha_eta_p(ps, alphas, etas)
    out = _run_lattice(network, shocked_asset, cells, 1, seed, _reduce_survival, jobs,
                       positives)
    p, alpha, eta = np.array(cells).T
    mean, _, labeled = zip(*out)
    return {"p": p, "alpha": alpha, "eta": eta, "survival_all": np.array(mean),
            "survival_labeled": np.array(labeled) if positives.any() else None}


def roc_grid(network, labels, shocked_asset, ps, alphas, etas,
             *, seed=0, replicates=1, jobs=1) -> dict:
    """ROC points over the (p, alpha, eta) lattice, three splits per cell.

    Cells run alpha-major, then eta, then p. Positives are the labeled banks
    present in the network; negatives are the rest, and there must be one of
    each. A bank counts as model-failed when its fate round is >= 1, so
    pre-shock insolvencies never contribute to any split. The first-step and
    consecutive-steps splits partition the full split's true positives.
    Returns write_csv's columns, one row per cell and split.
    """
    positives = network.mask(labels)
    n_pos = int(positives.sum())
    n_neg = network.n_banks - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"ROC undefined: need at least one positive and one negative bank, "
                         f"got {n_pos} and {n_neg}")
    cells = _alpha_eta_p(ps, alphas, etas)
    out = _run_lattice(network, shocked_asset, cells, replicates, seed, _reduce_roc, jobs,
                       positives)
    splits = (SPLIT_FULL, SPLIT_FIRST, SPLIT_CONSECUTIVE)
    p, alpha, eta = (np.repeat(col, len(splits)) for col in np.array(cells).T)
    tp, fp = np.array(out).reshape(-1, 2).T
    return {"alpha": alpha, "eta": eta, "p": p, "split": np.tile(splits, len(cells)),
            "fpr": fp / n_neg, "tpr": tp / n_pos, "tp_count": tp}


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
    axes = [k for k, g in enumerate(grids) if len(g) > 1]
    if not 1 <= len(axes) <= 2:
        raise ValueError("phase_scan needs one or two axes (grids with more than one value)")
    out = _run_lattice(network, shocked_asset, list(itertools.product(*grids)), replicates,
                       seed, _reduce_survival, jobs)

    shape = tuple(len(grids[k]) for k in axes)
    mean = np.array([m for m, _, _ in out]).reshape(shape)
    ci = None
    if replicates >= 2:
        ci = np.array([c for _, c, _ in out]).reshape(shape)
    region = np.where(mean < threshold, REGION_COLLAPSED, REGION_STABLE)
    drop = float(np.max(np.abs(np.diff(mean)))) if len(axes) == 1 else None
    names = ("p", "alpha", "eta")
    return PhaseDiagram(tuple(names[k] for k in axes),
                        tuple(np.asarray(grids[k]) for k in axes), mean, ci, region, drop)

