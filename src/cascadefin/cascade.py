"""Cascading-failure engine: shock, distress barrier, fire sale, repeat.

One run proceeds in rounds. Every alive bank is evaluated against the same
pre-round prices (simultaneous evaluation), failures within a round are
aggregated into a single fire-sale price update, and the loop stops at the
first round with no failures. The run's working arrays live in one RoundState
that apply_shock, evaluate_round and apply_fire_sales update in place; the
network is only read. Holdings are tracked implicitly: a surviving bank's
current position in asset m is its original holding times the asset's
cumulative price index, so the factorization invariant holds by construction
and bank totals are cheap to recompute each round.

Screening: prices only fall, so every bank carries a certified lower bound on
its total: its total when its row was last summed, times the smallest price
factor of each later shock or fire sale, less a rounding margin. A barrier
pass sums only the rows of banks whose bound lies below their threshold; every
other bank provably survives the round. Fates, draws and prices are those of
summing every row (see evaluate_round). Round 0's bounds are the rows'
contiguous sums at prices 1: a gathered row's bits, as holdings are C-contiguous.

Randomness: the caller passes each run with eta > 0 its generator; stream
derives PCG64 generators from (seed, spawn key) via SeedSequence, so per-cell
streams in sweeps are independent of execution order. eta = 0 draws nothing,
so such a run takes None and has the same result as on any generator; the
package's eta = 0 paths pass None, as building a stream loads numpy.random.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Mapping

# numpy starts OpenBLAS's worker threads as it loads, but the package calls no
# BLAS routine, so one thread spares the idle ones' CPU and changes no byte.
# __init__ imports this module first, so this runs before the package's first
# numpy import; a caller's own setting, or a numpy loaded earlier, stands.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .network import BankAssetNetwork, BoolA, FloatA, IntA  # noqa: E402

RNG_ALGORITHM = "PCG64"

# spawn-key domains, so network generation and cascade cells never share a stream
DOMAIN_SYNTHETIC = 0
DOMAIN_CELL = 1

SURVIVED = -1  # fate value; failed banks carry the failing round (0 = pre-shock)

# every model parameter lies in the closed interval [0, PARAM_UPPER[name]]
PARAM_UPPER = {"p": 1.0, "alpha": 1.0, "eta": 0.5}

# below this, rounding errors are absolute rather than relative: a bound
# screens a bank only from this value up, and a positive price falling below
# it zeroes every bound
BOUND_FLOOR = 2.0 ** -900
EPS = float(np.finfo(np.float64).eps)


def stream(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent PCG64 generator from a master seed and a spawn key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class CascadeParams:
    """The (p, eta, alpha) triple plus shock selection.

    shocked_assets maps asset index -> post-shock value multiplier p. The
    single-asset shock of the model description is the common case; use
    CascadeParams.single for it.
    """

    alpha: float
    eta: float
    shocked_assets: Mapping[int, float]
    max_rounds: int = None  # None runs to the fixpoint (at most n_banks + 1 rounds)

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("eta", self.eta)):
            if not 0.0 <= value <= PARAM_UPPER[name]:
                raise ValueError(f"{name} must be in [0, {PARAM_UPPER[name]:g}], got {value}")
        shocks = dict(sorted((int(k), float(v)) for k, v in self.shocked_assets.items()))
        for m, p in shocks.items():
            if not 0.0 <= p <= PARAM_UPPER["p"]:
                raise ValueError(f"p must be in [0, 1], got {p} for asset {m}")
        object.__setattr__(self, "shocked_assets", shocks)

    @classmethod
    def single(cls, asset: int, p: float, alpha: float, eta: float,
               max_rounds: int = None) -> "CascadeParams":
        return cls(alpha=alpha, eta=eta, shocked_assets={asset: p}, max_rounds=max_rounds)


@dataclass
class RoundState:
    """The working arrays of one run, updated in place; the network is never touched.

    holdings_base and liabilities are the network's own arrays, read only.
    Current positions of alive banks are holdings_base * price_index. Rows of
    banks that already failed are excluded from every sum, so that product is
    only meaningful where alive is True.

    bound holds each bank's certified lower bound on its current total, 0.0
    until set (run_cascade sets the row totals at prices 1 before round 0);
    evaluate_round skips the banks it proves solvent. It stays a lower bound
    only while every price change goes through apply_shock or
    apply_fire_sales. Code that changes price_index any other way must zero
    bound first, or banks that can fail are skipped.
    """

    alive: BoolA
    price_index: FloatA
    market_value: FloatA
    holdings_base: FloatA
    liabilities: FloatA
    bound: FloatA = field(init=False)

    def __post_init__(self):
        self.bound = np.zeros(self.alive.size)


def apply_shock(state: RoundState, params: CascadeParams) -> list:
    """Scale each shocked asset's price and market value by its p.

    Assets with zero market value are skipped with a warning; returns their
    indices.
    """
    factor = np.ones_like(state.price_index)
    skipped = []
    for m, p in params.shocked_assets.items():
        if m < 0 or m >= state.price_index.size:
            raise ValueError(f"shocked asset {m} not in network")
        if state.market_value[m] == 0.0:
            warnings.warn(f"shocked asset {m} has zero market value; shock skipped")
            skipped.append(m)
            continue
        factor[m] = p
    state.market_value *= factor
    _scale_prices(state, factor, factor.min())
    return skipped


def _scale_prices(state: RoundState, factor: FloatA, low: float) -> None:
    """Multiply each asset's price index by its factor (in [0, 1]) and every
    bound by the smallest factor, low, less the margin proved in evaluate_round."""
    prices = state.price_index * factor
    if prices.min() < BOUND_FLOOR and ((prices < BOUND_FLOOR) & (state.price_index > 0.0)).any():
        state.bound[:] = 0.0
    else:
        state.bound *= low * (1.0 - max(1e-12, 4.0 * factor.size * EPS))
    state.price_index[:] = prices


def evaluate_round(state: RoundState, params: CascadeParams,
                   rng: np.random.Generator | None) -> IntA:
    """One simultaneous barrier evaluation over the alive banks.

    Draws fresh r_i ~ Uniform[0, eta] for every alive bank in ascending bank
    order and fails the banks whose total assets at the current (pre-round)
    prices lie below the threshold (1 - r_i) * L_i. Marks them dead and
    returns their indices (ascending).

    Screening: a bank's row is summed only when its bound is below its
    threshold or below BOUND_FLOOR, and each summed total becomes its bound.
    Any other bank has total >= bound >= threshold, so it cannot fail, as long
    as the bound never exceeds the total that summing its row would give.
    Proof of that, with u = eps / 2 the unit roundoff and M assets; S is a
    bank's exact sum of h_m P_m at the current prices:
    - Totals. A computed total lies within a relative gamma = M u / (1 - M u)
      of S, give or take an absolute d = M 2^-1075 from products that
      underflow, since all M terms are >= 0.
    - Prices. A shock or fire sale sets P'_m = fl(P_m f_m) with f_m in
      [0, 1]: a shock's p, or a sale's deduction (>= 0) over market value.
      _scale_prices zeroes every bound when a positive price falls below
      BOUND_FLOOR; otherwise every rounding is relative, so the new exact
      sum is S' >= (1 - u) g S, with g the smallest f_m.
    - Bound. Each update sets b' = fl(b fl(g fl(1 - s))) <= b g (1 - s)
      (1 + u)^3, with s = max(1e-12, 4 M eps) >= 2 gamma + 4 u. So a bound
      only falls until its row is summed again, and a bound >= BOUND_FLOOR
      came from bounds that all were.
    If b <= (1 + gamma) S + d, as a summed total is, then to first order
    b' <= (1 - gamma) S' - d - (s - 2 gamma - 4 u) g S + 2 d. For
    b' >= BOUND_FLOOR = 2^-900 the slack term exceeds 2 d by far, so b' lies
    below the computed total, and b' again satisfies the premise. At M = 13
    the rounding terms come to ~3e-15 against s = 1e-12. A clamped factor or
    a zero p takes a positive price to 0, so it zeroes every bound and forces
    a full pass.

    The draws are taken for every alive bank, screened or not, so screening
    does not move the rng stream, and a row's sum does not depend on which
    other rows are gathered with it. Round 0 starts from bounds that are the
    rows' contiguous sums at prices 1, the same totals bit for bit only
    because holdings are C-contiguous (Fortran order sums in another order).
    """
    alive_idx = state.alive.nonzero()[0]
    threshold = state.liabilities[alive_idx]
    if params.eta != 0.0:
        r = rng.random(alive_idx.size)    # (1 - r eta) L, built in place
        r *= params.eta
        threshold *= np.subtract(1.0, r, out=r)
    # positions, among the alive banks, of those no bound clears
    unsure = (state.bound[alive_idx] < np.maximum(threshold, BOUND_FLOOR)).nonzero()[0]
    rows = alive_idx[unsure]
    positions = state.holdings_base.take(rows, axis=0)
    positions *= state.price_index    # in place: no second N x M temporary
    totals = positions.sum(axis=1)
    state.bound[rows] = totals
    failures = rows[totals < threshold[unsure]]
    state.alive[failures] = False
    return failures


def apply_fire_sales(state: RoundState, failures: IntA, params: CascadeParams) -> list:
    """Aggregate this round's failed banks' sales into one price update.

    Each failed bank's current holding B_{i,m} (at failure-time prices) takes
    alpha * B_{i,m} out of asset m's market value; the common factor
    (A_m - D_m)/A_m, clamped below at 0, multiplies surviving holdings and the
    price index. Returns the assets whose factor was clamped.
    """
    failures = np.asarray(failures)
    if failures.size == 0:
        raise ValueError("apply_fire_sales requires a non-empty failure set")
    sold = state.holdings_base.take(failures, axis=0)
    sold *= state.price_index
    deduction = params.alpha * sold.sum(axis=0)
    a = state.market_value
    remaining = a - deduction
    if a.min() > 0.0:
        factor = remaining / a
    else:
        # a dead asset cannot be dumped: its holders' positions are already 0
        if np.any(deduction[a == 0.0] != 0.0):
            raise ValueError("fire sale on a zero-value asset")
        factor = np.ones_like(a)
        np.divide(remaining, a, out=factor, where=a > 0.0)
    low = factor.min()
    clamped = []
    if low < 0.0:
        clamped = (factor < 0.0).nonzero()[0].tolist()
        np.maximum(factor, 0.0, out=factor)
    _scale_prices(state, factor, max(low, 0.0))
    np.maximum(remaining, 0.0, out=a)
    return clamped


@dataclass
class CascadeResult:
    """Outcome of one run: fates, prices, and bookkeeping for the analyses."""

    failed_round: IntA            # SURVIVED (-1) or the failing round, 0 = pre-shock
    rounds_executed: int
    failures_per_round: list      # index = round number, entry 0 = pre-shock failures
    price_index: FloatA
    market_value: FloatA
    price_trajectory: FloatA      # (boundaries, M); row 0 = just after the shock
    diagnostics: dict = field(default_factory=dict)


def run_cascade(network: BankAssetNetwork, params: CascadeParams,
                rng: np.random.Generator | None) -> CascadeResult:
    """Run one cascade to its fixpoint, drawing barrier noise from rng.

    Order of events: a pre-shock barrier pass tags already-insolvent banks as
    failed at round 0 (no fire sale follows, prices are still 1); the shock
    lands; then evaluation and fire-sale rounds alternate until a round fails
    nobody or nobody is left. The result depends only on the network, params
    and the state of rng, and not on rng at all when eta = 0, where rng may
    be None; eta > 0 without a generator raises ValueError.
    """
    if rng is None and params.eta != 0.0:
        raise ValueError(f"eta = {params.eta} draws barrier noise; pass a generator")
    n = network.n_banks
    state = RoundState(alive=np.ones(n, dtype=bool), price_index=np.ones(network.n_assets),
                       market_value=network.market_value.copy(),
                       holdings_base=network.holdings,
                       liabilities=network.total_liabilities)
    failed_round = np.full(n, SURVIVED, dtype=np.int64)

    # round 0 sums only the banks below their row's total (see evaluate_round)
    np.sum(network.holdings, axis=1, out=state.bound)
    failures0 = evaluate_round(state, params, rng)  # round 0: pre-shock pass
    failed_round[failures0] = 0
    failures_per_round = [failures0.size]
    n_alive = n - failures0.size

    shock_skipped = apply_shock(state, params)
    trajectory = [state.price_index.copy()]
    clamp_events = []

    rounds = 0
    non_converged = False
    while n_alive:
        if params.max_rounds is not None and rounds >= params.max_rounds:
            non_converged = True
            break
        failures = evaluate_round(state, params, rng)
        rounds += 1
        failures_per_round.append(failures.size)
        if failures.size == 0:
            break
        n_alive -= failures.size
        failed_round[failures] = rounds
        clamp_events.extend([rounds, m] for m in apply_fire_sales(state, failures, params))
        trajectory.append(state.price_index.copy())

    if rounds > n + 1:
        raise RuntimeError(f"{rounds} rounds on {n} banks: termination bound violated")

    diagnostics = {
        "preshock_failed": int(failures0.size),
        "clamp_events": clamp_events,
        "shock_skipped_assets": shock_skipped,
        "non_converged": non_converged,
    }
    return CascadeResult(
        failed_round=failed_round,
        rounds_executed=rounds,
        failures_per_round=failures_per_round,
        price_index=state.price_index,
        market_value=state.market_value,
        price_trajectory=np.stack(trajectory),
        diagnostics=diagnostics,
    )
