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

Randomness: PCG64 streams derived from (seed, spawn key) via SeedSequence, so
per-cell streams in sweeps are independent of execution order. eta = 0 draws
nothing and is fully deterministic regardless of seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .network import BankAssetNetwork, BoolA, FloatA, IntA

RNG_ALGORITHM = "PCG64"

# spawn-key domains, so network generation and cascade cells never share a stream
DOMAIN_SYNTHETIC = 0
DOMAIN_CELL = 1

SURVIVED = -1  # fate value; failed banks carry the failing round (0 = pre-shock)

# every model parameter lies in the closed interval [0, PARAM_UPPER[name]]
PARAM_UPPER = {"p": 1.0, "alpha": 1.0, "eta": 0.5}


def stream(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent PCG64 generator from a master seed and a spawn key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class CascadeParams:
    """The (p, eta, alpha) triple plus shock selection and seed.

    shocked_assets maps asset index -> post-shock value multiplier p. The
    single-asset shock of the model description is the common case; use
    CascadeParams.single for it.
    """

    alpha: float
    eta: float
    shocked_assets: Mapping[int, float]
    seed: int = 0
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
               seed: int = 0, max_rounds: int = None) -> "CascadeParams":
        return cls(alpha=alpha, eta=eta, shocked_assets={asset: p},
                   seed=seed, max_rounds=max_rounds)

    @property
    def p(self):
        """The single-shock p, or None for multi-asset shocks."""
        if len(self.shocked_assets) == 1:
            return next(iter(self.shocked_assets.values()))
        return None

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "eta": self.eta,
            "shocked_assets": {str(k): v for k, v in self.shocked_assets.items()},
            "seed": self.seed,
            "max_rounds": self.max_rounds,
        }


@dataclass
class RoundState:
    """The working arrays of one run, updated in place; the network is never touched.

    holdings_base and liabilities are the network's own arrays, read only.
    Current positions of alive banks are holdings_base * price_index. Rows of
    banks that already failed are excluded from every sum, so that product is
    only meaningful where alive is True.
    """

    alive: BoolA
    price_index: FloatA
    market_value: FloatA
    holdings_base: FloatA
    liabilities: FloatA


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


def apply_shock(state: RoundState, params: CascadeParams) -> list:
    """Scale each shocked asset's price and market value by its p.

    Assets with zero market value are skipped with a warning; returns their
    indices.
    """
    skipped = []
    for m, p in params.shocked_assets.items():
        if m < 0 or m >= state.price_index.size:
            raise ValueError(f"shocked asset {m} not in network")
        if state.market_value[m] == 0.0:
            warnings.warn(f"shocked asset {m} has zero market value; shock skipped")
            skipped.append(m)
            continue
        state.price_index[m] *= p
        state.market_value[m] *= p
    return skipped


def evaluate_round(state: RoundState, params: CascadeParams,
                   rng: np.random.Generator) -> IntA:
    """One simultaneous barrier evaluation over the alive banks.

    Recomputes every alive bank's total assets at the current (pre-round)
    prices, draws fresh r_i ~ Uniform[0, eta] in ascending bank order, and
    fails banks with totals below (1 - r_i) * L_i. Marks them dead and returns
    their indices (ascending).
    """
    alive_idx = np.flatnonzero(state.alive)
    totals = (state.holdings_base[alive_idx] * state.price_index).sum(axis=1)
    liab = state.liabilities[alive_idx]
    if params.eta == 0.0:
        failed = totals < liab
    else:
        failed = totals < (1.0 - rng.random(alive_idx.size) * params.eta) * liab
    failures = alive_idx[failed]
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
    deduction = params.alpha * (state.holdings_base[failures] * state.price_index).sum(axis=0)
    a = state.market_value
    # a dead asset cannot be dumped: its holders' positions are already 0
    if np.any(deduction[a == 0.0] != 0.0):
        raise ValueError("fire sale on a zero-value asset")
    remaining = a - deduction
    factor = np.ones_like(a)
    np.divide(remaining, a, out=factor, where=a > 0.0)
    clamped = np.flatnonzero(factor < 0.0).tolist()
    state.price_index *= np.maximum(factor, 0.0)
    np.maximum(remaining, 0.0, out=a)
    return clamped


@dataclass
class CascadeResult:
    """Outcome of one run: fates, prices, and bookkeeping for the analyses."""

    params: CascadeParams
    failed_round: IntA            # SURVIVED (-1) or the failing round, 0 = pre-shock
    rounds_executed: int
    failures_per_round: list      # index = round number, entry 0 = pre-shock failures
    price_index: FloatA
    market_value: FloatA
    price_trajectory: FloatA      # (boundaries, M); row 0 = just after the shock
    survival_fraction_all: float
    survival_fraction_labeled: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def survived(self) -> BoolA:
        return self.failed_round == SURVIVED

    @property
    def failed(self) -> BoolA:
        return self.failed_round >= 0

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "seed": self.params.seed,
            "rounds": self.rounds_executed,
            "fates": [None if r == SURVIVED else int(r) for r in self.failed_round],
            "price_index": [float(v) for v in self.price_index],
            "survival_fraction_all": self.survival_fraction_all,
            "survival_fraction_labeled": self.survival_fraction_labeled,
            "diagnostics": self.diagnostics,
        }


def run_cascade(network: BankAssetNetwork, params: CascadeParams,
                labels=None, rng: np.random.Generator = None) -> CascadeResult:
    """Run one cascade to its fixpoint.

    Order of events: a pre-shock barrier pass tags already-insolvent banks as
    failed at round 0 (no fire sale follows, prices are still 1); the shock
    lands; then evaluation and fire-sale rounds alternate until a round fails
    nobody or nobody is left. Deterministic for a fixed seed; labels, when
    given, restrict one extra survival fraction to the labeled subset.
    """
    n = network.n_banks
    if rng is None:
        rng = stream(params.seed)
    state = RoundState(alive=np.ones(n, dtype=bool), price_index=np.ones(network.n_assets),
                       market_value=network.market_value.copy(),
                       holdings_base=network.holdings,
                       liabilities=network.total_liabilities)
    failed_round = np.full(n, SURVIVED, dtype=np.int64)

    failures0 = evaluate_round(state, params, rng)  # round 0: pre-shock pass
    failed_round[failures0] = 0
    failures_per_round = [int(failures0.size)]

    shock_skipped = apply_shock(state, params)
    trajectory = [state.price_index.copy()]
    clamp_events = []

    rounds = 0
    non_converged = False
    while state.alive.any():
        if params.max_rounds is not None and rounds >= params.max_rounds:
            non_converged = True
            break
        failures = evaluate_round(state, params, rng)
        rounds += 1
        failures_per_round.append(int(failures.size))
        if failures.size == 0:
            break
        failed_round[failures] = rounds
        clamp_events.extend([rounds, m] for m in apply_fire_sales(state, failures, params))
        trajectory.append(state.price_index.copy())

    if rounds > n + 1:
        raise RuntimeError(f"{rounds} rounds on {n} banks: termination bound violated")

    survival_all = float(state.alive.sum() / n)
    survival_labeled = None
    if labels is not None:
        idx = network.indices_of(labels)
        if idx.size:
            survival_labeled = float(state.alive[idx].mean())

    diagnostics = {
        "preshock_failed": int(failures0.size),
        "clamp_events": clamp_events,
        "shock_skipped_assets": shock_skipped,
        "non_converged": non_converged,
    }
    return CascadeResult(
        params=params,
        failed_round=failed_round,
        rounds_executed=rounds,
        failures_per_round=failures_per_round,
        price_index=state.price_index,
        market_value=state.market_value,
        price_trajectory=np.stack(trajectory),
        survival_fraction_all=survival_all,
        survival_fraction_labeled=survival_labeled,
        diagnostics=diagnostics,
    )
