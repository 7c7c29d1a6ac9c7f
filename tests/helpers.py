"""Shared builders for the test suite: small fixed networks, seeded random
instances, the two large synthetic fixtures the acceptance suite runs on, and
the replay of a manifest's command line."""

import json
import os
from functools import lru_cache

import numpy as np

import cascadefin as cf
from cascadefin import evaluation


def make_network(holdings, liabilities, ids=None, market_value=None):
    """A network of the holdings, each row's total its sum; a market_value
    given replaces the column sums the network derives, as the screening
    property's shrunk markets do."""
    holdings = np.asarray(holdings, dtype=np.float64)
    liabilities = np.asarray(liabilities, dtype=np.float64)
    if ids is None:
        ids = tuple(f"b{i:03d}" for i in range(len(holdings)))
    net = cf.BankAssetNetwork(
        bank_ids=tuple(ids),
        holdings=holdings,
        total_assets=holdings.sum(axis=1),
        total_liabilities=liabilities,
    )
    if market_value is not None:
        net.market_value = np.asarray(market_value, dtype=np.float64)
    return net


def toy_network():
    # two banks on one asset; the hand-traceable fixture used all over the suite
    return make_network([[100.0], [100.0]], [70.0, 55.0], ids=("A", "B"))


def random_instance(gen, n_lo=2, n_hi=40, m_lo=1, m_hi=6,
                    lev_lo=0.6, lev_hi=1.1, zero_frac=0.3):
    """Seeded random holdings matrix plus leverage-derived liabilities."""
    n = int(gen.integers(n_lo, n_hi + 1))
    m = int(gen.integers(m_lo, m_hi + 1))
    holdings = gen.uniform(0.0, 100.0, (n, m))
    holdings[gen.random((n, m)) < zero_frac] = 0.0
    dead = holdings.sum(axis=1) == 0.0
    holdings[dead, 0] = 1.0
    leverage = gen.uniform(lev_lo, lev_hi, n)
    liabilities = leverage * holdings.sum(axis=1)
    return holdings, liabilities


def dense_synthetic(n_banks, seed, **kwargs):
    """Default-config synthetic network."""
    return cf.generate_synthetic(cf.SyntheticConfig(n=n_banks, **kwargs), seed)


class _FixtureNetwork(cf.BankAssetNetwork):
    """A network whose banks property is the network itself.

    It serves one call: bench/fixtures.py writes the bimodal fixture with
    cf.save_completed_csv(network.banks, path). The benchmark's own upkeep
    (ROADMAP item 3) makes that call pass the network, and deletes this class.
    """

    @property
    def banks(self):
        return self


@lru_cache(maxsize=1)
def bimodal_dense_2000(seed=7):
    """Dense 2000-bank network built for a first-order collapse.

    15% of banks form a nucleus with half their book in asset 0 and leverage
    0.90: the p=0.6 shock kills them outright at any alpha. The remaining 85%
    carry near-uniform weights (Dirichlet concentration 1200) and leverage in
    the narrow band [0.91, 0.9175], so none of them is individually marginal;
    only the aggregated fire sale can reach them, and once it does the
    feedback wipes the band in a few rounds. Survival is flat near 0.85 below
    the critical alpha and near 0 above it.
    """
    rng = cf.stream(seed, 0, 0)
    n, m = 2000, 13
    w = rng.standard_gamma(np.full((n, m), 1200.0 / m))
    w /= w.sum(axis=1, keepdims=True)
    k = n * 15 // 100
    w[:k, 1:] *= 0.5 / w[:k, 1:].sum(axis=1, keepdims=True)
    w[:k, 0] = 0.5
    leverage = np.empty(n)
    leverage[:k] = 0.90
    leverage[k:] = rng.uniform(0.91, 0.9175, n - k)
    return _FixtureNetwork(tuple(f"b{i:04d}" for i in range(n)), w, w.sum(axis=1), leverage)


def serial_pool(monkeypatch):
    """Replace the lattice's fork driver with an in-process stand-in that
    forks no worker; returns the worker count of each call."""
    sizes = []

    def serial(cell, n_cells, workers):
        sizes.append(workers)
        return [cell(i) for i in range(n_cells)]

    monkeypatch.setattr(evaluation, "_forked", serial)
    return sizes


def host_cores(monkeypatch, cores, affinity=True):
    """Make os report a host of cores CPUs (None: a count os cannot tell),
    all of which the process may run on; without affinity, a platform that
    has no os.sched_getaffinity."""
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)


def manifest_argv(out) -> list:
    """The command line that out/manifest.json records: its command, then
    --flag=value for every flag in its config that has a value."""
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    return [manifest["command"], *(f"--{flag}={value}" for flag, value
                                   in manifest["config"].items()
                                   if value is not None and not flag.endswith("_sha256"))]


def assert_same_files(out, replayed):
    """Both directories hold the same file names with the same bytes."""
    assert sorted(os.listdir(replayed)) == sorted(os.listdir(out))
    for name in os.listdir(out):
        with open(os.path.join(out, name), "rb") as a, \
                open(os.path.join(replayed, name), "rb") as b:
            assert a.read() == b.read(), name


def rows(columns, *keys) -> list:
    """The rows of an analysis' columns as tuples of plain Python values, of
    the named columns or all of them; a None column is None in every row."""
    n = max(len(col) for col in columns.values() if col is not None)
    return list(zip(*([None] * n if columns[k] is None else columns[k].tolist()
                      for k in keys or columns)))
