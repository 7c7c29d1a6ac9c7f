"""Spans around calls into cascadefin, recorded from outside the package.

The tracer replaces module attributes with timing wrappers. A name bound by
`from .x import y` is looked up in the importing module, so each call site is
wrapped in the module that makes the call (cli.phase_scan, evaluation.run_cascade,
...). Spans are kept in memory and written once, when the traced run ends.
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    work: int = 0   # count recorded at the call, e.g. banks tested by a barrier pass


# (module, attribute) pairs wrapped in a traced run; the span name is
# "<module>.<attribute>" with the "cascadefin." prefix dropped
WRAP_TARGETS = (
    ("cascadefin.cli", ("load_raw_csv", "complete_dataset", "save_completed_csv",
                        "load_completed_network", "generate_synthetic",
                        "phase_scan", "roc_grid", "write_phase_csv", "write_roc_csv")),
    ("cascadefin.ingestion", ("network_from_sheets", "run_cascade")),
    ("cascadefin.evaluation", ("run_cascade", "stream")),
    ("cascadefin.cascade", ("evaluate_round", "apply_fire_sales")),
)

LATTICE_SPANS = ("cli.phase_scan", "cli.roc_grid")
# the cascades a lattice runs; the roc label cascade (ingestion.run_cascade) is
# set-up work and counts in ingestion.generate_s only
LATTICE_CASCADE = "evaluation.run_cascade"


class Tracer:
    """Records nested spans for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.meta: dict = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._patched = []

    def timed(self, name: str, fn, work=None):
        """Wrap fn so each call records a span. work(args, kwargs), if given,
        runs before the span starts and returns the span's work count."""
        def wrapper(*args, **kwargs):
            count = work(args, kwargs) if work is not None else 0
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.run_id, count))
        return wrapper

    def patch(self, module, attr: str, name: str, work=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.timed(name, original, work))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": list(Span._fields), "meta": self.meta,
                       "spans": [list(s) for s in self.spans]}, fh)


def load(path):
    """Read a dump back as (spans, meta)."""
    with open(path) as fh:
        doc = json.load(fh)
    return [Span(*row) for row in doc["spans"]], doc["meta"]


def install(tracer: Tracer, lattice_only: bool = False) -> None:
    """Wrap the WRAP_TARGETS call sites, or only the lattice calls.

    Work counts: a barrier pass records the alive banks it tests; a cascade
    records 1 when no earlier cascade of the run already fixed its fates (an
    eta = 0 cascade repeating parameters already run on the same network
    records 0). meta["n_assets"] is M, for the gathered-bytes estimate.
    """
    import importlib

    import numpy as np

    seen = set()

    def barrier_work(args, kwargs):
        state = args[0] if args else kwargs["state"]
        tracer.meta["n_assets"] = state.holdings_base.shape[1]
        return int(np.count_nonzero(state.alive))

    def cascade_work(args, kwargs):
        network = args[0] if args else kwargs["network"]
        params = args[1] if len(args) > 1 else kwargs["params"]
        if params.eta != 0.0:
            return 1
        key = (id(network), params.alpha, tuple(params.shocked_assets.items()),
               params.max_rounds)
        if key in seen:
            return 0
        seen.add(key)
        return 1

    hooks = {"cascade.evaluate_round": barrier_work,
             "ingestion.run_cascade": cascade_work,
             "evaluation.run_cascade": cascade_work}
    for module_name, attrs in WRAP_TARGETS:
        module = importlib.import_module(module_name)
        short = module_name.removeprefix("cascadefin.")
        for attr in attrs:
            name = f"{short}.{attr}"
            if not lattice_only or name in LATTICE_SPANS:
                tracer.patch(module, attr, name, hooks.get(name))


def self_times(spans) -> dict[int, float]:
    """Per span id: its duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least 10 samples beyond it."""
    best = 500
    for q in (900, 950, 990, 999):   # per mille, so the comparison is exact
        if n * (1000 - q) >= 10 * 1000:
            best = q
    return best / 10


def layer_metrics(spans, meta) -> dict[str, float]:
    """Per-layer times and counts from one traced run.

    Times are seconds summed over spans. The lattice span (phase_scan or
    roc_grid) splits exactly into its self time (evaluation.self_s), stream
    creation (evaluation.stream_s) and the cascades it runs; each of those
    cascades splits into barrier passes, fire sales and its own bookkeeping.
    The cascade.* metrics cover the lattice's cascades only.
    """
    import statistics   # here, not at the top: traced children import this module

    self_t = self_times(spans)
    by_id = {s.id: s for s in spans}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_total[s.name] = self_total.get(s.name, 0.0) + self_t[s.id]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    cascades = [s for s in spans if s.name == LATTICE_CASCADE]
    inner = [s for s in spans if s.parent is not None
             and by_id[s.parent].name == LATTICE_CASCADE]
    barriers = [s for s in inner if s.name == "cascade.evaluate_round"]
    tests = sum(s.work for s in barriers)
    run_ms = sorted((s.end - s.start) * 1e3 for s in cascades)
    pct = tail_percentile(len(run_ms)) if run_ms else 0.0
    p50 = tail = run_ms[0] if run_ms else 0.0
    if len(run_ms) >= 2:
        p50 = statistics.median(run_ms)
        tail = statistics.quantiles(run_ms, n=1000, method="inclusive")[round(pct * 10) - 1]
    return {
        "ingestion.parse_s": t("cli.load_raw_csv"),
        "ingestion.complete_s": t("cli.complete_dataset"),
        "ingestion.write_s": t("cli.save_completed_csv"),
        "ingestion.load_completed_s": t("cli.load_completed_network"),
        "network.build_s": t("ingestion.network_from_sheets"),
        "ingestion.generate_s": t("cli.generate_synthetic"),
        "cascade.calls": len(cascades),
        "cascade.rounds": len(barriers),
        "cascade.barrier_tests": tests,
        "cascade.gathered_bytes": tests * meta.get("n_assets", 0) * 8,
        "cascade.run_ms_p50": p50,
        "cascade.run_ms_tail": tail,
        "cascade.run_tail_pct": pct,
        "cascade.barrier_s": sum(s.end - s.start for s in barriers),
        "cascade.fire_sale_s": sum(s.end - s.start for s in inner
                                   if s.name == "cascade.apply_fire_sales"),
        "cascade.bookkeeping_s": self_total.get(LATTICE_CASCADE, 0.0),
        "evaluation.lattice_s": t(*LATTICE_SPANS),
        "evaluation.self_s": sum(self_total.get(n, 0.0) for n in LATTICE_SPANS),
        "evaluation.stream_s": t("evaluation.stream"),
        "evaluation.useful_cascade_ratio":
            sum(s.work for s in cascades) / len(cascades) if cascades else 0.0,
        "evaluation.write_s": t("cli.write_phase_csv", "cli.write_roc_csv"),
        "cli.self_s": self_total.get("cli.main", 0.0),
    }
