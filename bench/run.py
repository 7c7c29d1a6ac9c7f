"""cascadefin benchmark: three batch workloads, timed end to end, traced per module.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is one `cascadefin` command run to completion in a closed loop
with one client; its inputs are generated from --seed. With --trace 0 the
command is repeated for --seconds and the end-to-end metrics are medians over
the repeats. With --trace 1 one extra run goes through a traced cli.main and
the per-layer metrics come from its spans. Every output is checked; a run
that exits non-zero or fails a check counts in `failed`. The last line of
standard output is the result as JSON. bench/METRICS.md says what each metric
means and which workload should move it.

This process only spawns, times and checks. Generating inputs, loading the
package and tracing happen in child processes, because a child's reported
peak RSS can be no lower than the peak RSS of the process that spawned it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Callable

import checks
import tracer as tr

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")

MIN_REPEATS = 3
RUN_LIMIT_S = 170.0     # a workload's children still running after this are killed

PHASE_REPLICATES = 20
ROC_SPEC = "n=5000,label_asset=0,label_p=0.3,label_alpha=0,label_eta=0"

LATTICE_PARTS = ("cascade.barrier_s", "cascade.fire_sale_s", "cascade.bookkeeping_s",
                 "evaluation.stream_s", "evaluation.self_s")


@dataclass
class Sample:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(args, log_path, deadline, pythonpath=(SRC,)) -> Sample:
    """Run a child in its own session and time it from spawn to exit.

    os.wait4 returns the child's resource usage, which includes every
    descendant it reaped (the pool workers of --jobs 2), so cpu_s is the
    process tree's user + system time and peak_rss_mb its largest RSS.
    """
    # children cache bytecode, as an installed package does, whatever the
    # caller's environment says; CASCADEFIN_SEED would change seed resolution
    env = {k: v for k, v in os.environ.items()
           if k not in ("CASCADEFIN_SEED", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.pathsep.join(pythonpath)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=log, stderr=log,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped: Popen must not wait
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0)


def python_args(script, *args):
    return [sys.executable, os.path.join(BENCH, script), *map(str, args)]


@dataclass
class Workload:
    """One prepared workload: the CLI arguments (without --out), the set-up
    probe arguments and the output check."""

    argv: list
    setup: list
    check: Callable[[str], list]
    blank_cells: int = 0    # in the ingest input
    takes_jobs: bool = True


def make_fixture(runner, kind, path, seed) -> None:
    sample = runner.spawn(python_args("fixtures.py", kind, path, seed), (SRC, TESTS))
    if sample.code != 0:
        raise RuntimeError(f"fixture {kind} failed; see {runner.log}")


def prepare_ingest(runner, seed) -> Workload:
    raw = os.path.join(runner.work, "raw.csv")
    make_fixture(runner, "ingest", raw, seed)
    with open(raw + ".json") as fh:
        info = json.load(fh)
    return Workload(
        argv=["ingest", "--input", raw], setup=["import"],
        check=lambda out: checks.check_ingest(out, info["rows"], info["injected"]),
        blank_cells=info["blank_cells"], takes_jobs=False)


def prepare_phase(runner, seed) -> Workload:
    path = os.path.join(runner.work, "bimodal.csv")
    make_fixture(runner, "bimodal", path, seed)
    return Workload(
        argv=["phase", "--input", path, "--p", "0.6", "--alpha", "0:1:0.01",
              "--eta", "0", "--replicates", str(PHASE_REPLICATES),
              "--seed", str(seed), "--jobs", "1"],
        setup=["load", path],
        check=lambda out: checks.check_phase(out) + checks.check_manifest(out))


def prepare_roc(runner, seed) -> Workload:
    return Workload(
        argv=["roc", "--synthetic", ROC_SPEC, "--p", "0.1:1:0.15",
              "--alpha", "0:0.9:0.15", "--eta", "0.05:0.45:0.2", "--replicates", "3",
              "--seed", str(seed), "--jobs", "2"],
        setup=["synthetic", ROC_SPEC, seed],
        check=lambda out: checks.check_roc(out) + checks.check_manifest(out))


# Why each workload exists is recorded in BENCHMARK.json and bench/METRICS.md.
WORKLOADS = {
    "ingest-50k": prepare_ingest,
    "phase-cliff": prepare_phase,
    "roc-dense-5000": prepare_roc,
}


class Runner:
    """Runs one workload's commands, checking every output it produces."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.work = work
        self.log = os.path.join(work, "children.log")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.wl = WORKLOADS[name](self, seed)
        self.attempted = 0
        self.failed = 0
        self.reference = None   # digests of the first output that passed its checks
        self._outs = itertools.count()

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)
        with open(self.log, "rb") as fh:
            print(fh.read()[-2000:].decode(errors="replace"), file=sys.stderr)

    def verify(self, out: str, code: int) -> bool:
        """Count one attempt. The first output gets the workload's checks;
        later ones must match its bytes."""
        self.attempted += 1
        if code != 0:
            self.fail(f"exit code {code} writing {out}")
            return False
        found = checks.digests(out)
        if self.reference is None:
            problems = self.wl.check(out)
            if not problems:
                self.reference = found
        else:
            problems = [] if found == self.reference else \
                ["output bytes differ from the first output"]
            if "manifest.json" in found:
                problems += checks.check_manifest(out)
        if problems:
            self.fail(f"{out}: " + "; ".join(problems))
        return not problems

    def new_out(self) -> str:
        return os.path.join(self.work, f"out{next(self._outs)}")

    def spawn(self, args, pythonpath=(SRC,)) -> Sample:
        return spawn(args, self.log, self.deadline, pythonpath)

    def run(self, args, out) -> Sample:
        sample = self.spawn(args + ["--out", out])
        self.verify(out, sample.code)
        print(f"{self.name} {os.path.basename(out)}: wall {sample.wall_s:.3f} s, "
              f"cpu {sample.cpu_s:.3f} s, peak RSS {sample.peak_rss_mb:.1f} MB",
              file=sys.stderr)
        return sample

    def cli(self) -> Sample:
        out = self.new_out()
        sample = self.run([sys.executable, "-m", "cascadefin.cli", *self.wl.argv], out)
        shutil.rmtree(out, ignore_errors=True)
        return sample

    def setup(self) -> float:
        sample = self.spawn(python_args("probe.py", "setup", *self.wl.setup))
        if sample.code != 0:
            raise RuntimeError(f"set-up probe failed; see {self.log}")
        return sample.wall_s


def closed_loop(seconds: float, step: Callable) -> list:
    """Call step() again and again, at least MIN_REPEATS times, for about
    `seconds`: a call is not started when it would likely end more than
    half a call past the deadline."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while len(results) < MIN_REPEATS or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - began
    return results


def end_to_end(runner: Runner, seconds: float) -> dict:
    """A warm-up run that gets the full output checks, then set-up probes
    and command runs in turn, so both are sampled across the whole run."""
    start = time.perf_counter()
    runner.cli()
    pairs = closed_loop(seconds - (time.perf_counter() - start),
                        lambda: (runner.setup(), runner.cli()))
    samples = [s for _, s in pairs]
    return {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "setup_s": statistics.median(w for w, _ in pairs),
    }


def lattice_cells(out) -> int:
    for name, rows_per_cell in (("phase.csv", 1), ("roc.csv", 3)):
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path) as fh:
                return (sum(1 for _ in fh) - 1) // rows_per_cell
    return 0


def per_layer(runner: Runner, seconds: float, run_id: str, trace_path: str) -> dict:
    """Per-layer metrics from one traced run of cli.main at --jobs 1.

    The baseline for trace.overhead_s is the median wall time of untraced runs
    with the same arguments, repeated for half of `seconds`. They time only
    the lattice call, which also gives the --jobs 1 side of jobs2_speedup.
    """
    wl = runner.wl
    jobs1 = wl.argv + (["--jobs", "1"] if wl.takes_jobs else [])

    def probe(scope, argv, spans_path):
        out = runner.new_out()
        args = python_args("probe.py", "trace", scope, spans_path, run_id, "--", *argv)
        return runner.run(args, out), out

    def lattice_s(spans_path):
        spans, _ = tr.load(spans_path)
        return sum(s.end - s.start for s in spans if s.name in tr.LATTICE_SPANS)

    walls, lattice1 = [], []

    def baseline():
        spans_path = os.path.join(runner.work, f"lattice1-{len(walls)}.json")
        sample, _ = probe("lattice", jobs1, spans_path)
        walls.append(sample.wall_s)
        if sample.code == 0:
            lattice1.append(lattice_s(spans_path))
    closed_loop(seconds / 2, baseline)
    traced, out = probe("full", jobs1, trace_path)
    lattice2 = None
    if wl.takes_jobs:
        spans_path = os.path.join(runner.work, "lattice2.json")
        sample, _ = probe("lattice", wl.argv + ["--jobs", "2"], spans_path)
        if sample.code == 0:
            lattice2 = lattice_s(spans_path)
    if traced.code != 0:
        return {}

    metrics = tr.layer_metrics(*tr.load(trace_path))
    rows = repairs = 0
    report_path = os.path.join(out, "repair_report.json")
    if os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
        rows, repairs = report["rows"], len(report["repairs"])
    ingest_s = sum(metrics[k] for k in ("ingestion.parse_s", "ingestion.complete_s",
                                        "ingestion.write_s"))
    untraced = statistics.median(walls)
    metrics.update({
        "ingestion.rows": rows,
        "ingestion.rows_per_s": rows / ingest_s if rows else 0.0,
        "ingestion.blank_cells": wl.blank_cells,
        "ingestion.repairs": repairs,
        "evaluation.cells": lattice_cells(out),
        "evaluation.jobs2_speedup":
            statistics.median(lattice1) / lattice2 if lattice1 and lattice2 else 0.0,
        "cli.output_bytes": sum(os.path.getsize(os.path.join(out, f))
                                for f in os.listdir(out)),
        "trace.overhead_s": traced.wall_s - untraced,
    })
    parts = sum(metrics[k] for k in LATTICE_PARTS)
    print(f"trace: lattice_s {metrics['evaluation.lattice_s']:.6f} s, sum of its parts "
          f"{parts:.6f} s; traced wall {traced.wall_s:.3f} s, untraced median "
          f"{untraced:.3f} s over {len(walls)} runs")
    return metrics


def machine() -> dict:
    """The machine and versions, found without importing numpy or cascadefin."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key)) as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        caches[f"L{fields['level']}-{fields['type']}"] = fields["size"]
    with open(os.path.join(SRC, "cascadefin", "__init__.py")) as fh:
        version = re.search(r'__version__ = "([^"]+)"', fh.read())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cascadefin": version.group(1) if version else None,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    if not os.path.isdir(git):
        return None
    with open(os.path.join(git, "HEAD")) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if os.path.exists(os.path.join(git, ref)):
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    if os.path.exists(os.path.join(git, "packed-refs")):
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_benchmark_spec()
    work = os.path.join(BENCH, "_work", f"{name}-s{seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(name, seed, work)
        if trace:
            outdir = os.path.join(BENCH, "_out")
            os.makedirs(outdir, exist_ok=True)
            values = per_layer(runner, seconds, f"{name}:{seed}:{os.getpid()}",
                               os.path.join(outdir, f"trace-{name}-s{seed}.json"))
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            values = end_to_end(runner, seconds)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"{name} {k} {m['value']} {m['unit']}")
    print(json.dumps({"machine": machine(), "workload": name, "seed": seed}))
    return {"correct": runner.failed == 0 and set(values) == set(units),
            "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}


def check_checkout() -> None:
    """Exit 2 unless this checkout holds the package, the test builders and
    BENCHMARK.json. Children import cascadefin with PYTHONPATH set to src/,
    which puts this checkout's copy ahead of any installed one."""
    need = [os.path.join(SRC, "cascadefin", "__init__.py"),
            os.path.join(TESTS, "helpers.py"),
            os.path.join(ROOT, "BENCHMARK.json")]
    missing = [p for p in need if not os.path.exists(p)]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    check_checkout()
    seconds = args.seconds if args.seconds is not None \
        else load_benchmark_spec()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
