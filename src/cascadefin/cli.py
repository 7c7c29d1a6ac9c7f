"""Command-line front end: ingest, run, sweep, roc, phase.

Every analysis command writes its CSV plus a manifest.json whose config is
the parsed command line: every flag with its default filled in and --seed as
resolved, without --out and --jobs, plus the SHA-256 of the --input and
--labels files. Passing the flags back reproduces every output byte, the
manifest included. --jobs only changes how many workers compute lattice
cells, never the bytes written. The keys of a --synthetic spec are the fields
of SyntheticConfig, which checks their values; this module reads the spec.

Exit codes: 0 success, 1 runtime error, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
import typing
from dataclasses import MISSING, fields

import numpy as np

from . import __version__
from .cascade import PARAM_UPPER, RNG_ALGORITHM, SURVIVED, CascadeParams, run_cascade, stream
from .evaluation import (
    DEFAULT_REGION_THRESHOLD,
    DEFAULT_REPLICATES,
    phase_scan,
    roc_grid,
    survival_curves,
)
from .ingestion import (
    SchemaError,
    SyntheticConfig,
    complete_dataset,
    generate_synthetic,
    load_completed_network,
    load_labels,
    load_raw_csv,
    number,
    replacing,
    save_completed_csv,
    write_csv,
)


write_roc_csv = write_phase_csv = write_csv  # bench/tracer.py times the writes by these names


class UsageError(Exception):
    """Bad flags or inconsistent options; maps to exit code 2."""


# the most cells one sweep, roc or phase lattice may have; the default roc
# grid has 67,626
MAX_CELLS = 1_000_000


def _parse_values(text: str, name: str) -> list:
    """A scalar or an inclusive lo:hi:step range, every value in the domain of name."""
    if ":" not in text:
        try:
            values = [number(text, float)]
        except ValueError:
            raise UsageError(f"--{name}: expected a number or lo:hi:step, got {text!r}") from None
    else:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"--{name}: ranges are lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (number(v, float) for v in parts)
        except ValueError:
            raise UsageError(f"--{name}: non-numeric range bound in {text!r}") from None
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
            raise UsageError(f"--{name}: need finite lo <= hi and step > 0 in {text!r}")
        # the last k with lo + k*step at most hi once rounded to 12 decimals,
        # counted before np.arange allocates the values
        last = (hi - lo + 5e-13) / step
        if last >= MAX_CELLS:
            raise UsageError(f"--{name}: {text!r} has more than {MAX_CELLS} values")
        values = np.round(lo + step * np.arange(int(last) + 1), 12)
        if (np.diff(values) <= 0).any():
            raise UsageError(f"--{name}: {text!r} repeats values once rounded to 12 decimals")
        values = values.tolist()
    for v in values:
        if not 0.0 <= v <= PARAM_UPPER[name]:
            raise UsageError(f"--{name}: {v!r} is outside [0, {PARAM_UPPER[name]:g}]")
    return values


def _parse_synthetic(spec: str) -> SyntheticConfig:
    """Parse 'n=5000,assets=13,...' into a SyntheticConfig, whose fields are
    the spec's keys: each value is read as its field's type, int or float, and
    the config checks the values."""
    types = typing.get_type_hints(SyntheticConfig)
    kwargs = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"--synthetic: expected key=value, got {item!r}")
        key, value = (s.strip() for s in item.split("=", 1))
        if key not in types:
            raise UsageError(f"--synthetic: unknown key {key!r}")
        if key in kwargs:
            raise UsageError(f"--synthetic: key {key!r} given twice")
        try:
            kwargs[key] = number(value, types[key])
        except ValueError:
            raise UsageError(f"--synthetic: bad value for {key}: {value!r}") from None
    if "n" not in kwargs:
        raise UsageError("--synthetic: key n=<bank count> is required")
    try:
        return SyntheticConfig(**kwargs)
    except ValueError as e:
        raise UsageError(f"--synthetic: {e}") from None


def _sha256(path) -> str:
    # Plain SHA-256 from the interpreter's built-in module, as random.py picks
    # its SHA-512: hashlib maps OpenSSL (~3.4 MB of RSS) in a process where
    # console() has not blocked it.
    try:
        from _sha2 import sha256      # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256    # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256

    digest = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _grids(args) -> list:
    """The --p, --alpha and --eta grids, refused when their lattice has more
    than MAX_CELLS cells."""
    grids = [_parse_values(getattr(args, name), name) for name in ("p", "alpha", "eta")]
    cells = math.prod(map(len, grids))
    if cells > MAX_CELLS:
        raise UsageError(f"the grid has {cells} cells, more than {MAX_CELLS}")
    return grids


def _check_asset(network, asset, flag="--asset"):
    if asset < 0 or asset >= network.n_assets:
        raise UsageError(f"{flag} {asset} out of range (network has {network.n_assets} assets)")
    if network.market_value[asset] == 0.0:
        raise UsageError(f"{flag} {asset}: no bank holds the asset (zero market value)")


def _resolve(args, etas):
    """Network and labels of a run-like command, with --asset checked and
    args.seed resolved.

    Labels come from --labels or a --synthetic label cascade; phase takes
    neither. Labels must name a bank of the network, and roc also needs a
    bank they leave out.
    """
    if args.seed is None:
        if any(e > 0 for e in etas):
            raise UsageError("--seed is required when eta > 0 (no silent default)")
        args.seed = 0
    if bool(args.input) == bool(args.synthetic):
        raise UsageError("exactly one of --input or --synthetic is required")
    if args.input:
        network, labels = load_completed_network(args.input), None
    else:
        synthetic = _parse_synthetic(args.synthetic)
        if synthetic.label_asset is not None and "labels" not in args:
            raise UsageError(f"--synthetic: {args.command} takes no labels; drop the "
                             "label_* keys")
        if synthetic.label_asset is not None and args.labels:
            raise UsageError("--labels and the --synthetic label_* keys both give labels; "
                             "drop one")
        try:
            network, labels = generate_synthetic(synthetic, args.seed)
        except ValueError as e:
            raise UsageError(f"--synthetic: the spec gives no valid network: {e}") from None
    if getattr(args, "labels", None):
        labels = load_labels(args.labels)
    _check_asset(network, args.asset)
    if labels is not None:
        n_pos = int(network.mask(labels).sum())
        if args.command == "roc" and n_pos in (0, network.n_banks):
            raise UsageError(f"roc needs at least one positive and one negative bank; the "
                             f"labels give {n_pos} positive and {network.n_banks - n_pos} "
                             f"negative")
        if n_pos == 0:
            raise UsageError(f"the labels name none of the network's {network.n_banks} banks")
    return network, labels


def _flag(kind, lo=-math.inf, hi=math.inf):
    """A numeric flag's argparse type: text read by number as kind, in [lo, hi], not NaN."""
    def read(text):
        try:
            value = number(text, kind)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}") from None
        if not lo <= value <= hi:
            bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return read


def _check_out(args):
    """Before any input is loaded, refuse an --out the command cannot write:
    run writes one file into an existing directory, the other commands write
    into a directory they make where it is missing."""
    if not args.out:
        return
    path = os.path.abspath(args.out)
    if args.command == "run":
        if os.path.isdir(path):
            raise UsageError(f"--out {args.out!r} is a directory; run writes one file")
        path = os.path.dirname(path)
    else:
        while not os.path.exists(path):
            path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise UsageError(f"--out {args.out!r}: {path!r} is not a directory")


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(doc, path):
    """Write doc as JSON, indented by 2, with a final newline, to path, or to
    stdout when there is none: the one JSON writer of every command. The file
    takes its name only once it is whole (replacing)."""
    text = json.dumps(doc, indent=2) + "\n"
    if path:
        with replacing(path) as part, open(part, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_outputs(args, name, write, result) -> str:
    """Write result to the CSV name in the output directory, then, last, the
    manifest.json that pins it; returns the CSV's path."""
    out = _out_dir(args)
    path = os.path.join(out, name)
    write(result, path)
    # the flags that decide the bytes; --out and --jobs never do
    config = {flag: value for flag, value in vars(args).items()
              if flag not in ("command", "func", "out", "jobs")}
    for flag in ("input", "labels"):
        if config.get(flag):
            config[f"{flag}_sha256"] = _sha256(config[flag])
    manifest = {
        "tool": {
            "name": "cascadefin",
            "version": __version__,
            "rng": RNG_ALGORITHM,
            "numpy": np.__version__,
        },
        "command": args.command,
        "config": config,
        "outputs": {name: _sha256(path)},
    }
    _write_json(manifest, os.path.join(out, "manifest.json"))
    return path


def cmd_ingest(args) -> int:
    raw = load_raw_csv(args.input)
    # counted first, a column at a time: completion fills raw's blanks in place
    blanks = sum(int(np.count_nonzero(np.isnan(column))) for column in raw.holdings.T)
    network, report = complete_dataset(raw)
    out = _out_dir(args)
    completed = os.path.join(out, "completed.csv")
    save_completed_csv(network, completed)
    _write_json({"rows": network.n_banks, "repairs": report},
                os.path.join(out, "repair_report.json"))
    print(f"ingested {network.n_banks} banks ({blanks} blank cells completed, "
          f"{len(report)} repaired rows) -> {completed}")
    return 0


def cmd_run(args) -> int:
    grids = _grids(args)
    if any(len(g) != 1 for g in grids):
        raise UsageError("run takes scalar --p/--alpha/--eta; use sweep/roc/phase for grids")
    (p,), (alpha,), (eta,) = grids
    shocks = {args.asset: p}
    for extra in args.shock or []:
        try:
            m, p_m = extra.split(":")
            m, p_m = number(m, int), number(p_m, float)
        except ValueError:
            raise UsageError(f"--shock: expected asset:p, got {extra!r}") from None
        if not 0.0 <= p_m <= PARAM_UPPER["p"]:
            raise UsageError(f"--shock {extra}: p {p_m!r} is outside [0, 1]")
        if m in shocks:
            raise UsageError(f"--shock {extra}: asset {m} is already shocked")
        shocks[m] = p_m
    network, labels = _resolve(args, [eta])
    for m in shocks:
        _check_asset(network, m, "--shock")
    params = CascadeParams(alpha=alpha, eta=eta, shocked_assets=shocks)
    # eta = 0 draws nothing, so it takes no generator and never loads numpy.random
    result = run_cascade(network, params, stream(args.seed) if eta > 0 else None)
    survived = result.failed_round == SURVIVED
    doc = {
        "params": {"alpha": alpha, "eta": eta,
                   "shocked_assets": {str(m): p_m for m, p_m in params.shocked_assets.items()}},
        "seed": args.seed,
        "rounds": result.rounds_executed,
        "fates": [None if r == SURVIVED else int(r) for r in result.failed_round],
        "price_index": [float(v) for v in result.price_index],
        "survival_fraction_all": float(survived.mean()),
        # _resolve refuses labels that name no bank of the network
        "survival_fraction_labeled":
            None if labels is None else float(survived[network.mask(labels)].mean()),
        "diagnostics": result.diagnostics,
    }
    _write_json(doc, args.out)
    return 0


def cmd_sweep(args) -> int:
    ps, alphas, etas = _grids(args)
    if len(etas) != 1:
        raise UsageError("sweep varies p and alpha; --eta must be a scalar")
    network, labels = _resolve(args, etas)
    curves = survival_curves(network, labels, args.asset, ps, alphas, etas,
                             seed=args.seed, jobs=args.jobs)
    path = _write_outputs(args, "survival.csv", write_csv, curves)
    print(f"wrote {len(curves['p'])} rows -> {path}")
    return 0


def cmd_roc(args) -> int:
    ps, alphas, etas = _grids(args)
    network, labels = _resolve(args, etas)
    if labels is None:
        raise UsageError("roc requires --labels (or a --synthetic label cascade)")
    points = roc_grid(network, labels, args.asset, ps, alphas, etas, seed=args.seed,
                      replicates=args.replicates, jobs=args.jobs)
    path = _write_outputs(args, "roc.csv", write_roc_csv, points)
    print(f"wrote {len(points['p'])} ROC points -> {path}")
    return 0


def cmd_phase(args) -> int:
    grids = _grids(args)
    if not 1 <= sum(len(g) > 1 for g in grids) <= 2:
        raise UsageError("phase needs one or two of --p/--alpha/--eta as ranges")
    network, _ = _resolve(args, grids[2])
    diagram = phase_scan(network, args.asset, *grids, args.replicates, seed=args.seed,
                         threshold=args.threshold, jobs=args.jobs)
    path = _write_outputs(args, "phase.csv", write_phase_csv, diagram.columns())
    drop = "" if diagram.max_step_drop is None \
        else f", max step drop {diagram.max_step_drop:.3f}"
    print(f"scanned {diagram.mean_survival.size} cells x {args.replicates} replicates"
          f"{drop} -> {path}")
    return 0


def _add_network_flags(sp):
    sp.add_argument("--input", help="completed balance-sheet CSV")
    # each SyntheticConfig field is a key, shown with its default or, where it
    # has none, its type
    keys = [f"{f.name}={f.type.upper()}" if f.default in (MISSING, None)
            else f"{f.name}={f.default:g}" for f in fields(SyntheticConfig)]
    sp.add_argument("--synthetic", metavar="SPEC",
                    help=f"generate data instead: {keys[0]}[,{','.join(keys[1:])}]")
    sp.add_argument("--asset", type=_flag(int), default=0, help="shocked asset index (default 0)")
    sp.add_argument("--seed", type=_flag(int, 0), default=None,
                    help="master seed; required when eta > 0, else 0")
    sp.add_argument("--out", help="output directory (file for run)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cascadefin",
        description="Cascading bank-failure simulation on a bank-asset network")
    ap.add_argument("--version", action="version", version=f"cascadefin {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="complete a raw balance-sheet CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("run", help="run one cascade, print JSON")
    _add_network_flags(sp)
    sp.add_argument("--p", default="1", help="post-shock value fraction")
    sp.add_argument("--alpha", default="0", help="fire-sale impact")
    sp.add_argument("--eta", default="0", help="barrier tolerance")
    sp.add_argument("--shock", action="append", metavar="ASSET:P",
                    help="additional shocked assets (repeatable)")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="survival fractions over a (p, alpha) grid")
    _add_network_flags(sp)
    sp.add_argument("--p", default="0:1:0.02")
    sp.add_argument("--alpha", default="0:0.1:0.01")
    sp.add_argument("--eta", default="0")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("roc", help="ROC grid against a ground-truth label set")
    _add_network_flags(sp)
    sp.add_argument("--p", default="0:1:0.02")
    sp.add_argument("--alpha", default="0:1:0.02")
    sp.add_argument("--eta", default="0:0.5:0.02")
    sp.add_argument("--replicates", type=_flag(int, 1), default=1,
                    help="classifications averaged per cell (majority vote)")
    sp.set_defaults(func=cmd_roc)

    sp = sub.add_parser("phase", help="phase scan over one or two parameters")
    _add_network_flags(sp)
    sp.add_argument("--p", default="0.6")
    sp.add_argument("--alpha", default="0:1:0.02")
    sp.add_argument("--eta", default="0.26")
    sp.add_argument("--replicates", type=_flag(int, 1), default=DEFAULT_REPLICATES)
    sp.add_argument("--threshold", type=_flag(float, 0, 1), default=DEFAULT_REGION_THRESHOLD,
                    help="region II when mean survival falls below this")
    sp.set_defaults(func=cmd_phase)

    for name in ("run", "sweep", "roc"):
        sub.choices[name].add_argument("--labels", help="CSV of failed bank_ids (ground truth)")
    for name in ("sweep", "roc", "phase"):
        sub.choices[name].add_argument("--jobs", type=_flag(int, 1), default=1, help=(
            "worker processes, at most the CPUs it may run on; never changes the output bytes"))
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _check_out(args)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


# the built-in modules hashlib and hmac fall back to where OpenSSL is missing
BUILTIN_HASHES = ("_md5", "_sha1",
                  *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")),
                  "_blake2", "_sha3")


def console() -> int:
    """The `cascadefin` script and `python -m cascadefin.cli`: main() in a
    process that never maps OpenSSL.

    numpy.random's secrets import loads hmac and hashlib, which map OpenSSL's
    libcrypto (~3.4 MB of RSS) through _hashlib, yet no command calls an
    OpenSSL routine. With _hashlib blocked both take their fallback for builds
    without OpenSSL, the interpreter's built-in hash modules; where one of
    those is missing, hashlib would log an error for each algorithm it lacks,
    so OpenSSL is kept. An import of the package or an in-process main()
    leaves the host process's hashing alone."""
    if all(importlib.util.find_spec(name) for name in BUILTIN_HASHES):
        sys.modules.setdefault("_hashlib", None)
    return main()


if __name__ == "__main__":
    sys.exit(console())
