"""Command-line front end: ingest, run, sweep, roc, phase.

Every analysis command writes its CSVs plus a manifest.json that pins the
resolved configuration (input hashes or synthetic spec, grids, seed, RNG
algorithm, tool version) so the outputs can be reproduced bit-exactly.
--jobs only changes how many workers compute lattice cells, never the bytes
written.

Exit codes: 0 success, 1 runtime error, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .cascade import PARAM_UPPER, RNG_ALGORITHM, CascadeParams, run_cascade, stream
from .evaluation import (
    DEFAULT_REGION_THRESHOLD,
    DEFAULT_REPLICATES,
    SweepGrid,
    phase_scan,
    roc_grid,
    survival_curves,
    write_phase_csv,
    write_roc_csv,
    write_survival_csv,
)
from .ingestion import (
    SchemaError,
    SyntheticConfig,
    complete_dataset,
    generate_synthetic,
    load_completed_network,
    load_labels,
    load_raw_csv,
    save_completed_csv,
)


class UsageError(Exception):
    """Bad flags or inconsistent options; maps to exit code 2."""


def _parse_values(text: str, name: str) -> list:
    """A scalar or an inclusive lo:hi:step range, every value in the domain of name."""
    if ":" not in text:
        try:
            values = [float(text)]
        except ValueError:
            raise UsageError(f"--{name}: expected a number or lo:hi:step, got {text!r}") from None
    else:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"--{name}: ranges are lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (float(v) for v in parts)
        except ValueError:
            raise UsageError(f"--{name}: non-numeric range bound in {text!r}") from None
        if step <= 0 or hi < lo:
            raise UsageError(f"--{name}: need lo <= hi and step > 0 in {text!r}")
        values = np.round(np.arange(lo, hi + step / 2, step), 12).tolist()
        if not values:
            raise UsageError(f"--{name}: empty range {text!r}")
    for v in values:
        if not 0.0 <= v <= PARAM_UPPER[name]:
            raise UsageError(f"--{name}: {v!r} is outside [0, {PARAM_UPPER[name]:g}]")
    return values


_SYNTH_KEYS = {
    "n": ("n_banks", int),
    "assets": ("n_assets", int),
    "concentration": ("concentration", float),
    "median": ("size_median", float),
    "sigma": ("size_sigma", float),
    "lev_low": ("leverage_low", float),
    "lev_high": ("leverage_high", float),
    "sparsity": ("sparsity", float),
}
_SYNTH_LABEL_KEYS = {"label_asset", "label_p", "label_alpha", "label_eta", "label_seed"}


def _parse_synthetic(spec: str) -> SyntheticConfig:
    """Parse 'n=5000,assets=13,...' into a SyntheticConfig.

    label_asset/label_p/label_alpha/label_eta[/label_seed] add a reference
    cascade whose failures become the generated ground-truth labels.
    """
    kwargs = {}
    label = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"--synthetic: expected key=value, got {item!r}")
        key, value = (s.strip() for s in item.split("=", 1))
        if key in _SYNTH_KEYS:
            field, conv = _SYNTH_KEYS[key]
            try:
                kwargs[field] = conv(value)
            except ValueError:
                raise UsageError(f"--synthetic: bad value for {key}: {value!r}") from None
        elif key in _SYNTH_LABEL_KEYS:
            try:
                label[key] = int(value) if key in ("label_asset", "label_seed") else float(value)
            except ValueError:
                raise UsageError(f"--synthetic: bad value for {key}: {value!r}") from None
        else:
            raise UsageError(f"--synthetic: unknown key {key!r}")
    if "n_banks" not in kwargs:
        raise UsageError("--synthetic: key n=<bank count> is required")
    if label:
        needed = {"label_asset", "label_p", "label_alpha", "label_eta"}
        if not needed <= set(label):
            raise UsageError(f"--synthetic: label cascade needs {sorted(needed)}")
        if label.get("label_seed", 0) < 0:
            raise UsageError("--synthetic: label_seed must be non-negative")
    try:
        if label:
            kwargs["label_cascade"] = CascadeParams.single(
                label["label_asset"], label["label_p"], label["label_alpha"],
                label["label_eta"], seed=label.get("label_seed", 0))
        config = SyntheticConfig(**kwargs)
    except ValueError as e:
        raise UsageError(f"--synthetic: {e}") from None
    if label and not 0 <= label["label_asset"] < config.n_assets:
        raise UsageError(f"--synthetic: label_asset {label['label_asset']} out of range "
                         f"({config.n_assets} assets)")
    return config


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _resolve_seed(args, etas) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    if any(e > 0 for e in etas):
        raise UsageError("--seed is required when eta > 0 (no silent default)")
    env = os.environ.get("CASCADEFIN_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"CASCADEFIN_SEED is not an integer: {env!r}") from None
        if seed < 0:
            raise UsageError(f"CASCADEFIN_SEED must be a non-negative integer, got {seed}")
        return seed
    return 0


def _resolve_network(args, seed):
    """Build the network from --input or --synthetic; returns (network, labels, desc)."""
    if bool(args.input) == bool(args.synthetic):
        raise UsageError("exactly one of --input or --synthetic is required")
    if args.input:
        network = load_completed_network(args.input)
        desc = {"input": args.input, "input_sha256": _sha256(args.input)}
        return network, None, desc
    config = _parse_synthetic(args.synthetic)
    network, labels = generate_synthetic(config, seed)
    return network, labels, {"synthetic": args.synthetic, "synthetic_seed": seed}


def _resolve_labels(args, network, synth_labels):
    if args.labels:
        labels = load_labels(args.labels)
        desc = {"labels": args.labels, "labels_sha256": _sha256(args.labels)}
        return labels, desc
    if synth_labels is not None:
        return synth_labels, {"labels": "synthetic-reference-cascade"}
    return None, {}


def _check_asset(network, asset, flag="--asset"):
    if asset < 0 or asset >= network.n_assets:
        raise UsageError(f"{flag} {asset} out of range (network has {network.n_assets} assets)")


def _check_replicates(args):
    if args.replicates < 1:
        raise UsageError(f"--replicates must be >= 1, got {args.replicates}")


def _write_manifest(out_dir, command, config, output_files):
    manifest = {
        "tool": {
            "name": "cascadefin",
            "version": __version__,
            "rng": RNG_ALGORITHM,
            "numpy": np.__version__,
        },
        "command": command,
        "config": config,
        "outputs": {name: _sha256(os.path.join(out_dir, name)) for name in output_files},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    rows = load_raw_csv(args.input)
    if not rows:
        raise SchemaError("no data rows in input")
    sheets, report = complete_dataset(rows)
    out = _out_dir(args)
    completed = os.path.join(out, "completed.csv")
    save_completed_csv(sheets, completed)
    report_path = os.path.join(out, "repair_report.json")
    with open(report_path, "w") as fh:
        json.dump({"rows": len(sheets), "repairs": report}, fh, indent=2)
        fh.write("\n")
    blanks = sum(1 for r in rows for v in r.holdings if v is None)
    print(f"ingested {len(sheets)} banks ({blanks} blank cells completed, "
          f"{len(report)} repaired rows) -> {completed}")
    return 0


def cmd_run(args) -> int:
    p_values = _parse_values(args.p, "p")
    eta_values = _parse_values(args.eta, "eta")
    alpha_values = _parse_values(args.alpha, "alpha")
    if len(p_values) != 1 or len(eta_values) != 1 or len(alpha_values) != 1:
        raise UsageError("run takes scalar --p/--alpha/--eta; use sweep/roc/phase for grids")
    eta = eta_values[0]
    shocks = {args.asset: p_values[0]}
    for extra in args.shock or []:
        try:
            m, p_m = extra.split(":")
            m, p_m = int(m), float(p_m)
        except ValueError:
            raise UsageError(f"--shock: expected asset:p, got {extra!r}") from None
        if not 0.0 <= p_m <= PARAM_UPPER["p"]:
            raise UsageError(f"--shock {extra}: p {p_m!r} is outside [0, 1]")
        shocks[m] = p_m
    seed = _resolve_seed(args, [eta])
    network, synth_labels, _ = _resolve_network(args, seed)
    labels, _ = _resolve_labels(args, network, synth_labels)
    _check_asset(network, args.asset)
    for m in shocks:
        _check_asset(network, m, "--shock")
    params = CascadeParams(alpha=alpha_values[0], eta=eta, shocked_assets=shocks, seed=seed)
    result = run_cascade(network, params, labels=labels, rng=stream(seed))
    text = json.dumps(result.to_json_dict(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    p_grid = _parse_values(args.p, "p")
    alpha_grid = _parse_values(args.alpha, "alpha")
    eta_values = _parse_values(args.eta, "eta")
    if len(eta_values) != 1:
        raise UsageError("sweep varies p and alpha; --eta must be a scalar")
    eta = eta_values[0]
    seed = _resolve_seed(args, [eta])
    network, synth_labels, desc = _resolve_network(args, seed)
    labels, labels_desc = _resolve_labels(args, network, synth_labels)
    _check_asset(network, args.asset)
    records = survival_curves(network, labels, args.asset, p_grid, alpha_grid, eta,
                              seed=seed, jobs=args.jobs)
    out = _out_dir(args)
    write_survival_csv(records, os.path.join(out, "survival.csv"))
    config = {**desc, **labels_desc, "asset": args.asset, "p_grid": p_grid,
              "alpha_grid": alpha_grid, "eta": eta, "seed": seed}
    _write_manifest(out, "sweep", config, ["survival.csv"])
    print(f"wrote {len(records)} rows -> {os.path.join(out, 'survival.csv')}")
    return 0


def cmd_roc(args) -> int:
    alphas = _parse_values(args.alpha, "alpha")
    etas = _parse_values(args.eta, "eta")
    ps = _parse_values(args.p, "p")
    _check_replicates(args)
    seed = _resolve_seed(args, etas)
    network, synth_labels, desc = _resolve_network(args, seed)
    labels, labels_desc = _resolve_labels(args, network, synth_labels)
    if labels is None:
        raise UsageError("roc requires --labels (or a --synthetic label cascade)")
    _check_asset(network, args.asset)
    grid = SweepGrid(tuple(alphas), tuple(etas), tuple(ps))
    points = roc_grid(network, labels, args.asset, grid, seed=seed,
                      replicates=args.replicates, jobs=args.jobs)
    out = _out_dir(args)
    write_roc_csv(points, os.path.join(out, "roc.csv"))
    config = {**desc, **labels_desc, "asset": args.asset, "alpha_grid": alphas,
              "eta_grid": etas, "p_grid": ps, "seed": seed,
              "replicates": args.replicates}
    _write_manifest(out, "roc", config, ["roc.csv"])
    print(f"wrote {len(points)} ROC points -> {os.path.join(out, 'roc.csv')}")
    return 0


def cmd_phase(args) -> int:
    values = {
        "p": _parse_values(args.p, "p"),
        "alpha": _parse_values(args.alpha, "alpha"),
        "eta": _parse_values(args.eta, "eta"),
    }
    axes = {k: v for k, v in values.items() if len(v) > 1}
    fixed = {k: v[0] for k, v in values.items() if len(v) == 1}
    if not 1 <= len(axes) <= 2:
        raise UsageError("phase needs one or two of --p/--alpha/--eta as ranges")
    _check_replicates(args)
    if not 0.0 <= args.threshold <= 1.0:
        raise UsageError(f"--threshold must be in [0, 1], got {args.threshold}")
    seed = _resolve_seed(args, values["eta"])
    network, _, desc = _resolve_network(args, seed)
    _check_asset(network, args.asset)
    diagram = phase_scan(network, args.asset, axes, fixed,
                         replicates=args.replicates, seed=seed,
                         threshold=args.threshold, jobs=args.jobs)
    out = _out_dir(args)
    write_phase_csv(diagram, os.path.join(out, "phase.csv"))
    config = {**desc, "asset": args.asset,
              "axes": {k: list(v) for k, v in axes.items()}, "fixed": fixed,
              "seed": seed, "replicates": args.replicates,
              "threshold": args.threshold}
    _write_manifest(out, "phase", config, ["phase.csv"])
    cells = int(np.prod([len(v) for v in axes.values()]))
    drop = "" if diagram.max_step_drop is None \
        else f", max step drop {diagram.max_step_drop:.3f}"
    print(f"scanned {cells} cells x {args.replicates} replicates{drop} "
          f"-> {os.path.join(out, 'phase.csv')}")
    return 0


def _add_network_flags(sp):
    sp.add_argument("--input", help="completed balance-sheet CSV")
    sp.add_argument("--synthetic", metavar="SPEC",
                    help="generate data instead: n=5000[,assets=13,median=1e5,"
                         "sigma=1.2,lev_low=0.85,lev_high=0.98,sparsity=0,"
                         "concentration=8,label_asset=0,label_p=0.6,...]")
    sp.add_argument("--labels", help="CSV of failed bank_ids (ground truth)")
    sp.add_argument("--asset", type=int, default=0, help="shocked asset index (default 0)")
    sp.add_argument("--seed", type=int, default=None,
                    help="master seed; required when eta > 0, "
                         "else falls back to CASCADEFIN_SEED or 0")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes; never changes the output bytes")
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
    sp.add_argument("--replicates", type=int, default=1,
                    help="classifications averaged per cell (majority vote)")
    sp.set_defaults(func=cmd_roc)

    sp = sub.add_parser("phase", help="phase scan over one or two parameters")
    _add_network_flags(sp)
    sp.add_argument("--p", default="0.6")
    sp.add_argument("--alpha", default="0:1:0.02")
    sp.add_argument("--eta", default="0.26")
    sp.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    sp.add_argument("--threshold", type=float, default=DEFAULT_REGION_THRESHOLD,
                    help="region II when mean survival falls below this")
    sp.set_defaults(func=cmd_phase)
    return ap


def _apply_config(argv: list) -> list:
    """Splice `key = value` lines from --config FILE in as flags (CLI wins)."""
    if "--config" not in argv:
        return argv
    pos = argv.index("--config")
    if pos + 1 >= len(argv):
        raise UsageError("--config needs a file argument")
    path = argv[pos + 1]
    rest = argv[:pos] + argv[pos + 2:]
    flags = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line is not key = value: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            flags.extend([f"--{key}", value])
    if not rest:
        raise UsageError("--config given but no subcommand")
    return [rest[0]] + flags + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _apply_config(argv)
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
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


if __name__ == "__main__":
    sys.exit(main())
