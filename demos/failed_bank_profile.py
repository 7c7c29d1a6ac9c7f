"""Compare the balance-sheet profile of failed banks against the population.

Generates a synthetic market, runs a reference cascade to obtain a failed set,
and prints side-by-side equity-ratio densities. Failures concentrate in the
thin-equity tail, which is what makes the simulator's failed set a usable
classifier in the first place.
"""

import argparse

import numpy as np

import cascadefin as cf


def bar(x, scale=40.0):
    return "#" * int(round(x * scale))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2000, help="bank count")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--p", type=float, default=0.35, help="post-shock value fraction")
    args = ap.parse_args()

    network, labels = cf.generate_synthetic(
        cf.SyntheticConfig(
            n_banks=args.n,
            label_cascade=cf.CascadeParams.single(0, args.p, 0.0, 0.0)),
        args.seed)

    n_failed = len(labels)
    print(f"{args.n} banks, shock p={args.p} on asset 0: "
          f"{n_failed} failed ({n_failed / args.n:.1%})")

    edges = np.linspace(0.0, 0.20, 11)
    summary = cf.summary_statistics(network, labels, bin_edges=edges)
    table = summary.tables[-1]
    assert table.variable == "equity_ratio"

    widths = np.diff(table.bin_edges)
    print()
    print("equity/assets     all banks          failed banks")
    for k in range(len(widths)):
        lo, hi = table.bin_edges[k], table.bin_edges[k + 1]
        mass_all = table.density_all[k] * widths[k]
        mass_failed = table.density_failed[k] * widths[k]
        print(f"  [{lo:.2f}, {hi:.2f})  {bar(mass_all):<18} {bar(mass_failed)}")

    ratios = (network.total_assets - network.total_liabilities) / network.total_assets
    failed_idx = network.indices_of(labels)
    print()
    print(f"median equity ratio, all banks:    {np.median(ratios):.4f}")
    print(f"median equity ratio, failed banks: {np.median(ratios[failed_idx]):.4f}")


if __name__ == "__main__":
    main()
