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
        cf.SyntheticConfig(n=args.n, label_asset=0, label_p=args.p, label_alpha=0.0,
                           label_eta=0.0),
        args.seed)

    n_failed = len(labels)
    print(f"{args.n} banks, shock p={args.p} on asset 0: "
          f"{n_failed} failed ({n_failed / args.n:.1%})")

    ratios = (network.total_assets - network.total_liabilities) / network.total_assets
    failed = network.mask(labels)
    edges = np.linspace(0.0, 0.20, 11)
    density_all, _ = np.histogram(ratios, bins=edges, density=True)
    density_failed, _ = np.histogram(ratios[failed], bins=edges, density=True)

    widths = np.diff(edges)
    print()
    print("equity/assets     all banks          failed banks")
    for k in range(len(widths)):
        lo, hi = edges[k], edges[k + 1]
        mass_all = density_all[k] * widths[k]
        mass_failed = density_failed[k] * widths[k]
        print(f"  [{lo:.2f}, {hi:.2f})  {bar(mass_all):<18} {bar(mass_failed)}")

    print()
    print(f"median equity ratio, all banks:    {np.median(ratios):.4f}")
    print(f"median equity ratio, failed banks: {np.median(ratios[failed]):.4f}")


if __name__ == "__main__":
    main()
