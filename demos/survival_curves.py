"""Survival fraction versus shock depth, one curve per fire-sale impact level.

The curves only bend where the fire-sale feedback starts to matter: at
alpha = 0 survival falls smoothly with the shock, while larger alpha values
carve out a regime where the same shock wipes out most of the market.
"""

import argparse

import numpy as np

import cascadefin as cf


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--eta", type=float, default=0.0,
                    help="barrier tolerance; keep 0 for deterministic curves")
    ap.add_argument("--alphas", type=float, nargs="+",
                    default=[0.0, 0.05, 0.10, 0.15])
    args = ap.parse_args()

    network, _ = cf.generate_synthetic(cf.SyntheticConfig(n=args.n), args.seed)

    ps = np.round(np.arange(1.0, -0.001, -0.1), 12).tolist()
    curves = cf.survival_curves(network, None, 0, ps, args.alphas, [args.eta],
                                seed=args.seed)
    # cells run alpha-major, so each alpha is one row of p values
    survival = curves["survival_all"].reshape(len(args.alphas), len(ps)).T.tolist()

    header = "p     " + "".join(f"alpha={a:<8.2f}" for a in args.alphas)
    print(f"survival fraction over {args.n} banks, shock on asset 0")
    print(header)
    for p, row in zip(ps, survival):
        print(f"{p:4.1f}  " + "".join(f"{s:<14.3f}" for s in row))

    print()
    print("columns to the right collapse earlier: fire sales turn a shock")
    print("that the market absorbs at alpha=0 into a system-wide failure")


if __name__ == "__main__":
    main()
