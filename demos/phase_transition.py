"""Locate the collapse boundary: a survival cliff in alpha and a (p, alpha) map.

The network here is built for abruptness. A small nucleus of banks is heavily
exposed to the shocked asset and dies immediately; everyone else sits in a
narrow leverage band that only the aggregated fire sale can reach. Below a
critical alpha the sale peters out and roughly 85% survive. Above it the
feedback is self-sustaining and survival drops to zero within one grid step.
"""

import numpy as np

import cascadefin as cf

SEED = 3


def collapse_network(n=400, m=13, nucleus_frac=0.15, concentration=900.0):
    """Nucleus holds half its book in asset 0; the bulk is near-uniform."""
    rng = cf.stream(SEED, 0)
    w = rng.standard_gamma(np.full((n, m), concentration / m))
    w /= w.sum(axis=1, keepdims=True)
    k = int(n * nucleus_frac)
    w[:k, 1:] *= 0.5 / w[:k, 1:].sum(axis=1, keepdims=True)
    w[:k, 0] = 0.5
    leverage = np.empty(n)
    leverage[:k] = 0.90
    leverage[k:] = rng.uniform(0.91, 0.9175, n - k)
    return cf.BankAssetNetwork(tuple(f"b{i:04d}" for i in range(n)), holdings=w,
                               total_assets=w.sum(axis=1), total_liabilities=leverage)


net = collapse_network()
print(f"collapse network: {net.n_banks} banks, "
      f"nucleus weight 0.5 in asset 0, bulk leverage band [0.91, 0.9175]")

# 1-D scan: deterministic at eta = 0, so one replicate per cell suffices
alphas = np.round(np.arange(0.0, 1.0001, 0.01), 12).tolist()
scan = cf.phase_scan(net, 0, [0.6], alphas, [0.0], replicates=1, seed=SEED)
means = scan.mean_survival
drop_at = int(np.argmax(-np.diff(means)))
print()
print(f"alpha scan at p=0.6, eta=0 ({len(alphas)} cells):")
print(f"  survival {means[drop_at]:.3f} at alpha={alphas[drop_at]}")
print(f"  survival {means[drop_at + 1]:.3f} at alpha={alphas[drop_at + 1]}")
print(f"  largest single-step drop: {scan.max_step_drop:.3f}")

# 2-D map with barrier noise switched on; region II = mean survival below 0.05
axis = np.round(np.arange(0.0, 1.0001, 0.1), 12).tolist()
plane = cf.phase_scan(net, 0, axis, axis, [0.02], replicates=10, seed=SEED,
                      threshold=0.05)
print()
print("(p, alpha) map at eta=0.02, '#' = collapsed (region II):")
print("        alpha " + " ".join(f"{a:.1f}" for a in axis))
for i, p in enumerate(axis):
    cells = "   ".join("#" if plane.region[i, j] == "II" else "."
                       for j in range(len(axis)))
    print(f"  p={p:.1f}       {cells}")
print()
print("deep shocks (small p) collapse the market on their own; shallow ones")
print("need the fire-sale channel, and the boundary between the two regimes")
print("is a single connected front")
