"""Score simulated failed sets against ground-truth labels with ROC points.

A reference cascade plays the role of the observed failure record. Scanning
the simulator over a parameter lattice and scoring each cell's predicted
failed set yields one (FPR, TPR) point per cell; the first-step and
consecutive-steps splits of the true cell separate banks that fail directly
under the shock from banks only reachable through fire-sale feedback.
"""

import numpy as np

import cascadefin as cf

N = 1500
SEED = 13
TRUTH = dict(asset=0, p=0.45, alpha=0.05, eta=0.0)

network, _ = cf.generate_synthetic(cf.SyntheticConfig(n=N), SEED)

truth_params = cf.CascadeParams.single(TRUTH["asset"], TRUTH["p"],
                                       TRUTH["alpha"], TRUTH["eta"])
labels = cf.labels_from_cascade(network, truth_params, cf.stream(0))
print(f"{N} banks; ground truth from (p={TRUTH['p']}, alpha={TRUTH['alpha']}): "
      f"{len(labels)} failed banks")

ps = np.round(np.arange(0.25, 0.66, 0.05), 12)
points = cf.roc_grid(network, labels, 0, ps, (0.0, 0.05, 0.1), (0.0,), seed=SEED)

at_truth = (points["alpha"] == TRUTH["alpha"]) & (points["p"] == TRUTH["p"])
split = dict(zip(points["split"][at_truth].tolist(), points["tp_count"][at_truth].tolist()))
print(f"attribution at the true parameters: "
      f"{split['first_step']} first-step failures, "
      f"{split['consecutive_steps']} fire-sale-driven failures")

print()
print("ROC points, full split (model failed = any failure round >= 1)")
print("alpha  p     FPR    TPR")
full = points["split"] == "full"
alpha, p, fpr, tpr = (points[k][full].tolist() for k in ("alpha", "p", "fpr", "tpr"))
for i in range(len(p)):
    marker = "  <- true cell" if (alpha[i], p[i]) == (TRUTH["alpha"], TRUTH["p"]) else ""
    print(f"{alpha[i]:4.2f}  {p[i]:4.2f}  {fpr[i]:5.3f}  {tpr[i]:5.3f}{marker}")
# the first cell with the largest TPR - FPR
best = max(range(len(p)), key=lambda i: tpr[i] - fpr[i])

print()
print(f"best corner: alpha={alpha[best]}, p={p[best]} "
      f"at (FPR={fpr[best]:.3f}, TPR={tpr[best]:.3f})")
print("the true cell scores (0, 1) exactly: the simulator is its own oracle")
