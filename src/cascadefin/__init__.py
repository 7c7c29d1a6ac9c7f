"""cascadefin: cascading bank-failure simulation on a bank-asset network.

Library layout:
  network    -- the bipartite bank-asset network as arrays, asset names
  ingestion  -- CSV loading, missing-value completion, labels, synthetic data
  cascade    -- the shock / barrier / fire-sale engine
  evaluation -- survival curves, first-step/consecutive ROC splits, phase scans
  cli        -- the `cascadefin` command-line tool
"""

__version__ = "0.1.4"

from .cascade import SURVIVED, CascadeParams, CascadeResult, run_cascade, stream
from .evaluation import (
    PhaseDiagram,
    phase_scan,
    roc_grid,
    survival_curves,
)
from .ingestion import (
    RawTable,
    SchemaError,
    SyntheticConfig,
    complete_dataset,
    compute_average_weights,
    generate_synthetic,
    labels_from_cascade,
    load_completed_network,
    load_labels,
    load_raw_csv,
    save_completed_csv,
    write_csv,
)
from .network import ASSET_NAMES, DEFAULT_MEAN_WEIGHTS, BankAssetNetwork

__all__ = [
    "ASSET_NAMES", "BankAssetNetwork", "CascadeParams", "CascadeResult",
    "DEFAULT_MEAN_WEIGHTS", "PhaseDiagram", "RawTable", "SURVIVED", "SchemaError",
    "SyntheticConfig", "complete_dataset", "compute_average_weights", "generate_synthetic",
    "labels_from_cascade", "load_completed_network", "load_labels", "load_raw_csv",
    "phase_scan", "roc_grid", "run_cascade", "save_completed_csv", "stream",
    "survival_curves", "write_csv",
]
