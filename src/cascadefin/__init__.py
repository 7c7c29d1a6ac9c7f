"""cascadefin: cascading bank-failure simulation on a bank-asset network.

Library layout:
  network    -- domain types (balance sheets, the bipartite network, summaries)
  ingestion  -- CSV loading, missing-value completion, labels, synthetic data
  cascade    -- the shock / barrier / fire-sale engine
  evaluation -- survival curves, ROC grids, attribution, phase scans
  cli        -- the `cascadefin` command-line tool
"""

__version__ = "0.1.0"

from .cascade import (
    RNG_ALGORITHM,
    SURVIVED,
    CascadeParams,
    CascadeResult,
    RoundState,
    apply_fire_sales,
    apply_shock,
    evaluate_round,
    failure_probability,
    run_cascade,
    stream,
)
from .evaluation import (
    PhaseDiagram,
    RocPoint,
    SweepGrid,
    SweepRecord,
    attribution_split,
    phase_scan,
    roc_grid,
    survival_curves,
    write_phase_csv,
    write_roc_csv,
    write_survival_csv,
)
from .ingestion import (
    AverageWeights,
    GroundTruthLabels,
    RawBalanceSheetRow,
    SchemaError,
    SyntheticConfig,
    complete_balance_sheet,
    complete_dataset,
    compute_average_weights,
    generate_synthetic,
    labels_from_cascade,
    load_completed_network,
    load_labels,
    load_raw_csv,
    network_from_sheets,
    save_completed_csv,
    save_labels,
)
from .network import (
    CANONICAL_ASSET_CATEGORIES,
    DEFAULT_MEAN_WEIGHTS,
    AssetCategory,
    AssetGroup,
    BalanceSheet,
    BankAssetNetwork,
    DistributionTable,
    SummaryStatistics,
    market_share,
    summary_statistics,
    weight,
)

__all__ = [
    "AssetCategory", "AssetGroup", "AverageWeights", "BalanceSheet",
    "BankAssetNetwork", "CANONICAL_ASSET_CATEGORIES", "CascadeParams",
    "CascadeResult", "DEFAULT_MEAN_WEIGHTS", "DistributionTable",
    "GroundTruthLabels", "PhaseDiagram", "RNG_ALGORITHM", "RawBalanceSheetRow",
    "RocPoint", "RoundState", "SURVIVED", "SchemaError", "SummaryStatistics",
    "SweepGrid", "SweepRecord", "SyntheticConfig", "apply_fire_sales",
    "apply_shock", "attribution_split", "complete_balance_sheet",
    "complete_dataset", "compute_average_weights", "evaluate_round",
    "failure_probability", "generate_synthetic", "labels_from_cascade",
    "load_completed_network", "load_labels", "load_raw_csv", "market_share",
    "network_from_sheets", "phase_scan", "roc_grid", "run_cascade",
    "save_completed_csv", "save_labels", "stream", "summary_statistics",
    "survival_curves", "weight", "write_phase_csv", "write_roc_csv",
    "write_survival_csv",
]
