"""mlca-trends: life-cycle assessment trends for machine-learning compute.

Ingests graphics-card and notable-ML-system tables, estimates training
GPU-hours (direct and compute-based with a log-log bridge), computes
embodied and usage environmental impacts (energy, GWP, ADPe) under
country electricity mixes, applies carbon-intensity-reduction scenarios,
and fits exponential trends with heteroscedasticity-aware weighting.
"""

__version__ = "0.1.0"

from .catalog import (  # noqa: F401
    CardReference,
    CardSpec,
    MergeReport,
    merge_catalogs,
    parse_card_table,
    resolve_card_reference,
)
from .errors import MlcaTrendsError  # noqa: F401
from .estimation import (  # noqa: F401
    BridgeModel,
    GpuHoursEstimate,
    detect_anomalies,
    estimate_gpu_hours,
    fit_bridge,
    gpu_hours_direct,
)
from .intervals import EstimateInterval  # noqa: F401
from .lca import (  # noqa: F401
    ElectricityMix,
    ImpactFactors,
    ImpactVector,
    LcaConstants,
    ServerProfile,
    amortized_cards,
    apply_ci_scenario,
    embodied_share_table,
    production_impact,
    system_impact,
    training_energy,
    usage_impact,
)
from .stats import (  # noqa: F401
    RegressionResult,
    TrendFit,
    breusch_pagan_studentized,
    durbin_watson,
    exp_trend,
    feasible_weights,
    shapiro_wilk,
    wls_fit,
)
from .systems import (  # noqa: F401
    CoverageSummary,
    SystemRecord,
    coverage_summary,
    eligible_systems,
    parse_systems_table,
)
