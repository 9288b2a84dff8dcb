"""Information-flow causality analysis for multivariate time series.

Quantitative causal graph reconstruction: maximum likelihood flow-rate
estimators, Fisher-information significance tests, per-node
normalization, and seeded benchmark generators.
"""

from .errors import (
    DegenerateInputError,
    DegenerateNormalizerError,
    DivergenceError,
    InfoflowError,
    OutputError,
    ParseError,
    SingularCovarianceError,
    SingularInformationError,
)
from .estimator import DEFAULT_ALPHA, FlowMatrix, estimate_flows
from .graph import CausalGraph, GraphEdge, GraphNode, from_json, reconstruct, to_dot, to_json
from .normalize import NormalizedFlows, normalize_flows
from .simgen import (
    ROSSLER_LABELS,
    ROSSLER_OSCILLATOR_ROWS,
    SWEEP_PAIRS,
    SweepPoint,
    VAR6_A,
    VAR6_ALPHA,
    VAR6_EDGES,
    RosslerSpec,
    VarSpec,
    preset_panel,
    simulate_rossler,
    simulate_var,
    sweep_epsilon,
)
from .stats import StatisticsBundle, TimeSeriesPanel, compute_statistics, derive_series

__version__ = "0.1.0"
