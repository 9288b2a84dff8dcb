"""Information-flow causality analysis for multivariate time series.

Quantitative causal graph reconstruction: maximum likelihood flow-rate
estimators, Fisher-information significance tests, per-node
normalization, and seeded benchmark generators.
"""

from .errors import (
    DegenerateInputError,
    DivergenceError,
    InfoflowError,
    SingularCovarianceError,
    SingularInformationError,
)
from .estimator import DEFAULT_ALPHA, FlowMatrix, estimate_flows
from .graph import CausalGraph, GraphEdge, GraphNode, from_json, reconstruct, to_dot, to_json
from .simgen import (
    ROSSLER_LABELS,
    ROSSLER_OSCILLATOR_ROWS,
    VAR6_A,
    VAR6_ALPHA,
    VAR6_EDGES,
    RosslerSpec,
    VarSpec,
    preset_panel,
    simulate_rossler,
    simulate_var,
)
from .stats import TimeSeriesPanel

__version__ = "0.1.0"
