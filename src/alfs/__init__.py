"""Joint one-shot active sample selection and unsupervised feature selection.

The public surface re-exports the pieces most users need: the dataset
container, the matrix kernels, the solver with its configuration types,
ranking/selection, the baselines, and the benchmark harness. The ADMM
state and its block updates stay in :mod:`alfs.solver`.
"""

__version__ = "0.1.0"

from .baselines import (
    RcurConfig,
    RcurResult,
    cur_from_indices,
    leverage_scores,
    random_sampling,
    rcur,
    variance_feature_select,
)
from .bench import (
    AccuracyCurve,
    BenchSpec,
    GridProtocol,
    GridSearchResult,
    grid_search,
    knn_classify,
    run_curve,
    write_curves_csv,
)
from .data import (
    Dataset,
    SelectionRequest,
    SplitSpec,
    load_csv,
    split,
    standardize_features,
    write_csv,
)
from .kernels import (
    AngularWeights,
    angular_weights,
    group_shrink,
    l21_norm,
    nuclear_norm,
    soft_threshold,
    svt,
)
from .selection import (
    SelectionResult,
    oracle_best_subsets,
    rank_and_select,
    reconstruction_error,
)
from .solver import (
    ConvergenceReport,
    RegularizationParams,
    SolverAbortError,
    SolverConfig,
    StackReport,
    objective,
    solve,
)

__all__ = [
    # data
    "Dataset",
    "SelectionRequest",
    "SplitSpec",
    "load_csv",
    "split",
    "standardize_features",
    "write_csv",
    # kernels
    "AngularWeights",
    "angular_weights",
    "group_shrink",
    "l21_norm",
    "nuclear_norm",
    "soft_threshold",
    "svt",
    # solver
    "ConvergenceReport",
    "StackReport",
    "RegularizationParams",
    "SolverAbortError",
    "SolverConfig",
    "objective",
    "solve",
    # selection
    "SelectionResult",
    "oracle_best_subsets",
    "rank_and_select",
    "reconstruction_error",
    # baselines
    "RcurConfig",
    "RcurResult",
    "cur_from_indices",
    "leverage_scores",
    "random_sampling",
    "rcur",
    "variance_feature_select",
    # bench
    "AccuracyCurve",
    "BenchSpec",
    "GridProtocol",
    "GridSearchResult",
    "grid_search",
    "knn_classify",
    "run_curve",
    "write_curves_csv",
]
