"""Estimating the number of communities in weighted networks.

The main entry points are svps_select (sequential spectral test on the
variance-profile-scaled adjacency) and score_select (penalized
likelihood baselines), both operating on WeightedAdjacency networks;
select runs whichever one a MethodSpec names.
"""

from .network import (
    EdgeListError,
    EdgeListFormat,
    WeightedAdjacency,
    binarize,
    degrees,
    load_edge_list,
    regularize,
    write_edge_list,
)
from .model import (
    DcsbmModel,
    EdgeDistribution,
    VarianceFunction,
    make_rng,
    mean_matrix,
    sample_network,
    simulation_params,
)
from .spectral import (
    Assignment,
    ClusterError,
    EigPairs,
    kmeans,
    leading_eigpairs,
    rsc_cluster,
    score_cluster,
    score_ratios,
)
from .fitting import FitError, FittedStep, fit_step
from .scaling import ScalingError, ScalingResult, scaled_matrix, sinkhorn_symmetric
from .selection import (
    MethodSpec,
    SelectionTrace,
    StepRecord,
    cbic_score,
    icl_score,
    log_likelihood,
    score_select,
    select,
    select_by_score,
    svps_select,
    svps_statistic,
)
from .bench import (
    AccuracyTable,
    ExperimentConfig,
    LesmisTable,
    emit_csv,
    parse_config,
    run_experiment,
    run_lesmis,
)
from .datasets import lesmis_path, load_lesmis

__version__ = "0.1.0"

__all__ = [
    "EdgeListError",
    "EdgeListFormat",
    "WeightedAdjacency",
    "binarize",
    "degrees",
    "load_edge_list",
    "regularize",
    "write_edge_list",
    "DcsbmModel",
    "EdgeDistribution",
    "VarianceFunction",
    "make_rng",
    "mean_matrix",
    "sample_network",
    "simulation_params",
    "Assignment",
    "ClusterError",
    "EigPairs",
    "kmeans",
    "leading_eigpairs",
    "rsc_cluster",
    "score_cluster",
    "score_ratios",
    "FitError",
    "FittedStep",
    "fit_step",
    "ScalingError",
    "ScalingResult",
    "scaled_matrix",
    "sinkhorn_symmetric",
    "MethodSpec",
    "SelectionTrace",
    "StepRecord",
    "cbic_score",
    "icl_score",
    "log_likelihood",
    "score_select",
    "select",
    "select_by_score",
    "svps_select",
    "svps_statistic",
    "AccuracyTable",
    "ExperimentConfig",
    "LesmisTable",
    "emit_csv",
    "parse_config",
    "run_experiment",
    "run_lesmis",
    "lesmis_path",
    "load_lesmis",
    "__version__",
]
