"""Doubly ranked nonparametric tests for grouped functional data.

Curves are ranked across subjects at every measurement occasion, each
subject's rank curve is collapsed to one score, and the scores are compared
across groups with a rank-sum test (two groups) or a Kruskal-Wallis test
(three or more). A Monte Carlo harness estimates the resulting type-I error
and power over simulation grids.
"""

from ._version import __version__
from .errors import InvalidInputError, UnsupportedSizeError
from .harness import (
    CellResult,
    CellSpec,
    ExperimentGrid,
    ResultFormat,
    grid_from_dict,
    load_grid,
    read_results,
    run_power,
    run_type1,
    write_results,
)
from .io import CsvFormatError, CurveTableInfo, read_curves_csv, write_curves_csv
from .orderstat import (
    ExpFamParts,
    approx_pmf,
    exact_pmf,
    expfam_parts,
    mean_suff_under_null,
    suff_stat,
)
from .preprocess import FpcaResult, fpca_smooth
from .rank_tests import (
    Alternative,
    DoublyRankedConfig,
    Method,
    TestResult,
    doubly_ranked_test,
    exact_mww_null_distribution,
    kruskal_wallis_test,
    mww_test,
)
from .ranking import CurveSet, RankCurves, rank_curves, rank_vector
from .simgen import (
    CoeffDist,
    MeanShape,
    NoiseKind,
    SimConfig,
    eigen_curve,
    generate_dataset,
    mean_fn,
    replicate_stream,
)
from .summaries import (
    SummaryKind,
    SummaryScores,
    average_rank_summary,
    sufficient_summary,
)

__all__ = [
    "__version__",
    "InvalidInputError",
    "UnsupportedSizeError",
    "CurveSet",
    "RankCurves",
    "rank_vector",
    "rank_curves",
    "ExpFamParts",
    "exact_pmf",
    "approx_pmf",
    "suff_stat",
    "expfam_parts",
    "mean_suff_under_null",
    "SummaryKind",
    "SummaryScores",
    "sufficient_summary",
    "average_rank_summary",
    "Alternative",
    "Method",
    "TestResult",
    "DoublyRankedConfig",
    "mww_test",
    "kruskal_wallis_test",
    "exact_mww_null_distribution",
    "doubly_ranked_test",
    "FpcaResult",
    "fpca_smooth",
    "CoeffDist",
    "MeanShape",
    "NoiseKind",
    "SimConfig",
    "eigen_curve",
    "mean_fn",
    "replicate_stream",
    "generate_dataset",
    "ExperimentGrid",
    "CellSpec",
    "CellResult",
    "ResultFormat",
    "run_type1",
    "run_power",
    "write_results",
    "read_results",
    "grid_from_dict",
    "load_grid",
    "CsvFormatError",
    "CurveTableInfo",
    "read_curves_csv",
    "write_curves_csv",
]
