"""Thread partitioning, local-vector reduction methods and the
multithreaded SpM×V orchestration of Section III."""

from ..resilience import (
    BatchExecutionError,
    ChaosPlan,
    OperatorClosedError,
)
from .bound import BoundOperator, BoundSpMV, BoundSymmetricSpMV
from .coloring import (
    ColoringSchedule,
    ColoringUnsupportedError,
    build_coloring_schedule,
    coloring_stats,
    distance2_coloring,
    predict_colored_time,
    verify_coloring,
)
from .csb_spmv import ParallelCSBSymSpMV, predict_csb_sym_time
from .executor import Executor
from .partition import (
    partition_nnz_balanced,
    partition_rows_equal,
    validate_partitions,
)
from .reduction import (
    REDUCTION_METHODS,
    ColoringReduction,
    EffectiveRangesReduction,
    IndexedReduction,
    NaiveReduction,
    ReductionFootprint,
    ReductionMethod,
    make_reduction,
)
from .spmv import ParallelSpMV, ParallelSymmetricSpMV

__all__ = [
    "Executor",
    "ChaosPlan",
    "BatchExecutionError",
    "OperatorClosedError",
    "partition_nnz_balanced",
    "partition_rows_equal",
    "validate_partitions",
    "REDUCTION_METHODS",
    "NaiveReduction",
    "EffectiveRangesReduction",
    "IndexedReduction",
    "ColoringReduction",
    "ReductionMethod",
    "ReductionFootprint",
    "make_reduction",
    "ParallelSpMV",
    "ParallelSymmetricSpMV",
    "BoundOperator",
    "BoundSymmetricSpMV",
    "BoundSpMV",
    "ColoringSchedule",
    "ColoringUnsupportedError",
    "build_coloring_schedule",
    "distance2_coloring",
    "verify_coloring",
    "coloring_stats",
    "predict_colored_time",
    "ParallelCSBSymSpMV",
    "predict_csb_sym_time",
]
