"""Unit tests for the colorful (conflict-free) symmetric SpM×V."""

import numpy as np
import pytest

from repro.formats import COOMatrix, SSSMatrix
from repro.machine import DUNNINGTON
from repro.matrices import banded_random, dense_clustered
from repro.parallel import (
    coloring_stats,
    distance2_coloring,
    predict_colored_time,
)
from repro.parallel.coloring import verify_coloring


@pytest.fixture(scope="module")
def sparse_sss():
    rng = np.random.default_rng(3)
    return SSSMatrix.from_coo(banded_random(600, 6.0, 25, rng))


def test_coloring_is_valid(sparse_sss):
    colors = distance2_coloring(sparse_sss)
    assert colors.min() >= 0
    assert verify_coloring(sparse_sss, colors)


def test_coloring_valid_on_scattered(rng):
    coo = banded_random(400, 8.0, 399, np.random.default_rng(9))
    sss = SSSMatrix.from_coo(coo)
    colors = distance2_coloring(sss)
    assert verify_coloring(sss, colors)


def test_invalid_coloring_detected(sparse_sss):
    """verify_coloring must actually catch conflicts."""
    all_same = np.zeros(sparse_sss.n_rows, dtype=np.int64)
    assert not verify_coloring(sparse_sss, all_same)


def test_diagonal_matrix_needs_one_color():
    sss = SSSMatrix.from_dense(np.diag(np.arange(1.0, 9.0)))
    colors = distance2_coloring(sss)
    assert coloring_stats(colors).n_colors == 1


def test_color_count_grows_with_degree(rng):
    rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
    sparse = SSSMatrix.from_coo(banded_random(500, 5.0, 30, rng1))
    dense = SSSMatrix.from_coo(
        dense_clustered(500, 40.0, 60, 8, rng2)
    )
    n_sparse = coloring_stats(distance2_coloring(sparse)).n_colors
    n_dense = coloring_stats(distance2_coloring(dense)).n_colors
    assert n_dense > 2 * n_sparse  # "geometry limits the potential"


def test_stats_fields(sparse_sss):
    stats = coloring_stats(distance2_coloring(sparse_sss))
    assert stats.n_colors >= 1
    assert stats.smallest_class <= stats.mean_class <= stats.largest_class
    assert stats.parallelism_bound == stats.mean_class


def test_predicted_time_worse_than_indexed(sparse_sss):
    """The paper: the colorful method 'could not achieve a performance
    gain over the typical local vectors method'."""
    from repro.machine import predict_spmv
    from repro.parallel import partition_nnz_balanced

    colors = distance2_coloring(sparse_sss)
    t_colored = predict_colored_time(sparse_sss, colors, DUNNINGTON, 24)
    parts = partition_nnz_balanced(sparse_sss.expanded_row_nnz(), 24)
    t_indexed = predict_spmv(
        sparse_sss, parts, DUNNINGTON, reduction="indexed"
    ).total
    assert t_colored > t_indexed


# ----------------------------------------------------------------------
# Conflict-free schedule (the "coloring" reduction strategy)
# ----------------------------------------------------------------------
from repro.formats import CSRMatrix  # noqa: E402
from repro.machine import predict_spmv  # noqa: E402
from repro.parallel import (  # noqa: E402
    ColoringReduction,
    ColoringUnsupportedError,
    ParallelSymmetricSpMV,
    build_coloring_schedule,
    make_reduction,
    partition_nnz_balanced,
)


def _parts(sss, p):
    return partition_nnz_balanced(sss.expanded_row_nnz(), p)


def test_colored_spmv_matches_dense(sym_dense_medium, rng):
    sss = SSSMatrix.from_coo(COOMatrix.from_dense(sym_dense_medium))
    x = rng.standard_normal(sss.n_cols)
    with ParallelSymmetricSpMV(sss, _parts(sss, 3), "coloring") as kernel:
        assert np.allclose(kernel(x), sym_dense_medium @ x)


def test_colored_output_reuse(sparse_sss, rng):
    x = rng.standard_normal(sparse_sss.n_cols)
    y = np.full(sparse_sss.n_rows, 7.0)
    parts = _parts(sparse_sss, 3)
    with ParallelSymmetricSpMV(sparse_sss, parts, "coloring") as kernel:
        out = kernel(x, y)
    assert out is y
    assert np.allclose(y, sparse_sss.spmv(x))


def test_bad_colors_shape_rejected(sparse_sss):
    bad = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError, match="one color per row"):
        build_coloring_schedule(sparse_sss, 4, colors=bad)
    with pytest.raises(ValueError, match="one color per row"):
        verify_coloring(sparse_sss, bad)


def test_schedule_covers_every_row_exactly_once(sparse_sss):
    sched = build_coloring_schedule(sparse_sss, 4)
    seen = np.concatenate([
        seg.rows
        for step in sched.steps
        for task_segs in step
        for seg in task_segs
    ])
    assert seen.size == sched.n_rows
    assert np.unique(seen).size == seen.size
    assert 0 < sched.n_nonempty_rows <= sched.n_rows


def test_schedule_deterministic(sparse_sss):
    a = build_coloring_schedule(sparse_sss, 4)
    b = build_coloring_schedule(sparse_sss, 4)
    assert a.n_colors == b.n_colors and a.n_barriers == b.n_barriers
    for sa, sb in zip(a.steps, b.steps):
        for ta, tb in zip(sa, sb):
            for ga, gb in zip(ta, tb):
                assert np.array_equal(ga.rows, gb.rows)
                assert np.array_equal(ga.cols, gb.cols)


def test_coloring_handles_empty_rows_and_disconnection():
    dense = np.zeros((12, 12))
    dense[1, 0] = dense[0, 1] = 2.0  # component A
    dense[7, 6] = dense[6, 7] = 3.0  # component B, disconnected
    np.fill_diagonal(dense, [1, 0, 0, 5, 0, 0, 1, 1, 0, 0, 0, 2.0])
    sss = SSSMatrix.from_dense(dense)
    colors = distance2_coloring(sss)
    assert verify_coloring(sss, colors)
    sched = build_coloring_schedule(sss, 3)
    x = np.random.default_rng(0).standard_normal(12)
    y = np.zeros(12)
    from repro.parallel import Executor
    from repro.parallel.coloring import compile_colored_steps, run_colored_steps

    steps = compile_colored_steps(sched, y, lambda: x)
    run_colored_steps(Executor("serial"), steps)
    assert np.allclose(y, dense @ x)


def test_coloring_reduction_factory_and_footprint(sparse_sss):
    red = make_reduction("coloring", sparse_sss, _parts(sparse_sss, 4))
    assert isinstance(red, ColoringReduction)
    assert red.conflict_free
    assert all(l is None for l in red.allocate_locals())
    assert red.zeroed_elements() == 0
    fp = red.footprint()
    assert fp.reduction_reads == 0 and fp.reduction_writes == 0
    assert fp.ws_measured_bytes == 0.0


def test_coloring_rejected_without_lower_triple():
    csr = CSRMatrix.from_coo(
        banded_random(50, 3.0, 10, np.random.default_rng(1))
    )
    with pytest.raises((ColoringUnsupportedError, AttributeError)):
        make_reduction("coloring", csr, [(0, 50)])


def test_driver_coloring_matches_serial_kernel(sparse_sss, rng):
    parts = _parts(sparse_sss, 4)
    x = rng.standard_normal(sparse_sss.n_cols)
    drv = ParallelSymmetricSpMV(sparse_sss, parts, "coloring")
    assert np.allclose(drv(x), sparse_sss.spmv(x))


def test_predicted_coloring_has_zero_reduce_and_a_barrier(sparse_sss):
    parts = _parts(sparse_sss, 8)
    pt = predict_spmv(sparse_sss, parts, DUNNINGTON, reduction="coloring")
    assert pt.t_reduce == 0.0
    assert pt.t_barrier > 0.0
    assert pt.total == pt.t_mult + pt.t_barrier
