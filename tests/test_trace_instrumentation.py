"""Tracing-on must be observationally invisible: identical numerics
with a tracer active, phase spans that agree with the solver's own
instrumentation counts, counters that match the analytic models, and
per-thread timelines under the threads executor."""

import numpy as np
import pytest

from repro.analysis.breakdown import spmv_reduction_breakdown
from repro.formats import CSRMatrix, SSSMatrix
from repro.machine import DUNNINGTON
from repro.matrices.generators import grid_laplacian_2d
from repro.obs import Tracer, chrome_events, tracing
from repro.parallel import (
    Executor,
    ParallelSymmetricSpMV,
    partition_nnz_balanced,
)
from repro.solvers import (
    block_conjugate_gradient,
    conjugate_gradient,
    jacobi_preconditioner,
)

from tests.conformance import (
    REDUCTIONS,
    build_symmetric,
    reference_product,
    rhs_block,
)

CASE = "random"
FORMATS = ("sss", "csx-sym")


def _span_counts(tracer):
    return {
        name: len(durs)
        for name, durs in tracer.span_durations_ns().items()
    }


def _spd_system(n_side=24):
    coo = grid_laplacian_2d(n_side, n_side)
    sss = SSSMatrix.from_coo(coo)
    parts = partition_nnz_balanced(sss.expanded_row_nnz(), 4)
    rng = np.random.default_rng(5)
    x_true = rng.standard_normal(coo.n_rows)
    b = CSRMatrix.from_coo(coo).spmv(x_true)
    return coo, sss, parts, x_true, b


# ---------------------------------------------------------------------
# Numerics are bit-identical with tracing on vs off
# ---------------------------------------------------------------------
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("k", (None, 3))
def test_spmv_identical_under_tracing(fmt, reduction, k):
    matrix, parts = build_symmetric(CASE, fmt, "thirds")
    driver = ParallelSymmetricSpMV(matrix, parts, reduction)
    x = rhs_block(matrix.n_cols, k)
    y_off = np.array(driver(x))
    with tracing():
        y_on = np.array(driver(x))
    np.testing.assert_array_equal(y_on, y_off)
    np.testing.assert_allclose(
        y_on, reference_product(CASE, x), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("fmt", FORMATS)
def test_bound_spmv_identical_under_tracing(fmt):
    matrix, parts = build_symmetric(CASE, fmt, "thirds")
    driver = ParallelSymmetricSpMV(matrix, parts, "indexed")
    x = rhs_block(matrix.n_cols, None)
    with driver.bind() as bound:
        y_off = np.array(bound(x))
        with tracing():
            y_on = np.array(bound(x))
    np.testing.assert_array_equal(y_on, y_off)


def test_cg_identical_under_tracing():
    _, sss, parts, x_true, b = _spd_system()
    res_off = conjugate_gradient(
        ParallelSymmetricSpMV(sss, parts, "indexed"), b, tol=1e-10,
        record_history=True,
    )
    with tracing():
        res_on = conjugate_gradient(
            ParallelSymmetricSpMV(sss, parts, "indexed"), b, tol=1e-10,
            record_history=True,
        )
    np.testing.assert_array_equal(res_on.x, res_off.x)
    np.testing.assert_array_equal(
        res_on.residual_history, res_off.residual_history
    )
    assert res_on.iterations == res_off.iterations
    assert res_on.converged and np.allclose(res_on.x, x_true, atol=1e-6)


def test_pcg_identical_under_tracing():
    coo, sss, parts, _, b = _spd_system()
    diag = np.zeros(coo.n_rows)
    mask = coo.rows == coo.cols
    diag[coo.rows[mask]] = coo.vals[mask]
    precond = jacobi_preconditioner(diag)
    res_off = conjugate_gradient(
        ParallelSymmetricSpMV(sss, parts, "indexed"), b, precond=precond,
        tol=1e-10,
    )
    with tracing() as t:
        res_on = conjugate_gradient(
            ParallelSymmetricSpMV(sss, parts, "indexed"), b,
            precond=precond, tol=1e-10,
        )
    np.testing.assert_array_equal(res_on.x, res_off.x)
    assert res_on.iterations == res_off.iterations
    assert "cg.precond" in _span_counts(t)


def test_block_cg_identical_under_tracing():
    _, sss, parts, _, b = _spd_system()
    B = np.column_stack([b, 0.5 * b, -b])
    res_off = block_conjugate_gradient(
        ParallelSymmetricSpMV(sss, parts, "indexed"), B, tol=1e-10
    )
    with tracing() as t:
        res_on = block_conjugate_gradient(
            ParallelSymmetricSpMV(sss, parts, "indexed"), B, tol=1e-10
        )
    np.testing.assert_array_equal(res_on.X, res_off.X)
    assert res_on.iterations == res_off.iterations
    counts = _span_counts(t)
    assert counts["cg.spmm"] == res_on.n_spmm
    iter_events = [
        ev for _, ev in t.events() if ev.name == "cg.iter"
    ]
    assert len(iter_events) == res_on.iterations


# ---------------------------------------------------------------------
# Span counts agree with the solver's own instrumentation
# ---------------------------------------------------------------------
def test_cg_span_counts_match_result():
    _, sss, parts, _, b = _spd_system()
    with tracing() as t:
        res = conjugate_gradient(
            ParallelSymmetricSpMV(sss, parts, "indexed"), b, tol=1e-10
        )
    counts = _span_counts(t)
    assert counts["cg.spmv"] == res.n_spmv
    assert counts["cg.bind"] == 1
    # One mult + one reduce phase per SpM×V application.
    assert counts["spmv.mult"] == res.n_spmv
    assert counts["spmv.reduce"] == res.n_spmv
    iter_events = [ev for _, ev in t.events() if ev.name == "cg.iter"]
    assert len(iter_events) == res.iterations
    assert [ev.attrs["iteration"] for ev in iter_events] == list(
        range(1, res.iterations + 1)
    )
    # Residual telemetry is the true residual history (monotone checks
    # are the solver tests' job; here: the last event == the result).
    assert iter_events[-1].attrs["residual"] == pytest.approx(
        res.residual_norm
    )
    # Bound path counters: one workspace zeroing per application.
    assert t.counters()["bound.calls"] == res.n_spmv


def test_per_call_driver_records_spmv_counters():
    matrix, parts = build_symmetric(CASE, "sss", "thirds")
    driver = ParallelSymmetricSpMV(matrix, parts, "indexed")
    x = rhs_block(matrix.n_cols, None)
    with tracing() as t:
        driver(x)
        driver(x)
    c = t.counters()
    # A plain call applies the driver's cached bound operator.
    assert c["bound.calls"] == 2
    assert c["traffic.matrix_bytes"] == 2 * matrix.size_bytes()
    assert c["traffic.stream_bytes"] > c["traffic.matrix_bytes"]
    assert 0 < c["reduce.rows_touched"] <= c["reduce.rows_budget"]


# ---------------------------------------------------------------------
# Phase shares are consistent with the analytic breakdown
# ---------------------------------------------------------------------
def test_reduce_share_ordering_matches_model():
    """The model (Fig. 10) says the mult phase dominates the reduce
    phase for the indexed method on a banded matrix; the measured
    span totals must have the same ordering."""
    coo = grid_laplacian_2d(28, 28)
    [bd] = spmv_reduction_breakdown(
        {"lap": coo}, DUNNINGTON, 4, methods=("indexed",),
        machine_scale=0.01,
    )
    assert bd.t_mult > bd.t_reduce  # the model's phase ordering
    sss = SSSMatrix.from_coo(coo)
    parts = partition_nnz_balanced(sss.expanded_row_nnz(), 4)
    driver = ParallelSymmetricSpMV(sss, parts, "indexed")
    x = np.random.default_rng(1).standard_normal(coo.n_cols)
    with tracing() as t:
        for _ in range(20):
            driver(x)
    durs = t.span_durations_ns()
    assert sum(durs["spmv.mult"]) > sum(durs["spmv.reduce"])


# ---------------------------------------------------------------------
# Thread timelines under the threads executor
# ---------------------------------------------------------------------
def test_threads_executor_produces_per_thread_timeline():
    matrix, parts = build_symmetric(CASE, "sss", "thirds")
    with Executor("threads", max_workers=len(parts)) as ex:
        driver = ParallelSymmetricSpMV(matrix, parts, "indexed", executor=ex)
        x = rhs_block(matrix.n_cols, None)
        y_serial = np.array(ParallelSymmetricSpMV(matrix, parts, "indexed")(x))
        with tracing() as t:
            y = np.array(driver(x))
    np.testing.assert_allclose(y, y_serial, rtol=1e-12, atol=1e-12)
    counts = _span_counts(t)
    assert counts["spmv.mult.task"] == len(parts)
    # Tasks record on their executing threads; with a pool of
    # len(parts) workers more than one thread must appear.
    assert t.n_threads_seen() > 1
    evs = chrome_events(t)
    tids = {e["tid"] for e in evs if e["ph"] == "X"}
    assert len(tids) > 1
    assert {e["tid"] for e in evs if e["ph"] == "M"} >= tids
