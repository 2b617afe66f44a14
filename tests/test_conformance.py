"""Cross-format conformance suite (see ``tests/conformance.py``).

Every storage format and every parallel-driver combination runs the
same seeded battery of edge-case matrices against the dense reference:

* serial SpM×V and multi-RHS SpM×M (k ∈ {1, 4}) for all formats;
* the two-phase symmetric driver for every (format × reduction ×
  partition layout), 1-D and 2-D;
* the unsymmetric driver (CSR / CSX) across the same layouts.
"""

import numpy as np
import pytest

from repro.analysis.configs import build_format as build_configured
from repro.matrices.suite import SUITE, get_entry
from repro.parallel import ParallelSpMV, ParallelSymmetricSpMV

from tests.conformance import (
    CASES,
    EXECUTOR_BACKENDS,
    PARTITION_LAYOUTS,
    REDUCTIONS,
    SERIAL_FORMATS,
    SYMMETRIC_FORMATS,
    UNSYMMETRIC_DRIVER_FORMATS,
    build_format,
    build_symmetric,
    build_unsymmetric,
    chaos_benign_executor,
    make_backend_executor,
    reference_product,
    rhs_block,
    skip_unless_supported,
)

CASE_NAMES = sorted(CASES)
KS = (1, 4)


@pytest.mark.parametrize("fmt", SERIAL_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_serial_spmv_matches_dense(case, fmt):
    m = build_format(case, fmt)
    x = rhs_block(m.n_cols, None)
    assert np.allclose(m.spmv(x), reference_product(case, x))


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("fmt", SERIAL_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_serial_spmm_matches_dense(case, fmt, k):
    m = build_format(case, fmt)
    X = rhs_block(m.n_cols, k)
    Y = m.spmm(X)
    assert Y.shape == (m.n_rows, k)
    assert np.allclose(Y, reference_product(case, X))
    # Second call exercises the cached-scatter path.
    assert np.allclose(m.spmm(X), reference_product(case, X))


@pytest.mark.parametrize("fmt", SERIAL_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_roundtrip_to_dense(case, fmt):
    m = build_format(case, fmt)
    assert np.allclose(m.to_dense(), CASES[case].dense)


@pytest.mark.parametrize("layout", PARTITION_LAYOUTS)
@pytest.mark.parametrize("method", REDUCTIONS)
@pytest.mark.parametrize("fmt", SYMMETRIC_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_symmetric_driver_spmv(case, fmt, method, layout):
    skip_unless_supported(fmt, method)
    matrix, parts = build_symmetric(case, fmt, layout)
    kernel = ParallelSymmetricSpMV(matrix, parts, method)
    x = rhs_block(matrix.n_cols, None)
    assert np.allclose(kernel(x), reference_product(case, x))


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("layout", ["thirds", "per_row"])
@pytest.mark.parametrize("method", REDUCTIONS)
@pytest.mark.parametrize("fmt", SYMMETRIC_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_symmetric_driver_spmm(case, fmt, method, layout, k):
    skip_unless_supported(fmt, method)
    matrix, parts = build_symmetric(case, fmt, layout)
    kernel = ParallelSymmetricSpMV(matrix, parts, method)
    X = rhs_block(matrix.n_cols, k)
    expected = reference_product(case, X)
    assert np.allclose(kernel(X), expected)
    # The 2-D block path and k column-by-column passes must agree.
    stacked = np.stack(
        [kernel(X[:, j].copy()) for j in range(k)], axis=1
    )
    assert np.allclose(stacked, expected)


@pytest.mark.parametrize("layout", PARTITION_LAYOUTS)
@pytest.mark.parametrize("fmt", UNSYMMETRIC_DRIVER_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_unsymmetric_driver_spmv(case, fmt, layout):
    matrix, parts = build_unsymmetric(case, fmt, layout)
    kernel = ParallelSpMV(matrix, parts)
    x = rhs_block(matrix.n_cols, None)
    assert np.allclose(kernel(x), reference_product(case, x))


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("fmt", UNSYMMETRIC_DRIVER_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_unsymmetric_driver_spmm(case, fmt, k):
    matrix, parts = build_unsymmetric(case, fmt, "thirds")
    kernel = ParallelSpMV(matrix, parts)
    X = rhs_block(matrix.n_cols, k)
    assert np.allclose(kernel(X), reference_product(case, X))


def _plan_seed(*labels: str) -> int:
    """Deterministic plan seed per parametrization (hash() is
    randomized per process, so it would not reproduce across runs)."""
    return sum(ord(c) for c in "/".join(labels))


# ----------------------------------------------------------------------
# Chaos-mode sweep: when the injected faults are delays and reordered
# completions only, the two-phase algorithm is data-race-free by
# construction (disjoint writes + caller-thread reduction), so every
# driver must produce output *bit-identical* to its serial execution.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("method", REDUCTIONS)
@pytest.mark.parametrize("fmt", SYMMETRIC_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_symmetric_driver_chaos_bit_identical(case, fmt, method, k):
    skip_unless_supported(fmt, method)
    matrix, parts = build_symmetric(case, fmt, "thirds")
    x = rhs_block(matrix.n_cols, k)
    serial = ParallelSymmetricSpMV(matrix, parts, method)(x)
    ex = chaos_benign_executor(seed=_plan_seed(case, fmt, method))
    try:
        chaotic = ParallelSymmetricSpMV(
            matrix, parts, method, executor=ex
        )(x)
    finally:
        ex.close()
    assert np.array_equal(serial, chaotic)


@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("fmt", UNSYMMETRIC_DRIVER_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_unsymmetric_driver_chaos_bit_identical(case, fmt, k):
    matrix, parts = build_unsymmetric(case, fmt, "thirds")
    x = rhs_block(matrix.n_cols, k)
    serial = ParallelSpMV(matrix, parts)(x)
    ex = chaos_benign_executor(seed=_plan_seed(case, fmt))
    try:
        chaotic = ParallelSpMV(matrix, parts, executor=ex)(x)
    finally:
        ex.close()
    assert np.array_equal(serial, chaotic)


@pytest.mark.parametrize("fmt", SYMMETRIC_FORMATS)
def test_bound_operator_chaos_bit_identical(fmt):
    matrix, parts = build_symmetric("random", fmt, "thirds")
    x = rhs_block(matrix.n_cols, None)
    serial = ParallelSymmetricSpMV(matrix, parts, "indexed")(x)
    ex = chaos_benign_executor(seed=7)
    op = ParallelSymmetricSpMV(
        matrix, parts, "indexed", executor=ex
    ).bind()
    try:
        assert np.array_equal(op(x), serial)
        assert np.array_equal(op(x), serial)  # workspace reuse
    finally:
        op.close()
        ex.close()


@pytest.mark.parametrize("fmt", SYMMETRIC_FORMATS)
def test_driver_output_block_reuse(fmt):
    """A caller-provided (n, k) output block is cleared and filled."""
    matrix, parts = build_symmetric("random", fmt, "thirds")
    kernel = ParallelSymmetricSpMV(matrix, parts, "indexed")
    X = rhs_block(matrix.n_cols, 3)
    Y = np.full((matrix.n_rows, 3), -7.5)
    out = kernel(X, Y)
    assert out is Y
    assert np.allclose(Y, reference_product("random", X))


# ----------------------------------------------------------------------
# Cross-backend sweep: the same bound operator on every executor
# backend must be *bit-identical* to serial — same kernels, same
# workspaces layout, same summation order.
# ----------------------------------------------------------------------
def _run_bound(driver, x):
    op = driver.bind(None if x.ndim == 1 else x.shape[1])
    try:
        return np.array(op(x))
    finally:
        op.close()


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
@pytest.mark.parametrize("method", REDUCTIONS)
@pytest.mark.parametrize("fmt", SYMMETRIC_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_symmetric_backend_bit_identical(case, fmt, method, backend):
    skip_unless_supported(fmt, method)
    matrix, parts = build_symmetric(case, fmt, "thirds")
    x = rhs_block(matrix.n_cols, None)
    serial = np.array(ParallelSymmetricSpMV(matrix, parts, method)(x))
    ex = make_backend_executor(backend)
    try:
        got = _run_bound(
            ParallelSymmetricSpMV(matrix, parts, method, executor=ex), x
        )
    finally:
        ex.close()
    assert np.array_equal(got, serial)


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
@pytest.mark.parametrize("fmt", UNSYMMETRIC_DRIVER_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_unsymmetric_backend_bit_identical(case, fmt, backend):
    matrix, parts = build_unsymmetric(case, fmt, "thirds")
    x = rhs_block(matrix.n_cols, None)
    serial = np.array(ParallelSpMV(matrix, parts)(x))
    ex = make_backend_executor(backend)
    try:
        got = _run_bound(ParallelSpMV(matrix, parts, executor=ex), x)
    finally:
        ex.close()
    assert np.array_equal(got, serial)


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
@pytest.mark.parametrize("method", ["indexed", "coloring"])
@pytest.mark.parametrize("fmt", SYMMETRIC_FORMATS)
def test_symmetric_backend_spmm_bit_identical(fmt, method, backend):
    skip_unless_supported(fmt, method)
    matrix, parts = build_symmetric("random", fmt, "thirds")
    X = rhs_block(matrix.n_cols, 4)
    serial = np.array(ParallelSymmetricSpMV(matrix, parts, method)(X))
    ex = make_backend_executor(backend)
    try:
        got = _run_bound(
            ParallelSymmetricSpMV(matrix, parts, method, executor=ex), X
        )
    finally:
        ex.close()
    assert np.array_equal(got, serial)


def test_csx_sym_spmm_columns_bit_identical_to_spmv():
    """Column j of a multi-RHS apply equals the SpM×V of ``X[:, j]``
    bit for bit, also where a plan row holds >= 8 elements (long rows
    are where a reordered or pairwise sum would show)."""
    coo = get_entry("bmw7st_1").build(0.02)
    matrix, parts = build_configured(coo, "csx-sym", 2)
    assert any(
        np.diff(p.plan.indptr).max() >= 8 for p in matrix.partitions
    )
    driver = ParallelSymmetricSpMV(matrix, parts, "indexed")
    X = np.random.default_rng(0).standard_normal((coo.n_rows, 8))
    Y = driver(X)
    for j in range(X.shape[1]):
        assert np.array_equal(Y[:, j], driver(np.ascontiguousarray(X[:, j])))


@pytest.mark.parametrize("fmt", ["csx", "csx-sym"])
@pytest.mark.parametrize("name", [e.name for e in SUITE])
def test_csx_spmm_columns_bit_identical_on_suite(name, fmt):
    """On every suite matrix, SpMM column j equals the SpM×V of
    ``X[:, j]`` bit for bit, and ``threads`` equals ``serial``."""
    coo = get_entry(name).build(0.01)
    matrix, parts = build_configured(coo, fmt, 2)
    X = np.random.default_rng(1).standard_normal((coo.n_rows, 8))
    results = []
    for backend in ("serial", "threads"):
        ex = make_backend_executor(backend)
        driver = (
            ParallelSymmetricSpMV(matrix, parts, "indexed", executor=ex)
            if fmt == "csx-sym" else ParallelSpMV(matrix, parts, executor=ex)
        )
        try:
            Y = np.array(driver(X))
            for j in range(X.shape[1]):
                y = driver(np.ascontiguousarray(X[:, j]))
                assert np.array_equal(Y[:, j], y), (backend, j)
            results.append(Y)
        finally:
            driver.close()
            ex.close()
    assert np.array_equal(results[0], results[1])
