"""Bound operators (``driver.bind``): conformance, workspace reuse,
allocation discipline and cache bounding.

The bound layer must be observationally identical to the plain drivers
on the whole conformance battery, while actually delivering what it
promises: a warm operator performs no new retained large-array
allocations per application, returns the same persistent workspace
every call, and releases the format's lazy caches on ``close()``.
"""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from repro.formats.base import FLAT_CACHE_MAX, RowScatter
from repro.obs import reset_warning_counts, warning_counts
from repro.parallel import (
    BoundSpMV,
    BoundSymmetricSpMV,
    ParallelSpMV,
    ParallelSymmetricSpMV,
)
from repro.solvers import (
    block_conjugate_gradient,
    conjugate_gradient,
    jacobi_preconditioner,
)

from tests.conformance import (
    CASES,
    PARTITION_LAYOUTS,
    REDUCTIONS,
    SYMMETRIC_FORMATS,
    UNSYMMETRIC_DRIVER_FORMATS,
    build_symmetric,
    build_unsymmetric,
    reference_product,
    rhs_block,
    skip_unless_supported,
)

CASE_NAMES = sorted(CASES)
KS = (None, 3)


def _sym_driver(case, fmt, reduction, layout="thirds"):
    matrix, parts = build_symmetric(case, fmt, layout)
    return ParallelSymmetricSpMV(matrix, parts, reduction)


def _unsym_driver(case, fmt, layout="thirds"):
    matrix, parts = build_unsymmetric(case, fmt, layout)
    return ParallelSpMV(matrix, parts)


# ---------------------------------------------------------------------
# Conformance: bound == unbound == dense, across the whole battery
# ---------------------------------------------------------------------
@pytest.mark.parametrize("k", KS, ids=["spmv", "spmm_k3"])
@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("fmt", SYMMETRIC_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_bound_symmetric_matches_unbound(case, fmt, reduction, k):
    skip_unless_supported(fmt, reduction)
    driver = _sym_driver(case, fmt, reduction)
    x = rhs_block(driver.matrix.n_cols, k)
    with driver.bind(k) as bound:
        assert isinstance(bound, BoundSymmetricSpMV)
        got = bound(x)
        assert np.allclose(got, driver(x))
        assert np.allclose(got, reference_product(case, x))
        # Second application through the same plan stays correct.
        x2 = rhs_block(driver.matrix.n_cols, k, seed=5)
        assert np.allclose(bound(x2), reference_product(case, x2))


@pytest.mark.parametrize("k", KS, ids=["spmv", "spmm_k3"])
@pytest.mark.parametrize("fmt", UNSYMMETRIC_DRIVER_FORMATS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_bound_unsymmetric_matches_unbound(case, fmt, k):
    driver = _unsym_driver(case, fmt)
    x = rhs_block(driver.matrix.n_cols, k)
    with driver.bind(k) as bound:
        assert isinstance(bound, BoundSpMV)
        assert np.allclose(bound(x), driver(x))
        assert np.allclose(bound(x), reference_product(case, x))


@pytest.mark.parametrize("layout", PARTITION_LAYOUTS)
def test_bound_layouts(layout):
    driver = _sym_driver("random", "sss", "indexed", layout)
    x = rhs_block(driver.matrix.n_cols, None)
    with driver.bind() as bound:
        assert np.allclose(bound(x), reference_product("random", x))


# ---------------------------------------------------------------------
# Workspace semantics
# ---------------------------------------------------------------------
def test_workspace_identity_and_out():
    driver = _sym_driver("random", "sss", "indexed")
    bound = driver.bind()
    x = rhs_block(driver.matrix.n_cols, None)
    y1 = bound(x)
    y2 = bound(x)
    assert y1 is y2  # the persistent workspace, not a fresh array
    out = np.empty_like(y1)
    y3 = bound(x, out=out)
    assert y3 is out
    assert np.allclose(out, reference_product("random", x))
    bound.close()


def test_workspace_alias_input():
    # y = op(op(x)): feeding the workspace back in must not zero the
    # input mid-computation.
    driver = _sym_driver("banded", "sss", "effective")
    dense = CASES["banded"].dense
    x = rhs_block(driver.matrix.n_cols, None)
    with driver.bind() as bound:
        y = bound(bound(x))
        assert np.allclose(y, dense @ (dense @ x))


def test_bound_rejects_wrong_shapes():
    driver = _sym_driver("random", "sss", "naive")
    n = driver.matrix.n_cols
    with driver.bind() as bound:
        with pytest.raises(ValueError):
            bound(np.zeros((n, 2)))  # 2-D into a 1-D binding
        with pytest.raises(ValueError):
            bound(np.zeros(n + 1))
    with driver.bind(2) as bound2:
        with pytest.raises(ValueError):
            bound2(np.zeros(n))  # 1-D into a k=2 binding
        with pytest.raises(ValueError):
            bound2(np.zeros((n, 3)))
    with pytest.raises(ValueError):
        driver.bind(0)


def test_bind_idempotent_and_rebind():
    driver = _sym_driver("random", "sss", "indexed")
    bound = driver.bind(3)
    assert bound.bind(3) is bound
    rebound = bound.bind(None)
    assert rebound is not bound
    assert rebound.k is None
    x = rhs_block(driver.matrix.n_cols, None)
    assert np.allclose(rebound(x), reference_product("random", x))
    bound.close()
    rebound.close()
    # A closed operator re-binds afresh even for the same signature.
    fresh = bound.bind(3)
    assert fresh is not bound
    fresh.close()


def test_close_releases_and_rejects(monkeypatch):
    driver = _sym_driver("random", "sss", "indexed")
    sss = driver.matrix
    bound = driver.bind(2)
    X = rhs_block(sss.n_cols, 2)
    bound(X)
    cleared = []
    monkeypatch.setattr(
        type(sss), "clear_caches", lambda self: cleared.append(self)
    )
    bound.close()
    assert cleared == [sss]  # clear_caches() wired through
    assert bound.closed
    with pytest.raises(RuntimeError):
        bound(X)
    bound.close()  # idempotent


# ---------------------------------------------------------------------
# Allocation discipline: warm operator retains nothing new per call
# ---------------------------------------------------------------------
def test_warm_bound_operator_retains_no_new_allocations():
    driver = _sym_driver("banded", "sss", "indexed")
    x = rhs_block(driver.matrix.n_cols, None)
    bound = driver.bind()
    for _ in range(3):  # warm every lazy path
        bound(x)
    gc.collect()
    tracemalloc.start()
    try:
        snap0 = tracemalloc.take_snapshot()
        for _ in range(10):
            bound(x)
        gc.collect()
        snap1 = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # No retained block of even a kilobyte may appear per warm call:
    # workspaces persist, caches are warm, temporaries are released.
    growth = sum(
        d.size_diff
        for d in snap1.compare_to(snap0, "filename")
        if d.size_diff > 1024
    )
    assert growth < 10 * 1024, f"warm operator retained {growth} bytes"
    bound.close()


# ---------------------------------------------------------------------
# Cache bounding
# ---------------------------------------------------------------------
def test_row_scatter_flat_cache_bounded():
    sc = RowScatter(np.array([3, 5, 3, 9]))
    for k in range(1, 3 * FLAT_CACHE_MAX):
        sc.add(np.zeros((10, k)), np.ones((4, k)))
    assert len(sc._flat) <= FLAT_CACHE_MAX
    # Most-recent k values survive; the scatter still works for any k.
    y = np.zeros((10, 2))
    sc.add(y, np.ones((4, 2)))
    assert y[3, 0] == 2.0 and y[5, 1] == 1.0 and y[9, 0] == 1.0
    sc.clear()
    assert not sc._flat


# ---------------------------------------------------------------------
# Solver integration: auto-binding keeps solutions identical
# ---------------------------------------------------------------------
def _spd_system(n=40, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    dense = a @ a.T + n * np.eye(n)
    from repro.formats import COOMatrix, SSSMatrix

    coo = COOMatrix.from_dense(dense)
    sss = SSSMatrix.from_coo(coo)
    parts = [(0, n // 3), (n // 3, n // 2), (n // 2, n)]
    return dense, sss, parts, rng


def test_cg_auto_binds_parallel_driver():
    dense, sss, parts, rng = _spd_system()
    driver = ParallelSymmetricSpMV(sss, parts, "indexed")
    b = rng.standard_normal(dense.shape[0])
    res = conjugate_gradient(driver, b, tol=1e-10)
    assert res.converged
    assert np.allclose(dense @ res.x, b, atol=1e-7)
    # The driver itself is untouched (binding wrapped, not mutated).
    assert np.allclose(driver(b), dense @ b)


def test_pcg_auto_binds_parallel_driver():
    dense, sss, parts, rng = _spd_system(seed=4)
    driver = ParallelSymmetricSpMV(sss, parts, "effective")
    b = rng.standard_normal(dense.shape[0])
    res = conjugate_gradient(
        driver, b, precond=jacobi_preconditioner(np.diag(dense)),
        tol=1e-10,
    )
    assert res.converged
    assert np.allclose(dense @ res.x, b, atol=1e-7)


def test_block_cg_auto_binds_parallel_driver():
    dense, sss, parts, rng = _spd_system(seed=5)
    driver = ParallelSymmetricSpMV(sss, parts, "indexed")
    B = rng.standard_normal((dense.shape[0], 3))
    res = block_conjugate_gradient(driver, B, tol=1e-10)
    assert res.all_converged
    assert np.allclose(dense @ res.X, B, atol=1e-7)


def test_solver_accepts_already_bound_operator():
    dense, sss, parts, rng = _spd_system(seed=6)
    driver = ParallelSymmetricSpMV(sss, parts, "naive")
    b = rng.standard_normal(dense.shape[0])
    with driver.bind() as bound:
        res = conjugate_gradient(bound, b, tol=1e-10)
        assert res.converged
        assert np.allclose(dense @ res.x, b, atol=1e-7)


def test_repeated_solves_share_the_drivers_cached_operator():
    """Three solves of each solver on one driver apply one cached
    operator per signature and leave nothing for the GC to warn
    about (each solve used to bind a fresh operator and drop it)."""
    dense, sss, parts, rng = _spd_system(seed=7)
    driver = ParallelSymmetricSpMV(sss, parts, "indexed")
    b = rng.standard_normal(dense.shape[0])
    B = rng.standard_normal((dense.shape[0], 3))
    precond = jacobi_preconditioner(np.diag(dense))
    reset_warning_counts()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        n_spmv = n_spmm = 0
        for _ in range(3):
            res = conjugate_gradient(driver, b, tol=1e-10)
            n_spmv += res.n_spmv
            res = conjugate_gradient(
                driver, b, precond=precond, tol=1e-10
            )
            n_spmv += res.n_spmv
            n_spmm += block_conjugate_gradient(driver, B, tol=1e-10).n_spmm
        gc.collect()
    assert set(driver._ops) == {None, 3}
    assert driver.operator(None).n_calls == n_spmv
    assert driver.operator(3).n_calls == n_spmm
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert "bound_operator.unclosed_gc" not in warning_counts()
    driver.close()


# ---------------------------------------------------------------------
# The driver's operator cache: ownership and lifetime
# ---------------------------------------------------------------------
def test_dropped_driver_frees_cached_operators_by_refcount():
    driver = _sym_driver("random", "sss", "indexed")
    x = rhs_block(driver.matrix.n_cols, None)
    X = rhs_block(driver.matrix.n_cols, 3)
    driver(x)
    driver(X)
    refs = [weakref.ref(driver.operator(k)) for k in (None, 3)]
    reset_warning_counts()
    gc.disable()  # reference counting alone must free them
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del driver
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
    assert not caught
    assert "bound_operator.unclosed_gc" not in warning_counts()


def test_driver_close_is_idempotent_and_rebinds():
    driver = _sym_driver("random", "sss", "indexed")
    x = rhs_block(driver.matrix.n_cols, None)
    first = driver(x)
    op = driver.operator()
    driver.close()
    driver.close()  # idempotent
    assert op.closed and not driver._ops
    again = driver(x)  # binds a new operator
    assert driver.operator() is not op
    assert np.array_equal(again, first)
    with driver:
        assert np.array_equal(driver(x), first)
    assert not driver._ops


@pytest.mark.parametrize("reduction", ["indexed", "coloring"])
@pytest.mark.parametrize("k", KS, ids=["spmv", "spmm_k3"])
def test_plain_call_applies_the_cached_operator(reduction, k):
    driver = _sym_driver("random", "sss", reduction)
    x = rhs_block(driver.matrix.n_cols, k)
    y = driver(x)
    op = driver.operator(k)
    assert list(driver._ops) == [k] and op.n_calls == 1
    out = np.empty_like(y)
    assert driver(x, out) is out  # copied out of the workspace
    assert op.n_calls == 2 and out is not op(x)
    assert np.array_equal(out, y)
    assert np.allclose(y, reference_product("random", x))
    driver.close()
