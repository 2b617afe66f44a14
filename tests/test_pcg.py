"""Unit tests for Jacobi-preconditioned CG (``precond=``)."""

import numpy as np
import pytest

from repro.formats import COOMatrix, CSRMatrix
from repro.solvers import (
    OpCounter,
    conjugate_gradient,
    jacobi_preconditioner,
)


def _ill_conditioned_spd(n: int, seed: int = 0):
    """Diagonally dominant SPD with a wildly varying diagonal — the
    case where Jacobi shines."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    upper = np.triu(
        (rng.random((n, n)) < 0.05) * rng.uniform(0.1, 1.0, (n, n)), k=1
    )
    dense = upper + upper.T
    scale = 10.0 ** rng.uniform(0, 4, n)
    np.fill_diagonal(dense, scale + np.abs(dense).sum(axis=1))
    return dense


def test_jacobi_rejects_zero_diagonal():
    with pytest.raises(ValueError):
        jacobi_preconditioner(np.array([1.0, 0.0, 2.0]))


def test_jacobi_application():
    m = jacobi_preconditioner(np.array([2.0, 4.0]))
    assert np.allclose(m(np.array([2.0, 8.0])), [1.0, 2.0])


def test_pcg_converges(sym_dense_medium, rng):
    coo = COOMatrix.from_dense(sym_dense_medium)
    csr = CSRMatrix.from_coo(coo)
    x_true = rng.standard_normal(coo.n_rows)
    b = csr.spmv(x_true)
    precond = jacobi_preconditioner(coo.diagonal())
    res = conjugate_gradient(
        csr.spmv, b, precond=precond, tol=1e-12
    )
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-6)


def test_pcg_beats_cg_on_ill_conditioned():
    dense = _ill_conditioned_spd(400)
    coo = COOMatrix.from_dense(dense)
    csr = CSRMatrix.from_coo(coo)
    rng = np.random.default_rng(1)
    b = csr.spmv(rng.standard_normal(400))
    plain = conjugate_gradient(csr.spmv, b, tol=1e-10, max_iter=5000)
    pre = conjugate_gradient(
        csr.spmv, b, precond=jacobi_preconditioner(coo.diagonal()),
        tol=1e-10, max_iter=5000,
    )
    assert pre.converged
    assert pre.iterations < plain.iterations


def test_pcg_same_solution_as_cg(sym_dense_medium, rng):
    coo = COOMatrix.from_dense(sym_dense_medium)
    csr = CSRMatrix.from_coo(coo)
    b = csr.spmv(rng.standard_normal(coo.n_rows))
    plain = conjugate_gradient(csr.spmv, b, tol=1e-12)
    pre = conjugate_gradient(
        csr.spmv, b, precond=jacobi_preconditioner(coo.diagonal()),
        tol=1e-12,
    )
    assert np.allclose(plain.x, pre.x, atol=1e-7)


def test_pcg_nonzero_initial_guess(sym_dense_medium, rng):
    coo = COOMatrix.from_dense(sym_dense_medium)
    csr = CSRMatrix.from_coo(coo)
    x_true = rng.standard_normal(coo.n_rows)
    b = csr.spmv(x_true)
    res = conjugate_gradient(
        csr.spmv, b, precond=jacobi_preconditioner(coo.diagonal()),
        x0=x_true * 0.9, tol=1e-12,
    )
    assert res.converged
    assert res.n_spmv == res.iterations + 1


def test_pcg_counter(sym_dense_medium, rng):
    coo = COOMatrix.from_dense(sym_dense_medium)
    csr = CSRMatrix.from_coo(coo)
    b = csr.spmv(rng.standard_normal(coo.n_rows))
    counter = OpCounter()
    res = conjugate_gradient(
        csr.spmv, b, precond=jacobi_preconditioner(coo.diagonal()),
        tol=1e-10, counter=counter,
    )
    assert counter.flops == res.vector_flops > 0


def test_pcg_max_iter_cap(sym_dense_medium, rng):
    coo = COOMatrix.from_dense(sym_dense_medium)
    csr = CSRMatrix.from_coo(coo)
    b = csr.spmv(rng.standard_normal(coo.n_rows))
    res = conjugate_gradient(
        csr.spmv, b, precond=jacobi_preconditioner(coo.diagonal()),
        tol=1e-300, max_iter=4,
    )
    assert not res.converged and res.iterations == 4


# ----------------------------------------------------------------------
# Breakdown guards: same contract as the plain CG.
# ----------------------------------------------------------------------
def _faulty_after(spmv, n_clean):
    calls = {"n": 0}

    def apply(x):
        calls["n"] += 1
        y = np.asarray(spmv(x))
        return np.full_like(y, np.nan) if calls["n"] > n_clean else y

    return apply


def test_pcg_nan_operator_breaks_down(sym_dense_medium, rng):
    csr = CSRMatrix.from_dense(sym_dense_medium)
    b = rng.standard_normal(sym_dense_medium.shape[0])
    precond = jacobi_preconditioner(np.diag(sym_dense_medium))
    res = conjugate_gradient(
        _faulty_after(csr.spmv, 2), b, precond=precond, tol=1e-12,
        max_iter=500,
    )
    assert not res.converged
    assert res.breakdown is not None
    assert res.breakdown.kind == "nonfinite"
    assert res.iterations <= 5  # within two iterations of the fault


def test_pcg_nan_preconditioner_breaks_down(sym_dense_medium, rng):
    csr = CSRMatrix.from_dense(sym_dense_medium)
    b = rng.standard_normal(sym_dense_medium.shape[0])

    def bad_precond(r):
        return np.full_like(r, np.nan)

    res = conjugate_gradient(
        csr.spmv, b, precond=bad_precond, tol=1e-12, max_iter=500
    )
    assert not res.converged
    assert res.breakdown is not None
    assert res.breakdown.kind == "nonfinite"
    assert res.iterations == 0  # caught at the initial rᵀz


def test_pcg_indefinite_breakdown(rng):
    dense = np.diag([1.0, -1.0, 2.0])
    csr = CSRMatrix.from_dense(dense)
    precond = jacobi_preconditioner(np.array([1.0, 1.0, 2.0]))
    res = conjugate_gradient(
        csr.spmv, np.array([0.0, 1.0, 0.0]), precond=precond,
        max_iter=100,
    )
    assert not res.converged
    assert res.breakdown is not None
    assert res.breakdown.kind == "indefinite"
    assert res.iterations <= 2


def test_pcg_restart_recovers_transient_fault(sym_dense_medium, rng):
    csr = CSRMatrix.from_dense(sym_dense_medium)
    x_true = rng.standard_normal(sym_dense_medium.shape[0])
    b = sym_dense_medium @ x_true
    precond = jacobi_preconditioner(np.diag(sym_dense_medium))
    calls = {"n": 0}

    def transient(x):
        calls["n"] += 1
        y = csr.spmv(x)
        return np.full_like(y, np.nan) if calls["n"] == 3 else y

    res = conjugate_gradient(
        transient, b, precond=precond, tol=1e-10, restart=True
    )
    assert res.converged
    assert res.breakdown is None
    assert np.allclose(res.x, x_true, atol=1e-5)


# ----------------------------------------------------------------------
# One loop serves both recurrences: an identity preconditioner takes
# the preconditioned branch yet must reproduce plain CG bit for bit.
# ----------------------------------------------------------------------
def _eigen_system(kind: str, n: int = 40, seed: int = 3):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.uniform(0.5, 5.0, n)
    if kind == "indefinite":
        eig[: n // 4] *= -1.0
    elif kind == "near_singular":
        eig[: n // 5] = 10.0 ** rng.uniform(-15, -12, n // 5)
    a = (q * eig) @ q.T
    return 0.5 * (a + a.T), rng.standard_normal(n)


@pytest.mark.parametrize("restart", [False, True])
@pytest.mark.parametrize("kind", ["spd", "indefinite", "near_singular"])
def test_identity_precond_matches_plain_cg(kind, restart):
    a, b = _eigen_system(kind)
    kw = dict(
        tol=1e-12, restart=restart, record_history=True,
        stagnation_window=10,
    )
    plain = conjugate_gradient(lambda v: a @ v, b, **kw)
    ident = conjugate_gradient(
        lambda v: a @ v, b, precond=lambda r: r.copy(), **kw
    )
    np.testing.assert_array_equal(ident.x, plain.x)
    assert ident.iterations == plain.iterations
    assert ident.residual_norm == plain.residual_norm
    assert ident.n_spmv == plain.n_spmv
    np.testing.assert_array_equal(
        ident.residual_history, plain.residual_history
    )
    key = lambda r: (  # noqa: E731
        None if r.breakdown is None
        else (r.breakdown.kind, r.breakdown.iteration)
    )
    assert key(ident) == key(plain)
    # Each system drives the branch it is here for.
    assert (plain.breakdown is None) == (kind == "spd")
    restarted = restart and kind != "spd"
    assert plain.n_spmv == plain.iterations + restarted
