"""Unit tests for the compiled CSR execution plan."""

import pickle

import numpy as np
import pytest

from repro.formats.csx.detect import detect_and_encode
from repro.formats.csx.plan import compile_plan
from repro.formats.csx.substructures import (
    PatternKey,
    PatternType,
    Unit,
)

HORIZONTAL = PatternKey(PatternType.HORIZONTAL, (1,))
VERTICAL = PatternKey(PatternType.VERTICAL, (1,))


def encode(dense):
    rows, cols = np.nonzero(dense)
    return detect_and_encode(
        rows.astype(np.int64),
        cols.astype(np.int64),
        dense[rows, cols],
        dense.shape[1],
    )[0]


def delta(row, cols, values):
    cols = np.asarray(cols, dtype=np.int64)
    pattern = PatternKey(PatternType.DELTA, (8,))
    return Unit(pattern, row, int(cols[0]), cols.size, cols,
                np.asarray(values, dtype=np.float64))


def test_plan_executes_spmv(sym_dense_small, rng):
    units = encode(sym_dense_small)
    plan = compile_plan(units, sym_dense_small.shape[0])
    x = rng.standard_normal(sym_dense_small.shape[1])
    y = np.zeros(sym_dense_small.shape[0])
    plan.execute(x, y)
    assert np.allclose(y, sym_dense_small @ x)


def test_plan_accumulates_not_overwrites(sym_dense_small, rng):
    units = encode(sym_dense_small)
    plan = compile_plan(units, sym_dense_small.shape[0])
    x = rng.standard_normal(sym_dense_small.shape[1])
    y = np.ones(sym_dense_small.shape[0])
    plan.execute(x, y)
    assert np.allclose(y, 1.0 + sym_dense_small @ x)


def test_rows_keep_ctl_order():
    """Inside a row the elements run in unit (ctl) order, then element
    order inside each unit; rows come out ascending."""
    units = [
        Unit(HORIZONTAL, 2, 5, 3, values=np.array([1.0, 2.0, 3.0])),
        Unit(VERTICAL, 1, 1, 3, values=np.array([4.0, 5.0, 6.0])),
        delta(2, [0, 9], [7.0, 8.0]),
    ]
    plan = compile_plan(units, 4)
    rows, cols, vals = plan.triples()
    assert rows.tolist() == [1, 2, 2, 2, 2, 2, 2, 3]
    assert cols.tolist() == [1, 5, 6, 7, 1, 0, 9, 1]
    assert vals.tolist() == [4.0, 1.0, 2.0, 3.0, 5.0, 7.0, 8.0, 6.0]
    assert (plan.row_lo, plan.n_window_rows) == (1, 3)
    assert (plan.col_lo, plan.n_window_cols) == (0, 10)
    assert plan.indptr.dtype == np.int32 and plan.indices.dtype == np.int32


def test_row_sum_runs_in_ctl_order():
    """The row sum is taken in execution order, not column order:
    1e16 + 1 rounds back to 1e16, so only that order gives exactly 0."""
    units = [
        Unit(HORIZONTAL, 0, 2, 2, values=np.array([1e16, 1.0])),
        delta(0, [0], [-1e16]),
    ]
    plan = compile_plan(units, 1)
    y = np.zeros(1)
    plan.execute(np.ones(5), y)
    assert y[0] == 0.0
    Y = np.zeros((1, 3))
    plan.execute(np.ones((5, 3)), Y)
    assert np.array_equal(Y, np.zeros((1, 3)))


def test_spmm_columns_bit_identical_to_spmv(sym_dense_medium, rng):
    plan = compile_plan(encode(np.tril(sym_dense_medium, -1)), 300)
    X = rng.standard_normal((300, 5))
    Y = np.zeros((300, 5))
    plan.execute(X, Y)
    D, L = np.zeros((300, 5)), np.zeros((300, 5))
    plan.execute(X, D, L, 150)
    for j in range(5):
        y, d, loc = np.zeros(300), np.zeros(300), np.zeros(300)
        plan.execute(np.ascontiguousarray(X[:, j]), y)
        plan.execute(np.ascontiguousarray(X[:, j]), d, loc, 150)
        assert np.array_equal(Y[:, j], y)
        assert np.array_equal(D[:, j], d) and np.array_equal(L[:, j], loc)


def test_compile_requires_values():
    u = Unit(HORIZONTAL, 0, 0, 4)
    with pytest.raises(ValueError):
        compile_plan([u], 4)


def _window_plan():
    """Lower-triangular plan whose column window is [10, 30)."""
    n = 40
    dense = np.zeros((n, n))
    rng = np.random.default_rng(0)
    for r in range(31, n):
        for c in rng.choice(np.arange(10, 30), 4, replace=False):
            dense[r, c] = rng.uniform(0.5, 1.0)
    dense[31, 10] = dense[32, 29] = 1.0
    return dense, compile_plan(encode(dense), n)


def test_transposed_split_routing(rng):
    """Transposed writes left of ``boundary`` go local, the rest direct,
    whether the boundary is at or below the column window, inside it,
    or at or past its end. ``x`` is zero on the column window, so the
    row products (always direct) add only zeros."""
    dense, plan = _window_plan()
    assert (plan.col_lo, plan.col_lo + plan.n_window_cols) == (10, 30)
    n = dense.shape[0]
    x = rng.standard_normal(n)
    x[10:30] = 0.0
    expected = dense.T @ x
    for boundary in (0, 10, 11, 20, 29, 30, 35, 40):
        direct = np.zeros(n)
        local = np.zeros(n)
        plan.execute(x, direct, local, boundary)
        assert np.allclose(direct + local, expected)
        assert not local[boundary:].any()
        assert not direct[:boundary].any()
        if boundary <= 10:
            assert not local.any()
        if boundary >= 30:
            assert not direct.any()


def test_transposed_split_zero_boundary(sym_dense_small, rng):
    units = encode(sym_dense_small)
    plan = compile_plan(units, sym_dense_small.shape[0])
    x = rng.standard_normal(sym_dense_small.shape[1])
    direct = np.zeros(sym_dense_small.shape[0])
    plan.execute(x, direct, np.zeros(0), boundary=0)
    assert np.allclose(direct, (sym_dense_small + sym_dense_small.T) @ x)


def test_element_coordinates_cover_all(sym_dense_small):
    units = encode(sym_dense_small)
    plan = compile_plan(units, sym_dense_small.shape[0])
    rows, cols, vals = plan.triples()
    n = sym_dense_small.shape[1]
    got = np.sort(rows * n + cols)
    er, ec = np.nonzero(sym_dense_small)
    want = np.sort(er.astype(np.int64) * n + ec)
    assert np.array_equal(got, want)
    assert np.array_equal(vals, sym_dense_small[rows, cols])
    assert plan.n_elements == want.size


def test_empty_plan():
    plan = compile_plan([], 5)
    y = np.zeros(5)
    plan.execute(np.ones(5), y)
    plan.execute(np.ones(5), y, y, 2)
    assert np.array_equal(y, np.zeros(5))
    rows, cols, vals = plan.triples()
    assert rows.size == 0 and cols.size == 0 and vals.size == 0
    assert plan.n_elements == 0


def test_pickle_round_trip(sym_dense_small, rng):
    plan = compile_plan(encode(sym_dense_small), sym_dense_small.shape[0])
    clone = pickle.loads(pickle.dumps(plan))
    x = rng.standard_normal(sym_dense_small.shape[1])
    y, z = np.zeros(64), np.zeros(64)
    plan.execute(x, y)
    clone.execute(x, z)
    assert np.array_equal(y, z)
