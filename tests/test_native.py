"""The native symmetric kernel (``repro.native`` / ``symkernel.c``).

Checked against a dense oracle over the partition shapes the drivers
produce (empty rows, empty partitions, the out-of-core leading
partition, the local/direct split at every column-window edge), against
the two-pass ``scipy`` product it replaced (bit for bit), through every
guard of its wrapper, and through the compile-and-cache path in fresh
interpreters.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import native
from repro.formats import CSXSymMatrix, SSSMatrix
from repro.formats.coo import COOMatrix
from repro.matrices.suite import get_entry

SRC = str(Path(repro.__file__).resolve().parents[1])
KS = (None, 1, 2, 3, 8)


def _sym_dense(n: int, seed: int, empty_rows=(), lead: int = 0) -> np.ndarray:
    """Random symmetric matrix; ``empty_rows`` store no lower entry and
    rows below ``lead`` none either (the out-of-core shard shape: the
    leading rows are only reached through later rows' columns)."""
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.standard_normal((n, n)), -1)
    lower[rng.random((n, n)) < 0.6] = 0.0
    lower[list(empty_rows), :] = 0.0
    lower[:lead, :] = 0.0
    if lead:
        lower[lead:, :lead] = rng.standard_normal((n - lead, lead))
    return lower + lower.T + np.diag(rng.uniform(1.0, 2.0, n))


def _operand(n: int, k, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n if k is None else (n, k))


def _check_partition(matrix, dense, x, start, end):
    """One partition against the dense oracle: rows and diagonal go
    direct, transposed writes left of ``start`` local, the rest direct."""
    direct, local = np.zeros_like(x), np.zeros_like(x)
    matrix.spmv_partition(x, direct, local, start, end)
    block = np.tril(dense)
    block[:start] = block[end:] = 0.0
    full = block + np.tril(block, -1).T
    expect = full @ x
    assert not local[start:].any()
    assert not direct[:start].any() and not direct[end:].any()
    assert np.allclose(direct + local, expect, rtol=1e-13, atol=1e-13)
    return direct, local


PARTITIONINGS = {
    "empty_rows": (dict(empty_rows=(0, 3, 4, 11, 17)),
                   [(0, 5), (5, 5), (5, 12), (12, 24)]),
    "ooc_lead": (dict(lead=6), [(0, 6), (6, 15), (15, 24)]),
    "single": ({}, [(0, 24)]),
}


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("fmt", ["sss", "csx-sym"])
@pytest.mark.parametrize("case", sorted(PARTITIONINGS))
def test_partitions_match_dense_oracle(case, fmt, k):
    kwargs, parts = PARTITIONINGS[case]
    dense = _sym_dense(24, seed=len(case), **kwargs)
    coo = COOMatrix.from_dense(dense)
    matrix = (
        SSSMatrix.from_coo(coo) if fmt == "sss"
        else CSXSymMatrix(coo, partitions=parts)
    )
    x = _operand(24, k)
    total = np.zeros_like(x)
    for start, end in parts:
        direct, local = _check_partition(matrix, dense, x, start, end)
        total += direct + local
    assert np.allclose(total, dense @ x, rtol=1e-13, atol=1e-13)
    serial = matrix.spmv(x) if k is None else matrix.spmm(x)
    assert np.allclose(serial, dense @ x, rtol=1e-13, atol=1e-13)


def _window_csr(seed: int = 0):
    """Rows [30, 40) over the column window [10, 30), with an empty
    row, as one CSR triple (indices relative to column 10)."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((40, 40))
    for r in range(30, 40):
        if r == 33:
            continue
        cols = rng.choice(np.arange(10, 30), 5, replace=False)
        dense[r, cols] = rng.uniform(-1.0, 1.0, 5)
    dense[30, 10] = dense[39, 29] = 1.5
    sub = dense[30:40, 10:30]
    indptr = np.zeros(11, np.int32)
    indptr[1:] = np.cumsum((sub != 0).sum(axis=1))
    indices = np.nonzero(sub)[1].astype(np.int32)
    return dense, indptr, indices, sub[sub != 0]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("split", [0, 9, 10, 11, 20, 29, 30, 31, 40])
def test_split_at_every_window_edge(split, k):
    dense, indptr, indices, data = _window_csr()
    x = _operand(40, k)
    direct, local = np.zeros_like(x), np.zeros_like(x)
    native.partition_product(
        x, direct, indptr, indices, data, rows=(30, 10), cols=(10, 20),
        col_base=10, y_local=local, split=split,
    )
    rows = dense @ x
    trans = dense.T @ x
    expect_local = np.where(
        (np.arange(40) < split).reshape(-1, *([1] * (x.ndim - 1))), trans, 0
    )
    assert np.allclose(local, expect_local, rtol=1e-14, atol=1e-14)
    assert np.allclose(direct, rows + trans - expect_local,
                       rtol=1e-14, atol=1e-14)


def test_row_only_kernel_leaves_columns_alone():
    dense, indptr, indices, data = _window_csr()
    x = _operand(40, None)
    y = np.zeros(40)
    native.partition_product(
        x, y, indptr, indices, data, rows=(30, 10), cols=(10, 20),
        col_base=10, symmetric=False,
    )
    assert np.allclose(y, dense @ x, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("fmt", ["sss", "csx-sym"])
def test_spmm_columns_bit_identical_to_spmv(fmt):
    dense = _sym_dense(60, seed=7, empty_rows=(2, 30))
    coo = COOMatrix.from_dense(dense)
    parts = [(0, 20), (20, 41), (41, 60)]
    matrix = (
        SSSMatrix.from_coo(coo) if fmt == "sss"
        else CSXSymMatrix(coo, partitions=parts)
    )
    X = _operand(60, 8)
    for start, end in parts:
        D, L = np.zeros_like(X), np.zeros_like(X)
        matrix.spmm_partition(X, D, L, start, end)
        for j in range(8):
            d, loc = np.zeros(60), np.zeros(60)
            matrix.spmv_partition(X[:, j], d, loc, start, end)
            assert np.array_equal(D[:, j], d)
            assert np.array_equal(L[:, j], loc)
    Y = matrix.spmm(X)
    for j in range(8):
        assert np.array_equal(Y[:, j], matrix.spmv(X[:, j]))


def _two_pass_scipy(csxs, x, start, end):
    """The CSX-Sym partition product as the scipy plan ran it: the
    diagonal, ``csr @ x`` over the windows, then the CSC view's
    ``csr.T @ x`` split at ``start``."""
    from scipy.sparse import csr_matrix

    plan = csxs.partitions[csxs.partition_bounds.index((start, end))].plan
    direct, local = np.zeros_like(x), np.zeros_like(x)
    diag = csxs.dvalues[start:end]
    direct[start:end] += (diag if x.ndim == 1 else diag[:, None]) * x[start:end]
    if plan.n_elements:
        csr = csr_matrix(
            (plan.data, plan.indices, plan.indptr),
            shape=(plan.n_window_rows, plan.n_window_cols),
        )
        rlo, rhi = plan.row_lo, plan.row_lo + plan.n_window_rows
        clo, chi = plan.col_lo, plan.col_lo + plan.n_window_cols
        direct[rlo:rhi] += csr @ x[clo:chi]
        w = csr.T @ x[rlo:rhi]
        split = min(max(start, clo), chi)
        local[clo:split] += w[:split - clo]
        direct[split:chi] += w[split - clo:]
    return direct, local


@pytest.mark.parametrize("k", [None, 3])
def test_csx_sym_bit_identical_to_two_pass_scipy(k):
    coo = get_entry("bmw7st_1").build(0.01)
    n = coo.n_rows
    parts = [(0, n // 3), (n // 3, n // 2), (n // 2, n)]
    csxs = CSXSymMatrix(coo, partitions=parts)
    # Long rows: the order of each row sum and column scatter matters.
    assert coo.nnz / n > 16
    x = _operand(n, k)
    for start, end in parts:
        direct, local = np.zeros_like(x), np.zeros_like(x)
        csxs.spmv_partition(x, direct, local, start, end)
        ref_direct, ref_local = _two_pass_scipy(csxs, x, start, end)
        assert np.array_equal(direct, ref_direct)
        assert np.array_equal(local, ref_local)


# ---------------------------------------------------------------------
# Wrapper guards: raise, or copy an input vector; never read past an end
# ---------------------------------------------------------------------
def _call(**over):
    dense, indptr, indices, data = _window_csr()
    args = dict(
        x=np.ones(40), y_direct=np.zeros(40), indptr=indptr,
        indices=indices, data=data, rows=(30, 10), cols=(10, 20),
        col_base=10, y_local=np.zeros(40), split=20,
    )
    args.update(over)
    native.partition_product(**args)
    return args


BAD = {
    "indices_int64": lambda a: dict(indices=a["indices"].astype(np.int64)),
    "indptr_int64": lambda a: dict(indptr=a["indptr"].astype(np.int64)),
    "data_float32": lambda a: dict(data=a["data"].astype(np.float32)),
    "indices_strided": lambda a: dict(
        indices=np.repeat(a["indices"], 2)[::2]
    ),
    "data_strided": lambda a: dict(data=np.repeat(a["data"], 2)[::2]),
    "indptr_short": lambda a: dict(indptr=a["indptr"][:-1]),
    "indptr_past_indices": lambda a: dict(
        indices=a["indices"][:-1], data=a["data"][:-1]
    ),
    "x_short": lambda a: dict(x=np.ones(39)),
    "x_2d_for_1d_out": lambda a: dict(x=np.ones((40, 2))),
    "y_direct_short": lambda a: dict(y_direct=np.zeros(39)),
    "y_direct_strided": lambda a: dict(y_direct=np.zeros(80)[::2]),
    "y_direct_float32": lambda a: dict(y_direct=np.zeros(40, np.float32)),
    "y_direct_readonly": lambda a: dict(
        y_direct=np.lib.stride_tricks.as_strided(np.zeros(40),
                                                 writeable=False)
    ),
    "y_local_short": lambda a: dict(y_local=np.zeros(19)),
    "y_local_missing": lambda a: dict(y_local=None),
    "y_local_strided": lambda a: dict(y_local=np.zeros(80)[::2]),
    "diag_short": lambda a: dict(diag=np.ones(35), diag_rows=(30, 40)),
    "diag_missing": lambda a: dict(diag_rows=(30, 40)),
    "negative_window": lambda a: dict(cols=(-1, 21)),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_wrapper_guard_raises(case):
    _, indptr, indices, data = _window_csr()
    base = dict(indptr=indptr, indices=indices, data=data)
    with pytest.raises(ValueError):
        _call(**BAD[case](base))


def test_y_local_unused_may_be_short():
    # Split at or below the column window: nothing goes local.
    _call(y_local=np.zeros(0), split=10)


@pytest.mark.parametrize(
    "x",
    [np.arange(80.0)[::2], np.arange(40, dtype=np.float32),
     np.arange(40, dtype=np.int64)],
    ids=["strided", "float32", "int64"],
)
def test_wrapper_copies_input_vector(x):
    ref = _call(x=np.ascontiguousarray(x, dtype=np.float64))
    got = _call(x=x)
    assert np.array_equal(got["y_direct"], ref["y_direct"])
    assert np.array_equal(got["y_local"], ref["y_local"])


def test_strided_column_of_block_is_copied():
    dense = _sym_dense(30, seed=2)
    sss = SSSMatrix.from_dense(dense)
    X = _operand(30, 4)
    assert np.array_equal(
        sss.spmv(X[:, 1]), sss.spmv(np.ascontiguousarray(X[:, 1]))
    )


def test_structure_checked_at_construction():
    indptr = np.array([0, 2, 1], np.int32)
    with pytest.raises(ValueError, match="invalid CSR structure"):
        native.check_structure(indptr, np.zeros(1, np.int32), np.zeros(1), 4)
    ok = np.array([0, 1, 2], np.int32)
    with pytest.raises(ValueError, match="invalid CSR structure"):
        native.check_structure(ok, np.array([0, 4], np.int32),
                               np.zeros(2), 4)
    with pytest.raises(ValueError, match="invalid CSR structure"):
        native.check_structure(ok, np.array([-1, 0], np.int32),
                               np.zeros(2), 4)
    with pytest.raises(ValueError, match="strictly lower"):
        SSSMatrix((3, 3), np.ones(3), [0, 0, 1, 2], [1, 0], [1.0, 1.0])
    with pytest.raises(ValueError, match="strictly lower"):
        SSSMatrix((3, 3), np.ones(3), [0, 0, 1, 2], [-1, 0], [1.0, 1.0])
    with pytest.raises(ValueError, match="non-decreasing"):
        SSSMatrix((3, 3), np.ones(3), [0, 1, 0, 2], [0, 0], [1.0, 1.0])


# ---------------------------------------------------------------------
# Compile and cache, in fresh interpreters
# ---------------------------------------------------------------------
def _env(cache: Path, path: str = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["XDG_CACHE_HOME"] = str(cache)
    if path is not None:
        env["PATH"] = path
    return env


_LOAD = textwrap.dedent("""
    import numpy as np
    from repro.formats import SSSMatrix
    sss = SSSMatrix.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert sss.spmv(np.ones(2)).tolist() == [3.0, 3.0]
""")


def test_missing_compiler_raises_named_error(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _LOAD], env=_env(tmp_path, path=""),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "NativeKernelError" in out.stderr
    assert f"{native.COMPILER!r} was not found on PATH" in out.stderr
    assert not (tmp_path / "repro").exists()


def test_racing_processes_share_one_library(tmp_path):
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _LOAD], env=_env(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    files = sorted(p.name for p in (tmp_path / "repro").iterdir())
    assert len(files) == 1 and files[0].startswith("symkernel-")
    assert files[0].endswith(".so")


# ---------------------------------------------------------------------
# The coloring strategy's conflict-free batch kernel
# ---------------------------------------------------------------------
def _numpy_batch(seg, x, y):
    """The NumPy batch kernel the native one replaced: row sums by
    ``bincount``, ``y[rows] += diag * x[rows] + sums``, then the
    transposed writes ``y[cols] += vals * x[row]`` (targets unique)."""
    lens = np.diff(seg.ptr)
    erows = np.repeat(seg.rows, lens)
    local = np.repeat(np.arange(seg.rows.size), lens)
    k = x.shape[1:]
    prod = seg.vals.reshape(-1, *([1] * len(k))) * x[seg.cols]
    acc = np.zeros((seg.rows.size,) + k)
    np.add.at(acc, local, prod)  # sequential per row, from zero
    d = seg.diag.reshape(-1, *([1] * len(k)))
    y[seg.rows] += d * x[seg.rows] + acc
    y[seg.cols] += seg.vals.reshape(-1, *([1] * len(k))) * x[erows]


@pytest.mark.parametrize("k", [None, 3])
def test_coloring_batches_bit_identical_to_numpy_reference(k):
    from repro.parallel.coloring import build_coloring_schedule

    coo = get_entry("bmw7st_1").build(0.01)
    sss = SSSMatrix.from_coo(coo)
    schedule = build_coloring_schedule(sss, 2)
    x = _operand(coo.n_rows, k)
    y, ref = np.zeros_like(x), np.zeros_like(x)
    segments = [s for step in schedule.steps for t in step for s in t]
    assert any(np.diff(s.ptr).max(initial=0) >= 8 for s in segments)
    for seg in segments:
        seg.apply(x, y)
        _numpy_batch(seg, x, ref)
    assert np.array_equal(y, ref)
    assert np.allclose(y, coo.to_dense() @ x, rtol=1e-12, atol=1e-12)


def test_batch_guards_raise():
    from repro.parallel.coloring import build_coloring_schedule

    sss = SSSMatrix.from_dense(_sym_dense(20, seed=4))
    seg = build_coloring_schedule(sss, 1).steps[0][0][0]
    x = np.ones(20)
    for bad in (
        dict(y=np.zeros(19)), dict(y=np.zeros(40)[::2]),
        dict(x=np.ones(19), y=np.zeros(19)),
        dict(rows=seg.rows.astype(np.int32)),
        dict(ptr=seg.ptr[:-1]), dict(diag=seg.diag[:-1]),
        dict(cols=seg.cols[:-1]),
    ):
        args = dict(x=x, y=np.zeros(20), rows=seg.rows, ptr=seg.ptr,
                    cols=seg.cols, vals=seg.vals, diag=seg.diag,
                    extent=seg.extent)
        args.update(bad)
        with pytest.raises(ValueError):
            native.batch_product(**args)
