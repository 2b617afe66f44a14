"""Compiled execution plans: the library's stand-in for CSX codegen.

The original CSX emits one LLVM-JIT'ed SpM×V kernel per matrix, so
decoding the ``ctl`` stream costs nothing per element at run time. A
pure-Python per-element interpreter would bury the experiment in
interpreter overhead, so each partition's decoded units compile instead
into one CSR matrix over the partition's row and column windows, run by
scipy's compiled CSR/CSC loops (which release the GIL and read each
index once for all ``k`` right-hand sides). This substitution is
recorded in DESIGN.md.

Summation order: inside each row the elements keep their ``ctl``
execution order (units in stream order, run or row-major block order
inside a unit). :meth:`ExecutionPlan.execute` sums each row from zero in
that order and adds the sum to ``y``; the transposed product sums each
column's writes in row order, then that order. The ``k``-column product
runs the same sequence of operations per column, so column ``j`` of an
SpMM equals the SpM×V of ``x[:, j]`` bit for bit.

``scipy.sparse`` is imported here, on first compile, not at package
import: it costs 16-22 MiB of RSS, which formats and workloads that
never build a CSX plan (SSS, the out-of-core path) should not pay.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .substructures import Unit, UnitArrays

__all__ = ["ExecutionPlan", "compile_plan", "compile_units", "plan_triples"]


class ExecutionPlan:
    """Compiled SpM×V program for one CSX(-Sym) partition.

    ``indptr`` / ``indices`` (int32) and ``data`` (float64) form a CSR
    matrix over rows ``[row_lo, row_lo + n_window_rows)`` and columns
    ``[col_lo, col_lo + n_window_cols)``; ``indices`` are relative to
    ``col_lo``. An empty plan has empty windows.
    """

    def __init__(
        self,
        n_rows: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        row_lo: int = 0,
        col_lo: int = 0,
        n_window_cols: int = 0,
    ):
        self.n_rows = n_rows
        self.row_lo = row_lo
        self.col_lo = col_lo
        self.n_window_rows = indptr.size - 1
        self.n_window_cols = n_window_cols
        self.indptr, self.indices, self.data = indptr, indices, data
        self._wrap()

    def _wrap(self) -> None:
        """Wrap the arrays (no copy) in scipy's CSR matrix and, for the
        transposed half, its CSC transpose."""
        self._csr = self._csc = None
        if self.data.size:
            from scipy.sparse import csr_matrix

            self._csr = csr_matrix(
                (self.data, self.indices, self.indptr),
                shape=(self.n_window_rows, self.n_window_cols),
            )
            self._csc = self._csr.T

    def __getstate__(self):
        # Pickle the arrays once (the process backend ships them
        # out-of-band); the scipy wrappers are rebuilt on load.
        state = self.__dict__.copy()
        del state["_csr"], state["_csc"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._wrap()

    @property
    def n_elements(self) -> int:
        return int(self.data.size)

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every element's ``(row, col, value)``, in plan order (rows
        ascending, ``ctl`` order inside a row); int64 coordinates."""
        rows = np.repeat(
            np.arange(self.row_lo, self.row_lo + self.n_window_rows),
            np.diff(self.indptr),
        )
        return rows, self.indices + np.int64(self.col_lo), self.data

    def execute(self, x: np.ndarray, y: np.ndarray) -> None:
        """Accumulate ``A_plan @ x`` into ``y`` (not cleared here).

        ``x`` may be a vector ``(n,)`` or a multi-RHS block ``(n, k)``
        (with matching ``y``).
        """
        if self._csr is None:
            return
        y[self.row_lo:self.row_lo + self.n_window_rows] += self._csr @ x[
            self.col_lo:self.col_lo + self.n_window_cols
        ]

    def execute_transposed_split(
        self,
        x: np.ndarray,
        y_direct: np.ndarray,
        y_local: np.ndarray,
        boundary: int,
    ) -> None:
        """Accumulate the *transposed* products ``A_plan^T @ x`` routing
        each write ``y[c] += a_rc * x[r]`` to ``y_direct`` when
        ``c >= boundary`` and to ``y_local`` otherwise.

        This is the upper-triangle half of the symmetric kernel
        (Alg. 3 line 8) with the local/direct split of Section III-B:
        one CSC product over the column window, split at ``boundary``.

        Accepts a vector ``(n,)`` or a multi-RHS block ``(n, k)``.
        """
        if self._csr is None:
            return
        w = self._csc @ x[self.row_lo:self.row_lo + self.n_window_rows]
        lo, hi = self.col_lo, self.col_lo + self.n_window_cols
        split = min(max(boundary, lo), hi)
        if split > lo:
            y_local[lo:split] += w[:split - lo]
        if split < hi:
            y_direct[split:hi] += w[split - lo:]


def compile_units(units: UnitArrays, n_rows: int) -> ExecutionPlan:
    """Compile units into one CSR :class:`ExecutionPlan`, elements in
    ``ctl`` execution order inside each row. The units must carry
    values."""
    if units.values is None:
        raise ValueError("cannot compile units without values")
    if units.values.size != units.n_elements:
        raise ValueError("unit values do not match unit lengths")
    if units.n_units == 0:
        return ExecutionPlan(
            n_rows, np.zeros(1, np.int32), np.zeros(0, np.int32),
            np.zeros(0),
        )
    rows, cols = units.coordinates()
    row_lo, col_lo = int(rows.min()), int(cols.min())
    n_window_rows = int(rows.max()) + 1 - row_lo
    n_window_cols = int(cols.max()) + 1 - col_lo
    if max(rows.size, n_window_cols) > np.iinfo(np.int32).max:
        raise ValueError("plan too large for int32 indices")
    # Stable: elements keep their execution order inside a row.
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n_window_rows + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(rows - row_lo))
    indices = (cols[order] - col_lo).astype(np.int32)
    return ExecutionPlan(
        n_rows, indptr, indices, units.values[order], row_lo, col_lo,
        n_window_cols,
    )


def compile_plan(units: Sequence[Unit], n_rows: int) -> ExecutionPlan:
    """:func:`compile_units` for a :class:`Unit` list.

    Units must carry values (i.e. come from the encoder, or have values
    re-attached after a ctl decode).
    """
    return compile_units(UnitArrays.from_units(units), n_rows)


def plan_triples(
    plans: Sequence[ExecutionPlan],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :meth:`ExecutionPlan.triples` of ``plans``, concatenated."""
    parts = [p.triples() for p in plans]
    if not parts:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    rows, cols, vals = zip(*parts)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
