"""Compiled execution plans: the library's stand-in for CSX codegen.

The original CSX emits one LLVM-JIT'ed SpM×V kernel per matrix, so
decoding the ``ctl`` stream costs nothing per element at run time. A
pure-Python per-element interpreter would bury the experiment in
interpreter overhead, so each partition's decoded units compile instead
into one CSR triple over the partition's row and column windows, run by
the native kernel of :mod:`repro.native` (C, GIL released, each index
read once for all ``k`` right-hand sides). This substitution is
recorded in DESIGN.md.

Summation order: inside each row the elements keep their ``ctl``
execution order (units in stream order, run or row-major block order
inside a unit). Each row is summed from zero in that order and the sum
added to ``y``; the transposed writes of CSX-Sym accumulate, row after
row in that order, in a zeroed scratch over the column window, which is
then added to ``y``. The ``k``-column product runs the same sequence of
operations per column, so column ``j`` of an SpMM equals the SpM×V of
``x[:, j]`` bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...native import check_structure, partition_product
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
        check_structure(indptr, indices, data, n_window_cols)
        self.n_rows = n_rows
        self.row_lo = row_lo
        self.col_lo = col_lo
        self.n_window_rows = indptr.size - 1
        self.n_window_cols = n_window_cols
        self.indptr, self.indices, self.data = indptr, indices, data

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

    def execute(
        self,
        x: np.ndarray,
        y: np.ndarray,
        y_local: Optional[np.ndarray] = None,
        boundary: Optional[int] = None,
        diag: Optional[np.ndarray] = None,
        diag_rows: tuple[int, int] = (0, 0),
    ) -> None:
        """Accumulate ``A_plan @ x`` into ``y`` (not cleared here): the
        row products only, as the unsymmetric CSX runs them.

        With a ``boundary``, one fused pass of the symmetric kernel
        (Alg. 3) instead: first ``diag[g] * x[g]`` for ``g`` in
        ``diag_rows``, then the row products, and the transposed writes
        ``y[c] += a_rc * x[r]`` to ``y`` when ``c >= boundary`` and to
        ``y_local`` otherwise (the local/direct split of Section III-B).
        ``x`` may be a vector ``(n,)`` or a block ``(n, k)``.
        """
        partition_product(
            x, y, self.indptr, self.indices, self.data,
            rows=(self.row_lo, self.n_window_rows),
            cols=(self.col_lo, self.n_window_cols), col_base=self.col_lo,
            y_local=y_local, split=boundary or 0, diag=diag,
            diag_rows=diag_rows, symmetric=boundary is not None,
        )


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
