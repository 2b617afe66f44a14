"""Symmetric Sparse Skyline (SSS) storage (paper Section II-B).

SSS stores a symmetric matrix as a separate dense main-diagonal array
``dvalues`` plus the *strictly lower* triangle in CSR form. Size follows
eq. (2): ``S_SSS = 6*(NNZ + N) + 4`` for a matrix with ``NNZ`` logical
non-zeros (both triangles, full diagonal) of rank ``N``.

The partition kernel used by the multithreaded algorithms (Alg. 3) is
the native fused kernel of :mod:`repro.native`: one pass over the
partition's stored rows that sums each row and routes each transposed
contribution either directly into the output vector (inside the
thread's own row range) or into the thread's local vector (rows before
the partition), which is the behaviour the three reduction methods of
Section III build upon. The serial kernel (Alg. 2) is the partition
``[0, N)``, and the ``k``-column kernels read each index once for all
columns.
"""

from __future__ import annotations

import numpy as np

from ..native import partition_product
from .base import INDEX_BYTES, VALUE_BYTES, SymmetricFormat
from .coo import COOMatrix
from .validate import SymmetryError

__all__ = ["SSSMatrix"]


class SSSMatrix(SymmetricFormat):
    """Sparse Symmetric Skyline storage of a symmetric matrix.

    Parameters
    ----------
    shape : (int, int) — must be square.
    dvalues : float64 array of length ``N`` (dense main diagonal; zeros
        allowed for structurally missing diagonal entries).
    rowptr, colind, values : CSR triple of the strictly lower triangle.
    """

    format_name = "sss"

    def __init__(
        self,
        shape: tuple[int, int],
        dvalues: np.ndarray,
        rowptr: np.ndarray,
        colind: np.ndarray,
        values: np.ndarray,
    ):
        super().__init__(shape)
        self.attach(dvalues, rowptr, colind, values)

    def attach(
        self,
        dvalues: np.ndarray,
        rowptr: np.ndarray,
        colind: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Validate the four arrays against the matrix's shape and hold
        them (the constructor runs this). A matrix whose arrays were
        dropped by :meth:`detach` takes them back this way."""
        dvalues = np.ascontiguousarray(dvalues, dtype=np.float64)
        rowptr = np.ascontiguousarray(rowptr, dtype=np.int32)
        colind = np.ascontiguousarray(colind, dtype=np.int32)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if dvalues.shape != (self.n_rows,):
            raise ValueError("dvalues must have length N")
        if rowptr.shape != (self.n_rows + 1,):
            raise ValueError("rowptr must have length N+1")
        if rowptr[0] != 0 or rowptr[-1] != colind.size:
            raise ValueError("rowptr must start at 0 and end at nnz(lower)")
        counts = np.diff(rowptr)
        if np.any(counts < 0):
            raise ValueError("rowptr must be non-decreasing")
        if colind.shape != values.shape or colind.ndim != 1:
            raise ValueError("colind/values length mismatch")
        # _col_floor[r]: the smallest column stored in rows >= r (r when
        # none is), so a partition starting at row r scatters its
        # transposed writes inside [_col_floor[r], row_end). An
        # execution aid of N + 1 entries, not counted in size_bytes().
        tail = np.minimum.accumulate(colind[::-1])[::-1]
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int32), counts)
        if colind.size and (tail[0] < 0 or np.any(colind >= rows)):
            raise ValueError("SSS off-diagonal entries must be strictly lower")
        self._col_floor = np.minimum(
            np.arange(self.n_rows + 1, dtype=np.int32),
            np.append(tail, np.int32(self.n_rows))[rowptr],
        )
        self.dvalues = dvalues
        self.rowptr = rowptr
        self.colind = colind
        self.values = values

    def detach(self) -> None:
        """Drop the arrays (and the column floor derived from them)
        until the next :meth:`attach`; the matrix cannot multiply in
        between."""
        self.dvalues = self.rowptr = self.colind = self.values = None
        self._col_floor = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, *, check_symmetry: bool = True) -> "SSSMatrix":
        """Build from an (expanded) symmetric COO matrix."""
        if check_symmetry and not coo.is_symmetric():
            raise SymmetryError("matrix is not symmetric; SSS requires symmetry")
        lower = coo.lower_triangle(strict=True)
        counts = np.bincount(lower.rows, minlength=coo.n_rows)
        rowptr = np.zeros(coo.n_rows + 1, dtype=np.int32)
        np.cumsum(counts, out=rowptr[1:])
        return cls(coo.shape, coo.diagonal(), rowptr, lower.cols, lower.vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SSSMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Logical non-zeros of the expanded matrix."""
        return int(2 * self.values.size + np.count_nonzero(self.dvalues))

    @property
    def stored_entries(self) -> int:
        """Explicit value entries: N diagonal slots + lower triangle."""
        return int(self.n_rows + self.values.size)

    @property
    def nnz_lower(self) -> int:
        """Stored strictly-lower entries, ``(NNZ - N) / 2`` in the paper."""
        return int(self.values.size)

    def size_bytes(self) -> int:
        """Paper eq. (2): ``8N + 12*(NNZ-N)/2 + 4*(N+1) = 6(NNZ+N) + 4``."""
        return (
            self.n_rows * VALUE_BYTES
            + self.nnz_lower * (VALUE_BYTES + INDEX_BYTES)
            + (self.n_rows + 1) * INDEX_BYTES
        )

    def spmv_partition(
        self,
        x: np.ndarray,
        y_direct: np.ndarray,
        y_local: np.ndarray,
        row_start: int,
        row_end: int,
    ) -> None:
        """Partition kernel for Alg. 3 (one thread's multiplication phase).

        Stored rows ``[row_start, row_end)`` are computed. Row results and
        transposed contributions landing inside the partition accumulate
        into ``y_direct``; transposed contributions to rows before
        ``row_start`` go to ``y_local``. Takes ``(n,)`` or ``(n, k)``
        operands; the ``k``-column kernel reads each index once.
        """
        if not 0 <= row_start <= row_end <= self.n_rows:
            raise ValueError(
                f"partition ({row_start}, {row_end}) outside [0, {self.n_rows})"
            )
        col_lo = int(self._col_floor[row_start])
        partition_product(
            x, y_direct, self.rowptr, self.colind, self.values,
            rows=(row_start, row_end - row_start),
            cols=(col_lo, row_end - col_lo), col_base=0, first=row_start,
            y_local=y_local, split=row_start,
            diag=self.dvalues, diag_rows=(row_start, row_end),
        )

    spmm_partition = spmv_partition  # the kernel takes (n, k) blocks

    def lower_triple(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy lower-triangle CSR view — SSS *is* the triple."""
        return self.dvalues, self.rowptr, self.colind, self.values

    def to_coo(self) -> COOMatrix:
        """Expand to a full (both-triangle) COO matrix."""
        diag_rows = np.flatnonzero(self.dvalues).astype(np.int32)
        lower_rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int32), np.diff(self.rowptr)
        )
        rows = np.concatenate([lower_rows, self.colind, diag_rows])
        cols = np.concatenate([self.colind, lower_rows, diag_rows])
        vals = np.concatenate(
            [self.values, self.values, self.dvalues[diag_rows]]
        )
        return COOMatrix(self.shape, rows, cols, vals, sum_duplicates=False)

    # ------------------------------------------------------------------
    # Partition structure queries (used by the reduction machinery)
    # ------------------------------------------------------------------
    def partition_conflict_rows(self, row_start: int, row_end: int) -> np.ndarray:
        """Sorted unique output rows *before* ``row_start`` that the
        partition's transposed contributions write to.

        These are exactly the non-zero elements of the partition's local
        vector — the quantity the local-vectors indexing scheme of
        Section III-C indexes.
        """
        lo, hi = self.rowptr[row_start], self.rowptr[row_end]
        cols = self.colind[lo:hi]
        return np.unique(cols[cols < row_start]).astype(np.int64)

    def expanded_row_nnz(self) -> np.ndarray:
        """Logical non-zeros per row of the expanded matrix (used by the
        nnz-balanced partitioner so thread loads match the real work)."""
        counts = np.diff(self.rowptr).astype(np.int64)
        counts += np.bincount(
            self.colind, minlength=self.n_rows
        ).astype(np.int64)
        counts += (self.dvalues != 0.0).astype(np.int64)
        return counts
