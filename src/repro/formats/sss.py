"""Symmetric Sparse Skyline (SSS) storage (paper Section II-B).

SSS stores a symmetric matrix as a separate dense main-diagonal array
``dvalues`` plus the *strictly lower* triangle in CSR form. Size follows
eq. (2): ``S_SSS = 6*(NNZ + N) + 4`` for a matrix with ``NNZ`` logical
non-zeros (both triangles, full diagonal) of rank ``N``.

The serial kernel is Alg. 2; the partition kernel used by the
multithreaded algorithms (Alg. 3) routes transposed contributions either
directly into the output vector (inside the thread's own row range) or
into the thread's local vector (rows before the partition), which is the
behaviour the three reduction methods of Section III build upon.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from ..obs.tracer import active as _active_tracer
from .base import (
    INDEX_BYTES,
    VALUE_BYTES,
    RowScatter,
    SymmetricFormat,
    bounded_cache_insert,
)
from .coo import COOMatrix
from .csr import csr_row_segment_sums
from .validate import SymmetryError

__all__ = ["SSSMatrix", "PART_SPLIT_CACHE_MAX"]

#: Cap on cached per-partition local/direct scatter splits (keyed by
#: partition bounds; oldest evicted beyond this, so repartitioning a
#: long-lived matrix cannot grow the cache without bound).
PART_SPLIT_CACHE_MAX = 256


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
        dvalues = np.asarray(dvalues, dtype=np.float64)
        rowptr = np.asarray(rowptr, dtype=np.int32)
        colind = np.asarray(colind, dtype=np.int32)
        values = np.asarray(values, dtype=np.float64)
        if dvalues.shape != (self.n_rows,):
            raise ValueError("dvalues must have length N")
        if rowptr.shape != (self.n_rows + 1,):
            raise ValueError("rowptr must have length N+1")
        if rowptr[0] != 0 or rowptr[-1] != colind.size:
            raise ValueError("rowptr must start at 0 and end at nnz(lower)")
        if np.any(np.diff(rowptr) < 0):
            raise ValueError("rowptr must be non-decreasing")
        if colind.shape != values.shape:
            raise ValueError("colind/values length mismatch")
        self.dvalues = dvalues
        self.rowptr = rowptr
        self.colind = colind
        self.values = values
        # Row index of each stored (strictly lower) entry; an execution
        # aid for the vectorized scatter, not counted in size_bytes().
        self._rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int32), np.diff(rowptr)
        )
        if colind.size and np.any(colind >= self._rows):
            raise ValueError("SSS off-diagonal entries must be strictly lower")
        # Lazy spmm scatter compilations (whole matrix / per partition).
        # Mutations (miss-path build, bounded eviction, clear_caches)
        # run under the cache lock so concurrent bind()/apply from
        # several operators sharing this matrix cannot corrupt the
        # dicts; hit paths read lock-free and keep local references.
        self._spmm_scatter: Optional[RowScatter] = None
        self._spmm_part_cache: dict[tuple[int, int], tuple] = {}
        self._cache_lock = threading.Lock()

    def __getstate__(self):
        # Locks are unpicklable; the process backend ships the matrix
        # to workers through the shared arena. Workers get their own.
        state = self.__dict__.copy()
        del state["_cache_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()

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

    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        """Serial symmetric SpM×V (Alg. 2), vectorized."""
        x, y = self._check_spmv_args(x, y)
        y[:] = self.dvalues * x
        if self.values.size:
            products = self.values * x[self.colind]
            y += csr_row_segment_sums(products, self.rowptr, 0, self.n_rows)
            # Transposed (upper-triangle) contributions: y[c] += a_rc * x[r].
            np.add.at(y, self.colind, self.values * x[self._rows])
        return y

    def spmm(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Multi-RHS symmetric product: one pass over the stored lower
        triangle serves all ``k`` columns (direct and transposed halves
        alike), so the ``6(NNZ+N)`` matrix bytes are streamed once."""
        X, Y = self._check_spmm_args(X, Y)
        Y[:] = self.dvalues[:, None] * X
        if self.values.size:
            products = self.values[:, None] * X[self.colind]
            Y += csr_row_segment_sums(products, self.rowptr, 0, self.n_rows)
            scatter = self._spmm_scatter
            if scatter is None:
                with self._cache_lock:
                    scatter = self._spmm_scatter
                    if scatter is None:
                        scatter = RowScatter(self.colind)
                        self._spmm_scatter = scatter
            scatter.add(Y, self.values[:, None] * X[self._rows])
        return Y

    def spmm_partition(
        self,
        X: np.ndarray,
        Y_direct: np.ndarray,
        Y_local: np.ndarray,
        row_start: int,
        row_end: int,
    ) -> None:
        """Multi-RHS partition kernel: :meth:`spmv_partition` with
        ``(n, k)`` operands, one structure traversal for all columns."""
        lo, hi = self.rowptr[row_start], self.rowptr[row_end]
        sl = slice(row_start, row_end)
        Y_direct[sl] += self.dvalues[sl, None] * X[sl]
        if hi == lo:
            return
        cols = self.colind[lo:hi]
        vals = self.values[lo:hi]
        products = vals[:, None] * X[cols]
        Y_direct[sl] += csr_row_segment_sums(
            products, self.rowptr, row_start, row_end
        )
        transposed = vals[:, None] * X[self._rows[lo:hi]]
        local_pos, local_sc, direct_pos, direct_sc = self._partition_split(
            row_start, row_end
        )
        if local_pos.size == 0:
            direct_sc.add(Y_direct, transposed)
            return
        local_sc.add(Y_local, transposed[local_pos])
        if direct_pos.size:
            direct_sc.add(Y_direct, transposed[direct_pos])

    def _partition_split(
        self, row_start: int, row_end: int
    ) -> tuple[np.ndarray, RowScatter, np.ndarray, RowScatter]:
        """Cached local/direct split of one partition's transposed
        writes: positions of entries with column < / >= ``row_start``
        plus the window-restricted scatters through them (shared by the
        1-D and multi-RHS partition kernels)."""
        key = (row_start, row_end)
        # Lock-free hit path; the tuple is immutable once built, so a
        # concurrent eviction only affects dict membership, never this
        # local reference.
        cache = self._spmm_part_cache.get(key)
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.count(
                "sss.part_split_hit" if cache is not None
                else "sss.part_split_miss"
            )
        if cache is None:
            with self._cache_lock:
                cache = self._spmm_part_cache.get(key)
                if cache is None:
                    lo, hi = self.rowptr[row_start], self.rowptr[row_end]
                    cols = self.colind[lo:hi]
                    local_pos = np.flatnonzero(cols < row_start)
                    direct_pos = np.flatnonzero(cols >= row_start)
                    cache = (
                        local_pos,
                        RowScatter(cols[local_pos]),
                        direct_pos,
                        RowScatter(cols[direct_pos]),
                    )
                    bounded_cache_insert(
                        self._spmm_part_cache, key, cache,
                        PART_SPLIT_CACHE_MAX,
                    )
        return cache

    def precompile_partition(
        self, row_start: int, row_end: int, k: Optional[int] = None
    ) -> None:
        """Build the partition's split and scatters (plus the flattened
        ``k``-RHS indices) ahead of the first kernel call. A partition
        without stored entries has nothing to build: its kernel returns
        before the split."""
        if self.rowptr[row_start] == self.rowptr[row_end]:
            return
        _, local_sc, _, direct_sc = self._partition_split(row_start, row_end)
        local_sc.compile(k)
        direct_sc.compile(k)

    def clear_caches(self) -> None:
        """Release the lazy scatter compilations (rebuilt on demand).
        Safe against concurrent kernel calls: they hold local
        references to whatever was compiled when they started."""
        with self._cache_lock:
            self._spmm_scatter = None
            self._spmm_part_cache.clear()

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
        ``row_start`` go to ``y_local``. The transposed scatters run
        through the cached local/direct split, window-restricted to each
        side's effective column range.
        """
        lo, hi = self.rowptr[row_start], self.rowptr[row_end]
        sl = slice(row_start, row_end)
        y_direct[sl] += self.dvalues[sl] * x[sl]
        if hi == lo:
            return
        cols = self.colind[lo:hi]
        vals = self.values[lo:hi]
        products = vals * x[cols]
        y_direct[sl] += csr_row_segment_sums(
            products, self.rowptr, row_start, row_end
        )
        transposed = vals * x[self._rows[lo:hi]]
        local_pos, local_sc, direct_pos, direct_sc = self._partition_split(
            row_start, row_end
        )
        if local_pos.size == 0:
            direct_sc.add(y_direct, transposed)
            return
        local_sc.add(y_local, transposed[local_pos])
        if direct_pos.size:
            direct_sc.add(y_direct, transposed[direct_pos])

    def lower_triple(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy lower-triangle CSR view — SSS *is* the triple."""
        return self.dvalues, self.rowptr, self.colind, self.values

    def to_coo(self) -> COOMatrix:
        """Expand to a full (both-triangle) COO matrix."""
        diag_rows = np.flatnonzero(self.dvalues).astype(np.int32)
        rows = np.concatenate([self._rows, self.colind, diag_rows])
        cols = np.concatenate([self.colind, self._rows, diag_rows])
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

    def row_nnz_lower(self) -> np.ndarray:
        """Stored (strictly lower) entries per row."""
        return np.diff(self.rowptr).astype(np.int64)

    def expanded_row_nnz(self) -> np.ndarray:
        """Logical non-zeros per row of the expanded matrix (used by the
        nnz-balanced partitioner so thread loads match the real work)."""
        counts = np.diff(self.rowptr).astype(np.int64)
        counts += np.bincount(
            self.colind, minlength=self.n_rows
        ).astype(np.int64)
        counts += (self.dvalues != 0.0).astype(np.int64)
        return counts
