"""Common interface for sparse matrix storage formats.

Every storage format in :mod:`repro.formats` implements
:class:`SparseFormat`: a container exposing the logical matrix shape and
non-zero count, a serial SpM×V kernel, and exact in-memory size accounting
(the quantity the paper's performance analysis is built on, eqs. (1)-(2)).

Sizing conventions follow the paper: 8-byte double-precision values and
4-byte integer indices unless a format states otherwise.
"""

from __future__ import annotations

import abc
import threading
from typing import Optional

import numpy as np

from ..obs.tracer import active as _active_tracer
from .validate import check_spmm_args, check_spmv_args

#: Bytes per non-zero value (double precision).
VALUE_BYTES = 8
#: Bytes per index entry (32-bit integers, as in the paper).
INDEX_BYTES = 4

__all__ = [
    "SparseFormat",
    "SymmetricFormat",
    "VALUE_BYTES",
    "INDEX_BYTES",
    "scatter_add_rows",
    "RowScatter",
    "FLAT_CACHE_MAX",
]

#: Cap on the per-``RowScatter`` flattened-index cache (one entry per
#: distinct right-hand-side count ``k``; oldest evicted beyond this).
FLAT_CACHE_MAX = 8


def bounded_cache_insert(cache: dict, key, value, cap: int) -> None:
    """Insert into an insertion-ordered dict cache, evicting the oldest
    entry when ``cap`` would be exceeded (keeps steady-state memory of
    the lazy scatter caches bounded).

    Not thread-safe by itself — the evict-then-insert sequence mutates
    the dict twice; every caller must hold its cache's lock (see
    :class:`RowScatter`)."""
    while len(cache) >= cap:
        cache.pop(next(iter(cache)))
    cache[key] = value


def scatter_add_rows(
    y: np.ndarray, idx: np.ndarray, products: np.ndarray
) -> None:
    """``y[idx] += products`` with duplicate indices accumulated.

    The scatter is *window-restricted*: the bincount runs over the
    effective index window ``[idx.min(), idx.max() + 1)`` and is added
    into the matching slice of ``y``, so a scatter that touches a
    narrow column band (a CSB block, a partition's transposed writes)
    never streams the full output length. 2-D ``(m, k)`` scatters use
    one flattened ``np.bincount`` pass — ``np.ufunc.at`` is an order of
    magnitude slower, which would erase the multi-RHS traffic
    amortization the spmm kernels exist for.
    """
    if idx.size == 0:
        return
    idx = np.asarray(idx, dtype=np.int64)
    lo = int(idx.min())
    hi = int(idx.max()) + 1
    if y.ndim == 1:
        y[lo:hi] += np.bincount(
            idx - lo, weights=products, minlength=hi - lo
        )
        return
    k = y.shape[1]
    flat = (
        (idx - lo)[:, None] * k
        + np.arange(k, dtype=np.int64)[None, :]
    )
    y[lo:hi] += np.bincount(
        flat.ravel(), weights=products.ravel(), minlength=(hi - lo) * k
    ).reshape(hi - lo, k)


class RowScatter:
    """Precompiled accumulating row scatter ``y[idx] += products``.

    The index array is part of the matrix *structure*, so repeated
    calls scatter through the same indices every time. Two things are
    compiled out of the per-call path:

    * the *effective window* ``[lo, hi) = [idx.min(), idx.max() + 1)``:
      every bincount runs over the rebased indices and accumulates into
      ``y[lo:hi]``, so a scatter confined to a narrow band never
      streams the full output vector — the paper's effective-ranges
      idea applied to the multiplication phase;
    * the flattened 2-D bincount index per right-hand-side count ``k``
      (building it costs more than the bincount itself), which is where
      the NumPy formats (COO, BCSR) recover the multi-RHS amortization.
      The per-``k`` cache is bounded by :data:`FLAT_CACHE_MAX`.

    Thread safety: mutation of the bounded per-``k`` cache (compile,
    eviction, clear) happens under an internal lock. :meth:`add` reads
    the cache lock-free on the hit path and keeps a local reference to
    the flat index, so a concurrent eviction or :meth:`clear` can never
    yank the array out from under an in-flight scatter — the compiled
    index is immutable structure, only the dict membership changes.
    """

    def __init__(self, idx: np.ndarray):
        self.idx = np.asarray(idx, dtype=np.int64)
        if self.idx.size:
            self.lo = int(self.idx.min())
            self.hi = int(self.idx.max()) + 1
        else:
            self.lo = 0
            self.hi = 0
        self._rebased = self.idx - self.lo
        self._flat: dict[int, np.ndarray] = {}
        self._flat_lock = threading.Lock()

    def _flat_for(self, k: int) -> np.ndarray:
        """The flattened index for ``k``, compiling (and caching) it on
        a miss. Insertion/eviction run under the cache lock; the
        returned array stays valid even if evicted right after."""
        with self._flat_lock:
            flat = self._flat.get(k)
            if flat is None:
                flat = (
                    self._rebased[:, None] * k
                    + np.arange(k, dtype=np.int64)[None, :]
                ).ravel()
                bounded_cache_insert(self._flat, k, flat, FLAT_CACHE_MAX)
            return flat

    def add(self, y: np.ndarray, products: np.ndarray) -> None:
        """Accumulate ``y[idx] += products`` (1-D or ``(m, k)``)."""
        if self.idx.size == 0:
            return
        lo, hi = self.lo, self.hi
        tracer = _active_tracer()
        if tracer.enabled:
            # Window restriction savings: elements the full-length
            # scatter would have streamed vs the effective window.
            tracer.count("scatter.window_elems", hi - lo)
            tracer.count("scatter.full_elems", y.shape[0])
        if y.ndim == 1:
            y[lo:hi] += np.bincount(
                self._rebased, weights=products, minlength=hi - lo
            )
            return
        k = y.shape[1]
        # Lock-free hit path: dict.get is atomic and the compiled index
        # is immutable, so a concurrent eviction/clear only affects
        # membership — this local reference stays valid either way.
        flat = self._flat.get(k)
        if tracer.enabled:
            tracer.count(
                "scatter.flat_hit" if flat is not None
                else "scatter.flat_miss"
            )
        if flat is None:
            flat = self._flat_for(k)
        y[lo:hi] += np.bincount(
            flat, weights=products.ravel(), minlength=(hi - lo) * k
        ).reshape(hi - lo, k)

    def clear(self) -> None:
        """Drop the compiled per-``k`` flat indices."""
        with self._flat_lock:
            self._flat.clear()


class SparseFormat(abc.ABC):
    """Abstract base class for sparse matrix storage formats.

    Attributes
    ----------
    shape : tuple[int, int]
        Logical matrix dimensions ``(n_rows, n_cols)``.
    """

    #: Short lowercase format identifier (``"csr"``, ``"sss"``, ...).
    format_name: str = "abstract"

    def __init__(self, shape: tuple[int, int]):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"matrix shape must be non-negative, got {shape}")
        self.shape: tuple[int, int] = (n_rows, n_cols)

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of *logical* non-zero elements.

        For symmetric formats this counts both triangles, i.e. it equals
        the non-zero count of the fully expanded matrix, so flop counts
        (``2 * nnz``) are comparable across formats.
        """

    @property
    @abc.abstractmethod
    def stored_entries(self) -> int:
        """Number of explicitly stored value entries."""

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Exact in-memory representation size in bytes.

        Only the arrays that a C implementation would stream during
        SpM×V are counted (values + indexing metadata), matching the
        paper's eqs. (1) and (2).
        """

    @abc.abstractmethod
    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        """Serial sparse matrix-vector product ``y = A @ x``.

        Parameters
        ----------
        x : ndarray of float64, shape ``(n_cols,)``
        y : optional output array, shape ``(n_rows,)``; overwritten.

        Returns
        -------
        ndarray
            The product vector (``y`` if provided).
        """

    @abc.abstractmethod
    def to_coo(self):
        """Convert to :class:`repro.formats.coo.COOMatrix` (expanded,
        both triangles for symmetric formats)."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def _check_spmv_args(
        self, x: np.ndarray, y: Optional[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate/allocate SpM×V operands. Returns ``(x, y)``."""
        return check_spmv_args(self.shape, self.format_name, x, y)

    def _check_spmm_args(
        self, X: np.ndarray, Y: Optional[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate/allocate SpM×M operands. Returns ``(X, Y)``.

        ``X`` must be a 2-D block of ``k`` right-hand sides, shape
        ``(n_cols, k)``; ``Y`` is allocated (or zeroed) with shape
        ``(n_rows, k)``.
        """
        return check_spmm_args(self.shape, self.format_name, X, Y)

    def spmm(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Multi-RHS product ``Y = A @ X`` for ``X`` of shape
        ``(n_cols, k)``.

        The base implementation loops over columns; every concrete
        format overrides it with a kernel that traverses the matrix
        structure once for all ``k`` columns (the traffic-amortization
        lever: matrix bytes are streamed once instead of ``k`` times).
        """
        X, Y = self._check_spmm_args(X, Y)
        for j in range(X.shape[1]):
            Y[:, j] = self.spmv(np.ascontiguousarray(X[:, j]))
        return Y

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ndarray (testing / small matrices only)."""
        return self.to_coo().to_dense()

    # ------------------------------------------------------------------
    # Bound-operator hooks (see repro.parallel.bound)
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Release the lazy execution caches (compiled scatters). Safe
        to call at any time — the caches rebuild on
        demand. Default: nothing to do."""

    def compression_ratio_vs(self, other: "SparseFormat") -> float:
        """Size reduction relative to ``other``: ``1 - size/other.size``."""
        other_size = other.size_bytes()
        if other_size == 0:
            raise ValueError("reference format has zero size")
        return 1.0 - self.size_bytes() / other_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.n_rows}x{self.n_cols} "
            f"nnz={self.nnz} bytes={self.size_bytes()}>"
        )


class SymmetricFormat(SparseFormat):
    """Marker base class for formats that store only the lower triangle.

    Symmetric formats additionally support a *partitioned* SpM×V used by
    the multithreaded algorithms of Section III: thread ``i`` computes the
    products of the stored rows ``start[i]..end[i]`` but its transposed
    (upper-triangle) contributions scatter to arbitrary earlier rows,
    which is exactly what the local-vector machinery resolves.
    """

    def __init__(self, shape: tuple[int, int]):
        if shape[0] != shape[1]:
            raise ValueError(f"symmetric formats require a square matrix, got {shape}")
        super().__init__(shape)

    def lower_triple(
        self,
    ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """``(dvalues, rowptr, colind, values)`` CSR view of the stored
        strictly-lower triangle, or ``None`` when the format cannot
        expose one cheaply.

        This is the structural contract the conflict-free (coloring)
        scheduler builds on: ``dvalues`` is the dense main diagonal and
        the CSR triple enumerates the strictly-lower entries row by row
        in ascending column order. Formats without a recoverable lower
        CSR (e.g. blocked layouts) return ``None`` and the coloring
        reduction strategy reports itself unsupported for them.
        """
        return None

    def serial_partitions(self) -> list[tuple[int, int]]:
        """The row ranges :meth:`spmv` runs through
        :meth:`spmv_partition`, in order: ``[0, N)`` by default."""
        return [(0, self.n_rows)]

    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        """Serial symmetric SpM×V: the partition kernel over
        :meth:`serial_partitions`, every transposed write direct."""
        x, y = self._check_spmv_args(x, y)
        for start, end in self.serial_partitions():
            self.spmv_partition(x, y, y, start, end)
        return y

    def spmm(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """:meth:`spmv` for ``(n, k)`` blocks: one pass over the stored
        lower triangle serves all ``k`` columns."""
        X, Y = self._check_spmm_args(X, Y)
        for start, end in self.serial_partitions():
            self.spmm_partition(X, Y, Y, start, end)
        return Y

    @abc.abstractmethod
    def spmv_partition(
        self,
        x: np.ndarray,
        y_direct: np.ndarray,
        y_local: np.ndarray,
        row_start: int,
        row_end: int,
    ) -> None:
        """Compute the partition product for stored rows
        ``[row_start, row_end)``.

        Contributions to output rows inside ``[row_start, row_end)`` are
        accumulated into ``y_direct``; transposed contributions to rows
        ``< row_start`` go to ``y_local`` (the thread's local vector).
        Both arrays have length ``n_rows`` and are accumulated into, not
        overwritten (callers zero them).
        """

    @abc.abstractmethod
    def spmm_partition(
        self,
        X: np.ndarray,
        Y_direct: np.ndarray,
        Y_local: np.ndarray,
        row_start: int,
        row_end: int,
    ) -> None:
        """:meth:`spmv_partition` with ``(n, k)`` operands, all ``k``
        columns per structure traversal."""
