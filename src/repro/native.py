"""The native symmetric SpM×V kernels (``symkernel.c``) and their wrappers:
:func:`partition_product` (SSS, CSX, CSX-Sym) and :func:`batch_product`
(the coloring strategy's conflict-free row batches), and the CRC32C
that verifies out-of-core shards and checkpoints (:func:`crc32c`).

The source is compiled on first use with :data:`CFLAGS` into
``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``) under a name hashing the
source, the flags and the compiler binary (resolved path, size, mtime:
they change with its version), written to a temporary file and moved
into place, so racing processes each load a whole library and a warm
start spawns nothing. ``ctypes`` calls release the GIL. Without ``cc``
the first call raises :class:`NativeKernelError`; there is no fallback.
See DESIGN.md §2 for the bit contract.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import weakref
from pathlib import Path
from typing import Optional

import numpy as np

from .obs.tracer import active as _active_tracer

__all__ = [
    "NativeKernelError", "batch_product", "check_structure", "crc32c",
    "load", "partition_product",
]

COMPILER = "cc"
#: No -march=native / -ffast-math, and no FMA contraction: result bits
#: do not depend on the host.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
SOURCE = Path(__file__).with_name("symkernel.c")

_lib: Optional[ctypes.CDLL] = None


class NativeKernelError(RuntimeError):
    """The native kernel could not be built."""


def _build() -> Path:
    cc = shutil.which(COMPILER)
    if cc is None:
        raise NativeKernelError(
            f"the native SpM×V kernel needs a C compiler: {COMPILER!r} "
            f"was not found on PATH"
        )
    real = os.path.realpath(cc)
    st = os.stat(real)
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(repr((CFLAGS, real, st.st_size, st.st_mtime_ns)).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache",
                 "repro")
    target = cache / f"symkernel-{key.hexdigest()[:16]}.so"
    if not target.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".symkernel-", dir=cache)
        os.close(fd)
        try:
            proc = subprocess.run([cc, *CFLAGS, "-o", tmp, str(SOURCE)],
                                  capture_output=True, text=True)
            if proc.returncode:
                raise NativeKernelError(
                    f"{cc} could not compile {SOURCE.name}:\n{proc.stderr}"
                )
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return target


def load() -> ctypes.CDLL:
    """The kernel library, built into the cache on first use. Threads
    racing here each load it; the first to finish is kept."""
    global _lib
    if _lib is None:
        lib = ctypes.CDLL(str(_build()))
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        # row_lo, n_rows, indptr, indices, data, col_base, col_lo,
        # n_cols, diag, d_lo, d_hi, x, y_direct, y_local, split
        tail = [i64, i64, ptr, ptr, ptr, i64, i64, i64, ptr, i64, i64,
                ptr, ptr, ptr, i64]
        lib.repro_spmv.argtypes = [ctypes.c_int, *tail]
        lib.repro_spmm.argtypes = [ctypes.c_int, i64, *tail]
        lib.repro_batch.argtypes = [i64, i64, *[ptr] * 7]
        lib.repro_spmv.restype = lib.repro_spmm.restype = ctypes.c_int
        lib.repro_batch.restype = ctypes.c_int
        lib.repro_crc32c.argtypes = [ctypes.c_uint32, ptr, i64]
        lib.repro_crc32c.restype = ctypes.c_uint32
        _lib = _lib or lib
    return _lib


def check_structure(indptr, indices, data, n_cols: int) -> None:
    """Check a CSR triple once, when its format or plan is built: int32
    ``indptr`` non-decreasing from 0 to ``nnz``, int32 ``indices`` in
    ``[0, n_cols)``, float64 ``data``."""
    if not (
        (indptr.dtype, indices.dtype, data.dtype)
        == (np.int32, np.int32, np.float64)
        and indptr.ndim == indices.ndim == 1 and indices.shape == data.shape
        and indptr.size and indptr[0] == 0 and indptr[-1] == indices.size
        and not np.any(np.diff(indptr) < 0)
        and not (indices.size and (indices.min() < 0
                                   or indices.max() >= n_cols))
    ):
        raise ValueError(
            "invalid CSR structure: need int32 indptr non-decreasing from 0 "
            f"to nnz, int32 indices in [0, {n_cols}), float64 data"
        )


def _rows(a: np.ndarray, k: Optional[int], out: bool = True) -> int:
    """Rows of a C-contiguous float64 ``(n,)`` / ``(n, k)`` vector; -1
    for any other layout (or a read-only output)."""
    if (a.dtype != np.float64 or not a.flags.c_contiguous
            or (out and not a.flags.writeable)
            or a.shape[1:] != (() if k is None else (k,))):
        return -1
    return a.shape[0]


# Addresses of the arrays that outlive a call (matrix structure, bound
# workspaces), dropped with the array: ``a.ctypes.data`` costs ~2 us, a
# writable buffer's ``from_buffer`` about half that, a hit ~0.3 us. It
# is process-wide like the library: an array's address never changes.
_addresses: dict[int, tuple] = {}


def _address(a: np.ndarray) -> int:
    key = id(a)
    entry = _addresses.get(key)
    if entry is None or entry[0]() is not a:
        try:
            addr = ctypes.addressof(ctypes.c_char.from_buffer(a))
        except (TypeError, ValueError):  # read-only or empty
            addr = a.ctypes.data
        entry = (weakref.ref(a, lambda _: _addresses.pop(key, None)), addr)
        _addresses[key] = entry
    return entry[1]


def partition_product(
    x, y_direct, indptr, indices, data, *, rows: tuple[int, int],
    cols: tuple[int, int], col_base: int, first: int = 0,
    y_local=None, split: int = 0, diag=None,
    diag_rows: tuple[int, int] = (0, 0), symmetric: bool = True,
) -> None:
    """Accumulate one partition's product into ``y_direct`` /
    ``y_local`` in the order ``symkernel.c`` states.

    ``rows = (row_lo, n_rows)``: row ``row_lo + i`` holds the elements
    ``indptr[first + i] <= p < indptr[first + i + 1]``, element ``p`` in
    column ``col_base + indices[p]`` inside ``cols = (col_lo, n_cols)``.
    ``diag[g] * x[g]`` is added first for ``g`` in ``diag_rows``. With
    ``symmetric`` the transposed writes go to ``y_local`` below
    ``split`` and to ``y_direct`` from it; without, only the row
    products run (CSX). ``x`` of shape ``(n, k)`` runs the SpM×M kernel.
    Every array is checked against these windows first: a strided or
    mistyped ``x`` is copied, anything else raises ``ValueError``.
    """
    (row_lo, n_rows), (col_lo, n_cols), (d_lo, d_hi) = rows, cols, diag_rows
    if min(row_lo, n_rows, col_lo, n_cols, col_base, first, d_lo) < 0 or (
        indptr.dtype != np.int32 or indices.dtype != np.int32
        or data.dtype != np.float64 or not indptr.flags.c_contiguous
        or not indices.flags.c_contiguous or not data.flags.c_contiguous
        or indptr.size < first + n_rows + 1 or indices.size != data.size
        or indptr[first] < 0 or indptr[first + n_rows] > indices.size
    ):
        raise ValueError("the CSR arrays do not cover the partition's rows")
    k = x.shape[1] if x.ndim == 2 else None
    if k == 0:
        return
    if x.dtype != np.float64 or not x.flags.c_contiguous:
        x = np.ascontiguousarray(x, dtype=np.float64)
    row_hi, col_hi = row_lo + n_rows, col_lo + n_cols
    writes = col_hi if symmetric and split < col_hi else 0
    if not (symmetric and col_lo < split and n_cols):
        y_local = y_direct
    elif y_local is None or _rows(y_local, k) < min(split, col_hi):
        raise ValueError("y_local does not cover the local window")
    if (_rows(x, k, out=False) < max(row_hi, col_hi, d_hi)
            or _rows(y_direct, k) < max(row_hi, d_hi, writes)):
        raise ValueError("x or y_direct does not cover the partition")
    if d_hi <= d_lo:
        diag_addr, d_lo, d_hi = None, 0, 0
    elif diag is None or _rows(diag, None, out=False) < d_hi:
        raise ValueError("diag does not cover diag_rows")
    else:
        diag_addr = _address(diag)
    lib = _lib or load()
    tracer = _active_tracer()
    if tracer.enabled:
        tracer.count(
            "kernel.elements", int(indptr[first + n_rows] - indptr[first])
        )
    args = (
        row_lo, n_rows, _address(indptr) + 4 * first, _address(indices),
        _address(data), col_base, col_lo, n_cols, diag_addr, d_lo, d_hi,
        _address(x), _address(y_direct), _address(y_local), split,
    )
    if (lib.repro_spmv(symmetric, *args) if k is None
            else lib.repro_spmm(symmetric, k, *args)):
        raise MemoryError("the native kernel could not allocate its scratch")


def batch_product(x, y, rows, ptr, cols, vals, diag, extent: int) -> None:
    """One conflict-free row batch of the coloring strategy, written
    straight into ``y`` in the order ``symkernel.c`` states: ``rows``
    (int64) with elements ``ptr[i] <= p < ptr[i + 1]`` of ``cols`` /
    ``vals``, diagonal ``diag`` per row; every row and column is below
    ``extent`` (checked when the batch was built). ``x`` / ``y`` are
    ``(n,)`` or ``(n, k)``; a strided or mistyped ``x`` is copied."""
    k = x.shape[1] if x.ndim == 2 else None
    if k == 0:
        return
    if x.dtype != np.float64 or not x.flags.c_contiguous:
        x = np.ascontiguousarray(x, dtype=np.float64)
    n = rows.size
    if (
        rows.dtype != np.int64 or ptr.dtype != np.int64
        or cols.dtype != np.int64 or not rows.flags.c_contiguous
        or not ptr.flags.c_contiguous or not cols.flags.c_contiguous
        or ptr.size != n + 1 or ptr[0] != 0 or ptr[n] > cols.size
        or vals.size != cols.size or _rows(vals, None, out=False) < 0
        or _rows(diag, None, out=False) != n
    ):
        raise ValueError("the batch arrays do not match its rows")
    if (_rows(x, k, out=False) < extent or _rows(y, k) < extent
            or x.shape != y.shape):
        raise ValueError("x or y does not cover the batch")
    lib = _lib or load()
    if lib.repro_batch(
        k or 1, n, _address(rows), _address(ptr), _address(cols),
        _address(vals), _address(diag), _address(x), _address(y),
    ):
        raise MemoryError("the native kernel could not allocate its scratch")


def crc32c(data, crc: int = 0) -> int:
    """CRC32C (Castagnoli) of the contiguous bytes-like ``data``,
    continuing from ``crc``: ``crc32c(b) == crc32c(b[k:],
    crc32c(b[:k]))`` for any split, so large payloads can be streamed
    chunk by chunk. The native loop runs without the GIL on ``data``'s
    own buffer: nothing is copied and no reference to ``data`` is kept.
    """
    # A uint8 view's address; ctypes objects made from the buffer
    # itself would keep it alive in a reference cycle until the next
    # garbage collection.
    buf = np.frombuffer(data, np.uint8)
    return (_lib or load()).repro_crc32c(crc, buf.ctypes.data, buf.size)
