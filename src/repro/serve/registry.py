"""Content-addressed registry of bound solver operators.

The serving front end (:mod:`repro.serve.server`) admits requests
against *registered* operators, keyed by a fingerprint of the matrix
content rather than an object identity — two clients naming the same
matrix coalesce even if they registered it independently, and a key
survives process restarts (it is a pure function of the COO triplets).

Each :class:`RegisteredOperator` owns one parallel driver, whose
``operator(k)`` binds once per RHS-block width ``k`` and keeps the
operator: the OSKI-style amortization the paper's bound-operator layer
provides, so a coalesced batch of 5 and a solo request reuse their
respective compiled workspaces across the server's lifetime. A serial
reference clone of the driver (same matrix, same partitions, same
reduction instance, serial executor) backs the bit-identity oracle:
what a request *would* have computed alone, with no executor and no
coalescing in the loop.

Thread-safety: ``operator(k)`` may be called from the event loop and
from executor threads concurrently; the driver's per-``k`` cache takes
a lock only on a miss, and bound operators are safe to share once
constructed — their ``apply`` serializes internally.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Optional

import numpy as np

from ..formats.coo import COOMatrix
from ..formats.csx.sym import CSXSymMatrix
from ..formats.sss import SSSMatrix
from ..parallel.executor import Executor
from ..parallel.spmv import ParallelSpMV, ParallelSymmetricSpMV
from .errors import UnknownOperatorError

__all__ = [
    "StreamingCOOFingerprint",
    "matrix_fingerprint",
    "RegisteredOperator",
    "OperatorRegistry",
]

#: Entries hashed per :meth:`StreamingCOOFingerprint.update` chunk when
#: fingerprinting an in-memory matrix (bounds the transient dtype-
#: normalization copies to O(chunk) instead of O(nnz)).
FINGERPRINT_CHUNK = 1 << 16


class StreamingCOOFingerprint:
    """Incremental SHA-256 fingerprint over canonical COO triplets.

    Feed entries with :meth:`update` in canonical (row-major sorted)
    order, in chunks of any size — the digest is invariant to the
    chunking because rows, cols and values are hashed as three
    independent streams (dtype-normalized to int64/int64/float64) that
    are combined, together with the shape, only at :meth:`hexdigest`.

    Two producers share this helper: :func:`matrix_fingerprint` (whole
    in-memory matrices, chunked to keep peak extra memory at O(chunk))
    and the out-of-core ingest (:mod:`repro.ooc.shards`), which streams
    a matrix it never fully materializes and stamps the resulting key
    into the shard manifest — tying a shard set to its source matrix
    with the same content-addressing scheme the serving registry uses.
    """

    def __init__(self, shape: tuple[int, int]):
        self.shape = (int(shape[0]), int(shape[1]))
        self._rows = hashlib.sha256()
        self._cols = hashlib.sha256()
        self._vals = hashlib.sha256()
        self.n_entries = 0

    def update(self, rows, cols, vals) -> None:
        """Hash one chunk of canonical-order entries."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        if not (rows.size == cols.size == vals.size):
            raise ValueError("fingerprint chunk arrays differ in length")
        self._rows.update(rows)
        self._cols.update(cols)
        self._vals.update(vals)
        self.n_entries += rows.size

    def hexdigest(self) -> str:
        """The 16-hex-digit content key (callable repeatedly; more
        :meth:`update` calls afterwards keep extending the streams)."""
        h = hashlib.sha256()
        h.update(np.asarray(self.shape, dtype=np.int64).tobytes())
        h.update(self._rows.digest())
        h.update(self._cols.digest())
        h.update(self._vals.digest())
        return h.hexdigest()[:16]


def matrix_fingerprint(matrix) -> str:
    """Content-addressed key for a matrix: SHA-256 over the
    canonicalized COO triplets and the shape, truncated to 16 hex
    digits. Accepts a :class:`COOMatrix` or any format instance
    (converted via ``to_coo()``); two structurally identical matrices
    fingerprint identically regardless of storage format or triplet
    order. Hashing streams in bounded chunks through
    :class:`StreamingCOOFingerprint` — peak extra memory is O(chunk),
    not a second O(nnz) concatenated byte buffer."""
    coo = matrix if isinstance(matrix, COOMatrix) else matrix.to_coo()
    coo = coo.canonicalize()
    fp = StreamingCOOFingerprint(coo.shape)
    for lo in range(0, coo.nnz, FINGERPRINT_CHUNK):
        hi = min(coo.nnz, lo + FINGERPRINT_CHUNK)
        fp.update(coo.rows[lo:hi], coo.cols[lo:hi], coo.vals[lo:hi])
    return fp.hexdigest()


class RegisteredOperator:
    """One matrix's serving entry: the parallel driver and the serial
    reference driver."""

    def __init__(self, key: str, driver, serial_driver):
        self.key = key
        self.driver = driver
        self.serial_driver = serial_driver

    @property
    def n(self) -> int:
        return self.driver.matrix.n_rows

    def operator(self, k: Optional[int] = None):
        """The driver's cached operator for ``k`` right-hand sides
        (``None`` = the 1-D SpM×V signature), shared by every
        request."""
        return self.driver.operator(k)

    def reference(self, x: np.ndarray) -> np.ndarray:
        """Serial single-request computation of ``A @ x`` — the
        bit-identity oracle for one coalesced response."""
        return self.serial_driver(x)

    def close(self) -> None:
        """Release both drivers' bound operators."""
        self.driver.close()
        self.serial_driver.close()


class OperatorRegistry:
    """Mapping of fingerprint keys to :class:`RegisteredOperator`.

    ``register`` builds the parallel driver exactly the way the CLI's
    kernel factory does — symmetric formats get the two-phase
    :class:`ParallelSymmetricSpMV` with the requested reduction,
    unsymmetric ones the direct :class:`ParallelSpMV` — plus the serial
    reference clone sharing the same matrix, partitions and reduction
    instance so reference and served computation differ only in the
    executor and the coalescing.
    """

    def __init__(self):
        self._entries: dict[str, RegisteredOperator] = {}
        self._lock = threading.Lock()

    def register(
        self,
        matrix,
        partitions,
        *,
        reduction: str = "indexed",
        executor: Optional[Executor] = None,
        key: Optional[str] = None,
    ) -> RegisteredOperator:
        """Register ``matrix`` (a built format instance) for serving.

        Returns the new entry; registering an identical matrix twice
        returns the existing entry (idempotent — that is the point of
        content addressing). ``key`` overrides the fingerprint when the
        caller wants a human-readable handle.
        """
        if key is None:
            key = matrix_fingerprint(matrix)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
        # Same dispatch as the CLI kernel factory: symmetric two-phase
        # driver for the symmetric serving formats, direct driver else.
        if isinstance(matrix, (SSSMatrix, CSXSymMatrix)):
            driver = ParallelSymmetricSpMV(
                matrix, partitions, reduction, executor=executor
            )
            serial = ParallelSymmetricSpMV(
                # Share the reduction *instance*: the reference must
                # accumulate in the same order the served kernel does.
                matrix, partitions, driver.reduction,
                executor=Executor("serial"),
            )
        else:
            driver = ParallelSpMV(matrix, partitions, executor=executor)
            serial = ParallelSpMV(
                matrix, partitions, executor=Executor("serial")
            )
        entry = RegisteredOperator(key, driver, serial)
        with self._lock:
            # Lost the race to a concurrent identical register: keep
            # the first entry, discard ours (nothing bound yet).
            return self._entries.setdefault(key, entry)

    def get(self, key: str) -> RegisteredOperator:
        entry = self._entries.get(key)
        if entry is None:
            raise UnknownOperatorError(key)
        return entry

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def close(self) -> None:
        """Close every registered operator's bound workspaces."""
        with self._lock:
            entries, self._entries = list(self._entries.values()), {}
        for entry in entries:
            entry.close()
