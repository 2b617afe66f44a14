"""Shard-at-a-time symmetric SpMV/SpMM under an explicit memory budget.

A :class:`ShardedOperator` applies a matrix that never fits in memory
by streaming its row-range shards (:mod:`repro.ooc.shards`) through a
small cache of resident shards. Each resident shard is wrapped in an
:class:`~repro.formats.sss.SSSMatrix` over its own column window
``[c0, row_end)`` — ``c0`` is the smallest column the shard touches —
and driven by the existing
:class:`~repro.parallel.spmv.ParallelSymmetricSpMV`: same partition
kernels, same local-vector reductions, same
:class:`~repro.parallel.executor.Executor` backends as the in-core
path. Off-shard transposed contributions (columns left of the shard's
row range) land in the reduction's local vectors exactly as they do
for an in-core thread partition; every per-shard array is O(window),
not O(N).

Eviction follows the sweep: every apply visits shards in ascending
order, so the resident shard whose next use is furthest away is the
one just behind the sweep. Dropping it is Belady-optimal for this
fixed cyclic access pattern (LRU under a half budget misses on every
access).

Determinism: ``y`` accumulates shard results in fixed ascending shard
order, and each per-shard driver is built with a fixed partition
layout, so two applies of the same store with the same configuration
are bit-identical — including an apply that reloaded every shard from
disk against one that had them all cached. That is the property the
checkpoint/resume solver relies on.

Counters (under the active tracer, when enabled): ``ooc.shards_loaded``
and ``ooc.shard_hits`` split cold and warm shard accesses,
``ooc.shard_evictions`` counts budget-forced drops, and the
``ooc.resident_bytes`` / ``ooc.resident_bytes_peak`` gauges expose the
payload residency the smoke test asserts against the budget.

A shard's driver is built at its first load and kept until
:meth:`ShardedOperator.close`: its column window, partitions,
reduction index and bound operators (with their workspaces) survive
evictions. Eviction detaches only the payload arrays from the window
matrix, and a reload attaches the verified arrays again through the
matrix's own validation, so a reload is read, CRC32C, parse and
validate. The budget caps payload bytes; the kept state is O(window)
per shard and per bound ``k``, reported as :attr:`ShardedOperator.kept_bytes`
and the ``ooc.kept_bytes`` gauge.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..formats.sss import SSSMatrix
from ..obs.tracer import active as _active_tracer
from ..parallel.executor import Executor
from ..parallel.partition import partition_nnz_balanced
from ..parallel.spmv import ParallelSymmetricSpMV
from .errors import MemoryBudgetError
from .shards import ShardData, ShardStore

__all__ = ["ShardedOperator", "parse_memory_budget"]

_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_memory_budget(text: Union[str, int, None]) -> Optional[int]:
    """``"64K"``/``"8M"``/``"1G"``/``"123"`` -> bytes (``None`` passes
    through: unlimited)."""
    if text is None or isinstance(text, int):
        return text
    s = str(text).strip().lower()
    if not s:
        raise ValueError("empty memory budget")
    scale = 1
    if s[-1] in _SUFFIXES:
        scale = _SUFFIXES[s[-1]]
        s = s[:-1]
    try:
        value = int(s)
    except ValueError:
        raise ValueError(f"unparseable memory budget {text!r}") from None
    if value <= 0:
        raise ValueError(f"memory budget must be positive, got {text!r}")
    return value * scale


def _window(data: ShardData, c0: int) -> tuple[np.ndarray, ...]:
    """The shard's SSS arrays over its column window ``[c0, row_end)``:
    rows ``[c0, row_start)`` are empty, columns are window-local."""
    w, lead = data.row_end - c0, data.row_start - c0
    dvalues = np.zeros(w, dtype=np.float64)
    dvalues[lead:] = data.dvalues
    rowptr = np.zeros(w + 1, dtype=np.int32)
    rowptr[lead:] = data.rowptr
    return dvalues, rowptr, data.colind - c0, data.values


def _array_bytes(obj) -> int:
    """Bytes of the arrays ``obj`` holds as attributes or in list
    attributes."""
    total = 0
    for value in vars(obj).values():
        for item in value if isinstance(value, list) else (value,):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


class _Shard:
    """One shard's driver over its column window ``[start, end)``, kept
    from its first load until :meth:`ShardedOperator.close`, its
    budget-accounted payload bytes and the bytes it keeps while
    evicted."""

    __slots__ = ("driver", "start", "end", "n_bytes", "kept_bytes")

    def __init__(
        self, driver: ParallelSymmetricSpMV, start: int, end: int,
        n_bytes: int,
    ):
        self.driver = driver
        self.start = start
        self.end = end
        self.n_bytes = n_bytes
        self.kept_bytes = 0

    def operator(self, k: Optional[int]):
        """The driver's bound operator for ``k``. Until its first apply
        completes, the kept bytes are counted again: the reduction's
        index and every bound operator's workspaces."""
        op = self.driver.operator(k)
        if not op.n_calls:
            self.kept_bytes = _array_bytes(self.driver.reduction) + sum(
                _array_bytes(bound) for bound in self.driver._ops.values()
            )
        return op


class ShardedOperator:
    """``y = A @ x`` (or ``A @ X`` for a block of right-hand sides)
    over an ingested shard set, shard at a time.

    Parameters
    ----------
    store : ShardStore
        Verified shard access (carries the chaos plan and retry
        policy).
    memory_budget : int or str, optional
        Maximum resident shard-payload bytes (``"8M"``-style suffixes
        accepted). ``None`` keeps every shard resident after first
        touch. A budget smaller than the largest single shard is
        rejected up front with :class:`MemoryBudgetError` — no
        configuration can satisfy it.
    n_threads : int
        Partitions per shard for the parallel driver.
    reduction : str
        Reduction method for the per-shard symmetric driver:
        ``"naive"``, ``"effective"`` or ``"indexed"``. ``"coloring"``
        is rejected: its schedule copies the shard's values, which a
        kept driver would pin outside the budget.
    executor : Executor, optional
        Shared by every per-shard driver (serial default).
    """

    def __init__(
        self,
        store: ShardStore,
        *,
        memory_budget: Union[int, str, None] = None,
        n_threads: int = 1,
        reduction: str = "indexed",
        executor: Optional[Executor] = None,
    ):
        if store.n_rows != store.n_cols:
            raise MemoryBudgetError(
                f"sharded operator requires a square symmetric matrix, "
                f"got shape {store.shape}"
            )
        self.store = store
        self.memory_budget = parse_memory_budget(memory_budget)
        self.n_threads = int(n_threads)
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        if reduction == "coloring":
            raise ValueError(
                "reduction 'coloring' cannot run out of core: its "
                "schedule copies the shard's values, so a shard driver "
                "kept across evictions would pin payload outside the "
                "memory budget"
            )
        self.reduction = reduction
        self.executor = executor or Executor("serial")
        largest = max(
            (info.n_bytes for info in store.shards), default=0
        )
        if self.memory_budget is not None and largest > self.memory_budget:
            raise MemoryBudgetError(
                f"memory budget {self.memory_budget} B cannot hold the "
                f"largest shard ({largest} B); re-ingest with smaller "
                f"shards or raise the budget"
            )
        #: Every shard loaded so far; ``_resident`` holds the ones whose
        #: payload is attached.
        self._kept: dict[int, _Shard] = {}
        self._resident: dict[int, _Shard] = {}
        self.resident_bytes = 0
        self.peak_resident_bytes = 0

    # -- shard cache ----------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.store.shape

    @property
    def n_rows(self) -> int:
        return self.store.n_rows

    def _build(self, data: ShardData) -> _Shard:
        """The shard's driver over its column window ``[c0, row_end)``,
        ``c0`` the smallest column it touches. The partitions cover the
        window: a leading partition ``[c0, row_start)`` without entries
        (when the shard reaches left of its rows), then the shard's rows
        split nnz-balanced across ``n_threads``."""
        s, e = data.row_start, data.row_end
        c0 = min(s, int(data.colind.min())) if data.colind.size else s
        w, lead = e - c0, s - c0
        matrix = SSSMatrix((w, w), *_window(data, c0))
        weights = np.diff(data.rowptr) + 1
        cuts = partition_nnz_balanced(weights, self.n_threads)
        partitions = [(0, lead)] if lead else []
        partitions.extend((lead + ls, lead + le) for ls, le in cuts)
        driver = ParallelSymmetricSpMV(
            matrix, partitions, self.reduction, executor=self.executor
        )
        return _Shard(driver, c0, e, data.n_bytes)

    def _evict_until(self, incoming: int, index: int) -> None:
        """Make room for shard ``index``: detach the payload of the
        resident shards whose next use in the ascending sweep is
        furthest away — the ones just behind the sweep — until
        ``incoming`` bytes fit. Their drivers stay kept."""
        if self.memory_budget is None:
            return
        tracer = _active_tracer()
        n = self.store.n_shards
        while (
            self.resident_bytes + incoming > self.memory_budget
            and self._resident
        ):
            victim = max(self._resident, key=lambda j: (j - index) % n)
            entry = self._resident.pop(victim)
            entry.driver.matrix.detach()
            self.resident_bytes -= entry.n_bytes
            if tracer.enabled:
                tracer.count("ooc.shard_evictions")

    def _shard(self, index: int) -> _Shard:
        tracer = _active_tracer()
        entry = self._resident.get(index)
        if entry is not None:
            if tracer.enabled:
                tracer.count("ooc.shard_hits")
            return entry
        info = self.store.shards[index]
        self._evict_until(info.n_bytes, index)
        data = self.store.load(index)
        entry = self._kept.get(index)
        if entry is None:
            entry = self._kept[index] = self._build(data)
        else:
            # The bytes are CRC-verified against the manifest, so the
            # window, partitions and reduction index built at the first
            # load still describe them.
            entry.driver.matrix.attach(*_window(data, entry.start))
        self._resident[index] = entry
        self.resident_bytes += entry.n_bytes
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.resident_bytes
        )
        if tracer.enabled:
            tracer.count("ooc.shards_loaded")
            tracer.metrics.gauge("ooc.resident_bytes").set(
                self.resident_bytes
            )
            tracer.metrics.gauge("ooc.resident_bytes_peak").set(
                self.peak_resident_bytes
            )
        return entry

    @property
    def kept_bytes(self) -> int:
        """Bytes kept across evictions, outside the memory budget: per
        loaded shard, its reduction index and its bound operators'
        workspaces, O(window) per shard and per bound ``k``."""
        return sum(entry.kept_bytes for entry in self._kept.values())

    # -- application ----------------------------------------------------
    def __call__(
        self, x: np.ndarray, y: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``y = A @ x`` streamed over shards in ascending order.

        ``x`` may be ``(n,)`` or ``(n, k)``; the per-shard drivers run
        the matching SpMV/SpMM partition kernels.
        """
        x = np.ascontiguousarray(
            x, dtype=np.float64
        )
        if x.shape[0] != self.store.n_cols:
            raise ValueError(
                f"x has leading dimension {x.shape[0]}, matrix has "
                f"{self.store.n_cols} columns"
            )
        tracer = _active_tracer()
        k = x.shape[1] if x.ndim == 2 else None
        total = np.zeros_like(x) if y is None else y
        if total.shape != x.shape:
            raise ValueError(
                f"y has shape {total.shape}, expected {x.shape}"
            )
        total[...] = 0.0
        with tracer.span("ooc.apply", shards=self.store.n_shards):
            for index in range(self.store.n_shards):
                entry = self._shard(index)
                window = slice(entry.start, entry.end)
                # Fixed ascending accumulation order: bit-identical
                # across cache states and repeat applies. The bound
                # operator's workspace is added straight into ``total``.
                total[window] += entry.operator(k)(x[window])
        if tracer.enabled:
            tracer.count("ooc.applies")
            tracer.metrics.gauge("ooc.kept_bytes").set(self.kept_bytes)
        return total

    def diagonal(self) -> np.ndarray:
        """Assembled main diagonal (for Jacobi preconditioning); goes
        through the verified, fault-contained store reads."""
        return self.store.diagonal()

    def close(self) -> None:
        """Drop every shard and close its kept driver."""
        kept, self._kept, self._resident = self._kept, {}, {}
        for entry in kept.values():
            entry.driver.close()
        self.resident_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        budget = (
            "unbounded" if self.memory_budget is None
            else f"{self.memory_budget}B"
        )
        return (
            f"<ShardedOperator n={self.store.n_rows} "
            f"shards={self.store.n_shards} budget={budget} "
            f"resident={self.resident_bytes}B>"
        )
