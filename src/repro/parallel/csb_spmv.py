"""Multithreaded symmetric CSB SpM×V following Buluç et al. [27].

Each thread owns a range of block rows. Direct row writes and *near*
transposed writes (within the three innermost block diagonals) go to
the shared vector / per-thread local buffers; transposed writes from
farther blocks use atomic updates on the shared output. The reduction
phase is therefore bounded (three vector additions per thread), but the
atomic count grows with the matrix bandwidth — the trade-off the paper
contrasts its indexing scheme against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..formats.csb import CSBSymMatrix
from ..machine.platforms import Platform
from ..machine.roofline import smt_compute_factor
from .executor import Executor
from .partition import validate_partitions

__all__ = ["ParallelCSBSymSpMV", "predict_csb_sym_time"]


@dataclass
class CSBRunStats:
    """Instrumentation of one parallel CSB-Sym execution."""

    atomic_updates: int
    buffered_updates: int
    n_threads: int


class ParallelCSBSymSpMV:
    """[27]'s two-phase kernel bound to one (matrix, partitions) pair;
    its per-call task closures run on the given executor."""

    def __init__(
        self,
        matrix: CSBSymMatrix,
        partitions: Optional[Sequence[tuple[int, int]]] = None,
        n_threads: int = 1,
        executor: Optional[Executor] = None,
    ):
        self.matrix = matrix
        if partitions is None:
            partitions = matrix.block_row_partitions(n_threads)
        validate_partitions(partitions, matrix.n_rows)
        self.partitions = [(int(s), int(e)) for s, e in partitions]
        self.executor = executor or Executor("serial")
        self.last_stats: Optional[CSBRunStats] = None

    @property
    def n_threads(self) -> int:
        return len(self.partitions)

    def __call__(
        self, x: np.ndarray, y: Optional[np.ndarray] = None
    ) -> np.ndarray:
        m = self.matrix
        x = np.asarray(x, dtype=np.float64)
        if y is None:
            y = np.zeros(m.n_rows, dtype=np.float64)
        else:
            y[:] = 0.0

        n_bands = m.NEAR_DIAGONALS + 1
        buffers = [
            np.zeros((n_bands, m.n_rows), dtype=np.float64)
            for _ in self.partitions
        ]
        atomics = [0] * self.n_threads

        def make_task(tid: int):
            start, end = self.partitions[tid]

            def task() -> None:
                atomics[tid] = m.spmv_partition_csb(
                    x, y, buffers[tid], start, end
                )

            return task

        self.executor.run_batch(
            [make_task(t) for t in range(self.n_threads)]
        )
        buffered = 0
        for buf in buffers:
            for band in buf:
                y += band
            buffered += int(np.count_nonzero(buf))
        self.last_stats = CSBRunStats(
            atomic_updates=sum(atomics),
            buffered_updates=buffered,
            n_threads=self.n_threads,
        )
        return y


def predict_csb_sym_time(
    matrix: CSBSymMatrix,
    partitions: Sequence[tuple[int, int]],
    platform: Platform,
    *,
    atomic_cycles: float = 40.0,
    cycles_per_element: float = 9.5,
    machine_scale: float = 1.0,
) -> float:
    """Roofline time for the CSB-Sym kernel.

    Accounts the same traffic classes as
    :func:`repro.machine.perfmodel.predict_spmv` — matrix stream,
    cache-modelled input-vector gathers, scattered transposed writes —
    plus [27]'s specific costs: an ``atomic_cycles`` serialized update
    and a cache-line transfer per far-block transposed element, and the
    fixed three-buffer reduction.
    """
    from ..machine.cache import x_traffic_bytes
    from ..machine.costmodel import DEFAULT_COST_MODEL as COST

    p = len(partitions)
    clock = platform.clock_ghz * 1e9
    smt = smt_compute_factor(platform, p)
    atomic = matrix.count_atomic_updates(partitions)
    elems = matrix.stored_entries
    compute = cycles_per_element * elems / p + atomic_cycles * atomic / p
    t_compute = compute * smt / clock

    # x gathers and transposed scatter, on the block-major stream.
    if matrix.blocks:
        col_stream = np.concatenate(
            [
                blk.bcol * matrix.beta + blk.lcols.astype(np.int64)
                for blk in matrix.blocks
            ]
        )
    else:
        col_stream = np.zeros(0, dtype=np.int64)
    cache = platform.cache_bytes_per_thread(p) * machine_scale
    x_bytes = x_traffic_bytes(col_stream, cache, COST.x_cache_share)
    scatter_bytes = COST.scatter_write_factor * x_traffic_bytes(
        col_stream, cache, COST.y_cache_share
    )

    n_bands = matrix.NEAR_DIAGONALS + 1
    reduce_bytes = 8.0 * n_bands * matrix.n_rows * min(p, 3)
    bw = platform.bandwidth_gbps(p) * 1e9
    t_memory = (
        matrix.size_bytes() + x_bytes + scatter_bytes + reduce_bytes
        + 8.0 * matrix.n_rows
    ) / bw
    # Atomics also serialize on the bus: count their line transfers.
    t_atomic_mem = atomic * 64.0 / bw
    return max(t_compute, t_memory + t_atomic_mem)
