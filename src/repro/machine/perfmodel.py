"""End-to-end SpM×V time prediction on the modelled platforms.

This module converts *exactly measured* per-thread work (bytes and
element counts read off the real data structures) into execution-time
predictions via the roofline model — the library's substitute for the
paper's hardware testbeds (see DESIGN.md). The prediction is split into
the multiplication and reduction phases so the breakdown figures
(Fig. 10, Fig. 14) can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from ..formats.base import INDEX_BYTES, VALUE_BYTES
from ..formats.csr import CSRMatrix
from ..formats.csx.matrix import CSXMatrix
from ..formats.csx.sym import CSXSymMatrix
from ..formats.sss import SSSMatrix
from ..parallel.partition import validate_partitions
from ..parallel.reduction import (
    ReductionFootprint,
    ReductionMethod,
    make_reduction,
)
from .cache import x_traffic_bytes
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .platforms import CACHE_LINE_BYTES, Platform
from .roofline import PhaseLoad, phase_time

__all__ = [
    "PredictedTime",
    "predict_spmv",
    "predict_serial_csr",
    "gflops",
]

AnyMatrix = Union[CSRMatrix, SSSMatrix, CSXMatrix, CSXSymMatrix]


@dataclass
class PredictedTime:
    """Predicted execution time of one SpM×V configuration."""

    format_name: str
    reduction: Optional[str]
    n_threads: int
    t_mult: float
    t_reduce: float
    t_mult_compute: float
    t_mult_memory: float
    t_reduce_compute: float
    t_reduce_memory: float
    mult_bytes: float
    reduce_bytes: float
    flops: float
    footprint: Optional[ReductionFootprint] = None
    #: Barrier rendezvous time (conflict-free coloring only: one
    #: synchronization per barrier-separated schedule step, overlapping
    #: neither compute nor the memory stream).
    t_barrier: float = 0.0

    @property
    def total(self) -> float:
        return self.t_mult + self.t_reduce + self.t_barrier

    @property
    def gflops(self) -> float:
        return gflops(self.flops, self.total)

    def speedup_over(self, baseline: "PredictedTime") -> float:
        return baseline.total / self.total


def gflops(flops: float, seconds: float) -> float:
    """Gflop/s given a flop count and a duration."""
    return flops / seconds / 1e9 if seconds > 0 else float("inf")


# ----------------------------------------------------------------------
# Per-format, per-partition multiplication-phase work
# ----------------------------------------------------------------------
@dataclass
class _ThreadWork:
    cycles: float
    matrix_bytes: float
    y_bytes: float
    col_stream: np.ndarray  # x-access stream for the cache estimator
    scatter_stream: Optional[np.ndarray]  # scattered y writes (symmetric)
    flops: float


def _csr_thread_work(
    m: CSRMatrix, start: int, end: int, cost: CostModel
) -> _ThreadWork:
    lo, hi = int(m.rowptr[start]), int(m.rowptr[end])
    nnz = hi - lo
    rows = end - start
    return _ThreadWork(
        cycles=cost.csr_cycles_per_nnz * nnz + cost.csr_cycles_per_row * rows,
        matrix_bytes=(VALUE_BYTES + INDEX_BYTES) * nnz + INDEX_BYTES * rows,
        y_bytes=VALUE_BYTES * rows,
        col_stream=m.colind[lo:hi],
        scatter_stream=None,
        flops=2.0 * nnz,
    )


def _sss_thread_work(
    m: SSSMatrix, start: int, end: int, cost: CostModel
) -> _ThreadWork:
    lo, hi = int(m.rowptr[start]), int(m.rowptr[end])
    lower = hi - lo
    rows = end - start
    cols = m.colind[lo:hi]
    return _ThreadWork(
        cycles=cost.sss_cycles_per_lower * lower
        + cost.sss_cycles_per_diag * rows,
        matrix_bytes=(VALUE_BYTES + INDEX_BYTES) * lower
        + (VALUE_BYTES + INDEX_BYTES) * rows,  # dvalues + rowptr
        y_bytes=VALUE_BYTES * rows,
        col_stream=cols,
        scatter_stream=cols,  # transposed updates write y[c]
        flops=4.0 * lower + 2.0 * rows,
    )


def _csx_unit_counts(p) -> tuple[int, int, int]:
    """``(substructure elements, delta elements, units)`` of a partition."""
    units = p.unit_arrays
    delta = int(units.length[units.unit_is_delta()].sum())
    return units.n_elements - delta, delta, units.n_units


def _csx_partition_work(
    m: CSXMatrix, index: int, cost: CostModel
) -> _ThreadWork:
    p = m.partitions[index]
    rows = p.row_end - p.row_start
    sub_elems, delta_elems, n_units = _csx_unit_counts(p)
    col_stream = _units_column_stream(p.unit_arrays)
    return _ThreadWork(
        cycles=cost.csx_cycles_per_sub_elem * sub_elems
        + cost.csx_cycles_per_delta_elem * delta_elems
        + cost.csx_cycles_per_unit * n_units,
        matrix_bytes=VALUE_BYTES * (sub_elems + delta_elems) + p.ctl_bytes(),
        y_bytes=VALUE_BYTES * rows,
        col_stream=col_stream,
        scatter_stream=None,
        flops=2.0 * (sub_elems + delta_elems),
    )


def _csx_sym_partition_work(
    m: CSXSymMatrix, index: int, cost: CostModel
) -> _ThreadWork:
    p = m.partitions[index]
    rows = p.row_end - p.row_start
    sub_elems, delta_elems, n_units = _csx_unit_counts(p)
    elems = sub_elems + delta_elems
    col_stream = _units_column_stream(p.unit_arrays)
    return _ThreadWork(
        cycles=cost.csx_cycles_per_sub_elem * sub_elems
        + cost.csx_cycles_per_delta_elem * delta_elems
        + cost.csx_cycles_per_unit * n_units
        + cost.csx_sym_extra_cycles_per_elem * elems
        + cost.sss_cycles_per_diag * rows,
        matrix_bytes=VALUE_BYTES * elems
        + p.ctl_bytes()
        + VALUE_BYTES * rows,  # dvalues
        y_bytes=VALUE_BYTES * rows,
        col_stream=col_stream,
        scatter_stream=col_stream,  # transposed updates
        flops=4.0 * elems + 2.0 * rows,
    )


def _units_column_stream(units) -> np.ndarray:
    """Concatenated x-access columns in unit execution order."""
    return units.coordinates()[1]


def _thread_work(
    matrix: AnyMatrix,
    partitions: Sequence[tuple[int, int]],
    cost: CostModel,
) -> list[_ThreadWork]:
    if isinstance(matrix, CSXSymMatrix):
        want = matrix.partition_bounds
        if list(partitions) != want:
            raise ValueError("partitions do not match CSX-Sym preprocessing")
        return [
            _csx_sym_partition_work(matrix, i, cost)
            for i in range(len(partitions))
        ]
    if isinstance(matrix, CSXMatrix):
        want = [(p.row_start, p.row_end) for p in matrix.partitions]
        if list(partitions) != want:
            raise ValueError("partitions do not match CSX preprocessing")
        return [
            _csx_partition_work(matrix, i, cost)
            for i in range(len(partitions))
        ]
    if isinstance(matrix, SSSMatrix):
        return [
            _sss_thread_work(matrix, s, e, cost) for s, e in partitions
        ]
    if isinstance(matrix, CSRMatrix):
        return [
            _csr_thread_work(matrix, s, e, cost) for s, e in partitions
        ]
    raise TypeError(f"unsupported matrix type {type(matrix).__name__}")


# ----------------------------------------------------------------------
# Reduction-phase work
# ----------------------------------------------------------------------
def _reduction_load(
    fp: ReductionFootprint, cost: CostModel, p: int
) -> PhaseLoad:
    """Traffic and cycles of the reduction phase.

    Counts the element reads of the reduction, its output writes
    (write-allocate: fetch + write back, 16 bytes each), and the
    per-iteration re-initialization of the local vectors' touched range
    (also write-allocate) — all scale with the method's working set,
    which is the paper's central observation.
    """
    if fp.method == "indexed":
        init_elements = fp.index_pairs
    else:
        init_elements = fp.reduction_reads
    bytes_total = (
        8.0 * fp.reduction_reads
        + 16.0 * fp.reduction_writes
        + 16.0 * init_elements
    )
    cycles_total = cost.reduce_cycles_per_element * (
        fp.reduction_reads + fp.reduction_writes
    )
    per_thread = [cycles_total / p] * p
    return PhaseLoad(per_thread, bytes_total, float(fp.reduction_reads))


# ----------------------------------------------------------------------
# Public prediction API
# ----------------------------------------------------------------------
def predict_spmv(
    matrix: AnyMatrix,
    partitions: Sequence[tuple[int, int]],
    platform: Platform,
    reduction: Optional[Union[str, ReductionMethod]] = None,
    cost: CostModel = DEFAULT_COST_MODEL,
    machine_scale: float = 1.0,
) -> PredictedTime:
    """Predict one SpM×V execution.

    Parameters
    ----------
    matrix : CSR / SSS / CSX / CSX-Sym instance
    partitions : thread row partitions (one per modelled thread)
    platform : Platform
    reduction : reduction method (symmetric formats only); string name
        or prebuilt instance
    cost : CostModel
    machine_scale : float
        Scales the platform's cache capacity. The benchmark harness runs
        miniature matrices (``scale`` of the paper's sizes); passing the
        same factor here shrinks the cache identically, so capacity
        effects (input-vector locality, reduction working-set pressure)
        appear at the same *relative* sizes as on the real machines.
        Bandwidth and compute rates are unaffected (traffic and flops
        are per-element quantities).
    """
    validate_partitions(partitions, matrix.n_rows)
    p = len(partitions)
    if p > platform.n_threads:
        raise ValueError(
            f"{platform.name} has {platform.n_threads} hardware threads, "
            f"got {p} partitions"
        )
    symmetric = isinstance(matrix, (SSSMatrix, CSXSymMatrix))
    fp: Optional[ReductionFootprint] = None
    if symmetric:
        if reduction is None:
            reduction = "indexed"
        if isinstance(reduction, str):
            reduction = make_reduction(reduction, matrix, partitions)
        fp = reduction.footprint()
    elif reduction is not None and not isinstance(reduction, str):
        raise ValueError("reduction only applies to symmetric formats")

    works = _thread_work(matrix, partitions, cost)

    if machine_scale <= 0:
        raise ValueError("machine_scale must be positive")
    # Cache available per thread for x reuse, shrunk by the reduction
    # working set (the cache-interference effect of Fig. 10).
    llc = platform.llc_bytes_available(p) * machine_scale
    x_share = cost.x_cache_share
    if fp is not None and llc > 0:
        pressure = 1.0 - fp.ws_measured_bytes / llc
        x_share = max(cost.min_x_share, x_share * max(0.0, pressure))
    cache_per_thread = platform.cache_bytes_per_thread(p) * machine_scale

    cycles = []
    mult_bytes = 0.0
    flops = 0.0
    for w in works:
        cycles.append(w.cycles)
        mult_bytes += w.matrix_bytes + w.y_bytes
        mult_bytes += x_traffic_bytes(w.col_stream, cache_per_thread, x_share)
        if w.scatter_stream is not None and w.scatter_stream.size:
            misses_bytes = x_traffic_bytes(
                w.scatter_stream, cache_per_thread, cost.y_cache_share
            )
            mult_bytes += cost.scatter_write_factor * misses_bytes
        flops += w.flops

    mult_load = PhaseLoad(cycles, mult_bytes, flops)
    t_mult, t_mc, t_mm = phase_time(mult_load, platform, p)

    t_barrier = 0.0
    if fp is not None and getattr(reduction, "conflict_free", False):
        from ..parallel.coloring import BARRIER_CYCLES

        sched = reduction.schedule
        # Color-ordered execution fetches the matrix at row granularity
        # (scattered class rows waste partial cache lines) and pays one
        # rendezvous per barrier-separated step.
        row_waste = sched.n_nonempty_rows * CACHE_LINE_BYTES
        mult_bytes += row_waste
        mult_load = PhaseLoad(cycles, mult_bytes, flops)
        t_mult, t_mc, t_mm = phase_time(mult_load, platform, p)
        clock = platform.clock_ghz * 1e9
        t_barrier = sched.n_barriers * BARRIER_CYCLES * p ** 0.5 / clock

    if fp is not None:
        red_load = _reduction_load(fp, cost, p)
        t_red, t_rc, t_rm = phase_time(red_load, platform, p)
        reduce_bytes = red_load.bytes_total
        flops += red_load.flops_total
    else:
        t_red = t_rc = t_rm = 0.0
        reduce_bytes = 0.0

    return PredictedTime(
        format_name=matrix.format_name,
        reduction=fp.method if fp else None,
        n_threads=p,
        t_mult=t_mult,
        t_reduce=t_red,
        t_mult_compute=t_mc,
        t_mult_memory=t_mm,
        t_reduce_compute=t_rc,
        t_reduce_memory=t_rm,
        mult_bytes=mult_bytes,
        reduce_bytes=reduce_bytes,
        flops=flops,
        footprint=fp,
        t_barrier=t_barrier,
    )


def predict_serial_csr(
    csr: CSRMatrix,
    platform: Platform,
    cost: CostModel = DEFAULT_COST_MODEL,
    machine_scale: float = 1.0,
) -> PredictedTime:
    """Single-threaded CSR prediction — the speedup baseline."""
    return predict_spmv(
        csr, [(0, csr.n_rows)], platform, cost=cost,
        machine_scale=machine_scale,
    )
