"""Conflict-free (colored) symmetric SpM×V scheduling.

Batista et al. (and the RACE paper in PAPERS.md) avoid the reduction
phase entirely: rows are colored so that no two rows of the same color
write a common output element, and the kernel processes one color class
at a time — each class fully parallel with *direct* output writes,
classes separated by barriers.

A thread processing row ``r`` writes ``y[r]`` and ``y[c]`` for every
stored lower element ``(r, c)``; two rows conflict iff their write sets
intersect, i.e. iff they are within distance 2 in the symmetrized
adjacency graph. This module provides

- :func:`distance2_coloring` — degree-ordered (largest-first) greedy
  coloring with a vectorized neighbor-color scan,
- :func:`verify_coloring` — fast bincount-keyed validity check,
- :class:`ColoringSchedule` / :func:`build_coloring_schedule` — the
  two-level execution plan behind the ``"coloring"`` reduction strategy
  (color classes → nnz-balanced row batches, barrier between classes),
- :func:`compile_colored_steps` / :func:`run_colored_steps` — task
  compilation and barrier-stepped execution of the bound operators,
- :func:`coloring_stats` and the :func:`predict_colored_time` roofline
  account.

The paper's observation — "the geometry of the graphs limits the
potential of this approach" — falls out naturally: the number of colors
grows with the squared degree, so dense matrices serialize into many
barrier-separated steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..formats.sss import SSSMatrix
from ..machine.platforms import Platform
from ..machine.roofline import smt_compute_factor
from ..native import batch_product
from .partition import partition_nnz_balanced

__all__ = [
    "distance2_coloring",
    "verify_coloring",
    "ColoringUnsupportedError",
    "ColoringSchedule",
    "build_coloring_schedule",
    "compile_colored_steps",
    "run_colored_steps",
    "coloring_stats",
    "predict_colored_time",
    "BARRIER_CYCLES",
    "MIN_PARALLEL_CLASS_WORK",
]

#: Modeled cost of one barrier rendezvous (cycles); tens of microseconds
#: for a 24-thread pthread barrier on the paper's 2008-era SMPs.
BARRIER_CYCLES = 20_000.0

#: Color classes whose total balanced weight (diagonal + two updates per
#: stored element) falls below this are not worth fanning out: they run
#: as a single task, and consecutive such classes merge into one serial
#: step so tiny tail classes do not each pay a barrier.
MIN_PARALLEL_CLASS_WORK = 2048

#: Key spaces (``n_rows * n_colors``) up to this use the O(nnz) bincount
#: verifier; larger ones fall back to the sort-based check.
_FAST_VERIFY_KEYSPACE = 1 << 26


class ColoringUnsupportedError(ValueError):
    """The format exposes no lower-triangle CSR view to schedule from."""


def _lower_triple_of(
    matrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(dvalues, rowptr, colind, values)`` of the stored strictly-lower
    triangle in canonical dtypes, via the format's ``lower_triple()``
    contract (see :class:`repro.formats.base.SymmetricFormat`)."""
    getter = getattr(matrix, "lower_triple", None)
    triple = getter() if getter is not None else None
    if triple is None:
        raise ColoringUnsupportedError(
            f"{type(matrix).__name__} exposes no lower-triangle CSR view; "
            "the coloring strategy supports SSS and CSX-Sym"
        )
    dvalues, rowptr, colind, values = triple
    return (
        np.asarray(dvalues, dtype=np.float64),
        np.asarray(rowptr, dtype=np.int64),
        np.asarray(colind, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
    )


def _adjacency_csr(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized adjacency (indptr, indices) from the stored lower
    triangle's coordinates, self-loops excluded."""
    src = np.concatenate([rows, cols])
    dst = np.concatenate([cols, rows])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst


def _span_gather(
    starts: np.ndarray, lens: np.ndarray, total: int
) -> np.ndarray:
    """Concatenated ``[arange(s, s+l) for s, l in zip(starts, lens)]``
    without a Python loop (the multi-arange trick)."""
    offsets = np.cumsum(lens) - lens
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - offsets, lens
    )


def distance2_coloring(matrix) -> np.ndarray:
    """Degree-ordered greedy distance-2 coloring of the row-conflict
    graph.

    Rows are visited largest-degree-first (ties broken by row index, so
    the result is deterministic) and each row takes the smallest color
    absent from its distance-2 neighborhood, found with a vectorized
    gather over the neighbors' adjacency spans instead of the former
    per-neighbor Python slicing. Accepts any symmetric format exposing
    ``lower_triple()`` (SSS, CSX-Sym).

    Returns an int array ``color[row]`` guaranteeing that any two rows
    within distance 2 of each other (sharing an output write) receive
    different colors.
    """
    _, rowptr, colind, _ = _lower_triple_of(matrix)
    n = rowptr.size - 1
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(rowptr))
    indptr, indices = _adjacency_csr(n, rows, colind)
    degrees = np.diff(indptr)
    visit = np.argsort(-degrees, kind="stable")
    colors = np.full(n, -1, dtype=np.int64)
    for r in visit:
        lo, hi = indptr[r], indptr[r + 1]
        if hi == lo:
            colors[r] = 0  # isolated row: only writes y[r]
            continue
        neigh = indices[lo:hi]
        starts = indptr[neigh]
        lens = indptr[neigh + 1] - starts
        total = int(lens.sum())
        d2 = indices[_span_gather(starts, lens, total)]
        used = np.concatenate([colors[neigh], colors[d2]])
        used = used[used >= 0]
        if used.size == 0:
            colors[r] = 0
            continue
        # Smallest absent color via a boolean occupancy scan.
        mark = np.zeros(int(used.max()) + 2, dtype=bool)
        mark[used] = True
        colors[r] = int(np.flatnonzero(~mark)[0])
    return colors


def _write_pairs(
    n: int, rowptr: np.ndarray, colind: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(writer, target) pairs of every output write: row ``r`` writes
    ``y[r]`` (diagonal) and ``y[c]`` for each stored lower ``(r, c)``;
    symmetrized so the check is conservative for both halves."""
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(rowptr))
    diag = np.arange(n, dtype=np.int64)
    writer = np.concatenate([rows, colind, diag])
    target = np.concatenate([colind, rows, diag])
    return writer, target


def verify_coloring(matrix, colors: np.ndarray) -> bool:
    """True iff no two same-colored rows share an output write.

    Fast path: every (writer, target) pair is distinct in a canonical
    lower triangle, so bucketing writes by ``target * n_colors + color``
    and finding any bucket with two entries proves two *different*
    writers of one element share a color. The sort-based exact check
    runs only when the bincount screen finds a candidate bucket (or the
    key space is too large to bucket).
    """
    _, rowptr, colind, _ = _lower_triple_of(matrix)
    n = rowptr.size - 1
    colors = np.asarray(colors, dtype=np.int64)
    if colors.shape != (n,):
        raise ValueError("colors must assign one color per row")
    if n == 0:
        return True
    if colors.size and colors.min() < 0:
        return False
    writer, target = _write_pairs(n, rowptr, colind)
    n_colors = int(colors.max()) + 1
    if n * n_colors <= _FAST_VERIFY_KEYSPACE:
        key = target * n_colors + colors[writer]
        if not np.any(np.bincount(key, minlength=n * n_colors) > 1):
            return True
    # Exact check: same target + same color + different writer.
    wc = colors[writer]
    order = np.lexsort((wc, target))
    t_sorted = target[order]
    w_sorted = writer[order]
    c_sorted = wc[order]
    same = (t_sorted[1:] == t_sorted[:-1]) & (c_sorted[1:] == c_sorted[:-1])
    conflict = same & (w_sorted[1:] != w_sorted[:-1])
    return not bool(np.any(conflict))


# ---------------------------------------------------------------------------
# The two-level conflict-free schedule (the "coloring" reduction strategy)
# ---------------------------------------------------------------------------


class _ClassSegment:
    """One contiguous row batch of one color class: its rows (ascending),
    their diagonal values, and their stored elements (``cols`` /
    ``vals``, row ``i``'s at ``ptr[i]:ptr[i + 1]``), run by the native
    batch kernel. Within one color class every output target — the
    batch rows *and* the transposed columns — is written once, so the
    kernel writes ``y`` directly, with no atomics and no duplicate-index
    hazard. ``extent`` bounds every row and column index."""

    __slots__ = ("rows", "diag", "ptr", "cols", "vals", "extent")

    def __init__(self, rows, diag, ptr, cols, vals, extent):
        self.rows, self.diag, self.ptr = rows, diag, ptr
        self.cols, self.vals, self.extent = cols, vals, extent

    def apply(self, x: np.ndarray, y: np.ndarray) -> None:
        batch_product(x, y, self.rows, self.ptr, self.cols, self.vals,
                      self.diag, self.extent)

    @property
    def index_bytes(self) -> int:
        """Schedule footprint of this batch."""
        return (
            self.rows.nbytes + self.diag.nbytes + self.ptr.nbytes
            + self.cols.nbytes + self.vals.nbytes
        )


def _make_segment(rows_sel, dvalues, rowptr, colind, values):
    rows_sel = np.ascontiguousarray(rows_sel, dtype=np.int64)
    lo = rowptr[rows_sel]
    lens = rowptr[rows_sel + 1] - lo
    ptr = np.zeros(rows_sel.size + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    idx = _span_gather(lo, lens, int(ptr[-1]))
    return _ClassSegment(
        rows_sel, dvalues[rows_sel], ptr, colind[idx], values[idx],
        rowptr.size - 1,
    )


@dataclass
class ColoringSchedule:
    """Two-level conflict-free execution plan.

    ``steps`` is a list of barrier-separated steps; each step is a list
    of independent tasks (run concurrently); each task is a list of
    :class:`_ClassSegment` batches executed in order. A parallel color
    class contributes one step with up to ``n_slots`` nnz-balanced
    single-segment tasks; consecutive small classes merge into one
    single-task step whose segments preserve class order (column
    uniqueness holds only *within* a class, so merged classes stay
    separate segments).

    Determinism: batch membership and within-batch element order are
    fixed here at build time, every output element is written by exactly
    one task per step, and steps are barrier-ordered — so results are
    bit-identical no matter how an executor schedules the tasks.
    """

    n_rows: int
    n_colors: int
    colors: np.ndarray
    steps: list = field(repr=False)
    n_nonempty_rows: int = 0

    @property
    def n_barriers(self) -> int:
        """Synchronization points per apply (one per step)."""
        return len(self.steps)

    @property
    def n_batches(self) -> int:
        return sum(len(step) for step in self.steps)

    @property
    def index_bytes(self) -> int:
        """Precomputed schedule bytes (the strategy's memory cost)."""
        return sum(
            seg.index_bytes
            for step in self.steps
            for task in step
            for seg in task
        )


def build_coloring_schedule(
    matrix,
    n_slots: int,
    *,
    colors: Optional[np.ndarray] = None,
    min_parallel_work: int = MIN_PARALLEL_CLASS_WORK,
) -> ColoringSchedule:
    """Compile the conflict-free schedule: distance-2 coloring → per
    class, ``partition_nnz_balanced`` row batches over ``n_slots``
    (weight = 1 diagonal + 2 updates per stored element) → small-class
    merging into serial steps.
    """
    dvalues, rowptr, colind, values = _lower_triple_of(matrix)
    n = rowptr.size - 1
    if colors is None:
        colors = distance2_coloring(matrix)
    colors = np.asarray(colors, dtype=np.int64)
    if colors.shape != (n,):
        raise ValueError("colors must assign one color per row")
    n_slots = max(1, int(n_slots))
    lens = np.diff(rowptr)
    weights = 1 + 2 * lens
    n_colors = int(colors.max()) + 1 if n else 0
    order = np.argsort(colors, kind="stable")  # (color, row) ascending
    counts = np.bincount(colors, minlength=n_colors) if n else np.zeros(0, int)
    offsets = np.zeros(n_colors + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    steps: list = []
    serial_run: list = []  # accumulated segments of consecutive small classes
    for c in range(n_colors):
        class_rows = order[offsets[c]: offsets[c + 1]]
        w = weights[class_rows]
        if n_slots > 1 and int(w.sum()) >= min_parallel_work:
            if serial_run:
                steps.append([serial_run])
                serial_run = []
            tasks = [
                [_make_segment(class_rows[s:e], dvalues, rowptr, colind, values)]
                for s, e in partition_nnz_balanced(
                    w, min(n_slots, class_rows.size)
                )
                if e > s
            ]
            steps.append(tasks)
        else:
            serial_run.append(
                _make_segment(class_rows, dvalues, rowptr, colind, values)
            )
    if serial_run:
        steps.append([serial_run])
    return ColoringSchedule(
        n_rows=n,
        n_colors=n_colors,
        colors=colors,
        steps=steps,
        n_nonempty_rows=int(np.count_nonzero(lens)),
    )


def compile_colored_steps(
    schedule: ColoringSchedule,
    y: np.ndarray,
    get_x: Callable[[], np.ndarray],
) -> list:
    """Bind the schedule to concrete operands: a list of steps, each a
    list of zero-argument task callables writing ``y`` directly.

    ``get_x`` is resolved per call so bound operators can stage the
    input after compilation; ``(n,)`` and ``(n, k)`` inputs both run."""
    steps_out = []
    for step in schedule.steps:
        tasks = []
        for segments in step:
            def task(_segs=tuple(segments)):
                x = get_x()
                for seg in _segs:
                    seg.apply(x, y)
            tasks.append(task)
        steps_out.append(tasks)
    return steps_out


def run_colored_steps(
    executor, steps: list, label: Optional[str] = None
) -> None:
    """Execute compiled colored steps: one ``run_batch`` per step (the
    inter-class barrier — ``run_batch`` returns only after every task
    of the batch completed). A failed step raises out of here; the
    bound operator that owns ``steps`` is then poisoned and re-zeroes
    in full on its next call."""
    tid_base = 0
    for tasks in steps:
        executor.run_batch(tasks, label, tid_base)
        tid_base += len(tasks)


# ---------------------------------------------------------------------------
# Coloring structure statistics
# ---------------------------------------------------------------------------


@dataclass
class ColoringStats:
    """Structure of one coloring (the method's scalability limiter)."""

    n_colors: int
    largest_class: int
    smallest_class: int
    mean_class: float

    @property
    def parallelism_bound(self) -> float:
        """Average rows concurrently processable (upper bound)."""
        return self.mean_class


def coloring_stats(colors: np.ndarray) -> ColoringStats:
    counts = np.bincount(colors)
    return ColoringStats(
        n_colors=int(counts.size),
        largest_class=int(counts.max()),
        smallest_class=int(counts.min()),
        mean_class=float(counts.mean()),
    )


def predict_colored_time(
    sss: SSSMatrix,
    colors: np.ndarray,
    platform: Platform,
    n_threads: int,
    *,
    barrier_cycles: float = BARRIER_CYCLES,
    cycles_per_element: float = 9.5,
    machine_scale: float = 1.0,
) -> float:
    """Roofline-style time for the colored kernel.

    Accounts the same traffic classes as
    :func:`repro.machine.perfmodel.predict_spmv`, but on the *color
    ordered* element stream: rows of one class are scattered across the
    matrix, so the matrix arrays are fetched at row granularity (partial
    cache lines wasted on short rows) and the input-vector gathers lose
    row-to-row locality. Classes are separated by barriers whose cost
    grows with the thread count. This combination — not any single
    term — is what keeps the method behind the local-vectors approach.
    """
    from ..machine.cache import x_traffic_bytes
    from ..machine.costmodel import DEFAULT_COST_MODEL as COST
    from ..machine.platforms import CACHE_LINE_BYTES

    counts = np.bincount(colors)
    rowptr = sss.rowptr
    lens = np.diff(rowptr).astype(np.int64)
    class_elems = np.zeros(counts.size, dtype=np.float64)
    np.add.at(class_elems, colors, lens)
    clock = platform.clock_ghz * 1e9
    smt = smt_compute_factor(platform, n_threads)
    t_compute = 0.0
    for k in range(counts.size):
        work = cycles_per_element * class_elems[k] + 2.0 * counts[k]
        t_compute += work * smt / (n_threads * clock)
    # Barriers are serialization points: they overlap with neither the
    # compute nor the memory stream (a 24-thread pthread barrier on a
    # 2008-era SMP costs tens of microseconds).
    t_barriers = (
        counts.size * barrier_cycles * n_threads ** 0.5 / clock
    )

    # Color-ordered element stream for the cache model.
    order = np.argsort(colors, kind="stable")
    if sss.colind.size:
        col_stream = np.concatenate(
            [
                sss.colind[rowptr[r] : rowptr[r + 1]].astype(np.int64)
                for r in order
                if rowptr[r + 1] > rowptr[r]
            ]
        )
    else:
        col_stream = np.zeros(0, dtype=np.int64)
    cache = platform.cache_bytes_per_thread(n_threads) * machine_scale
    x_bytes = x_traffic_bytes(col_stream, cache, COST.x_cache_share)
    scatter_bytes = COST.scatter_write_factor * x_traffic_bytes(
        col_stream, cache, COST.y_cache_share
    )
    # Row-granular matrix fetches: short scattered rows waste partial
    # lines of the values/colind arrays (half a line per row per array
    # on average).
    n_nonempty = int(np.count_nonzero(lens))
    row_waste = n_nonempty * CACHE_LINE_BYTES
    bw = platform.bandwidth_gbps(n_threads) * 1e9
    t_memory = (
        sss.size_bytes() + row_waste + x_bytes + scatter_bytes
        + 8.0 * sss.n_rows
    ) / bw
    return max(t_compute, t_memory) + t_barriers
