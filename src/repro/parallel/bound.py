"""Bound operators: persistent SpM×V / SpM×M execution plans.

Iterative solvers apply the same operator hundreds of times (CG,
Fig. 14). Building the task closures, allocating the ``(p, N[, k])``
local buffers and the output, and compiling the formats' lazy
scatters on every call would be avoidable per-call overhead. This
module is the repo's OSKI-style answer (Akbudak et al.; RACE's
precomputed execution schedules): ``driver.bind(k)`` performs all of
that work *once* and returns a :class:`BoundOperator` whose
``__call__`` only zeroes workspaces in place and runs the precompiled
tasks.

Binding is signature-specific: ``k=None`` binds the 1-D SpM×V path,
an integer ``k`` binds the ``(N, k)`` multi-RHS path. The returned
array is the operator's private workspace — valid until the next call;
copy it (or pass ``out=``) to keep a result.

This is the only apply path: a plain ``driver(x)`` call applies the
driver's own cached operator for ``x``'s signature
(``driver.operator(k)``) and copies the result out.
"""

from __future__ import annotations

import threading
import warnings
from time import perf_counter_ns
from typing import Optional

import numpy as np

from ..obs.tracer import Tracer, active as _active_tracer, warn as _obs_warn
from ..resilience.errors import OperatorClosedError

_F64 = np.dtype(np.float64)

__all__ = ["BoundOperator", "BoundSymmetricSpMV", "BoundSpMV"]


def _record_traffic(
    tracer: Tracer, matrix, k: Optional[int], reduction=None
) -> int:
    """Model-relevant traffic counters for one application: matrix and
    stream bytes from the :mod:`repro.analysis.traffic` model and (for
    symmetric operators) the reduction rows actually touched vs the
    full effective-ranges budget ``N·(p-1)``. Only called when a tracer
    is enabled, so the analysis import stays off the cold-start path
    (and avoids a module-level cycle: analysis imports parallel).
    Returns the stream bytes for the ``op.traffic_bytes`` histogram."""
    from ..analysis.traffic import spmm_stream_bytes, spmv_stream_bytes

    size = matrix.size_bytes()
    if k is None:
        stream = spmv_stream_bytes(size, matrix.n_rows, matrix.n_cols)
    else:
        stream = spmm_stream_bytes(size, matrix.n_rows, matrix.n_cols, k)
    tracer.count("traffic.matrix_bytes", size)
    tracer.count("traffic.stream_bytes", stream)
    if reduction is not None:
        fp = reduction.footprint(k or 1)
        tracer.count("reduce.rows_touched", fp.reduction_reads)
        tracer.count(
            "reduce.rows_budget",
            reduction.n_rows * max(0, reduction.n_threads - 1) * (k or 1),
        )
        if getattr(reduction, "conflict_free", False):
            sched = reduction.schedule
            tracer.count("coloring.classes", sched.n_colors)
            # One rendezvous per barrier-separated step; small classes
            # are merged into serial steps, so this can be below the
            # class count.
            tracer.count("coloring.barrier_waits", sched.n_barriers)
    return stream


class _InputSlot:
    """The input of the application in flight. Precompiled tasks read
    it through :meth:`get`, so they reference this slot and not the
    operator: no reference cycle, and a dropped operator is freed by
    reference counting."""

    __slots__ = ("x",)

    def __init__(self):
        self.x: Optional[np.ndarray] = None

    def get(self) -> Optional[np.ndarray]:
        return self.x


class BoundOperator:
    """Reusable execution plan for repeated ``y = A @ x`` products.

    Created through ``driver.bind(k)`` — a new operator the caller owns
    and must close — or ``driver.operator(k)`` — the driver's own
    cached operator, closed by ``driver.close()``. At bind time the
    operator

    (a) precompiles the per-thread task list (closures are built once,
        reading the input slot set by each call), and
    (b) allocates persistent output/local workspaces that are zeroed in
        place instead of re-allocated per call.

    The operator keeps the driver's matrix, partitions, reduction and
    executor, not the driver itself: a driver caching its operators
    then forms no reference cycle with them, and dropping the driver
    frees them by reference counting.

    Concurrency: the operator owns *one* set of persistent workspaces,
    so applications are inherently non-reentrant — two interleaved
    applies would zero and accumulate into the same ``y``/locals and
    both return corrupt numerics. ``__call__`` therefore serializes
    under an internal lock (chosen over a typed ``OperatorBusyError``:
    blocking preserves the drop-in callable contract — every caller
    still gets the bit-identical result it would have gotten alone,
    just later — whereas a busy error would force retry loops into
    every solver). Recovery from a failed apply and ``close()`` run
    under the same lock, so neither can tear workspaces out from under
    an in-flight apply. The returned workspace view is only guaranteed
    until the next apply from *any* thread — concurrent callers must
    pass ``out=`` (or copy under their own coordination) to keep a
    result.

    Parameters
    ----------
    driver : ParallelSymmetricSpMV or ParallelSpMV
        Source of the matrix, partitions, reduction and executor.
    k : int, optional
        Right-hand sides per application; ``None`` binds the 1-D
        SpM×V signature.

    Failed applies: a fault mid-apply marks the operator *poisoned*
    (its workspaces may hold partial writes), counted on the
    ``resilience.operator_poisoned`` warning counter. The next call
    re-zeroes every workspace in full under the apply lock, counts
    ``resilience.operator_recovered`` and proceeds, so an apply never
    returns a partially-written ``y``.
    """

    #: Set by the driver that caches this operator: it is closed with
    #: the driver, so garbage collection together with the driver is
    #: not a leak and raises no ``ResourceWarning``.
    _owned = False

    def __init__(self, driver, k: Optional[int] = None):
        if k is not None:
            k = int(k)
            if k < 1:
                raise ValueError(
                    f"need at least one right-hand side, got k={k}"
                )
        self.matrix = m = driver.matrix
        self.partitions = driver.partitions
        self.reduction = getattr(driver, "reduction", None)
        self.executor = driver.executor
        self.k = k
        self.n_calls = 0
        self._closed = False
        self._poisoned = False
        # Serializes apply, recovery and close: one set of persistent
        # workspaces means applications are non-reentrant by design
        # (see the class docstring for the lock-vs-busy-error choice).
        self._apply_lock = threading.Lock()
        shape = (m.n_rows,) if k is None else (m.n_rows, k)
        self._y = np.zeros(shape, dtype=np.float64)
        self._slot = _InputSlot()
        self._x_shape = (m.n_cols,) if k is None else (m.n_cols, k)
        with _active_tracer().span("bind", k=k, threads=self.n_threads):
            self._allocate_workspaces()
            self._tasks = self._build_tasks()
        # Elements _zero_workspaces clears per call (constant once
        # bound) — reported through the "bound.zeroed_elements" counter.
        self._zero_volume = int(self._y.size) + self._locals_zero_volume()

    def _locals_zero_volume(self) -> int:
        """Local-workspace elements zeroed per call (0 when the driver
        has no local buffers)."""
        return 0

    # -- bind-time hooks (overridden per driver kind) -------------------
    def _allocate_workspaces(self) -> None:
        """Allocate any persistent buffers beyond the output."""

    def _build_tasks(self) -> list:
        """One precompiled closure per thread; each reads the input
        slot (``self._slot.get``)."""
        raise NotImplementedError

    def _zero_workspaces(self) -> None:
        self._y[...] = 0.0

    def _run_mult(self, label: Optional[str] = None) -> None:
        """Execute the precompiled multiplication phase. Default: one
        batch over ``self._tasks``; the colored symmetric path overrides
        this with barrier-stepped execution."""
        self.executor.run_batch(self._tasks, label)

    def _finish(self) -> None:
        """Post-multiplication phase (the symmetric reduction)."""

    # -- public surface -------------------------------------------------
    @property
    def n_threads(self) -> int:
        return len(self.partitions)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def poisoned(self) -> bool:
        """True after a failed/interrupted application until the next
        call recovers it."""
        return self._poisoned

    def _full_rezero(self) -> None:
        """Unconditional full-extent workspace clear (recovery path;
        the per-call :meth:`_zero_workspaces` may be window-restricted)."""
        self._y[...] = 0.0

    def bind(self, k: Optional[int] = None):
        """Idempotent re-bind: returns ``self`` when the signature
        already matches, else binds a new operator over the same matrix,
        partitions, reduction and executor (so a bound operator can be
        passed anywhere a driver is expected)."""
        if k == self.k and not self._closed:
            return self
        return type(self)(self, k)

    def __call__(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute ``A @ x`` into the persistent workspace.

        Returns the workspace (overwritten by the next call) unless
        ``out`` is given, in which case the result is copied there.

        Raises :class:`OperatorClosedError` after ``close()``. After a
        failed application the call first re-zeroes every workspace in
        full (see the class docstring).

        Concurrent calls serialize on the operator's internal lock
        (workspaces are shared; see the class docstring) — each caller
        gets the exact result it would have gotten alone.
        """
        # acquire/release, not ``with``: half the cost (~0.3 us), which
        # counts against the native kernel's ~60 us small-matrix apply.
        self._apply_lock.acquire()
        try:
            if self._closed:
                raise OperatorClosedError(
                    "operator is closed; bind() a new one"
                )
            if self._poisoned:
                # Recovery: every workspace — output and locals — is
                # re-zeroed *in full*, not just the per-call effective
                # windows, which assume the previous call completed.
                _obs_warn("resilience.operator_recovered")
                self._full_rezero()
                self._poisoned = False
            if type(x) is not np.ndarray or x.dtype is not _F64:
                x = np.asarray(x, dtype=np.float64)
            if x.shape != self._x_shape:
                raise ValueError(
                    f"x has shape {x.shape}, expected {self._x_shape} for "
                    f"an operator bound with k={self.k}"
                )
            if x is self._y:
                # Power-iteration style y = op(op(x)) must not zero its
                # own input when the caller feeds the workspace back in.
                x = x.copy()
            tracer = _active_tracer()
            if tracer.enabled:
                return self._apply_traced(tracer, x, out)
            return self._apply(x, out)
        finally:
            self._apply_lock.release()

    def _apply(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The uninstrumented hot path (input already validated).
        ``__call__`` dispatches here when no tracer is active; the
        overhead benchmark times this directly as the zero-
        instrumentation control for the disabled-tracer overhead."""
        self._zero_workspaces()
        self._slot.x = x
        try:
            self._run_mult()
            self._finish()
        except BaseException:
            # Workspaces may be partially written; never let the next
            # call's window-restricted zeroing compute on top of them.
            self._poison()
            raise
        finally:
            self._slot.x = None
        self.n_calls += 1
        if out is not None:
            np.copyto(out, self._y)
            return out
        return self._y

    def _metric_labels(self) -> dict:
        """(format, reduction, backend) identity of this operator —
        the label set its streaming histograms are keyed by."""
        return {
            "format": self.matrix.format_name,
            "reduction": getattr(self.reduction, "name", "none"),
            "backend": self.executor.mode,
        }

    def _apply_traced(
        self, tracer, x: np.ndarray, out: Optional[np.ndarray]
    ) -> np.ndarray:
        """The same application wrapped in phase spans and counters:
        ``bound.apply`` around ``bound.zero``, ``spmv.mult`` and
        ``spmv.reduce`` (empty without a reduction phase), for every
        apply — a plain ``driver(x)`` call included, since it applies
        the driver's cached operator. Additionally streams per-application latency and modeled
        traffic into the ``op.apply_ns`` / ``op.traffic_bytes``
        histograms, keyed by (format, reduction, backend)."""
        t0 = perf_counter_ns()
        with tracer.span("bound.apply", k=self.k):
            with tracer.span("bound.zero"):
                self._zero_workspaces()
            tracer.count("bound.zeroed_elements", self._zero_volume)
            self._slot.x = x
            try:
                with tracer.span("spmv.mult"):
                    self._run_mult(label="spmv.mult.task")
                with tracer.span("spmv.reduce"):
                    self._finish()
            except BaseException as exc:
                tracer.event(
                    "bound.poisoned", error=type(exc).__name__
                )
                self._poison()
                raise
            finally:
                self._slot.x = None
            tracer.count("bound.calls")
            stream_bytes = _record_traffic(
                tracer, self.matrix, self.k, self.reduction
            )
        labels = self._metric_labels()
        tracer.metrics.histogram("op.apply_ns", **labels).record(
            perf_counter_ns() - t0
        )
        tracer.metrics.histogram("op.traffic_bytes", **labels).record(
            stream_bytes
        )
        self.n_calls += 1
        if out is not None:
            np.copyto(out, self._y)
            return out
        return self._y

    def _poison(self) -> None:
        """Mark the operator's workspaces as possibly holding partial
        writes (failed or interrupted application)."""
        if not self._poisoned:
            self._poisoned = True
            _obs_warn("resilience.operator_poisoned")

    def close(self) -> None:
        """Release the workspaces and the format's lazy execution
        caches (``clear_caches``). Idempotent; the operator cannot be
        called afterwards. Note the format caches are shared with other
        operators bound to the same matrix — they rebuild on demand.
        Waits for any in-flight apply (same lock), so teardown never
        pulls workspaces out from under a running application."""
        with self._apply_lock:
            if self._closed:
                return
            self._closed = True
            self._tasks = []
            self._y = None
            self.matrix.clear_caches()

    def __enter__(self) -> "BoundOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        # A bound operator owns workspaces and pinned format caches;
        # relying on GC to release them is a leak pattern. Count it
        # (obs warning counter, visible in every trace export) and
        # raise the standard ResourceWarning — unless a driver owns the
        # operator and is being freed with it.
        try:
            if not (self._closed or self._owned):
                _obs_warn("bound_operator.unclosed_gc")
                warnings.warn(
                    f"{type(self).__name__} garbage-collected without "
                    "close(); use close() or a with-block",
                    ResourceWarning,
                    stacklevel=2,
                )
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"calls={self.n_calls}"
        return (
            f"<{type(self).__name__} k={self.k} "
            f"threads={self.n_threads} {state}>"
        )


class BoundSymmetricSpMV(BoundOperator):
    """Bound two-phase symmetric driver: persistent ``(p, N[, k])``
    local vectors, in-place effective-region zeroing, and the
    configured reduction.

    With the ``"coloring"`` strategy the bound shape changes: no local
    vectors exist (``allocate_locals`` is all ``None``, the zero volume
    is just ``y``), and the multiplication phase runs the color-class
    schedule's steps — built once at reduction construction — with a
    barrier per step instead of one flat batch."""

    @property
    def _conflict_free(self) -> bool:
        return getattr(self.reduction, "conflict_free", False)

    def _allocate_workspaces(self) -> None:
        self._locals = self.reduction.allocate_locals(self.k)

    def _locals_zero_volume(self) -> int:
        return int(self.reduction.zeroed_elements(self.k))

    def _build_tasks(self) -> list:
        """Per-thread multiplication closures of the two-phase driver;
        for a conflict-free (coloring) reduction, the schedule's
        barrier-separated *steps* (a list of task lists) instead."""
        get_x = self._slot.get
        if self._conflict_free:
            from .coloring import compile_colored_steps

            return compile_colored_steps(
                self.reduction.schedule, self._y, get_x
            )
        m = self.matrix
        kernel = m.spmv_partition if self.k is None else m.spmm_partition
        tasks = []
        for tid, (start, end) in enumerate(self.partitions):
            y_direct, y_local = self.reduction.thread_targets(
                tid, self._y, self._locals
            )

            def task(y_direct=y_direct, y_local=y_local,
                     start=start, end=end) -> None:
                kernel(get_x(), y_direct, y_local, start, end)

            tasks.append(task)
        return tasks

    def _run_mult(self, label: Optional[str] = None) -> None:
        if not self._conflict_free:
            super()._run_mult(label)
            return
        from .coloring import run_colored_steps

        run_colored_steps(self.executor, self._tasks, label)

    def _zero_workspaces(self) -> None:
        self._y[...] = 0.0
        self.reduction.zero_locals(self._locals)

    def _full_rezero(self) -> None:
        # Recovery cannot trust the window-restricted zeroing: clear
        # the local buffers over their full extent.
        self._y[...] = 0.0
        for buf in self._locals:
            if buf is not None:
                buf[...] = 0.0

    def _finish(self) -> None:
        self.reduction.reduce(self._y, self._locals)

    def close(self) -> None:
        if not self._closed:
            self._locals = []
        super().close()

    def footprint(self, k: int = 1):
        """Working-set accounting of the bound reduction."""
        return self.reduction.footprint(k)


class BoundSpMV(BoundOperator):
    """Bound row-partitioned unsymmetric driver (CSR / CSX): no
    reduction phase, rows are thread-exclusive."""

    def _build_tasks(self) -> list:
        """Per-thread closures: CSX partitions execute by index, CSR by
        row range."""
        get_x, y, m = self._slot.get, self._y, self.matrix
        multi = self.k is not None
        tasks = []
        if hasattr(m, "spmv_partition_only"):
            kernel = m.spmm_partition_only if multi else m.spmv_partition_only
            for tid in range(len(self.partitions)):

                def task(tid=tid) -> None:
                    kernel(get_x(), y, tid)

                tasks.append(task)
        else:
            kernel = m.spmm_rows if multi else m.spmv_rows
            for start, end in self.partitions:

                def task(start=start, end=end) -> None:
                    kernel(get_x(), y, start, end)

                tasks.append(task)
        return tasks
