"""Long-lived worker processes over shared-memory workspaces.

:class:`ProcessPool` is the execution half of the ``processes``
backend: a fixed set of daemon workers, one duplex pipe each, spawned
once per bound operator. Every worker attaches the operator's two
shared-memory arenas (:mod:`repro.parallel.shm`), reconstructs the
driver state zero-copy, precompiles its task closures — and then the
per-call protocol is descriptors only::

    parent -> worker   ("run", batch, [tid, ...], collect)
    worker -> parent   ("done", batch, [(tid, pid, dur_ns, err), ...],
                        metrics_snapshot | None)

``collect`` mirrors the parent's tracer enablement: when set, the
worker runs the batch under its own (process-local) enabled tracer and
ships back its per-batch delta — one
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` holding the
counters the kernels bumped and any streaming metrics — then clears
its tracer. The parent merges the snapshot into its active tracer's
registry (counter sums and histogram merges are associative, so
worker/batch arrival order does not matter): a ``"processes"`` run
reports the same counter and metric names as ``threads``/``serial``.
With tracing disabled nothing is collected and the reply carries
``None``.

Failure containment mirrors the thread executor: the parent collects a
reply from **every** worker it dispatched to before raising, so by the
time a :class:`~repro.resilience.errors.BatchExecutionError`
propagates, no worker is still writing the shared workspaces. A dead
worker (EOF/broken pipe) is recorded as one
:class:`~repro.resilience.errors.WorkerCrashError` per assigned task
and respawned lazily before the next batch (counted on the
``resilience.worker_respawn`` warning counter).

Chaos composes: a :class:`~repro.resilience.chaos.ChaosPlan` in the
:class:`WorkerSpec` is applied *worker-side* (raise/delay faults; the
plan's integer-arithmetic derivation is process-independent), while
the parent perturbs dispatch order from the same plan.
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
import traceback
import weakref
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Optional, Sequence

from ..obs.tracer import (
    Tracer,
    active as _active_tracer,
    set_active as _set_active,
    warn as _obs_warn,
)
from ..resilience.chaos import ChaosPlan
from ..resilience.errors import (
    BatchExecutionError,
    RemoteTaskError,
    TaskFailure,
    WorkerCrashError,
)
from . import shm as _shm

__all__ = ["WorkerSpec", "ProcessPool"]

#: Seconds a worker gets to exit after a "stop" message before being
#: terminated outright.
_JOIN_TIMEOUT = 2.0


@dataclass
class WorkerSpec:
    """Everything a worker needs to rebuild its task list — all
    picklable, no arrays (those live in the named arenas).

    ``kind`` selects the compile path: ``"sym"`` (two-phase symmetric
    driver, with reduction and local buffers) or ``"unsym"`` (row-
    partitioned CSR/CSX driver). Workspace references are ``(offset,
    shape)`` pairs into the workspace arena; ``locals_refs`` holds
    ``None`` where a thread writes directly and owns no local buffer.
    ``untrack`` stays False for pool workers — they share the parent's
    resource tracker regardless of start method (see
    :mod:`repro.parallel.shm`).
    """

    kind: str
    payload: bytes
    table: list
    data_name: str
    ws_name: str
    x_ref: tuple
    y_ref: tuple
    locals_refs: list = field(default_factory=list)
    k: Optional[int] = None
    plan: Optional[ChaosPlan] = None
    untrack: bool = False


def _portable_exc(exc: BaseException) -> BaseException:
    """The exception itself when it survives a pickle round-trip, else
    a :class:`RemoteTaskError` carrying its type, message and
    traceback text."""
    try:
        clone = pickle.loads(pickle.dumps(exc))
        if type(clone) is type(exc):
            return exc
    except Exception:
        pass
    return RemoteTaskError(
        type(exc).__name__,
        str(exc),
        "".join(traceback.format_exception(exc)),
    )


def _build_tasks(spec: WorkerSpec, ws: "_shm.SharedArena", x, y) -> list:
    """Worker-side task compilation through the same compile functions
    the parent's bound operator uses — one code path, two processes."""
    from .bound import compile_symmetric_tasks, compile_unsymmetric_tasks

    data = _shm.SharedArena.attach(spec.data_name, untrack=spec.untrack)
    matrix, partitions, reduction = _shm.unpack_from_arena(
        data, spec.payload, spec.table
    )
    if spec.kind == "sym":
        locals_ = [
            ws.view(*ref) if ref is not None else None
            for ref in spec.locals_refs
        ]
        if getattr(reduction, "conflict_free", False):
            # The color-class schedule rode into the data arena with the
            # reduction; its tasks replace the partition kernels. The
            # parent dispatches *global* (step-major) task ids, so the
            # barrier-separated steps flatten into one indexable list.
            steps = compile_symmetric_tasks(
                matrix, reduction, partitions, spec.k, y, locals_,
                lambda: x,
            )
            tasks = [task for step in steps for task in step]
        else:
            tasks = compile_symmetric_tasks(
                matrix, reduction, partitions, spec.k, y, locals_, lambda: x
            )
    else:
        tasks = compile_unsymmetric_tasks(
            matrix, partitions, spec.k, y, lambda: x
        )
    return tasks, data


def _worker_main(conn, spec: WorkerSpec) -> None:
    """Worker entry point: attach arenas once, then serve batches until
    "stop" or EOF (parent death)."""
    # What a forked worker inherits is never garbage here. Freezing it
    # keeps every collection below from scanning, and copy-on-write
    # faulting, the parent's whole heap: fork, collect and exit took
    # 46 ms unfrozen vs 4 ms frozen with scipy.sparse loaded (24 ms
    # unfrozen without it) on a 2-core x86-64 host.
    gc.freeze()
    pid = os.getpid()
    data = ws = None
    tasks = x = y = None
    wtracer = None
    try:
        try:
            ws = _shm.SharedArena.attach(spec.ws_name, untrack=spec.untrack)
            x = ws.view(*spec.x_ref)
            y = ws.view(*spec.y_ref)
            tasks, data = _build_tasks(spec, ws, x, y)
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            try:
                conn.send(("init_error", pid, _portable_exc(exc)))
            except Exception:
                pass
            return
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            _, batch, tids, collect = msg
            prev_tracer = None
            if collect:
                # Process-local collection tracer, created on first
                # collecting batch and reused (cleared per batch).
                if wtracer is None:
                    wtracer = Tracer()
                prev_tracer = _set_active(wtracer)
            results = []
            try:
                for tid in tids:
                    task = tasks[tid]
                    if spec.plan is not None:
                        task = spec.plan.wrap(batch, tid, task)
                    err = None
                    t0 = perf_counter_ns()
                    try:
                        task()
                    except BaseException as exc:  # noqa: BLE001
                        err = _portable_exc(exc)
                    finally:
                        # Loop locals outlive the loop; a lingering
                        # closure reference would pin the arena views
                        # at teardown.
                        task = None
                    results.append(
                        (tid, pid, perf_counter_ns() - t0, err)
                    )
            finally:
                if collect:
                    _set_active(prev_tracer)
            msnap = None
            if collect:
                msnap = wtracer.metrics.snapshot()
                wtracer.clear()
            try:
                conn.send(("done", batch, results, msnap))
            except (BrokenPipeError, OSError):
                break
    finally:
        # Detach-only close: the parent owns (and unlinks) the arenas.
        # The task closures (and through them the zero-copy matrix
        # reconstruction) hold views into the arena buffers — drop them
        # and collect first, so detaching does not leave an exported-
        # pointer mmap for the interpreter-exit __del__ to trip over.
        tasks = x = y = None
        gc.collect()
        for arena in (data, ws):
            if arena is not None:
                arena.close()
        try:
            conn.close()
        except Exception:
            pass


def _shutdown(procs: list, conns: list) -> None:
    """Best-effort pool teardown (close path and GC finalizer)."""
    for conn in conns:
        if conn is None:
            continue
        try:
            conn.send(("stop",))
        except Exception:
            pass
    for proc in procs:
        if proc is None:
            continue
        proc.join(timeout=_JOIN_TIMEOUT)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=_JOIN_TIMEOUT)
    for conn in conns:
        if conn is None:
            continue
        try:
            conn.close()
        except Exception:
            pass
    procs.clear()
    conns.clear()


class ProcessPool:
    """Fixed-size pool of long-lived workers bound to one operator.

    Parameters
    ----------
    spec : WorkerSpec
        Shipped to every worker at spin-up (arenas are attached once).
    n_workers : int
        Worker processes; tasks are assigned round-robin by
        ``tid % n_workers``.
    """

    def __init__(self, spec: WorkerSpec, n_workers: int):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        import multiprocessing

        self.spec = spec
        self.n_workers = n_workers
        self.start_method = _shm.start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._procs: list = [None] * n_workers
        self._conns: list = [None] * n_workers
        self._closed = False
        # One batch in flight at a time: the per-worker pipes carry a
        # strict request-reply protocol, so interleaved run() calls
        # from two threads would cross-read each other's replies.
        self._dispatch_lock = threading.Lock()
        for w in range(n_workers):
            self._spawn(w)
        self._finalizer = weakref.finalize(
            self, _shutdown, self._procs, self._conns
        )

    def _spawn(self, w: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.spec),
            daemon=True,
            name=f"repro-worker-{w}",
        )
        proc.start()
        # The parent's copy of the child end must die here: worker
        # death is detected as EOF on the pipe, which needs the worker
        # to be the *only* holder of its end.
        child_conn.close()
        self._procs[w] = proc
        self._conns[w] = parent_conn

    def worker_pids(self) -> list:
        return [p.pid for p in self._procs if p is not None]

    def _mark_dead(self, w: int) -> Optional[int]:
        proc = self._procs[w]
        pid = proc.pid if proc is not None else None
        if self._conns[w] is not None:
            try:
                self._conns[w].close()
            except Exception:
                pass
        if proc is not None:
            proc.join(timeout=_JOIN_TIMEOUT)
        self._procs[w] = None
        self._conns[w] = None
        return pid

    def _ensure_workers(self) -> None:
        """Respawn any dead worker before dispatching a batch (lazy
        recovery after a crash; counted per respawn)."""
        for w in range(self.n_workers):
            proc = self._procs[w]
            if proc is not None and proc.is_alive():
                continue
            if proc is not None:
                self._mark_dead(w)
            _obs_warn("resilience.worker_respawn")
            self._spawn(w)

    def run(
        self,
        batch: int,
        n_tasks: int,
        order: Sequence[int],
        label: str = "task",
    ) -> None:
        """Dispatch one batch and wait for every worker's reply.

        Raises :class:`BatchExecutionError` aggregating worker-side
        task failures and :class:`WorkerCrashError` records for tasks
        assigned to a worker that died mid-batch. By construction the
        call only returns or raises after all surviving workers have
        replied — nothing is still writing the shared workspaces.

        Serialized on an internal lock (the pipes speak strict
        request-reply; defense in depth under the bound operator's own
        apply serialization).
        """
        with self._dispatch_lock:
            self._run_locked(batch, n_tasks, order, label)

    def _run_locked(
        self,
        batch: int,
        n_tasks: int,
        order: Sequence[int],
        label: str = "task",
    ) -> None:
        if self._closed:
            raise RuntimeError("process pool is closed")
        self._ensure_workers()
        tracer = _active_tracer()
        collect = tracer.enabled
        assigned: dict[int, list[int]] = {}
        for tid in order:
            assigned.setdefault(tid % self.n_workers, []).append(tid)
        failures: list[TaskFailure] = []
        sent: dict[int, list[int]] = {}
        for w, tids in assigned.items():
            try:
                self._conns[w].send(("run", batch, tids, collect))
                sent[w] = tids
            except (BrokenPipeError, OSError):
                pid = self._mark_dead(w)
                failures.extend(
                    TaskFailure(tid, WorkerCrashError(tid, pid))
                    for tid in tids
                )
        for w, tids in sent.items():
            try:
                msg = self._conns[w].recv()
            except (EOFError, OSError):
                pid = self._mark_dead(w)
                failures.extend(
                    TaskFailure(tid, WorkerCrashError(tid, pid))
                    for tid in tids
                )
                continue
            if msg[0] != "done":
                # Worker failed to attach/compile; it already exited.
                _, pid, err = msg
                self._mark_dead(w)
                failures.extend(TaskFailure(tid, err) for tid in tids)
                continue
            _, _, results, msnap = msg
            for tid, pid, dur_ns, err in results:
                if tracer.enabled:
                    tracer.record_span(label, dur_ns, tid=tid, pid=pid)
                    tracer.metrics.histogram(
                        "task.latency_ns", label=label,
                        backend="processes",
                    ).record(dur_ns)
                if err is not None:
                    failures.append(TaskFailure(tid, err))
            # Fold the worker's per-batch delta into the parent: the
            # counters kernels bumped worker-side (they would otherwise
            # vanish — only spans are re-emitted above) and any
            # streaming metrics recorded in the worker.
            if tracer.enabled and msnap:
                tracer.metrics.merge_snapshot(msnap)
        if failures:
            _obs_warn("resilience.batch_failure")
            raise BatchExecutionError(
                label, batch, failures, n_tasks=n_tasks
            )

    def close(self) -> None:
        """Stop and join every worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._finalizer.detach() is not None:
            _shutdown(self._procs, self._conns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        alive = sum(
            1 for p in self._procs if p is not None and p.is_alive()
        )
        return (
            f"<ProcessPool {alive}/{self.n_workers} workers "
            f"({self.start_method})>"
        )
