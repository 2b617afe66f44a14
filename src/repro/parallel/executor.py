"""Task execution backends (caller-run thread batches).

The library needs to run "one task per thread" twice per SpM×V (the
multiplication phase and the reduction phase). Two backends exist:

* ``serial`` (default) — tasks run sequentially in deterministic order.
  Correctness and the traffic instrumentation are identical to a
  parallel run (the algorithms are data-race-free by construction);
  this is the reproducible backend the experiments use, with timing
  supplied by the machine model (see DESIGN.md's hardware substitution).
* ``threads`` — the calling thread runs one task of each batch itself
  and hands the rest to persistent daemon pool threads through one
  ``queue.SimpleQueue``, then waits only for the queued tasks.
  ``max_workers`` counts the caller: the pool holds ``max_workers - 1``
  threads, and ``max_workers=1`` (or a one-task batch) never leaves the
  caller. A two-task batch costs one queue put and one lock handoff,
  about a third of a futures-based pool's submit-and-wait. The native
  symmetric kernel and scipy's sparse products release the GIL, so the
  partition kernels overlap on the host's cores; wall-clock scaling on
  the host still says nothing about the paper's platforms.

The ``threads`` backend takes a ``plan=``
:class:`~repro.resilience.chaos.ChaosPlan` injecting deterministic
per-task exceptions, delays and submission reorders, so every failure
path of the containment machinery is reachable in tests and from
``repro fuzz --chaos``.

Failure containment: ``run_batch`` runs the batch or raises. When any
task raises, it first awaits every running sibling and cancels every
unstarted one — so no task can keep mutating shared output buffers
after the call returns — then raises one
:class:`~repro.resilience.errors.BatchExecutionError` aggregating every
task's exception with its ``tid`` and the batch label. Recovery is the
caller's: a bound operator re-zeroes its poisoned workspaces on its
next call, and the serving layer retries a failed request on its
serial reference driver.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from queue import SimpleQueue
from time import perf_counter_ns
from typing import Callable, Optional, Sequence

from ..obs.tracer import active as _active_tracer, warn as _obs_warn
from ..resilience.chaos import ChaosPlan
from ..resilience.errors import BatchExecutionError, TaskFailure

__all__ = ["Executor"]

_MODES = ("serial", "threads")


class Executor:
    """Runs a batch of thread tasks with a chosen backend.

    Parameters
    ----------
    mode : {"serial", "threads"}
    max_workers : int, optional
        Concurrency cap on ``threads``. It counts the calling thread,
        which runs one task of each batch itself, so the pool keeps
        ``max_workers - 1`` threads. Defaults to the task count of each
        batch (the thread pool grows to the largest batch seen).
    plan : ChaosPlan, optional
        Fault plan for ``threads`` (default: none): each task is
        wrapped with its fault and the batch reordered. Rejected for
        ``serial``.

    Construction is fail-fast: an unknown mode or a misplaced
    ``plan=`` raises a typed ``ValueError`` here, not at the first
    ``run_batch``.
    """

    def __init__(
        self,
        mode: str = "serial",
        max_workers: Optional[int] = None,
        *,
        plan: Optional[ChaosPlan] = None,
    ):
        if mode not in _MODES:
            raise ValueError(
                f"unknown executor mode {mode!r}; choose from {_MODES}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if plan is not None and mode != "threads":
            raise ValueError("plan= is only meaningful with mode 'threads'")
        self.mode = mode
        self.max_workers = max_workers
        self.plan = plan
        self.n_batches = 0
        self._pool: Optional[_ThreadPool] = None
        # Guards the batch-id counter and the pool lifecycle. Two
        # concurrent run_batch callers must never observe the same batch
        # id (it seeds chaos-plan fault derivation and trace/metric
        # attribution), and a caller must never hand work to a pool
        # another caller is concurrently replacing through _ensure_pool.
        self._lock = threading.Lock()

    def run_batch(
        self,
        tasks: Sequence[Callable[[], None]],
        label: Optional[str] = None,
        tid_base: int = 0,
    ) -> Optional[int]:
        """Execute all tasks; returns when every task has finished.

        Returns the unique batch id assigned to this execution (``None``
        for an empty task list). Ids are allocated under the executor
        lock, so concurrent callers observe distinct, gap-free ids.

        Tasks must be mutually data-race-free (they are: each writes
        disjoint array regions or thread-private buffers).

        When a tracer is active, each task runs inside a span named
        ``label`` (default ``"task"``) with its batch index as the
        ``tid`` attribute — recorded on the executing thread, so the
        Chrome export shows the real per-thread timeline; a task that
        raises additionally records a ``task.error`` instant event.
        Per-task and whole-batch durations additionally stream into the
        tracer's ``task.latency_ns`` / ``batch.latency_ns`` histograms,
        labelled with the batch label and the executor mode.

        On failure every running sibling is awaited and every unstarted
        one cancelled first, then a single :class:`BatchExecutionError`
        aggregates all task exceptions — by the time it propagates,
        nothing from this batch is still writing. There is no retry.

        ``tid_base`` offsets the task ids this batch reports (trace
        spans, chaos-plan derivation). The colored schedule issues one
        ``run_batch`` per barrier-separated step and passes the
        cumulative task offset, so chaos faults stay deterministic per
        global task, not per step-local position.
        """
        if not tasks:
            return None
        tracer = _active_tracer()
        traced = tracer.enabled
        name = label or "task"
        with self._lock:
            batch = self.n_batches
            self.n_batches += 1

        t0 = perf_counter_ns() if traced else 0
        if self.mode == "serial":
            for task in self._instrumented(tracer, name, tid_base, tasks):
                task()
            if traced:
                self._record_batch(tracer, name, t0)
            return batch

        exec_tasks = tasks
        order = range(len(tasks))
        if self.plan is not None:
            order = self.plan.submission_order(batch, len(tasks))
            exec_tasks = [
                self.plan.wrap(batch, tid_base + i, task)
                for i, task in enumerate(tasks)
            ]

        self._run_pooled(
            self._instrumented(tracer, name, tid_base, exec_tasks),
            order, name, batch,
        )
        if traced:
            self._record_batch(tracer, name, t0)
        return batch

    def _instrumented(self, tracer, name: str, tid_base: int, tasks):
        """``tasks``, each wrapped in a trace span when tracing is on."""
        if not tracer.enabled:
            return tasks
        return [
            self._traced(tracer, name, tid_base + i, task, self.mode)
            for i, task in enumerate(tasks)
        ]

    def _record_batch(self, tracer, name: str, t0: int) -> None:
        tracer.metrics.histogram(
            "batch.latency_ns", label=name, backend=self.mode
        ).record(perf_counter_ns() - t0)

    @staticmethod
    def _traced(tracer, name: str, tid: int, task, mode: str):
        def run() -> None:
            start = perf_counter_ns()
            with tracer.span(name, tid=tid):
                try:
                    task()
                except BaseException as exc:
                    tracer.event(
                        "task.error", tid=tid, error=type(exc).__name__
                    )
                    raise
            # Resolved here, on the executing thread, so the histogram
            # lands in that thread's shard (no cross-thread mutation).
            tracer.metrics.histogram(
                "task.latency_ns", label=name, backend=mode
            ).record(perf_counter_ns() - start)

        return run

    def _run_pooled(
        self, exec_tasks: Sequence, order: Sequence, name: str, batch: int
    ) -> None:
        job = _Batch(exec_tasks, order)
        own = job.pending.popleft()  # the caller's task, claimed first
        pool = None
        if job.pending:
            # Handed over under the lock, so the tokens of a concurrent
            # close() or growth queue up behind this batch.
            with self._lock:
                pool = self._ensure_pool(len(order))
                if pool is not None:
                    pool.hand_over(job)
        job.run(own)
        if pool is None:  # max_workers=1: every task stays on the caller
            job.drain()
        job.done.acquire()
        if not job.failures:
            return
        _obs_warn("resilience.batch_failure")
        raise BatchExecutionError(
            name, batch, job.failures,
            n_tasks=len(exec_tasks), n_cancelled=job.n_cancelled,
        )

    def _ensure_pool(self, n_tasks: int) -> Optional["_ThreadPool"]:
        """The pool the *current* batch needs, or ``None`` when the
        caller alone suffices. The caller runs one task itself, so
        ``max_workers - 1`` pool threads give ``max_workers``-way
        concurrency. With no explicit ``max_workers`` the pool grows
        to one thread fewer than the batch's tasks when a later
        batch brings more tasks than any earlier one (a pool sized by
        the first batch would silently serialize the excess tasks
        forever).

        Callers must hold ``self._lock``: growth replaces the pool, and
        the handoff of every concurrent batch has to see a consistent
        pool reference."""
        want = (
            self.max_workers if self.max_workers is not None else n_tasks
        ) - 1
        pool = self._pool
        if pool is not None and pool.size >= want:
            return pool
        if want < 1:
            return None
        if pool is not None:
            # Every thread of the replaced pool has exited before the
            # grown pool takes over: no orphaned threads holding
            # references to earlier batches' buffers.
            pool.retire()
            pool.join()
        self._pool = _ThreadPool(self, want, f"repro-{self.mode}")
        return self._pool

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.retire()
        if pool is not None:
            pool.join()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Batch:
    """One pooled ``run_batch``: the tasks not yet claimed, shared by the
    calling thread and every pool thread that picks the batch up.

    ``deque.popleft`` is atomic, so each task is claimed exactly once.
    ``done`` is a lock held from construction until the last task has
    finished — run, failed or cancelled — which is when the caller may
    return."""

    __slots__ = (
        "tasks", "pending", "failures", "n_cancelled", "failed",
        "remaining", "lock", "done",
    )

    def __init__(self, tasks: Sequence, order: Sequence):
        self.tasks = tasks
        self.pending = deque(order)
        self.failures: list[TaskFailure] = []
        self.n_cancelled = 0
        self.failed = False
        self.remaining = len(order)
        self.lock = threading.Lock()
        self.done = threading.Lock()
        self.done.acquire()

    def run(self, i: int) -> None:
        """Run task ``i``, or cancel it once a sibling has failed."""
        cancelled = self.failed
        exc = None
        if not cancelled:
            try:
                self.tasks[i]()
            except BaseException as e:
                exc = e
        with self.lock:
            if exc is not None:
                self.failed = True
                self.failures.append(TaskFailure(i, exc))
            elif cancelled:
                self.n_cancelled += 1
            self.remaining -= 1
            if self.remaining == 0:
                self.done.release()

    def drain(self) -> None:
        """Claim and run tasks until none is left unclaimed."""
        pending = self.pending
        while pending:
            try:
                i = pending.popleft()
            except IndexError:  # claimed by another thread since
                return
            self.run(i)


class _ThreadPool:
    """One generation of daemon pool threads and the queue they read.

    Each generation owns its queue, so a stop token always reaches a
    thread of the generation being stopped, never one that replaced
    it. The threads reference only the queue, never the executor, so
    an executor dropped without ``close()`` is still collected."""

    def __init__(self, owner: Executor, size: int, name: str):
        self.size = size
        self.queue: SimpleQueue = SimpleQueue()
        #: Sends each thread its stop token, once: called on close() or
        #: growth, or by the collector when ``owner`` was never closed.
        self.retire = weakref.finalize(owner, self._stop)
        self.threads = [
            threading.Thread(
                target=_worker, args=(self.queue,),
                name=f"{name}-{i}", daemon=True,
            )
            for i in range(size)
        ]
        for t in self.threads:
            t.start()

    def hand_over(self, job: _Batch) -> None:
        """Wake up to one thread per unclaimed task of ``job``."""
        for _ in range(min(len(job.pending), self.size)):
            self.queue.put(job)

    def _stop(self) -> None:
        for _ in range(self.size):
            self.queue.put(None)

    def join(self) -> None:
        for t in self.threads:
            t.join()


def _worker(queue: SimpleQueue) -> None:
    """Pool thread body: run tasks of each batch handed over until told
    to stop (a ``None`` token)."""
    while True:
        job = queue.get()
        if job is None:
            return
        job.drain()
        del job  # hold no batch (and its buffers) while idle
