"""Asyncio solver server with SpMM request coalescing.

The front end the paper's batching argument implies but never builds:
if ``k`` independent clients ask for ``A @ x_j`` against the *same*
matrix at the same time, streaming the matrix once for all of them
(one SpM×M) costs nearly the same memory traffic as serving one — so
the server batches the same-matrix single-RHS requests that queue up
while the matrix is busy into one SpM×M (CG solves into one block-CG)
up to ``max_batch`` columns wide.

Correctness contract — the whole point of the design:

* **Bit-identity.** Every response is bit-identical to what the
  request would have computed alone on the serial reference driver.
  SpM×M columns are bit-identical to the SpM×V of the same vector
  (format kernels accumulate per column in the same order), and the
  block-CG recurrences are column-independent
  (:mod:`repro.solvers.block_cg`); coalescing is therefore invisible
  to the caller except in latency.
* **No hangs.** Every admitted request terminates: with a result, a
  typed :mod:`repro.serve.errors` failure, or an execution-layer
  error. Deadlines cut queued *and* running work; ``close()`` fails
  whatever is still waiting.
* **Containment.** A fault inside a coalesced batch (the chaos drill)
  never takes sibling requests down with it: the batch falls back to
  per-request serial computation, which involves no executor and thus
  no injected faults.

Scheduling — batch while busy: requests bucket per ``(matrix key,
kind, solver params)``. A request into a bucket with no batch in
flight flushes on the next event-loop tick, so a lone client never
waits for company, while submissions from the same tick
(``asyncio.gather``) still share one batch. Requests arriving while
the bucket's batch runs wait for it; when it finishes (serial
fallback included) they flush together, scheduled after the demux so
that the clients it just answered resubmit into that same flush and
steady closed-loop traffic keeps full-width batches. The
``max_batch``-th waiting request flushes at once. A bucket is dropped
as soon as it is idle and empty, so the bucket map stays bounded by
the work in flight whatever ``(tol, max_iter)`` pairs clients send.
Flushing moves the requests into an asyncio task that computes on a
worker thread (``run_in_executor``) so the event loop keeps admitting
requests while kernels run. A per-``(key, k)`` asyncio lock
serializes solves that share a bound operator's workspaces — and is
released *before* any serial fallback, so a failing batch can never
deadlock against its own retries.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from ..obs.metrics import MetricsRegistry, SLO, SLOEvaluator, SLOReport
from ..obs.tracer import active as _active_tracer
from ..resilience.errors import ExecutionError
from ..solvers.block_cg import block_conjugate_gradient
from ..solvers.cg import CGResult
from .errors import (
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
)
from .registry import OperatorRegistry, RegisteredOperator

__all__ = [
    "SpMVResponse", "CGResponse", "SolverServer", "serial_compute",
]


def serial_compute(
    entry: RegisteredOperator, kind: str, params: tuple,
    vec: np.ndarray,
):
    """What one request computes *alone* on the serial reference
    driver: the bit-identity oracle (load generator, tests) and the
    chaos fallback path. Returns an ndarray for ``"spmv"``, a
    :class:`CGResult` for ``"cg"``. A CG solve reads the serial
    driver's cached operator across each iteration, so concurrent
    callers for one entry must take turns (the server's fallback
    does)."""
    if kind == "spmv":
        return entry.reference(vec)
    tol, max_iter = params
    res = block_conjugate_gradient(
        entry.serial_driver, vec[:, None], tol=tol, max_iter=max_iter,
    )
    return res.column(0)


@dataclass(frozen=True)
class SpMVResponse:
    """One served ``A @ x``."""

    y: np.ndarray
    #: Width of the batch this request was computed in (1 = solo).
    coalesced: int
    latency_s: float


@dataclass(frozen=True)
class CGResponse:
    """One served CG solve (always computed as a block-CG column)."""

    result: CGResult
    #: Width of the block this solve shared its SpM×Ms with (1 = solo).
    coalesced: int
    latency_s: float

    @property
    def x(self) -> np.ndarray:
        return self.result.x


@dataclass
class _Request:
    """One admitted request, alive until its future resolves."""

    kind: str                       # "spmv" | "cg"
    vec: np.ndarray                 # x (spmv) or b (cg)
    fut: asyncio.Future
    t_submit: float                 # perf_counter() at admission
    deadline: Optional[float]       # absolute perf_counter() or None
    budget_s: float = 0.0           # original deadline budget (errors)
    params: tuple = ()              # (tol, max_iter) for cg


@dataclass
class _Bucket:
    """Requests waiting to be flushed as one batch, and the bucket's
    batches in flight."""

    requests: list = field(default_factory=list)
    running: int = 0
    flush: Optional[asyncio.Handle] = None  # flush due on the next tick


class SolverServer:
    """Admission-controlled asyncio scheduler over an
    :class:`~repro.serve.registry.OperatorRegistry`.

    Parameters
    ----------
    registry : operators to serve, keyed by matrix fingerprint.
    max_batch : int
        Batch-width cap (the paper's SpM×M sweet spot is ~8 columns:
        wider blocks stop amortizing matrix traffic and start thrashing
        the x-block in cache). Reaching it flushes immediately.
    max_pending : int
        Admission limit: requests in flight (queued + computing). The
        ``max_pending + 1``-th submission fails fast with
        :class:`~repro.serve.errors.QueueFullError`.
    coalesce : bool
        ``False`` serves every request solo (the benchmark baseline);
        admission control and deadlines still apply.
    """

    def __init__(
        self,
        registry: OperatorRegistry,
        *,
        max_batch: int = 8,
        max_pending: int = 64,
        coalesce: bool = True,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.registry = registry
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self.coalesce = bool(coalesce)
        self.metrics = MetricsRegistry()
        self._pending = 0
        self._closed = False
        self._buckets: dict[tuple, _Bucket] = {}
        self._op_locks: dict[tuple, asyncio.Lock] = {}
        self._tasks: set[asyncio.Task] = set()
        self._slos = SLOEvaluator(self.metrics)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    async def spmv(
        self, key: str, x: np.ndarray, *,
        deadline: Optional[float] = None,
    ) -> SpMVResponse:
        """Serve ``A @ x`` for the matrix registered under ``key``.

        ``deadline`` is a per-request budget in seconds; an expired
        request fails with
        :class:`~repro.serve.errors.DeadlineExceededError` instead of
        returning a late result.
        """
        return await self._submit(key, "spmv", np.asarray(
            x, dtype=np.float64), deadline, ())

    async def cg(
        self, key: str, b: np.ndarray, *,
        tol: float = 1e-8,
        max_iter: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> CGResponse:
        """Solve ``A x = b`` under ``key``. Compatible solves (same
        matrix, same ``tol``/``max_iter``) coalesce into one block-CG;
        the response's per-column result is bit-identical to a solo
        solve either way."""
        return await self._submit(key, "cg", np.asarray(
            b, dtype=np.float64), deadline, (float(tol), max_iter))

    @property
    def pending(self) -> int:
        """Requests in flight (queued + computing)."""
        return self._pending

    def add_slo(
        self, name: str, threshold_ms: float, *,
        percentile: float = 99.0, window: int = 60,
        kind: Optional[str] = None,
    ) -> SLO:
        """Attach a latency objective over ``serve.request_ns``
        (optionally pinned to one request ``kind``). Thresholds are
        given in milliseconds; evaluate with :meth:`slo_reports`."""
        labels = {} if kind is None else {"kind": kind}
        return self._slos.add(
            SLO(name, threshold_ms * 1e6, percentile, window),
            "serve.request_ns", **labels,
        )

    def slo_reports(self) -> list[SLOReport]:
        """Evaluate every attached objective against the live metrics
        (streaming — call repeatedly)."""
        return self._slos.evaluate()

    async def close(self) -> None:
        """Refuse new work, fail queued requests with
        :class:`~repro.serve.errors.ServerClosedError`, and wait for
        in-flight batches to finish. The registry (and its bound
        operators) stays open — it is shared state the caller owns."""
        if self._closed:
            return
        self._closed = True
        for bucket in self._buckets.values():
            if bucket.flush is not None:
                bucket.flush.cancel()
            for req in bucket.requests:
                self._finish_error(req, ServerClosedError(
                    "server closed while the request was queued"
                ), counter="serve.failed")
        self._buckets.clear()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    async def __aenter__(self) -> "SolverServer":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Admission and coalescing
    # ------------------------------------------------------------------
    async def _submit(self, key, kind, vec, deadline, params):
        if self._closed:
            raise ServerClosedError()
        if self._pending >= self.max_pending:
            self.metrics.counter(
                "serve.rejected", reason="queue_full"
            ).inc()
            raise QueueFullError(self._pending, self.max_pending)
        entry = self.registry.get(key)  # raises UnknownOperatorError
        if vec.shape != (entry.n,):
            raise ValueError(
                f"vector has shape {vec.shape}, operator {key!r} "
                f"expects ({entry.n},)"
            )
        now = perf_counter()
        req = _Request(
            kind=kind,
            vec=np.ascontiguousarray(vec),
            fut=asyncio.get_running_loop().create_future(),
            t_submit=now,
            deadline=None if deadline is None else now + deadline,
            budget_s=deadline or 0.0,
            params=params,
        )
        self._pending += 1
        self.metrics.gauge("serve.pending").set(self._pending)
        self.metrics.counter("serve.requests", kind=kind).inc()
        if self.coalesce:
            self._enqueue(entry, kind, params, req)
        else:
            self._spawn_batch(entry, kind, params, [req])
        return await req.fut

    def _enqueue(self, entry, kind, params, req) -> None:
        bkey = (entry.key, kind, params)
        bucket = self._buckets.get(bkey)
        if bucket is None:
            bucket = self._buckets[bkey] = _Bucket()
        bucket.requests.append(req)
        if len(bucket.requests) >= self.max_batch:
            self._flush(bkey)
        elif not bucket.running:
            self._flush_soon(bkey, bucket)

    def _flush_soon(self, bkey, bucket) -> None:
        if bucket.flush is None:
            bucket.flush = asyncio.get_running_loop().call_soon(
                self._flush, bkey
            )

    def _flush(self, bkey) -> None:
        bucket = self._buckets[bkey]
        if bucket.flush is not None:
            bucket.flush.cancel()
            bucket.flush = None
        requests, bucket.requests = bucket.requests, []
        bucket.running += 1
        entry = self.registry.get(bkey[0])
        self._spawn_batch(entry, bkey[1], bkey[2], requests, bkey)

    def _batch_done(self, bkey) -> None:
        """A bucket's batch has answered. Its done-callback runs after
        the demux has woken the answered clients, so they have
        resubmitted by now and join whatever waited in one flush."""
        bucket = self._buckets.get(bkey)
        if bucket is None:  # closed meanwhile
            return
        bucket.running -= 1
        if bucket.requests:
            self._flush_soon(bkey, bucket)
        elif not bucket.running:
            del self._buckets[bkey]

    def _spawn_batch(self, entry, kind, params, requests,
                     bkey=None) -> None:
        task = asyncio.get_running_loop().create_task(
            self._run_batch(entry, kind, params, requests)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        if bkey is not None:
            task.add_done_callback(lambda _: self._batch_done(bkey))

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _op_lock(self, key: str, k) -> asyncio.Lock:
        """Serializes solves sharing the ``(key, k)`` bound operator:
        its persistent workspaces hold one computation at a time (a
        block-CG reads the spmm result across an entire iteration).
        ``k = "serial"`` guards the reference driver's operators."""
        lkey = (key, k)
        lock = self._op_locks.get(lkey)
        if lock is None:
            lock = self._op_locks[lkey] = asyncio.Lock()
        return lock

    async def _run_batch(self, entry, kind, params, requests) -> None:
        live = self._drop_expired(requests)
        if not live:
            return
        k = len(live)
        self.metrics.counter("serve.batches", kind=kind).inc()
        self.metrics.histogram("serve.batch_k", kind=kind).record(k)
        if k > 1:
            self.metrics.counter("serve.coalesced_requests").inc(k)
        opk = None if (kind == "spmv" and k == 1) else k
        loop = asyncio.get_running_loop()
        t_start = perf_counter()
        for req in live:
            self.metrics.histogram(
                "serve.queue_ns", kind=kind
            ).record((t_start - req.t_submit) * 1e9)
        try:
            async with self._op_lock(entry.key, opk):
                values = await loop.run_in_executor(
                    None, self._compute, entry, kind, params, live, opk
                )
        except ExecutionError:
            # Chaos containment: the parallel batch faulted. The lock
            # is released here (the async-with exited), so the serial
            # per-request fallback cannot deadlock against it.
            await self._fallback(entry, kind, params, live)
            return
        except Exception as exc:  # invalid params etc.: fail the batch
            for req in live:
                self._finish_error(req, exc, counter="serve.failed")
            return
        self._demux(live, values, k, kind)

    def _drop_expired(self, requests) -> list:
        """Fail requests whose deadline passed while queued."""
        now = perf_counter()
        live = []
        for req in requests:
            if req.fut.done():  # caller went away (cancellation)
                self._release(req)
            elif req.deadline is not None and now >= req.deadline:
                self.metrics.counter(
                    "serve.expired", stage="queued"
                ).inc()
                self._finish_error(req, DeadlineExceededError(
                    "queued", req.budget_s
                ))
            else:
                live.append(req)
        return live

    def _compute(self, entry, kind, params, live, opk):
        """Worker-thread body: one kernel invocation for the batch.
        Returns one value per request (ndarray for spmv,
        :class:`CGResult` for cg)."""
        if kind == "spmv":
            op = entry.operator(opk)
            if opk is None:
                y = op(live[0].vec, out=np.empty(entry.n))
                return [y]
            X = np.stack([req.vec for req in live], axis=1)
            Y = op(X, out=np.empty((entry.n, len(live))))
            return [np.ascontiguousarray(Y[:, j])
                    for j in range(len(live))]
        # CG: always the block solver, even for k=1 — solo and
        # coalesced solves then share one code path and demuxing a
        # column is bit-identical by construction (block_cg module
        # docstring).
        tol, max_iter = params
        op = entry.operator(opk)
        B = np.stack([req.vec for req in live], axis=1)
        should_stop = self._deadline_stop(live)
        res = block_conjugate_gradient(
            op, B, tol=tol, max_iter=max_iter, should_stop=should_stop
        )
        return [res.column(j) for j in range(len(live))]

    @staticmethod
    def _deadline_stop(live):
        """Cut a running solve only once *every* coalesced request's
        deadline has passed — a column with budget left must get the
        exact iterations a solo solve would have run."""
        deadlines = [req.deadline for req in live]
        if any(d is None for d in deadlines):
            return None
        stop_at = max(deadlines)
        return lambda: perf_counter() >= stop_at

    async def _fallback(self, entry, kind, params, live) -> None:
        """Serial per-request completion after a faulted batch. Runs on
        the reference driver — no executor, hence no injected faults —
        and is bit-identical by definition."""
        loop = asyncio.get_running_loop()
        for req in live:
            self.metrics.counter("serve.fallback_requests").inc()
            try:
                async with self._op_lock(entry.key, "serial"):
                    value = await loop.run_in_executor(
                        None, serial_compute, entry, kind, params,
                        req.vec,
                    )
            except Exception as exc:
                self._finish_error(req, exc, counter="serve.failed")
            else:
                self._demux([req], [value], 1, kind)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _demux(self, live, values, k, kind) -> None:
        now = perf_counter()
        tracer = _active_tracer()
        for req, value in zip(live, values):
            if req.deadline is not None and now >= req.deadline:
                # The result exists but the contract is the deadline:
                # a late answer is a failure, not a slow success.
                self.metrics.counter(
                    "serve.expired", stage="computing"
                ).inc()
                self._finish_error(req, DeadlineExceededError(
                    "computing", req.budget_s
                ))
                continue
            latency = now - req.t_submit
            self.metrics.histogram(
                "serve.request_ns", kind=kind
            ).record(latency * 1e9)
            tracer.record_span(
                "serve.request", int(latency * 1e9),
                kind=kind, coalesced=k,
            )
            if kind == "spmv":
                resp = SpMVResponse(value, k, latency)
            else:
                resp = CGResponse(value, k, latency)
            if not req.fut.done():
                req.fut.set_result(resp)
            self._release(req)

    def _finish_error(self, req, exc, *, counter=None) -> None:
        if counter is not None:
            self.metrics.counter(counter, kind=req.kind).inc()
        if not req.fut.done():
            req.fut.set_exception(exc)
        else:
            # Nobody is waiting (cancelled); don't warn about the
            # never-retrieved exception.
            pass
        self._release(req)

    def _release(self, req) -> None:
        self._pending -= 1
        self.metrics.gauge("serve.pending").set(self._pending)
