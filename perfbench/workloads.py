"""The benchmark workloads, driven only through the program's public
functions: the three of BENCHMARK.json and ``serve-burst``, which is
not gated (README.md).

Each workload builds its inputs from the seed, sets the system up
several times (the median is ``setup_s``), computes its correctness
references once, outside every timed window, and after each set-up
runs closed-loop timed chunks of ops. An op is one CG solve
(``cg-csxsym``), one served SpMV request (``serve-*``) or one out-of-core apply (``ooc-cg``). See README.md for
why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import asyncio
import bisect
import shutil
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from repro.analysis.configs import build_format
from repro.matrices.generators import grid_laplacian_2d
from repro.matrices.mmio import write_matrix_market
from repro.matrices.suite import get_entry
from repro.ooc import (
    CheckpointStore,
    ShardedOperator,
    checkpointed_cg,
    ingest_matrix_market,
)
from repro.parallel.executor import Executor
from repro.parallel.spmv import ParallelSymmetricSpMV
from repro.serve.errors import DeadlineExceededError, QueueFullError
from repro.serve.registry import OperatorRegistry
from repro.serve.server import SolverServer
from repro.solvers.cg import conjugate_gradient

#: CG stopping rule of every solve (relative residual).
RTOL = 1e-8
#: Executor workers; the reference host has two cores.
WORKERS = 2

#: Time (ms) of :func:`host_speed`'s loop on the reference host when no
#: other tenant slows it (0.94-1.05 ms measured).
PROBE_REF_MS = 1.0
_PROBE_TABLE = [(i * 0x9E3779B1) & 0xFFFFFFFF for i in range(256)]


def host_speed(loops: int = 1) -> float:
    """This host's pure-Python speed right now, relative to the
    reference host unloaded: ``PROBE_REF_MS`` over the median time of
    ``loops`` runs of a fixed table-lookup loop that belongs to the
    benchmark, not the program.

    Other tenants slow pure-Python code on the reference host by up to
    1.7x for seconds to minutes at a time (README.md). Times of work
    that is mostly pure Python, multiplied by the speed measured next
    to them, vary less: the out-of-core apply's spread between 1-s
    windows fell from 12 % to 2.7 %.
    """
    table = _PROBE_TABLE
    times = []
    for _ in range(loops):
        x = 0x12345678
        t0 = perf_counter_ns()
        for i in range(8000):
            x = (x >> 8) ^ table[(x ^ i) & 0xFF]
        times.append(perf_counter_ns() - t0)
    return PROBE_REF_MS * 1e6 / statistics.median(times)


class Tally:
    """Outcome of every op of one timed phase."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.mismatched = 0   # completed, but not bit-identical
        self.wrong = 0        # mismatched beyond rounding error
        self.raised = 0
        self.refused = 0
        self.expired = 0
        self.elapsed_s = 0.0
        #: CG iterations of every solve (the solver workloads).
        self.iterations: list[int] = []

    def check(self, got, want, latency_ns: float, rtol: float) -> None:
        """Count one completed op, correct only if bit-identical."""
        self.attempted += 1
        if np.array_equal(got, want):
            self.latencies_ms.append(latency_ns / 1e6)
            return
        self.mismatched += 1
        err = np.linalg.norm(np.asarray(got) - want)
        if not err <= rtol * np.linalg.norm(want):
            self.wrong += 1

    def absorb(self, other: "Tally") -> None:
        """Add the ops and time of ``other`` to this tally."""
        for name in ("attempted", "mismatched", "wrong", "raised",
                     "refused", "expired", "elapsed_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies_ms += other.latencies_ms
        self.iterations += other.iterations

    def lost(self, kind: str) -> None:
        """Count one op that raised, was refused or expired."""
        self.attempted += 1
        setattr(self, kind, getattr(self, kind) + 1)

    @property
    def failed(self) -> int:
        return self.raised + self.refused + self.expired + self.mismatched

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies_ms) / self.elapsed_s


class Workload:
    """One workload: inputs, set-up, references and timed phase.

    ``setup`` and ``phase`` are coroutines so the serving workloads
    keep one event loop for the server's whole life; the others never
    await.
    """

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5
    #: Timed chunks after each set-up; the timed metrics are the fast
    #: decile of the run's chunks.
    chunks = 8
    #: Whether every op must be bit-identical to its reference. False
    #: only where a known mismatch is counted as a baseline (README.md).
    exact = True

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self.rng = np.random.default_rng(seed)
        #: Public call made during set-up -> its times (s), one a set-up.
        self.setup_calls: dict[str, list[float]] = defaultdict(list)
        #: Apply times (ns) of the audit's serial reference, the
        #: single-thread baseline.
        self.serial_ns: list[int] = []

    async def setup(self) -> None:
        raise NotImplementedError

    def references(self) -> None:
        raise NotImplementedError

    async def phase(self, seconds: float, tracer, tally: Tally) -> None:
        """Run closed-loop ops for ``seconds`` into ``tally``. With a
        ``tracer`` (the active one), record an ``op`` span per op and a
        ``call.*`` span around the public calls made inside it."""
        raise NotImplementedError

    def link(self, tree) -> None:
        """Attach spans recorded on other threads to their ops."""

    def layers(self, tree, tracer, tally: Tally) -> dict:
        """Workload-specific per-layer metrics of the traced phase."""
        return {}

    async def close(self) -> None:
        raise NotImplementedError

    def timed(self, name: str, fn, *args, **kw):
        """``fn(*args, **kw)``, timed into ``setup_calls[name]``."""
        t0 = perf_counter_ns()
        out = fn(*args, **kw)
        self.setup_calls[name].append((perf_counter_ns() - t0) / 1e9)
        return out


class CGCSXSym(Workload):
    """Repeated CG solves on a bound CSX-Sym operator."""

    name = "cg-csxsym"
    #: The CSX-Sym build takes 4-6 s on the reference host; three keep
    #: a run well inside the benchmark's time budget.
    setups = 3
    matrix = ("bmwcra_1", 0.05)
    pool_size = 8

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        name, scale = self.matrix
        self.coo = get_entry(name).build(scale)
        self.pool = self.rng.standard_normal((self.pool_size, self.coo.n_rows))
        self.op = None
        self.serial_op = None

    async def setup(self) -> None:
        self.executor = Executor("threads", max_workers=WORKERS)
        self.matrix, self.parts = self.timed(
            "build_format", build_format, self.coo, "csx-sym", WORKERS,
        )
        self.spmv = ParallelSymmetricSpMV(
            self.matrix, self.parts, "indexed", executor=self.executor
        )
        self.op = self.timed("bind", self.spmv.bind)
        conjugate_gradient(self.op, self.pool[0], tol=RTOL)  # warm-up

    def references(self) -> None:
        serial = ParallelSymmetricSpMV(
            self.matrix, self.parts, self.spmv.reduction,
            executor=Executor("serial"),
        )
        # Kept open until close(): closing a bound operator clears the
        # matrix's shared execution caches.
        self.serial_op = serial.bind()

        def apply(x):
            t0 = perf_counter_ns()
            y = self.serial_op(x)
            self.serial_ns.append(perf_counter_ns() - t0)
            return y

        self.refs = [
            conjugate_gradient(apply, b, tol=RTOL).x for b in self.pool
        ]

    async def phase(self, seconds, tracer, tally) -> None:
        apply = self.op
        if tracer is not None:
            def apply(x, op=self.op):
                with tracer.span("call.apply"):
                    return op(x)
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        i = 0
        while perf_counter_ns() < deadline:
            j = i % self.pool_size
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    res = conjugate_gradient(apply, self.pool[j], tol=RTOL)
                else:
                    with tracer.span("op", op=tally.attempted):
                        res = conjugate_gradient(
                            apply, self.pool[j], tol=RTOL
                        )
            except Exception:
                tally.lost("raised")
            else:
                t1 = perf_counter_ns()
                tally.iterations.append(res.iterations)
                tally.check(res.x, self.refs[j], t1 - t0, 1e-6)
            i += 1
        tally.elapsed_s += (perf_counter_ns() - start) / 1e9

    def layers(self, tree, tracer, tally) -> dict:
        solves = tree.durations_ms("op")
        return {
            "formats.bytes_per_nnz": self.matrix.size_bytes() / self.coo.nnz,
            "solvers.iterations": float(np.mean(tally.iterations)),
            "solvers.vecops_ms":
                (sum(solves) - sum(tree.durations_ms("call.apply")))
                / len(solves),
        }

    async def close(self) -> None:
        if self.op is not None:
            if self.serial_op is not None:
                self.serial_op.close()
                self.serial_op = None
            self.op.close()
            self.executor.close()
            self.op = None


class Serve(Workload):
    """Closed-loop clients sending SpMV requests to ``SolverServer``."""

    matrix = ("bmw7st_1", 0.02)
    #: Large enough that the share of requests whose vector hits a
    #: known SpMM/SpMV summation-order difference varies little
    #: between seeds (see README.md).
    pool_size = 1024
    clients = 1
    warmup_requests = 64
    #: Requests take ~3 ms: short chunks give the fast decile more
    #: chances to fall where the host is unloaded.
    chunks = 16

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        name, scale = self.matrix
        self.coo = get_entry(name).build(scale)
        self.pool = self.rng.standard_normal((self.pool_size, self.coo.n_rows))
        self.server = None
        #: name -> (histogram, bucket counts, sum) of the traced phases.
        self.traced_hists: dict = {}

    async def setup(self) -> None:
        self.executor = Executor("threads", max_workers=WORKERS)
        self.matrix, parts = self.timed(
            "build_format", build_format, self.coo, "csx-sym", WORKERS,
        )
        self.registry = OperatorRegistry()
        self.entry = self.timed(
            "register", self.registry.register,
            self.matrix, parts, reduction="indexed", executor=self.executor,
        )
        t0 = perf_counter_ns()
        self.entry.operator(None)
        self.entry.operator(8)
        self.setup_calls["bind"].append((perf_counter_ns() - t0) / 1e9)
        self.server = SolverServer(self.registry)
        # Warm-up: the workload's own traffic, untimed.
        per_client = self.warmup_requests // self.clients
        await asyncio.gather(*(
            self._client(c, Tally(), None, n_requests=per_client)
            for c in range(self.clients)
        ))

    def references(self) -> None:
        self.refs = []
        for x in self.pool:
            t0 = perf_counter_ns()
            self.refs.append(self.entry.reference(x))
            self.serial_ns.append(perf_counter_ns() - t0)

    async def _client(self, c, tally, tracer, *, deadline=None,
                      n_requests=None) -> None:
        key = self.entry.key
        j = c
        sent = 0
        while (deadline is None or perf_counter_ns() < deadline) and (
            n_requests is None or sent < n_requests
        ):
            x_idx = j % self.pool_size
            j += self.clients
            sent += 1
            t0 = perf_counter_ns()
            try:
                resp = await self.server.spmv(key, self.pool[x_idx])
            except QueueFullError:
                tally.lost("refused")
                continue
            except DeadlineExceededError:
                tally.lost("expired")
                continue
            except Exception:
                tally.lost("raised")
                continue
            t1 = perf_counter_ns()
            if n_requests is not None:
                continue  # warm-up: no references yet
            tally.check(resp.y, self.refs[x_idx], t1 - t0, 1e-9)
            if tracer is not None:
                # The clients' ops overlap on this thread: not nesting.
                tracer.record_span("op", t1 - t0, start_ns=t0,
                                   op=tally.attempted, concurrent=True)

    async def phase(self, seconds, tracer, tally) -> None:
        before = self._serve_hists()
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        await asyncio.gather(*(
            self._client(c, tally, tracer, deadline=deadline)
            for c in range(self.clients)
        ))
        tally.elapsed_s += (perf_counter_ns() - start) / 1e9
        if tracer is None:
            return
        # The server's histograms also hold set-up and untraced
        # traffic: keep the bucket counts this traced phase added.
        for name, after in self._serve_hists().items():
            counts = np.asarray(after.counts, dtype=np.float64)
            total = after.sum
            if before[name] is not None:
                counts -= before[name].counts
                total -= before[name].sum
            if name in self.traced_hists:
                _, acc, acc_total = self.traced_hists[name]
                counts, total = counts + acc, total + acc_total
            self.traced_hists[name] = (after, counts, total)

    def _serve_hists(self) -> dict:
        m = self.server.metrics
        out = {}
        for name in ("serve.queue_ns", "serve.batch_k", "serve.request_ns"):
            h = m.merged_histogram(name, kind="spmv")
            out[name] = h.copy() if h is not None else None
        return out

    def link(self, tree) -> None:
        """Attach to each op the server's ``serve.request`` span of its
        request: the earliest unclaimed one admitted after the op was
        sent and answered before it returned. Attach to that request
        the ``bound.apply`` span of the batch that answered it
        (recorded on an executor thread): the latest batch that started
        after the request was admitted and ended before its answer."""
        spans = tree.spans
        requests = sorted(tree.named("serve.request"),
                          key=lambda i: spans[i].start)
        starts = [spans[i].start for i in requests]
        claimed = set()
        for op in sorted(tree.named("op"), key=lambda i: spans[i].start):
            s = spans[op]
            k = bisect.bisect_left(starts, s.start)
            while k < len(requests) and (
                requests[k] in claimed or spans[requests[k]].end > s.end
            ) and starts[k] < s.end:
                k += 1
            if k < len(requests) and starts[k] < s.end:
                claimed.add(requests[k])
                tree.adopt(op, requests[k])
        batches = sorted(
            (i for i in tree.named("bound.apply") if not spans[i].parents),
            key=lambda i: spans[i].end,
        )
        ends = [spans[i].end for i in batches]
        for i in claimed:
            s = spans[i]
            k = bisect.bisect_right(ends, s.end) - 1
            if k >= 0 and spans[batches[k]].start >= s.start:
                tree.adopt(i, batches[k])

    def layers(self, tree, tracer, tally) -> dict:
        queue = self.traced_hists["serve.queue_ns"]
        batch = self.traced_hists["serve.batch_k"]
        req = self.traced_hists["serve.request_ns"]
        queue_p50 = _hist_quantile(*queue, 0.5) / 1e6
        return {
            "formats.bytes_per_nnz": self.matrix.size_bytes() / self.coo.nnz,
            "serve.queue_ms_p50": queue_p50,
            "serve.batch_width": _hist_mean(*batch),
            "serve.compute_ms_p50": _hist_quantile(*req, 0.5) / 1e6
            - queue_p50,
        }

    async def close(self) -> None:
        if self.server is not None:
            await self.server.close()
            self.registry.close()
            self.executor.close()
            self.server = None


class ServeSolo(Serve):
    name = "serve-solo"
    clients = 1


class ServeBurst(Serve):
    name = "serve-burst"
    clients = 8
    #: Coalesced CSX-Sym answers differ from the serial reference in
    #: the last bits for some vectors; counted in ``failed``.
    exact = False


def _hist_quantile(hist, counts, total, q: float) -> float:
    """Quantile of bucketed samples, interpolated linearly inside the
    bucket that holds it."""
    n = counts.sum()
    target = q * n
    cum = 0.0
    for i, c in enumerate(counts):
        if c and cum + c >= target:
            lo, hi = hist.bucket_edges(i)
            lo = max(lo, hist.min_seen)
            hi = min(hi, hist.max_seen)
            return lo + (hi - lo) * (target - cum) / c
        cum += c
    return float(hist.max_seen)


def _hist_mean(hist, counts, total) -> float:
    return total / counts.sum()


class _SpannedCheckpointStore(CheckpointStore):
    """``CheckpointStore`` whose ``save`` calls are spanned while a
    tracer is attached."""

    tracer = None

    def save(self, generation, state):
        if self.tracer is None:
            return super().save(generation, state)
        with self.tracer.span("call.checkpoint_save"):
            return super().save(generation, state)


class OOCCG(Workload):
    """Repeated checkpointed CG solves on a budgeted sharded operator."""

    name = "ooc-cg"
    #: A chunk runs whole solves (27 applies, 1.3-2 s each) until its
    #: share of the run is used; one a set-up keeps the overrun short.
    chunks = 1
    grid = 96
    n_shards = 8
    checkpoint_every = 5
    pool_size = 4

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        coo = grid_laplacian_2d(self.grid, self.grid)
        self.nnz = coo.nnz
        self.mtx = work_dir / "laplacian.mtx"
        write_matrix_market(self.mtx, coo, symmetric=True)
        self.pool = self.rng.standard_normal((self.pool_size, coo.n_rows))
        self.n_setup = 0
        self.operator = None

    async def setup(self) -> None:
        self.n_setup += 1
        shard_dir = self.work_dir / f"shards{self.n_setup}"
        self.store = self.timed(
            "ingest_matrix_market", ingest_matrix_market,
            self.mtx, shard_dir, n_shards=self.n_shards,
        )
        total = self.store.total_payload_bytes()
        largest = max(info.n_bytes for info in self.store.shards)
        self.budget = max(largest, total // 2)
        self.operator = ShardedOperator(
            self.store, memory_budget=self.budget, n_threads=WORKERS,
            executor=Executor("serial"),
        )
        self.checkpoints = _SpannedCheckpointStore(
            self.work_dir / f"checkpoints{self.n_setup}"
        )
        self.operator(self.pool[0])  # warm-up apply

    def references(self) -> None:
        """Every apply of an unbudgeted, checkpoint-free solve of each
        right-hand side, in order."""
        unbudgeted = ShardedOperator(
            self.store, n_threads=WORKERS, executor=Executor("serial")
        )
        self.refs = []
        for b in self.pool:
            applies = []

            def apply(x):
                t0 = perf_counter_ns()
                y = unbudgeted(x)
                self.serial_ns.append(perf_counter_ns() - t0)
                applies.append(y.copy())
                return y

            checkpointed_cg(apply, b, tol=RTOL)
            self.refs.append(applies)
        unbudgeted.close()

    async def phase(self, seconds, tracer, tally) -> None:
        """As :meth:`Workload.phase`, at the reference host's speed:
        the op is mostly the shards' pure-Python checksum, so each
        apply's latency, and the time since the previous apply, are
        multiplied by :func:`host_speed` measured right after it. The
        probe's own time is left out of both."""
        self.checkpoints.tracer = tracer
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        last = [start]  # end of the previous apply's probe
        solve = 0
        while perf_counter_ns() < deadline:
            j = solve % self.pool_size
            refs = self.refs[j]
            n_apply = [0]

            def apply(x):
                k = n_apply[0]
                n_apply[0] += 1
                t0 = perf_counter_ns()
                if tracer is None:
                    y = self.operator(x)
                    t1 = perf_counter_ns()
                    speed = host_speed()
                else:
                    with tracer.span("op", op=tally.attempted):
                        y = self.operator(x)
                    t1 = perf_counter_ns()
                    with tracer.span("bench.probe"):
                        speed = host_speed()
                want = refs[k] if k < len(refs) else np.full_like(y, np.nan)
                tally.check(y, want, (t1 - t0) * speed, 1e-9)
                tally.elapsed_s += (t1 - last[0]) * speed / 1e9
                last[0] = perf_counter_ns()
                return y

            try:
                if tracer is None:
                    res = self._solve(apply, j)
                else:
                    with tracer.span("call.checkpointed_cg"):
                        res = self._solve(apply, j)
            except Exception:
                # An apply or a checkpoint write raised: one failed op.
                tally.lost("raised")
            else:
                tally.iterations.append(res.result.iterations)
            solve += 1
        self.checkpoints.tracer = None

    def _solve(self, apply, j):
        return checkpointed_cg(
            apply, self.pool[j], tol=RTOL, store=self.checkpoints,
            checkpoint_every=self.checkpoint_every,
        )

    def layers(self, tree, tracer, tally) -> dict:
        counters = tracer.counters()
        metrics = tracer.metrics
        written = counters.get("ooc.checkpoints_written", 0)
        solves = tree.durations_ms("call.checkpointed_cg")
        inner = (sum(tree.durations_ms("op"))
                 + sum(tree.durations_ms("call.checkpoint_save"))
                 + sum(tree.durations_ms("bench.probe")))
        return {
            "formats.bytes_per_nnz":
                self.store.total_payload_bytes() / self.nnz,
            "solvers.iterations": float(np.mean(tally.iterations)),
            "solvers.vecops_ms": (sum(solves) - inner) / len(solves),
            "ooc.loads_per_apply":
                counters.get("ooc.shards_loaded", 0)
                / counters.get("ooc.applies", 1),
            "ooc.peak_resident_frac":
                self.operator.peak_resident_bytes / self.budget,
            "ooc.checkpoint_bytes":
                metrics.counter_value("ooc.checkpoint_bytes") / written
                if written else 0.0,
        }

    async def close(self) -> None:
        if self.operator is not None:
            self.operator.close()
            self.operator = None
        for path in self.work_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)


WORKLOADS = {
    wl.name: wl for wl in (CGCSXSym, ServeSolo, ServeBurst, OOCCG)
}
