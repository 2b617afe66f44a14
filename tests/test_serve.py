"""Serving front end: coalescing correctness, admission control,
deadlines, chaos containment and the SLO/loadgen surfaces.

The load-bearing property is **bit-identity**: a request served
through the coalescing scheduler — batched into an SpM×M or a block-CG
with whatever strangers queued up while the matrix was busy — must
return exactly the bytes it would have computed alone on the serial
reference driver. Everything else (backpressure, deadlines, typed
failures, chaos fallback) is about *terminating* correctly: an
admitted request never hangs and never returns silently wrong data.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.parallel import Executor, ParallelSymmetricSpMV
from repro.resilience import ChaosPlan
from repro.serve import (
    CGResponse,
    DeadlineExceededError,
    OperatorRegistry,
    QueueFullError,
    ServerClosedError,
    SolverServer,
    SpMVResponse,
    UnknownOperatorError,
    matrix_fingerprint,
    run_load,
    serial_compute,
)
from repro.solvers import block_conjugate_gradient, conjugate_gradient

from repro.formats import COOMatrix, SSSMatrix

from tests.conformance import (
    CASES,
    COLORING_FORMATS,
    EXECUTOR_BACKENDS,
    build_symmetric,
    make_backend_executor,
    rhs_block,
)

CASE = "random"


def _registry(fmt: str, reduction: str, backend: str):
    matrix, parts = build_symmetric(CASE, fmt, "thirds")
    registry = OperatorRegistry()
    entry = registry.register(
        matrix, parts, reduction=reduction,
        executor=make_backend_executor(backend),
    )
    return registry, entry


def _spd_parts(n: int) -> list[tuple[int, int]]:
    bounds = np.linspace(0, n, 4).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(3)]


def _spd_matrix() -> SSSMatrix:
    """Diagonally-dominated variant of the battery's random case: CG
    solves must run clean (no breakdowns) so block and solo metadata
    are comparable."""
    dense = CASES[CASE].dense.copy()
    np.fill_diagonal(
        dense, np.abs(dense).sum(axis=1) + 1.0
    )
    return SSSMatrix.from_coo(COOMatrix.from_dense(dense))


def _spd_registry(backend: str):
    matrix = _spd_matrix()
    registry = OperatorRegistry()
    entry = registry.register(
        matrix, _spd_parts(matrix.n_rows),
        executor=make_backend_executor(backend),
    )
    return registry, entry


def _run(coro):
    return asyncio.run(coro)


#: Upper bound on any wait in the held-batch tests: a scheduler that
#: never flushes fails them instead of hanging the suite.
WAIT_S = 30.0


class _HeldBatches:
    """Stubs ``server._compute`` so every batch blocks on its worker
    thread until :meth:`release` (or the ``with`` block exits): lets a
    test queue requests behind a batch held in flight, with no timing
    assumptions."""

    def __init__(self, server):
        self._compute = server._compute
        self._entered = threading.Semaphore(0)
        self._gate = threading.Event()
        server._compute = self._held

    def _held(self, *args):
        self._entered.release()
        self._gate.wait(WAIT_S)
        return self._compute(*args)

    async def entered(self) -> None:
        """Wait until one more batch is blocked on its worker thread."""
        assert await asyncio.to_thread(self._entered.acquire, True, WAIT_S)

    def release(self) -> None:
        self._gate.set()

    def __enter__(self) -> "_HeldBatches":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


# ----------------------------------------------------------------------
# Registry and fingerprinting
# ----------------------------------------------------------------------
def test_fingerprint_is_content_addressed():
    m1, _ = build_symmetric(CASE, "sss", "thirds")
    m2, _ = build_symmetric(CASE, "csx-sym", "thirds")
    m3, _ = build_symmetric("banded", "sss", "thirds")
    # Same matrix content, different storage formats: same key.
    assert matrix_fingerprint(m1) == matrix_fingerprint(m2)
    assert matrix_fingerprint(m1) != matrix_fingerprint(m3)
    assert matrix_fingerprint(m1) == matrix_fingerprint(m1.to_coo())


def test_register_is_idempotent_and_lookup_typed():
    registry, entry = _registry("sss", "indexed", "serial")
    matrix, parts = build_symmetric(CASE, "sss", "thirds")
    again = registry.register(matrix, parts)
    assert again is entry
    assert entry.key in registry and len(registry) == 1
    with pytest.raises(UnknownOperatorError) as exc:
        registry.get("deadbeef")
    assert isinstance(exc.value, KeyError)
    assert exc.value.key == "deadbeef"
    registry.close()


# ----------------------------------------------------------------------
# Coalescing bit-identity across formats, reductions and backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
@pytest.mark.parametrize("reduction", ["indexed", "coloring"])
@pytest.mark.parametrize("fmt", COLORING_FORMATS)
def test_coalesced_spmv_bit_identical(fmt, reduction, backend):
    registry, entry = _registry(fmt, reduction, backend)
    xs = [rhs_block(entry.n, None, seed=s) for s in range(6)]
    refs = [serial_compute(entry, "spmv", (), x) for x in xs]

    async def drive():
        async with SolverServer(registry) as server:
            return await asyncio.gather(
                *[server.spmv(entry.key, x) for x in xs]
            )

    resps = _run(drive())
    widths = [r.coalesced for r in resps]
    assert max(widths) > 1, "requests did not coalesce"
    for resp, ref in zip(resps, refs):
        assert isinstance(resp, SpMVResponse)
        assert np.array_equal(resp.y, ref)
    registry.close()


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_coalesced_cg_bit_identical(backend):
    registry, entry = _spd_registry(backend)
    bs = [rhs_block(entry.n, None, seed=10 + s) for s in range(5)]
    params = (1e-9, None)
    refs = [serial_compute(entry, "cg", params, b) for b in bs]

    async def drive():
        async with SolverServer(registry) as server:
            return await asyncio.gather(
                *[server.cg(entry.key, b, tol=1e-9) for b in bs]
            )

    resps = _run(drive())
    assert max(r.coalesced for r in resps) > 1
    for resp, ref in zip(resps, refs):
        assert isinstance(resp, CGResponse)
        assert np.array_equal(resp.result.x, ref.x)
        assert resp.result.iterations == ref.iterations
        assert resp.result.residual_norm == ref.residual_norm
        assert resp.result.converged == ref.converged
    registry.close()


def test_max_batch_caps_width_and_overflow_still_served():
    registry, entry = _registry("sss", "indexed", "serial")
    xs = [rhs_block(entry.n, None, seed=s) for s in range(11)]

    async def drive():
        async with SolverServer(registry, max_batch=4) as server:
            return await asyncio.gather(
                *[server.spmv(entry.key, x) for x in xs]
            )

    resps = _run(drive())
    assert all(r.coalesced <= 4 for r in resps)
    for resp, x in zip(resps, xs):
        assert np.array_equal(resp.y, serial_compute(
            entry, "spmv", (), x))
    registry.close()


def test_coalesce_off_serves_solo_and_identical():
    registry, entry = _registry("sss", "indexed", "serial")
    xs = [rhs_block(entry.n, None, seed=s) for s in range(4)]

    async def drive():
        async with SolverServer(registry, coalesce=False) as server:
            return await asyncio.gather(
                *[server.spmv(entry.key, x) for x in xs]
            )

    resps = _run(drive())
    assert [r.coalesced for r in resps] == [1, 1, 1, 1]
    for resp, x in zip(resps, xs):
        assert np.array_equal(resp.y, serial_compute(
            entry, "spmv", (), x))
    registry.close()


def test_incompatible_cg_params_do_not_coalesce():
    registry, entry = _spd_registry("serial")
    b = rhs_block(entry.n, None, seed=3)

    async def drive():
        async with SolverServer(registry) as server:
            return await asyncio.gather(
                server.cg(entry.key, b, tol=1e-6),
                server.cg(entry.key, b, tol=1e-10),
            )

    loose, tight = _run(drive())
    assert loose.coalesced == 1 and tight.coalesced == 1
    assert loose.result.iterations < tight.result.iterations
    registry.close()


# ----------------------------------------------------------------------
# Admission control, deadlines, close
# ----------------------------------------------------------------------
def test_queue_full_rejection_is_typed_and_immediate():
    registry, entry = _registry("sss", "indexed", "serial")

    async def drive():
        server = SolverServer(registry, max_pending=2)
        first = [
            asyncio.ensure_future(
                server.spmv(entry.key, rhs_block(entry.n, None, seed=s))
            )
            for s in (0, 1)
        ]
        await asyncio.sleep(0)
        with pytest.raises(QueueFullError) as exc:
            await server.spmv(
                entry.key, rhs_block(entry.n, None, seed=2)
            )
        assert exc.value.pending == 2 and exc.value.limit == 2
        assert server.metrics.counter_value(
            "serve.rejected", reason="queue_full"
        ) == 1
        await server.close()
        for fut in first:
            with pytest.raises(ServerClosedError):
                await fut

    _run(drive())
    registry.close()


def test_deadline_expires_while_queued():
    registry, entry = _registry("sss", "indexed", "serial")

    async def drive():
        server = SolverServer(registry)
        with _HeldBatches(server) as held:
            running = asyncio.ensure_future(server.spmv(
                entry.key, rhs_block(entry.n, None, seed=1)
            ))
            await held.entered()
            queued = asyncio.ensure_future(server.spmv(
                entry.key, rhs_block(entry.n, None, seed=0),
                deadline=0.005,
            ))
            await asyncio.sleep(0.01)  # past the queued deadline
            held.release()
            with pytest.raises(DeadlineExceededError) as exc:
                await asyncio.wait_for(queued, WAIT_S)
            await asyncio.wait_for(running, WAIT_S)
        assert exc.value.stage == "queued"
        assert server.metrics.counter_value(
            "serve.expired", stage="queued"
        ) == 1
        assert server.pending == 0
        await server.close()

    _run(drive())
    registry.close()


def test_closed_server_refuses_submissions():
    registry, entry = _registry("sss", "indexed", "serial")

    async def drive():
        server = SolverServer(registry)
        await server.close()
        with pytest.raises(ServerClosedError):
            await server.spmv(
                entry.key, rhs_block(entry.n, None, seed=0)
            )
        await server.close()  # idempotent

    _run(drive())
    registry.close()


def test_wrong_shape_and_unknown_key_fail_fast():
    registry, entry = _registry("sss", "indexed", "serial")

    async def drive():
        async with SolverServer(registry) as server:
            with pytest.raises(ValueError):
                await server.spmv(entry.key, np.ones(entry.n + 1))
            with pytest.raises(UnknownOperatorError):
                await server.spmv("nope", np.ones(entry.n))
            assert server.pending == 0

    _run(drive())
    registry.close()


# ----------------------------------------------------------------------
# Scheduler: batch while busy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_waiting", [3, 8])
def test_waiters_behind_a_running_batch_flush_as_one_batch(n_waiting):
    registry, entry = _registry("sss", "indexed", "serial")
    xs = [rhs_block(entry.n, None, seed=s) for s in range(n_waiting + 1)]

    async def drive():
        async with SolverServer(registry, max_batch=8) as server:
            with _HeldBatches(server) as held:
                first = asyncio.ensure_future(server.spmv(entry.key, xs[0]))
                await held.entered()
                rest = [
                    asyncio.ensure_future(server.spmv(entry.key, x))
                    for x in xs[1:]
                ]
                await asyncio.sleep(0)  # admitted behind the busy bucket
                held.release()
                resps = await asyncio.wait_for(
                    asyncio.gather(first, *rest), WAIT_S
                )
            batches = server.metrics.counter_value(
                "serve.batches", kind="spmv"
            )
        return resps, batches

    resps, batches = _run(drive())
    assert batches == 2
    assert [r.coalesced for r in resps] == [1] + [n_waiting] * n_waiting
    for resp, x in zip(resps, xs):
        assert np.array_equal(resp.y, serial_compute(
            entry, "spmv", (), x))
    registry.close()


def test_waiters_overflowing_max_batch_split_at_max_batch():
    registry, entry = _registry("sss", "indexed", "serial")
    xs = [rhs_block(entry.n, None, seed=s) for s in range(11)]

    async def drive():
        async with SolverServer(registry, max_batch=4) as server:
            with _HeldBatches(server) as held:
                first = asyncio.ensure_future(server.spmv(entry.key, xs[0]))
                await held.entered()
                rest = [
                    asyncio.ensure_future(server.spmv(entry.key, x))
                    for x in xs[1:]
                ]
                await asyncio.sleep(0)
                held.release()
                return await asyncio.wait_for(
                    asyncio.gather(first, *rest), WAIT_S
                )

    resps = _run(drive())
    # Two full batches flush the moment they fill; the remainder waits
    # for the running batch and follows as one batch of two.
    assert [r.coalesced for r in resps] == [1] + [4] * 8 + [2] * 2
    for resp, x in zip(resps, xs):
        assert np.array_equal(resp.y, serial_compute(
            entry, "spmv", (), x))
    registry.close()


def test_close_fails_waiters_but_running_batch_answers():
    registry, entry = _registry("sss", "indexed", "serial")
    xs = [rhs_block(entry.n, None, seed=s) for s in range(4)]

    async def drive():
        server = SolverServer(registry)
        with _HeldBatches(server) as held:
            running = asyncio.ensure_future(server.spmv(entry.key, xs[0]))
            await held.entered()
            waiters = [
                asyncio.ensure_future(server.spmv(entry.key, x))
                for x in xs[1:]
            ]
            await asyncio.sleep(0)
            closing = asyncio.ensure_future(server.close())
            for fut in waiters:
                with pytest.raises(ServerClosedError):
                    await asyncio.wait_for(fut, WAIT_S)
            assert not running.done()
            held.release()
            await asyncio.wait_for(closing, WAIT_S)
        resp = await running
        assert resp.coalesced == 1
        assert np.array_equal(resp.y, serial_compute(
            entry, "spmv", (), xs[0]))
        assert server.pending == 0

    _run(drive())
    registry.close()


def test_bucket_map_empties_after_distinct_cg_params_drain():
    registry, entry = _spd_registry("serial")
    b = rhs_block(entry.n, None, seed=4)
    tols = [10.0 ** (-4 - s / 10) for s in range(50)]

    async def drive():
        async with SolverServer(registry) as server:
            resps = await asyncio.wait_for(asyncio.gather(
                *[server.cg(entry.key, b, tol=tol) for tol in tols]
            ), WAIT_S)
            assert server._buckets == {}
            assert server.pending == 0
        return resps

    resps = _run(drive())
    assert all(r.coalesced == 1 for r in resps)
    assert all(r.result.converged for r in resps)
    registry.close()


# ----------------------------------------------------------------------
# Chaos drill: faults are contained, never wrong, never hung
# ----------------------------------------------------------------------
def test_chaos_under_load_completes_correct_or_typed():
    matrix, parts = build_symmetric(CASE, "sss", "thirds")
    registry = OperatorRegistry()
    entry = registry.register(
        matrix, parts,
        executor=Executor("threads", plan=ChaosPlan(
            seed=11, p_raise=0.5, p_delay=0.3, max_delay_ms=0.1,
        )),
    )

    async def drive():
        async with SolverServer(registry) as server:
            report = await run_load(
                server, entry.key, kind="spmv", concurrency=6,
                n_requests=48, seed=5,
            )
            fallbacks = server.metrics.counter_value(
                "serve.fallback_requests"
            )
        return report, fallbacks

    report, fallbacks = _run(drive())
    # Every response that came back matched its reference bit-for-bit,
    # every request terminated, and the drill actually exercised the
    # containment path.
    assert report.n_incorrect == 0
    assert (report.n_ok + report.n_rejected + report.n_expired
            + report.n_failed) == report.n_requests
    assert fallbacks > 0
    registry.close()


def test_chaos_cg_under_load_correct():
    matrix = _spd_matrix()
    registry = OperatorRegistry()
    entry = registry.register(
        matrix, _spd_parts(matrix.n_rows),
        executor=Executor("threads", plan=ChaosPlan(
            seed=3, p_raise=0.4, p_delay=0.0,
        )),
    )

    async def drive():
        async with SolverServer(registry) as server:
            return await run_load(
                server, entry.key, kind="cg", concurrency=4,
                n_requests=8, tol=1e-9, seed=6,
            )

    report = _run(drive())
    assert report.n_incorrect == 0
    assert report.n_ok > 0
    registry.close()


# ----------------------------------------------------------------------
# Metrics, SLOs, loadgen report
# ----------------------------------------------------------------------
def test_serving_metrics_and_slo_reports():
    registry, entry = _registry("sss", "indexed", "serial")

    async def drive():
        server = SolverServer(registry)
        server.add_slo("serve.p99", threshold_ms=10_000.0)
        server.add_slo(
            "serve.spmv.p50", threshold_ms=10_000.0,
            percentile=50.0, kind="spmv",
        )
        xs = [rhs_block(entry.n, None, seed=s) for s in range(5)]
        await asyncio.gather(
            *[server.spmv(entry.key, x) for x in xs]
        )
        reports = server.slo_reports()
        m = server.metrics
        assert m.counter_value("serve.requests", kind="spmv") == 5
        assert m.counter_value("serve.coalesced_requests") == 5
        assert m.gauge_value("serve.pending") == 0
        await server.close()
        return reports

    reports = _run(drive())
    assert len(reports) == 2
    assert all(r.met and r.healthy for r in reports)
    assert "serve.p99" in reports[0].render()
    registry.close()


def test_loadgen_report_shape_and_audit():
    registry, entry = _registry("sss", "indexed", "serial")

    async def drive():
        async with SolverServer(registry) as server:
            return await run_load(
                server, entry.key, concurrency=4, n_requests=20,
                pool_size=4, seed=7,
            )

    report = _run(drive())
    assert report.n_ok == 20 and report.correct
    assert report.p50_ms <= report.p95_ms <= report.p99_ms
    assert report.mean_coalesced >= 1.0
    doc = report.to_dict()
    assert doc["n_incorrect"] == 0 and doc["kind"] == "spmv"
    assert "ok" in report.render()
    registry.close()


# ----------------------------------------------------------------------
# Block-CG demultiplexing pins (the solver-side contract serve rests on)
# ----------------------------------------------------------------------
def test_block_cg_column_matches_solo_solve_exactly():
    matrix = _spd_matrix()
    driver = ParallelSymmetricSpMV(
        matrix, _spd_parts(matrix.n_rows), "indexed"
    )
    n = matrix.n_rows
    B = rhs_block(n, 6, seed=21)
    block = block_conjugate_gradient(
        lambda X: driver(X), B, tol=1e-10
    )
    for j in range(6):
        col = block.column(j)
        solo = conjugate_gradient(
            lambda x: driver(x), np.ascontiguousarray(B[:, j]),
            tol=1e-10,
        )
        assert np.array_equal(col.x, solo.x)
        assert col.converged == solo.converged
        # A coalesced column reports the iteration its iterate froze
        # at — the solo solve's count, not the block's shared count.
        assert col.iterations == solo.iterations
        assert col.residual_norm == solo.residual_norm


def test_block_cg_should_stop_cuts_solve():
    matrix = _spd_matrix()
    driver = ParallelSymmetricSpMV(
        matrix, _spd_parts(matrix.n_rows), "indexed"
    )
    B = rhs_block(matrix.n_rows, 3, seed=22)
    calls = []
    res = block_conjugate_gradient(
        lambda X: driver(X), B, tol=1e-12,
        should_stop=lambda: len(calls) >= 2 or calls.append(None),
    )
    assert res.iterations <= 2
    assert not res.all_converged
