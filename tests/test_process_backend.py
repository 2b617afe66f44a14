"""Segment lifecycle of the shared-memory process backend.

The ``processes`` executor maps every workspace of a bound operator
into ``multiprocessing.shared_memory`` segments — leaking one is a
machine-wide leak (/dev/shm survives the process), so the lifecycle
invariants get their own regression suite:

* ``close()`` ends with **zero** registered segments and no
  ``ResourceWarning``;
* a chaos poison → automatic-recovery cycle neither leaks nor
  corrupts;
* an operator garbage-collected *without* ``close()`` still releases
  its segments through the arena/pool finalizers (while the existing
  ``bound_operator.unclosed_gc`` accounting fires);
* worker-executed task spans are attributed with the worker ``pid``;
* a worker's ``done`` reply carries one metrics snapshot (counters
  included) and nothing else to fold;
* closures never reach the backend: a closure batch and the CSB-Sym
  comparator are rejected before any segment exists.
"""

import gc
import os
import warnings

import numpy as np
import pytest

from repro.obs import Tracer, reset_warning_counts, tracing, warning_counts
from repro.parallel import (
    Executor,
    ParallelCSBSymSpMV,
    ParallelSymmetricSpMV,
    live_segments,
    shared_memory_available,
)
from repro.resilience import BatchExecutionError, ChaosPlan, FaultSpec

from tests.conformance import build_symmetric, reference_product, rhs_block

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)


def _bound(executor, fmt="sss", method="indexed", k=None):
    matrix, parts = build_symmetric("random", fmt, "thirds")
    driver = ParallelSymmetricSpMV(matrix, parts, method, executor=executor)
    return driver.bind(k)


def _poison_plan(n_tasks: int) -> ChaosPlan:
    """Batch 0 raises in every worker; later batches are clean."""
    return ChaosPlan(
        0, p_raise=0.0, p_delay=0.0, reorder=False,
        faults={(0, t): FaultSpec("raise") for t in range(n_tasks)},
    )


def test_close_releases_all_segments():
    ex = Executor("processes", max_workers=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        op = _bound(ex)
        x = rhs_block(op.matrix.n_cols, None)
        y = np.array(op(x))
        assert op._remote is not None  # the backend actually engaged
        op.close()
        ex.close()
        gc.collect()
    assert np.allclose(y, reference_product("random", x))
    assert live_segments() == []
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_close_is_idempotent_with_pool():
    ex = Executor("processes", max_workers=2)
    op = _bound(ex)
    op.close()
    op.close()
    ex.close()
    assert live_segments() == []


def test_chaos_poison_recover_cycle_is_leak_free():
    matrix, parts = build_symmetric("random", "sss", "thirds")
    plan = _poison_plan(len(parts))
    ex = Executor("processes", max_workers=2, plan=plan)
    op = ParallelSymmetricSpMV(matrix, parts, "indexed", executor=ex).bind()
    x = rhs_block(matrix.n_cols, None)
    try:
        with pytest.raises(BatchExecutionError):
            op(x)  # batch 0: every worker raises the injected fault
        assert op.poisoned
        # Batch 1 draws no fault: the call re-zeroes in full, then
        # computes in the workers.
        y = np.array(op(x))
        assert not op.poisoned
        assert np.allclose(y, reference_product("random", x))
    finally:
        op.close()
        ex.close()
    assert live_segments() == []


def test_gc_unclosed_operator_releases_segments():
    reset_warning_counts()
    ex = Executor("processes", max_workers=2)
    op = _bound(ex)
    x = rhs_block(op.matrix.n_cols, None)
    op(x)
    assert live_segments()  # segments exist while the operator lives
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del op
        gc.collect()
    # The leak is *accounted* (warning + counter) and then *contained*
    # (arena and pool finalizers release every segment regardless).
    assert any(issubclass(w.category, ResourceWarning) for w in caught)
    assert warning_counts().get("bound_operator.unclosed_gc") == 1
    assert live_segments() == []
    ex.close()


def test_worker_spans_carry_worker_pid():
    ex = Executor("processes", max_workers=2)
    tracer = Tracer()
    with tracing(tracer):
        op = _bound(ex)
        op(rhs_block(op.matrix.n_cols, None))
        op.close()
    ex.close()
    spans = [
        ev for _, ev in tracer.events() if ev.name == "spmv.mult.task"
    ]
    assert spans
    pids = {ev.attrs["pid"] for ev in spans}
    assert pids and os.getpid() not in pids


def test_done_reply_carries_one_metrics_snapshot():
    ex = Executor("processes", max_workers=2)
    op = _bound(ex)
    try:
        conn = op._remote._conns[0]
        conn.send(("run", 7, [0], True))
        kind, batch, results, snap = conn.recv()
        assert (kind, batch) == ("done", 7)
        assert [tid for tid, *_ in results] == [0]
        assert sorted(snap) == ["counters", "gauges", "histograms"]
        names = {entry["name"] for entry in snap["counters"]}
        assert "kernel.elements" in names
        conn.send(("run", 8, [0], False))
        assert conn.recv()[3] is None
    finally:
        op.close()
        ex.close()


def test_csb_comparator_rejects_processes():
    matrix, parts = build_symmetric("random", "csb-sym", "thirds")
    with Executor("processes", max_workers=2) as ex:
        with pytest.raises(ValueError, match="'serial' or 'threads'"):
            ParallelCSBSymSpMV(matrix, parts, executor=ex)
    assert live_segments() == []


def test_closure_batch_without_remote_raises():
    ran = []
    with Executor("processes", max_workers=2) as ex:
        with pytest.raises(ValueError, match="closures"):
            ex.run_batch([lambda: ran.append(1)])
    assert ran == []
    assert live_segments() == []


def test_plain_driver_call_runs_in_workers():
    matrix, parts = build_symmetric("random", "sss", "thirds")
    x = rhs_block(matrix.n_cols, None)
    serial = ParallelSymmetricSpMV(matrix, parts, "indexed")(x)
    ex = Executor("processes", max_workers=2)
    tracer = Tracer()
    try:
        driver = ParallelSymmetricSpMV(matrix, parts, "indexed", executor=ex)
        with tracing(tracer):
            for _ in range(2):
                assert np.array_equal(driver(x), serial)
        assert live_segments()  # the cached operator's arenas
        driver.close()
    finally:
        ex.close()
    pids = {
        ev.attrs["pid"]
        for _, ev in tracer.events()
        if ev.name == "spmv.mult.task"
    }
    assert pids and os.getpid() not in pids
    assert live_segments() == []


@pytest.mark.skipif(
    "spawn" not in __import__("multiprocessing").get_all_start_methods(),
    reason="spawn start method unavailable",
)
def test_spawn_start_method_bit_identical(monkeypatch):
    monkeypatch.setenv("REPRO_PROCESS_START", "spawn")
    matrix, parts = build_symmetric("random", "sss", "thirds")
    x = rhs_block(matrix.n_cols, None)
    serial = np.array(ParallelSymmetricSpMV(matrix, parts, "indexed")(x))
    ex = Executor("processes", max_workers=2)
    op = ParallelSymmetricSpMV(
        matrix, parts, "indexed", executor=ex
    ).bind()
    try:
        assert op._remote.start_method == "spawn"
        assert np.array_equal(np.array(op(x)), serial)
    finally:
        op.close()
        ex.close()
    assert live_segments() == []
