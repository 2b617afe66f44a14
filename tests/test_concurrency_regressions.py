"""Regression tests for the concurrent-caller fixes in the executor /
bound-operator / format-cache layer.

Each test here encodes a race that existed before the corresponding
fix and fails on the pre-fix code:

* ``Executor.n_batches`` was read-modify-written without a lock, so
  concurrent ``run_batch`` callers could observe duplicate batch ids —
  which breaks chaos-plan fault attribution (faults derive from
  ``(seed, batch, tid)``) and made pool startup/shutdown racy.
* ``BoundOperator.__call__`` zeroed and filled *shared* persistent
  workspaces with no mutual exclusion, so two threads applying the
  same operator silently corrupted each other's results.
* A driver's per-``k`` operator cache binds on first use; first calls
  racing it must bind exactly one operator per ``k``.
* The bounded lazy caches (``RowScatter`` flat indices, then also SSS
  partition splits and CSX plan scatters) mutated plain dicts from
  worker threads; eviction could yank a compiled array from under an
  in-flight kernel. SSS and CSX now run the native kernel, which keeps
  no cache; its concurrent calls release the GIL.

The drivers' own cross-backend bit-identity is covered by the
conformance suite; these tests aim threads at the *same* object on
purpose.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.formats.base import FLAT_CACHE_MAX, RowScatter
from repro.parallel import Executor, ParallelSymmetricSpMV
from repro.resilience import BatchExecutionError, ChaosPlan

from tests.conformance import build_symmetric, rhs_block

pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture
def fast_switching():
    """Force frequent thread switches so interleavings that need a
    precise schedule actually happen within a short test."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


# ----------------------------------------------------------------------
# Executor: batch-id allocation under concurrency
# ----------------------------------------------------------------------
def test_concurrent_run_batch_ids_unique_and_gap_free(fast_switching):
    """N threads x M batches must observe N*M distinct, gap-free ids.

    Pre-fix, the unsynchronized ``self.n_batches += 1`` lost updates
    under contention and two batches could share an id.
    """
    ex = Executor("serial")
    n_threads, n_batches = 8, 50
    ids: list[list[int]] = [[] for _ in range(n_threads)]
    start = threading.Barrier(n_threads)

    def worker(slot: int) -> None:
        start.wait()
        for _ in range(n_batches):
            ids[slot].append(ex.run_batch([lambda: None]))

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    seen = [b for slot in ids for b in slot]
    assert len(seen) == n_threads * n_batches
    assert sorted(seen) == list(range(n_threads * n_batches))
    assert ex.n_batches == n_threads * n_batches


def test_empty_batch_allocates_no_id():
    ex = Executor("serial")
    assert ex.run_batch([]) is None
    assert ex.n_batches == 0
    assert ex.run_batch([lambda: None]) == 0


def test_concurrent_threaded_batches_with_close(fast_switching):
    """run_batch racing close() must never crash on a torn-down pool
    (pre-fix: submit could hit 'cannot schedule new futures after
    shutdown')."""
    ex = Executor("threads", max_workers=2)
    hits = []
    stop = threading.Event()

    def runner() -> None:
        while not stop.is_set():
            try:
                ex.run_batch([lambda: hits.append(1)] * 3)
            except RuntimeError as exc:  # pragma: no cover - the bug
                pytest.fail(f"run_batch raced close(): {exc}")

    threads = [threading.Thread(target=runner) for _ in range(3)]
    for t in threads:
        t.start()
    for _ in range(20):
        ex.close()  # runners re-create the pool; close again
    stop.set()
    for t in threads:
        t.join()
    ex.close()
    assert hits  # work actually ran


# ----------------------------------------------------------------------
# BoundOperator: concurrent applies on one operator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reduction", ["indexed", "coloring"])
def test_bound_operator_concurrent_apply_bit_exact(
    fast_switching, reduction
):
    """Two threads hammering one bound operator must each get the
    exact result they would have gotten alone.

    Pre-fix, the shared persistent workspaces (y, locals) were zeroed
    and accumulated by both callers at once, corrupting both results.
    """
    matrix, parts = build_symmetric("random", "sss", "thirds")
    driver = ParallelSymmetricSpMV(
        matrix, parts, reduction, executor=Executor("threads", 2)
    )
    op = driver.bind()
    serial = ParallelSymmetricSpMV(matrix, parts, driver.reduction)
    xs = [rhs_block(matrix.n_rows, None, seed=s) for s in (1, 2)]
    refs = [serial(x) for x in xs]
    n_iter = 60
    failures: list[str] = []
    start = threading.Barrier(2)

    def worker(slot: int) -> None:
        x, ref = xs[slot], refs[slot]
        out = np.empty_like(ref)
        start.wait()
        for i in range(n_iter):
            op(x, out=out)
            if not np.array_equal(out, ref):
                failures.append(
                    f"thread {slot} iter {i}: max diff "
                    f"{np.abs(out - ref).max():.3e}"
                )
                return

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    op.close()
    assert not failures, failures[0]


def test_bound_operator_recover_during_applies(fast_switching):
    """Two threads apply one operator on an executor whose fault plan
    fails some batches. Each failure poisons the operator and the next
    call recovers it; recovery runs under the apply lock, so it never
    re-zeroes workspaces in the middle of the other thread's apply:
    every apply that returns is bit-identical to the serial one."""
    matrix, parts = build_symmetric("random", "sss", "thirds")
    serial = ParallelSymmetricSpMV(matrix, parts, "indexed")
    x = rhs_block(matrix.n_rows, None, seed=5)
    ref = serial(x)
    plan = ChaosPlan(11, p_raise=0.3, p_delay=0.3, max_delay_ms=0.2)
    ex = Executor("threads", 2, plan=plan)
    op = ParallelSymmetricSpMV(
        matrix, parts, serial.reduction, executor=ex
    ).bind()
    outcomes: list = []
    failures: list = []

    def worker(slot: int) -> None:
        out = np.empty_like(ref)
        for i in range(40):
            try:
                op(x, out=out)
            except BatchExecutionError:
                outcomes.append("failed")
                continue
            outcomes.append("ok")
            if not np.array_equal(out, ref):
                failures.append(f"thread {slot} iter {i}")
                return

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(2)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        op.close()
        ex.close()
    assert not failures, failures[0]
    assert {"ok", "failed"} <= set(outcomes)


# ----------------------------------------------------------------------
# Driver: first calls racing the bind-once operator cache
# ----------------------------------------------------------------------
def test_driver_first_calls_bind_once_per_k(fast_switching):
    """Eight threads make their first call on one driver at the same
    moment, half with vectors and half with ``k = 3`` blocks: exactly
    one operator is bound per ``k`` (a check-then-act race on the cache
    would bind, and leak, a second one), and every result is the
    serial one bit for bit."""
    matrix, parts = build_symmetric("random", "sss", "thirds")
    driver = ParallelSymmetricSpMV(
        matrix, parts, "indexed", executor=Executor("threads", 2)
    )
    serial = ParallelSymmetricSpMV(matrix, parts, driver.reduction)
    n_threads = 8
    xs = [
        rhs_block(matrix.n_rows, None if i % 2 else 3, seed=i)
        for i in range(n_threads)
    ]
    refs = [serial(x) for x in xs]
    binds: list = []
    bind = driver.bind

    def counting_bind(k=None, **kw):
        binds.append(k)
        time.sleep(0.01)  # hold the miss open while the others arrive
        return bind(k, **kw)

    driver.bind = counting_bind
    start = threading.Barrier(n_threads, timeout=10)
    results: list = [None] * n_threads

    def worker(i: int) -> None:
        start.wait()
        results[i] = driver(xs[i])

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert sorted(binds, key=str) == [3, None]
    assert set(driver._ops) == {None, 3}
    for got, ref in zip(results, refs):
        assert got is not None and np.array_equal(got, ref)
    driver.close()
    driver.executor.close()


# ----------------------------------------------------------------------
# Format caches: compile/evict/clear under concurrency
# ----------------------------------------------------------------------
def test_row_scatter_cache_stress(fast_switching):
    """Concurrent scatters across more ``k`` values than the cache
    holds, racing a clearing thread: every scatter must still land the
    correct sums (pre-fix, eviction/clear raced the flat-index build
    and scatters could see a half-built or missing index)."""
    rng = np.random.default_rng(42)
    idx = rng.integers(0, 40, size=200)
    scatter = RowScatter(idx)
    ks = list(range(1, FLAT_CACHE_MAX + 5))  # force evictions
    products = {
        k: rng.standard_normal((idx.size, k)) for k in ks
    }
    refs = {}
    for k in ks:
        y = np.zeros((40, k))
        scatter.add(y, products[k])
        refs[k] = y
    scatter.clear()

    stop = threading.Event()
    failures: list[str] = []

    def clearer() -> None:
        while not stop.is_set():
            scatter.clear()

    def worker(seed: int) -> None:
        order = list(ks)
        np.random.default_rng(seed).shuffle(order)
        for _ in range(15):
            for k in order:
                y = np.zeros((40, k))
                scatter.add(y, products[k])
                if not np.array_equal(y, refs[k]):
                    failures.append(f"k={k} scatter corrupted")
                    return

    clear_thread = threading.Thread(target=clearer)
    workers = [
        threading.Thread(target=worker, args=(s,)) for s in (1, 2, 3)
    ]
    clear_thread.start()
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    stop.set()
    clear_thread.join()
    assert not failures, failures[0]
    assert len(scatter._flat) <= FLAT_CACHE_MAX


def test_sss_partition_split_cache_stress(fast_switching):
    """Concurrent applies with distinct partitionings against one SSS
    matrix, with ``clear_caches`` running all the while: the native
    partition kernels (GIL released) must stay bit-identical to their
    serial results."""
    matrix, _ = build_symmetric("random", "sss", "single")
    n = matrix.n_rows
    layouts = []
    for p in (1, 2, 3, 5, 6):
        bounds = np.linspace(0, n, p + 1).astype(int)
        layouts.append(
            [(int(bounds[i]), int(bounds[i + 1])) for i in range(p)]
        )
    x = rhs_block(n, None, seed=9)
    drivers = [
        ParallelSymmetricSpMV(matrix, parts, "indexed")
        for parts in layouts
    ]
    refs = [d(x) for d in drivers]
    matrix.clear_caches()

    failures: list[str] = []
    stop = threading.Event()

    def clearer() -> None:
        while not stop.is_set():
            matrix.clear_caches()

    def worker(slot: int) -> None:
        d, ref = drivers[slot % len(drivers)], refs[slot % len(drivers)]
        for i in range(25):
            y = d(x)
            if not np.array_equal(y, ref):
                failures.append(f"driver {slot} iter {i} corrupted")
                return

    clear_thread = threading.Thread(target=clearer)
    workers = [
        threading.Thread(target=worker, args=(i,)) for i in range(5)
    ]
    clear_thread.start()
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    stop.set()
    clear_thread.join()
    assert not failures, failures[0]
