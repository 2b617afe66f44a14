"""Unit tests for the thread-task executor backends."""

import gc
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.parallel import Executor
from repro.resilience.errors import BatchExecutionError


def test_serial_runs_in_order():
    order = []
    tasks = [lambda i=i: order.append(i) for i in range(5)]
    Executor("serial").run_batch(tasks)
    assert order == [0, 1, 2, 3, 4]


def test_serial_empty_batch():
    Executor("serial").run_batch([])


def test_threads_runs_all_tasks():
    done = set()
    lock = threading.Lock()

    def make(i):
        def task():
            with lock:
                done.add(i)

        return task

    with Executor("threads", max_workers=3) as ex:
        ex.run_batch([make(i) for i in range(10)])
    assert done == set(range(10))


def test_threads_propagates_exceptions():
    def boom():
        raise RuntimeError("kaput")

    with Executor("threads") as ex:
        with pytest.raises(RuntimeError, match="kaput"):
            ex.run_batch([boom])


def test_serial_propagates_exceptions():
    def boom():
        raise ValueError("nope")

    with pytest.raises(ValueError, match="nope"):
        Executor("serial").run_batch([boom])


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        Executor("fibers")


def test_pool_reused_across_batches():
    with Executor("threads", max_workers=2) as ex:
        ex.run_batch([lambda: None, lambda: None])
        pool = ex._pool
        ex.run_batch([lambda: None, lambda: None])
        assert ex._pool is pool
        assert all(t.is_alive() for t in pool.threads)


def test_close_idempotent():
    ex = Executor("threads")
    ex.run_batch([lambda: None])
    ex.close()
    ex.close()


def test_invalid_max_workers_rejected():
    with pytest.raises(ValueError):
        Executor("threads", max_workers=0)


def test_pool_grows_for_larger_batches():
    # Regression: without max_workers the pool used to be sized by the
    # first batch forever, silently serializing any later larger batch.
    # A barrier only releases if all 8 tasks truly run concurrently.
    with Executor("threads") as ex:
        ex.run_batch([lambda: None])  # sizes the pool at 1
        barrier = threading.Barrier(8)
        timed_out = []

        def make():
            def task():
                try:
                    barrier.wait(timeout=5.0)
                except threading.BrokenBarrierError:
                    timed_out.append(True)

            return task

        ex.run_batch([make() for _ in range(8)])
        assert not timed_out
        assert ex._pool.size >= 7  # plus the calling thread


def test_explicit_max_workers_pool_stable():
    with Executor("threads", max_workers=2) as ex:
        ex.run_batch([lambda: None, lambda: None])
        pool = ex._pool
        ex.run_batch([lambda: None for _ in range(6)])
        assert ex._pool is pool  # capped pools never regrow
        assert pool.size == 1  # the caller is the second worker


def test_failure_waits_for_slow_sibling():
    # Regression: run_batch used to re-raise on the first failed future
    # while sibling tasks were still running — the caller could observe
    # (and re-zero) buffers a live task then kept writing. Now the
    # error only propagates once every sibling has finished.
    writes = []
    started = threading.Event()

    def boom():
        # Only fail once the sibling is provably in flight (started and
        # uncancellable), so the test exercises the await path, not the
        # cancellation path.
        assert started.wait(timeout=5.0)
        raise RuntimeError("failure with sibling in flight")

    def slow_writer():
        started.set()
        time.sleep(0.1)
        writes.append("late write")

    with Executor("threads", max_workers=2) as ex:
        with pytest.raises(RuntimeError):
            ex.run_batch([boom, slow_writer])
        # Containment: by the time the error propagates, the slow
        # sibling has completed — no in-flight writer survives.
        assert writes == ["late write"]


def test_pool_growth_retires_old_workers():
    # Regression: growing the pool replaced it without joining the old
    # workers; they could outlive the swap. Record the first pool's
    # threads (not the calling thread, which runs a task of every batch
    # and stays alive) and check none survives the growth.
    with Executor("threads") as ex:
        ex.run_batch([lambda: None, lambda: None])  # caller + 1 thread
        first_pool_threads = list(ex._pool.threads)
        ex.run_batch([lambda: None for _ in range(6)])  # forces growth
        assert ex._pool.size >= 5
        assert first_pool_threads
        assert not any(t.is_alive() for t in first_pool_threads)


# ----------------------------------------------------------------------
# Caller-run batches: the calling thread runs the first task itself
# ----------------------------------------------------------------------
def test_failing_caller_task_waits_for_worker_sibling():
    caller = threading.current_thread()
    ran_on = {}
    writes = []
    started = threading.Event()

    def boom():  # task 0: claimed by the calling thread
        ran_on["boom"] = threading.current_thread()
        assert started.wait(timeout=5.0)
        raise RuntimeError("caller task failed")

    def slow_writer():
        ran_on["writer"] = threading.current_thread()
        started.set()
        time.sleep(0.1)
        writes.append("late write")

    with Executor("threads", max_workers=2) as ex:
        with pytest.raises(BatchExecutionError) as exc_info:
            ex.run_batch([boom, slow_writer])
        assert writes == ["late write"]
    assert ran_on["boom"] is caller
    assert ran_on["writer"] is not caller
    assert [f.tid for f in exc_info.value.failures] == [0]
    assert exc_info.value.n_cancelled == 0


def test_failing_worker_task_during_caller_task_is_awaited():
    caller = threading.current_thread()
    ran_on = {}
    writes = []
    worker_failed = threading.Event()

    def caller_task():  # keeps running after its sibling has failed
        ran_on["caller"] = threading.current_thread()
        assert worker_failed.wait(timeout=5.0)
        time.sleep(0.05)
        writes.append("caller write")

    def worker_boom():
        ran_on["worker"] = threading.current_thread()
        worker_failed.set()
        raise RuntimeError("worker task failed")

    def caller_quick():  # returns while its sibling is still running
        worker_failed.wait(timeout=5.0)

    def worker_slow_boom():
        worker_failed.set()
        time.sleep(0.1)
        writes.append("worker write")
        raise RuntimeError("slow worker task failed")

    with Executor("threads", max_workers=2) as ex:
        with pytest.raises(BatchExecutionError) as exc_info:
            ex.run_batch([caller_task, worker_boom])
        assert writes == ["caller write"]
        assert [f.tid for f in exc_info.value.failures] == [1]
        assert ran_on["caller"] is caller
        assert ran_on["worker"] is not caller

        worker_failed.clear()
        with pytest.raises(BatchExecutionError) as exc_info:
            ex.run_batch([caller_quick, worker_slow_boom])
        assert writes == ["caller write", "worker write"]
        assert [f.tid for f in exc_info.value.failures] == [1]


@pytest.mark.parametrize("max_workers", [1, 2, 4])
def test_all_raise_chaos_accounts_for_every_task(max_workers):
    from repro.resilience import ChaosPlan

    plan = ChaosPlan(7, p_raise=1.0, p_delay=0.0)
    ran = []
    n_tasks = 8
    with Executor("threads", max_workers=max_workers, plan=plan) as ex:
        for _ in range(20):
            with pytest.raises(BatchExecutionError) as exc_info:
                ex.run_batch(
                    [lambda: ran.append(1) for _ in range(n_tasks)]
                )
            err = exc_info.value
            assert err.n_tasks == n_tasks
            assert err.failures
            assert len(err.failures) + err.n_cancelled == n_tasks
            if max_workers == 1:  # the caller fails first, cancels the rest
                assert err.n_cancelled == n_tasks - 1
    assert not ran  # an injected raise fires instead of the task body


@pytest.mark.parametrize("max_workers", [1, 2])
def test_max_workers_caps_concurrency(max_workers):
    lock = threading.Lock()
    running = [0]
    peak = [0]

    def task():
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.002)
        with lock:
            running[0] -= 1

    with Executor("threads", max_workers=max_workers) as ex:
        for _ in range(10):
            ex.run_batch([task for _ in range(6)])
    assert 1 <= peak[0] <= max_workers


def test_single_task_and_one_worker_stay_on_caller():
    caller = threading.current_thread()
    seen = []

    def record():
        seen.append(threading.current_thread())

    with Executor("threads") as ex:
        ex.run_batch([record])
        assert ex._pool is None
    with Executor("threads", max_workers=1) as ex:
        ex.run_batch([record for _ in range(4)])
        assert ex._pool is None
    assert seen and all(t is caller for t in seen)


# ----------------------------------------------------------------------
# Bounded threads: pools do not leak across create/close cycles
# ----------------------------------------------------------------------
def test_thread_count_returns_to_baseline_after_executor_cycles():
    baseline = threading.active_count()
    for _ in range(200):
        ex = Executor("threads")
        ex.run_batch([lambda: None for _ in range(3)])
        ex.close()
    assert threading.active_count() == baseline


def test_unclosed_executor_stops_its_threads_when_collected():
    ex = Executor("threads", max_workers=3)
    ex.run_batch([lambda: None for _ in range(3)])
    threads = list(ex._pool.threads)
    del ex
    gc.collect()
    for t in threads:
        t.join(timeout=5.0)
    assert not any(t.is_alive() for t in threads)


def test_thread_count_returns_to_baseline_after_operator_cycles():
    import numpy as np

    from repro.analysis.configs import build_format
    from repro.matrices.generators import grid_laplacian_2d
    from repro.parallel import ParallelSymmetricSpMV

    coo = grid_laplacian_2d(12, 12)
    matrix, parts = build_format(coo, "csx-sym", 2)
    x = np.arange(coo.n_rows, dtype=np.float64)
    baseline = threading.active_count()
    for _ in range(200):
        ex = Executor("threads", max_workers=2)
        op = ParallelSymmetricSpMV(
            matrix, parts, "indexed", executor=ex
        ).bind()
        op(x)
        op.close()
        ex.close()
    assert threading.active_count() == baseline


def test_unclosed_pool_does_not_block_interpreter_exit():
    code = (
        "from repro.parallel import Executor\n"
        "ex = Executor('threads', max_workers=2)\n"
        "ex.run_batch([lambda: None, lambda: None])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=10,
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()


# ----------------------------------------------------------------------
# Fail-fast construction
# ----------------------------------------------------------------------
def test_unknown_mode_error_lists_backends():
    with pytest.raises(ValueError) as exc_info:
        Executor("fibers")
    msg = str(exc_info.value)
    for mode in ("serial", "threads"):
        assert mode in msg


def test_processes_mode_is_unknown():
    """``processes`` is not a mode: ``threads`` runs the native kernel
    without the GIL, so the error names the two modes there are."""
    with pytest.raises(ValueError) as exc_info:
        Executor("processes")
    msg = str(exc_info.value)
    assert "unknown executor mode 'processes'" in msg
    for mode in ("serial", "threads"):
        assert mode in msg


def test_chaos_is_a_plan_not_a_mode():
    from repro.resilience import ChaosPlan

    with pytest.raises(ValueError) as exc_info:
        Executor("chaos")
    msg = str(exc_info.value)
    assert "'chaos'" in msg
    for mode in ("serial", "threads"):
        assert mode in msg
    with pytest.raises(ValueError):
        Executor("serial", plan=ChaosPlan(0))


def test_no_mode_defaults_a_plan():
    """No mode defaults a fault plan: one is present only when passed."""
    from repro.resilience import ChaosPlan

    with Executor("threads") as threads:
        assert threads.plan is None
    plan = ChaosPlan(0)
    with Executor("threads", plan=plan) as threads:
        assert threads.plan is plan
