"""Fault-injection plans and failure containment.

Covers the resilience taxonomy end to end:

* :class:`ChaosPlan` — deterministic fault derivation, validation,
  explicit overrides;
* ``Executor`` containment — typed :class:`BatchExecutionError`
  aggregation, sibling await/cancel;
* bound-operator poisoning — automatic recovery with full-extent
  workspace re-zeroing on the next call, :class:`OperatorClosedError`;
* the containment property itself, as a hypothesis sweep over fault
  plans: every application either raises a typed resilience error or
  returns output bit-identical to the serial execution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import reset_warning_counts, warning_counts
from repro.parallel import (
    Executor,
    ParallelSpMV,
    ParallelSymmetricSpMV,
)
from repro.resilience import (
    BatchExecutionError,
    ChaosInjectedError,
    ChaosPlan,
    ExecutionError,
    FaultSpec,
    OperatorClosedError,
)

from tests.conformance import (
    build_symmetric,
    build_unsymmetric,
    reference_product,
    rhs_block,
)

CONTAINED = (BatchExecutionError, ChaosInjectedError)


# ----------------------------------------------------------------------
# ChaosPlan: deterministic derivation and validation
# ----------------------------------------------------------------------
def test_plan_is_deterministic():
    a = ChaosPlan(42, p_raise=0.3, p_delay=0.3)
    b = ChaosPlan(42, p_raise=0.3, p_delay=0.3)
    for batch in range(5):
        for tid in range(8):
            assert a.fault_for(batch, tid) == b.fault_for(batch, tid)
        assert a.submission_order(batch, 8) == b.submission_order(batch, 8)


def test_plan_seeds_differ():
    a = ChaosPlan(1, p_raise=0.5, p_delay=0.4)
    b = ChaosPlan(2, p_raise=0.5, p_delay=0.4)
    faults_a = [a.fault_for(0, t) for t in range(64)]
    faults_b = [b.fault_for(0, t) for t in range(64)]
    assert faults_a != faults_b


def test_plan_draws_every_action():
    plan = ChaosPlan(7, p_raise=0.35, p_delay=0.35)
    actions = {
        plan.fault_for(b, t).action for b in range(8) for t in range(8)
    }
    assert actions == {"none", "delay", "raise"}


def test_plan_explicit_overrides_win():
    plan = ChaosPlan(
        0, p_raise=0.0, p_delay=0.0,
        faults={(3, 1): FaultSpec("raise")},
    )
    assert plan.fault_for(3, 1).action == "raise"
    assert plan.fault_for(3, 0).action == "none"
    assert not plan.exception_free


def test_plan_exception_free_property():
    assert ChaosPlan(0, p_raise=0.0, p_delay=0.9).exception_free
    assert not ChaosPlan(0, p_raise=0.1).exception_free


def test_plan_validation():
    with pytest.raises(ValueError):
        ChaosPlan(0, p_raise=0.8, p_delay=0.4)  # sums past 1
    with pytest.raises(ValueError):
        ChaosPlan(0, p_raise=-0.1)
    with pytest.raises(ValueError):
        ChaosPlan(0, max_delay_ms=-1.0)


def test_plan_reorder_off_is_identity():
    plan = ChaosPlan(5, reorder=False)
    assert plan.submission_order(0, 6) == list(range(6))


def test_plan_rejected_outside_chaos_mode():
    """A fault plan needs a parallel backend: serial rejects ``plan=``."""
    with pytest.raises(ValueError):
        Executor("serial", plan=ChaosPlan(0))
    with Executor("threads", plan=ChaosPlan(0)) as threads:
        assert threads.plan is not None


# ----------------------------------------------------------------------
# Executor containment
# ----------------------------------------------------------------------
def _raise_all_plan(n_tasks: int, batches: int = 4) -> ChaosPlan:
    """Every task of the first ``batches`` batches raises."""
    return ChaosPlan(
        0, p_raise=0.0, p_delay=0.0, reorder=False,
        faults={
            (b, t): FaultSpec("raise")
            for b in range(batches) for t in range(n_tasks)
        },
    )


def test_batch_error_aggregates_all_failures():
    plan = _raise_all_plan(3)
    with Executor("threads", plan=plan) as ex:
        with pytest.raises(BatchExecutionError) as exc_info:
            ex.run_batch([lambda: None] * 3, label="spmv.mult")
    err = exc_info.value
    assert err.label == "spmv.mult"
    assert err.batch == 0
    assert err.n_tasks == 3
    # Every task either raised (recorded with its tid) or was cancelled
    # before starting — nothing is unaccounted for.
    assert len(err.failures) + err.n_cancelled == 3
    tids = [f.tid for f in err.failures]
    assert tids == sorted(tids)
    assert set(tids) <= set(range(3))
    assert all(
        isinstance(f.error, ChaosInjectedError) for f in err.failures
    )
    assert isinstance(err.first, ChaosInjectedError)
    assert isinstance(err, RuntimeError)  # taxonomy stays catchable


def test_batch_error_is_typed_execution_error():
    assert issubclass(BatchExecutionError, ExecutionError)
    assert issubclass(OperatorClosedError, ExecutionError)
    assert issubclass(ChaosInjectedError, ExecutionError)
    assert issubclass(ExecutionError, RuntimeError)


def test_chaos_injected_error_carries_coordinates():
    plan = ChaosPlan(0, faults={(0, 2): FaultSpec("raise")}, p_delay=0.0)
    with Executor("threads", plan=plan) as ex:
        with pytest.raises(BatchExecutionError) as exc_info:
            ex.run_batch([lambda: None] * 4)
    failure = exc_info.value.failures[0]
    assert failure.tid == 2
    assert failure.error.batch == 0
    assert failure.error.tid == 2


def test_batch_failure_counts_warning():
    reset_warning_counts()
    plan = _raise_all_plan(2, batches=1)
    with Executor("threads", plan=plan) as ex:
        with pytest.raises(BatchExecutionError):
            ex.run_batch([lambda: None] * 2)
    assert warning_counts().get("resilience.batch_failure") == 1


def test_chaos_delay_only_matches_threads_semantics():
    done = set()
    plan = ChaosPlan(3, p_raise=0.0, p_delay=0.8, max_delay_ms=0.2)
    with Executor("threads", plan=plan) as ex:
        ex.run_batch([lambda i=i: done.add(i) for i in range(10)])
    assert done == set(range(10))


# ----------------------------------------------------------------------
# Driver-level containment: a faulted parallel apply never returns a
# silently wrong vector.
# ----------------------------------------------------------------------
def test_parallel_driver_contains_injected_fault():
    matrix, parts = build_symmetric("random", "sss", "thirds")
    x = rhs_block(matrix.n_cols, None)
    plan = _raise_all_plan(len(parts), batches=1)
    ex = Executor("threads", plan=plan)
    try:
        kernel = ParallelSymmetricSpMV(matrix, parts, "indexed", executor=ex)
        with pytest.raises(BatchExecutionError):
            kernel(x)
        # Batch 1 draws no fault: the same kernel then runs clean.
        assert np.allclose(kernel(x), reference_product("random", x))
    finally:
        ex.close()


def test_unsymmetric_driver_contains_injected_fault():
    matrix, parts = build_unsymmetric("random", "csr", "thirds")
    x = rhs_block(matrix.n_cols, None)
    plan = _raise_all_plan(len(parts), batches=1)
    ex = Executor("threads", plan=plan)
    try:
        kernel = ParallelSpMV(matrix, parts, executor=ex)
        with pytest.raises(BatchExecutionError):
            kernel(x)
        assert np.allclose(kernel(x), reference_product("random", x))
    finally:
        ex.close()


# ----------------------------------------------------------------------
# Bound-operator poisoning
# ----------------------------------------------------------------------
def _bound_with_faults(fmt="sss", batches=1):
    matrix, parts = build_symmetric("random", fmt, "thirds")
    plan = _raise_all_plan(len(parts), batches=batches)
    ex = Executor("threads", plan=plan)
    driver = ParallelSymmetricSpMV(matrix, parts, "indexed", executor=ex)
    return driver.bind(), ex


def test_failed_apply_poisons_operator():
    op, ex = _bound_with_faults()
    x = rhs_block(op.matrix.n_cols, None)
    try:
        assert not op.poisoned
        with pytest.raises(BatchExecutionError):
            op(x)
        assert op.poisoned
    finally:
        op.close()
        ex.close()


def test_poisoned_operator_auto_recovers():
    reset_warning_counts()
    op, ex = _bound_with_faults()
    x = rhs_block(op.matrix.n_cols, None)
    try:
        with pytest.raises(BatchExecutionError):
            op(x)
        # The next call re-zeroes in full and computes.
        y = op(x)
        assert not op.poisoned
        assert np.allclose(y, reference_product("random", x))
        assert warning_counts().get("resilience.operator_poisoned") == 1
        assert warning_counts().get("resilience.operator_recovered") == 1
    finally:
        op.close()
        ex.close()


def test_recover_is_noop_on_healthy_operator():
    """Only a poisoned operator re-zeroes in full: clean applies count
    no recovery."""
    reset_warning_counts()
    matrix, parts = build_symmetric("random", "sss", "thirds")
    op = ParallelSymmetricSpMV(matrix, parts, "indexed").bind()
    x = rhs_block(matrix.n_cols, None)
    try:
        op(x)
        op(x)
        assert not op.poisoned
        assert "resilience.operator_recovered" not in warning_counts()
    finally:
        op.close()


def test_apply_after_close_is_typed():
    matrix, parts = build_symmetric("random", "sss", "thirds")
    op = ParallelSymmetricSpMV(matrix, parts, "indexed").bind()
    op.close()
    x = rhs_block(matrix.n_cols, None)
    with pytest.raises(OperatorClosedError):
        op(x)
    with pytest.raises(RuntimeError):  # old call sites keep working
        op(x)


def test_poisoned_spmm_recovers_bit_identical():
    # Multi-RHS path: the (p, N, k) locals are re-zeroed in full, so
    # the post-recovery result is bit-identical to an untouched solve.
    matrix, parts = build_symmetric("random", "csx-sym", "thirds")
    X = rhs_block(matrix.n_cols, 3)
    clean = ParallelSymmetricSpMV(matrix, parts, "effective")(X)
    plan = _raise_all_plan(len(parts), batches=1)
    ex = Executor("threads", plan=plan)
    op = ParallelSymmetricSpMV(
        matrix, parts, "effective", executor=ex
    ).bind(3)
    try:
        with pytest.raises(BatchExecutionError):
            op(X)
        assert np.array_equal(op(X), clean)
    finally:
        op.close()
        ex.close()


# ----------------------------------------------------------------------
# The containment property, as a hypothesis sweep over fault plans:
# contained typed error XOR bit-identical output — never silent
# corruption.
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p_raise=st.floats(min_value=0.0, max_value=0.5),
    p_delay=st.floats(min_value=0.0, max_value=0.5),
    fmt=st.sampled_from(("sss", "csx-sym")),
    reduction=st.sampled_from(("naive", "effective", "indexed")),
)
def test_chaos_containment_property(seed, p_raise, p_delay, fmt, reduction):
    matrix, parts = build_symmetric("random", fmt, "thirds")
    x = rhs_block(matrix.n_cols, None)
    serial = ParallelSymmetricSpMV(matrix, parts, reduction)(x)
    plan = ChaosPlan(
        seed, p_raise=p_raise, p_delay=p_delay, max_delay_ms=0.2
    )
    ex = Executor("threads", plan=plan)
    try:
        kernel = ParallelSymmetricSpMV(
            matrix, parts, reduction, executor=ex
        )
        for _ in range(3):  # several batches sample several fault draws
            try:
                y = kernel(x)
            except CONTAINED:
                continue  # contained: typed error, no output to trust
            assert np.array_equal(y, serial)
    finally:
        ex.close()


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_chaos_containment_property_bound(seed):
    matrix, parts = build_symmetric("random", "sss", "thirds")
    x = rhs_block(matrix.n_cols, None)
    serial = ParallelSymmetricSpMV(matrix, parts, "indexed")(x)
    plan = ChaosPlan(seed, p_raise=0.3, p_delay=0.3, max_delay_ms=0.2)
    ex = Executor("threads", plan=plan)
    op = ParallelSymmetricSpMV(
        matrix, parts, "indexed", executor=ex
    ).bind()
    try:
        for _ in range(4):
            try:
                y = op(x)
            except CONTAINED:
                continue
            assert np.array_equal(y, serial)
    finally:
        op.close()
        ex.close()


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_faulted_then_clean_apply_is_bit_identical(backend):
    """Task 1 faults after task 0 has written its partial sums; the
    next apply re-zeroes in full and equals the serial one bit for
    bit on every backend."""
    matrix, parts = build_symmetric("random", "sss", "thirds")
    x = rhs_block(matrix.n_cols, None)
    serial = np.array(ParallelSymmetricSpMV(matrix, parts, "indexed")(x))
    plan = None
    if backend != "serial":
        plan = ChaosPlan(
            0, p_raise=0.0, p_delay=0.0, reorder=False,
            faults={(0, 1): FaultSpec("raise")},
        )
    ex = Executor(backend, max_workers=2, plan=plan)
    op = ParallelSymmetricSpMV(matrix, parts, "indexed", executor=ex).bind()
    clean_task = op._tasks[1]

    def faulty_task():  # serial takes no plan: fault the task itself
        clean_task()
        raise ChaosInjectedError(0, 1)

    try:
        if backend == "serial":
            op._tasks[1] = faulty_task
        with pytest.raises(ExecutionError):
            op(x)
        assert op.poisoned
        op._tasks[1] = clean_task
        assert np.array_equal(np.array(op(x)), serial)
        assert not op.poisoned
    finally:
        op.close()
        ex.close()
