"""Cross-backend identity of the streaming metrics and counters.

The guarantee of the metrics subsystem: a ``threads`` run reports the
*same* metric names and the *same* (bit-identical) kernel counter
totals as a serial run. Counters are recorded deep inside the format
kernels — under ``threads`` on the pool threads, each into its own
registry shard, which the snapshot merges. ``tracer.counters()`` is
only a view of the registry's unlabeled counters, so both read the
same numbers.

Also covered here: the per-layer recorders (executor batch/task
latency, bound-operator apply/traffic, solver per-iteration metrics)
produce the histograms and gauges the exporters and the ``repro
metrics`` CLI rely on.
"""

import numpy as np
import pytest

from tests.conformance import (
    EXECUTOR_BACKENDS,
    build_symmetric,
    make_backend_executor,
    rhs_block,
)
from repro.obs import Tracer, tracing
from repro.parallel import ParallelSymmetricSpMV
from repro.solvers import (
    block_conjugate_gradient,
    conjugate_gradient,
    jacobi_preconditioner,
)

N_APPLIES = 4

#: Histogram names every instrumented operator run must stream,
#: regardless of backend.
EXPECTED_HISTOGRAMS = [
    "batch.latency_ns", "op.apply_ns", "op.traffic_bytes",
    "task.latency_ns",
]


def _instrumented_run(case, fmt, reduction, backend, k=None):
    """Bind outside the tracing context (bind-time compilation counters
    would otherwise skew the comparison), apply under a fresh tracer,
    return (tracer, snapshot)."""
    matrix, parts = build_symmetric(case, fmt, "thirds")
    ex = make_backend_executor(backend)
    driver = ParallelSymmetricSpMV(matrix, parts, reduction, executor=ex)
    op = driver.bind(k)
    x = rhs_block(matrix.n_cols, k)
    tracer = Tracer()
    try:
        with tracing(tracer):
            for _ in range(N_APPLIES):
                op(x)
    finally:
        op.close()
        ex.close()
    return tracer, tracer.metrics.snapshot()


@pytest.mark.parametrize("reduction", ["indexed", "coloring"])
@pytest.mark.parametrize("fmt", ["sss", "csx-sym"])
def test_metric_names_and_counters_identical_across_backends(
    fmt, reduction
):
    runs = {
        backend: _instrumented_run("random", fmt, reduction, backend)
        for backend in EXECUTOR_BACKENDS
    }
    serial_tracer, serial_snap = runs["serial"]
    serial_names = serial_tracer.metrics.metric_names()
    assert sorted(
        {entry["name"] for entry in serial_snap["histograms"]}
    ) == sorted(EXPECTED_HISTOGRAMS)
    serial_counters = serial_tracer.counters()
    assert serial_counters, "kernel counters must be recorded"
    for backend, (tracer, snap) in runs.items():
        # One store: the tracer's counters are the snapshot's
        # unlabeled counters, entry for entry.
        unlabeled = {
            entry["name"]: entry["value"]
            for entry in snap["counters"] if not entry["labels"]
        }
        assert tracer.counters() == unlabeled, backend
        if backend == "serial":
            continue
        assert tracer.metrics.metric_names() == serial_names, backend
        # Kernel counter totals are bit-identical: same work, same
        # counts, whether recorded inline or from pool threads.
        assert tracer.counters() == serial_counters, backend
        # The modeled traffic stream is deterministic too.
        for entry, ref in zip(
            snap["histograms"], serial_snap["histograms"]
        ):
            assert entry["name"] == ref["name"]
            if entry["name"] == "op.traffic_bytes":
                assert entry["summary"]["sum"] == ref["summary"]["sum"]


def test_histogram_labels_carry_backend_and_reduction():
    tracer, snap = _instrumented_run("random", "sss", "indexed",
                                     "serial", k=3)
    by_name = {}
    for entry in snap["histograms"]:
        by_name.setdefault(entry["name"], []).append(entry["labels"])
    apply_labels = by_name["op.apply_ns"][0]
    assert apply_labels == {
        "format": "sss", "reduction": "indexed", "backend": "serial",
    }
    assert by_name["batch.latency_ns"][0]["backend"] == "serial"
    assert by_name["task.latency_ns"][0]["label"] == "spmv.mult.task"
    # Every apply recorded once; every task latency = applies × threads.
    apply_entry = next(
        e for e in snap["histograms"] if e["name"] == "op.apply_ns"
    )
    assert apply_entry["summary"]["count"] == N_APPLIES


def _spd_system(n=40, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    return a, rng.standard_normal(n)


def test_solver_iteration_metrics_cg():
    a, b = _spd_system()
    tracer = Tracer()
    with tracing(tracer):
        res = conjugate_gradient(lambda x: a @ x, b, tol=1e-10)
    assert res.converged
    m = tracer.metrics
    assert m.counter_value("solver.iterations", solver="cg") == (
        res.iterations
    )
    hist = m.merged_histogram("solver.iter_ns", solver="cg")
    assert hist is not None and hist.count == res.iterations
    residual = m.gauge_value("solver.residual", solver="cg")
    assert residual == residual and residual <= 1e-10 * np.linalg.norm(b)


def test_solver_iteration_metrics_pcg_and_block_cg():
    a, b = _spd_system()
    tracer = Tracer()
    with tracing(tracer):
        res_p = conjugate_gradient(
            lambda x: a @ x, b, precond=jacobi_preconditioner(np.diag(a)),
            tol=1e-10,
        )
        res_b = block_conjugate_gradient(
            lambda X: a @ X, np.stack([b, 2 * b], axis=1), tol=1e-10
        )
    assert res_p.converged and res_b.all_converged
    m = tracer.metrics
    assert m.counter_value("solver.iterations", solver="pcg") == (
        res_p.iterations
    )
    assert m.counter_value("solver.iterations", solver="block_cg") == (
        res_b.iterations
    )
    assert m.merged_histogram(
        "solver.iter_ns", solver="block_cg"
    ).count == res_b.iterations


def test_disabled_tracer_records_nothing():
    matrix, parts = build_symmetric("random", "sss", "thirds")
    driver = ParallelSymmetricSpMV(matrix, parts, "indexed")
    op = driver.bind()
    x = rhs_block(matrix.n_cols, None)
    tracer = Tracer(enabled=False)
    try:
        with tracing(tracer):
            op(x)
    finally:
        op.close()
    assert tracer.metrics.metric_names() == []
    assert tracer.counters() == {}
