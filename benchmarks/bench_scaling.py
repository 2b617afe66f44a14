"""Scaling benchmark: the serial reference vs the ``threads`` backend.

The symmetric partition kernel is C (``repro.native``): one pass over
the stored lower triangle per partition, called through ``ctypes``,
which releases the GIL for the call. The ``threads`` backend (the
calling thread runs one partition task, persistent pool threads the
rest) therefore runs the partitions of one apply concurrently in one
address space, as the paper's Pthreads do. What it cannot hide is the
per-apply Python dispatch and the reduction phase: on the smallest
smoke matrix a two-worker apply costs more than it saves.

This benchmark sweeps worker counts over a bound SSS + indexed SpM×M
operator (``k = 8``, the multi-RHS shape where per-task work is large
enough to amortize the dispatch) and reports:

* measured per-application wall-clock (p50/p95) per worker count,
* measured speedup and parallel efficiency over the serial backend,
* the analytic machine model's predicted scaling curve for the same
  matrix/partitions (GAINESTOWN, caches shrunk by ``machine_scale``)
  as the *modeled* reference — what the paper's memory-bound platform
  would do.

Machine-readable output goes to ``results/BENCH_scaling.json``, which
``check_regression.py`` compares against the committed baseline.

Runs standalone (``python benchmarks/bench_scaling.py``, ``--smoke``
for the tiny CI configuration) or under pytest; the pytest entry
asserts cross-backend agreement and the JSON artifact — never a
speedup (CI runners make no core promises).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SCALE  # noqa: E402
from repro.formats import COOMatrix, SSSMatrix  # noqa: E402
from repro.machine import GAINESTOWN, predict_spmv  # noqa: E402
from repro.obs import summarize_ns  # noqa: E402
from repro.matrices.generators import (  # noqa: E402
    banded_random,
    grid_laplacian_2d,
)
from repro.parallel import (  # noqa: E402
    Executor,
    ParallelSymmetricSpMV,
    partition_nnz_balanced,
)

BLOCK_K = 8
REPEATS = 5
#: Timed applies per smoke row. The p95 that ``check_regression.py``
#: widens its limit by needs at least 10 samples above it; with only a
#: few samples it is the slowest one, and one preempted apply sets it.
SMOKE_REPEATS = 200
WORKER_SWEEP = (1, 2, 4)
BACKENDS = ("serial", "threads")
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def smoke_matrices() -> dict[str, COOMatrix]:
    """Tiny generator instances for the CI smoke run (~seconds)."""
    rng = np.random.default_rng(7)
    return {
        "laplace2d_32": grid_laplacian_2d(32, 32),
        "banded_1500": banded_random(1500, 11.0, 60, rng),
    }


def full_matrices() -> dict[str, COOMatrix]:
    """Generator-suite instances at the shared benchmark scale."""
    from common import MATRIX_NAMES, suite_matrix

    names = MATRIX_NAMES[:3] if len(MATRIX_NAMES) > 3 else MATRIX_NAMES
    return {n: suite_matrix(n) for n in names}


def _bound(sss, parts, backend: str, workers: int):
    """(apply-callable, close-callable) for one backend x workers."""
    ex = Executor(backend, max_workers=workers)
    op = ParallelSymmetricSpMV(sss, parts, "indexed", executor=ex).bind(
        BLOCK_K
    )

    def close() -> None:
        op.close()
        ex.close()

    return op, close


def _configs(workers_sweep):
    """Every (backend, workers) row of one matrix, in report order."""
    for workers in workers_sweep:
        for backend in BACKENDS:
            if backend == "serial" and workers != workers_sweep[0]:
                continue  # serial has no worker axis; measure once
            yield backend, workers


def measure(matrices, workers_sweep, repeats: int) -> list[dict]:
    """One row per (matrix, backend, workers): p50/p95 per application,
    with a cross-backend bit-identity check against serial baked in.

    All operators of a matrix are bound first and their timed samples
    taken round-robin, one timed apply of each per round, so a burst
    of host load lands on every row of the matrix instead of moving
    one row's p50."""
    rows = []
    rng = np.random.default_rng(42)
    for name, coo in matrices.items():
        sss = SSSMatrix.from_coo(coo)
        X = rng.standard_normal((coo.n_cols, BLOCK_K))
        bound = []  # (backend, workers, operator, close)
        try:
            for backend, workers in _configs(workers_sweep):
                parts = partition_nnz_balanced(
                    sss.expanded_row_nnz(), workers
                )
                bound.append(
                    (backend, workers, *_bound(sss, parts, backend, workers))
                )
            serial_y = None
            for backend, workers, op, _ in bound:
                y = np.array(op(X))
                if serial_y is None:
                    serial_y = y
                elif backend != "serial" and not np.array_equal(
                    y, serial_y
                ):
                    # Partition layouts differ across worker counts,
                    # so only exact-layout runs are bit-comparable;
                    # all must still match numerically.
                    assert np.allclose(y, serial_y), (
                        f"{backend} x{workers} diverged on {name}"
                    )
            samples = [[] for _ in bound]
            for _ in range(repeats):
                for (_, _, op, _), times in zip(bound, samples):
                    # Untimed first: after another operator's apply,
                    # this one's caches are cold and its pool idle.
                    op(X)
                    t0 = time.perf_counter_ns()
                    op(X)
                    times.append(time.perf_counter_ns() - t0)
        finally:
            for *_, close in bound:
                close()
        for (backend, workers, _, _), times in zip(bound, samples):
            stats = summarize_ns(times)
            rows.append({
                "matrix": name,
                "backend": backend,
                "workers": 1 if backend == "serial" else workers,
                "p50_ms": stats["p50_ms"],
                "p95_ms": stats["p95_ms"],
            })
    return rows


def modeled_curve(matrices, workers_sweep) -> list[dict]:
    """The analytic model's predicted scaling for the same operator —
    GAINESTOWN with caches shrunk to the benchmark's matrix scale."""
    rows = []
    for name, coo in matrices.items():
        sss = SSSMatrix.from_coo(coo)
        base = None
        for workers in workers_sweep:
            parts = partition_nnz_balanced(
                sss.expanded_row_nnz(), workers
            )
            pred = predict_spmv(
                sss, parts, GAINESTOWN, reduction="indexed",
                machine_scale=SCALE,
            )
            if base is None:
                base = pred.total
            rows.append({
                "matrix": name,
                "workers": workers,
                "t_total_model": pred.total,
                "speedup_model": base / pred.total if pred.total else 1.0,
            })
    return rows


def attach_speedups(rows) -> None:
    """Annotate measured rows in place with speedup/efficiency over the
    serial baseline of the same matrix."""
    serial_p50 = {
        r["matrix"]: r["p50_ms"] for r in rows if r["backend"] == "serial"
    }
    for r in rows:
        base = serial_p50.get(r["matrix"])
        if base is None:
            continue
        r["speedup"] = base / r["p50_ms"] if r["p50_ms"] else 1.0
        r["efficiency"] = r["speedup"] / max(1, r["workers"])


def render(rows, model_rows) -> str:
    lines = [
        f"Serial vs threads scaling — bound SSS+indexed SpM×M (k={BLOCK_K}), "
        "p50 per application",
        "",
        f"{'matrix':<14} {'backend':<10} {'workers':>7} {'p50 ms':>9} "
        f"{'p95 ms':>9} {'speedup':>8} {'eff':>6}",
    ]
    for r in rows:
        lines.append(
            f"{r['matrix']:<14} {r['backend']:<10} {r['workers']:>7} "
            f"{r['p50_ms']:>9.3f} {r['p95_ms']:>9.3f} "
            f"{r.get('speedup', 1.0):>8.2f} {r.get('efficiency', 1.0):>6.2f}"
        )
    lines.append("")
    lines.append("modeled (GAINESTOWN, memory-bound reference):")
    for r in model_rows:
        lines.append(
            f"{r['matrix']:<14} {'model':<10} {r['workers']:>7} "
            f"{1e3 * r['t_total_model']:>9.3f} {'':>9} "
            f"{r['speedup_model']:>8.2f}"
        )
    return "\n".join(lines)


def write_json(rows, model_rows, config) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_scaling.json"
    path.write_text(json.dumps(
        {
            "config": config,
            "measured": rows,
            "modeled": model_rows,
        },
        indent=2,
    ) + "\n")
    print(f"[json written to {path}]")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny matrices, many short timed repeats (CI smoke run)",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=None,
        help="worker counts to sweep (default: 1 2 4)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)
    sweep = tuple(args.workers) if args.workers else WORKER_SWEEP
    if any(w < 1 for w in sweep):
        parser.error("--workers must be >= 1")
    repeats = args.repeats if args.repeats is not None else (
        SMOKE_REPEATS if args.smoke else REPEATS
    )
    if repeats < 1:
        parser.error("--repeats must be >= 1")

    matrices = smoke_matrices() if args.smoke else full_matrices()
    rows = measure(matrices, sweep, repeats)
    attach_speedups(rows)
    model_rows = modeled_curve(matrices, sweep)
    config = {
        "smoke": args.smoke,
        "block_k": BLOCK_K,
        "workers": list(sweep),
        "repeats": repeats,
        "host_cores": os.cpu_count() or 1,
    }
    write_json(rows, model_rows, config)
    text = render(rows, model_rows)
    try:
        from common import write_result

        write_result("scaling", text)
    except ImportError:
        print(text)
    return 0


# -- pytest entry point (collected with the other wall-clock benches) --
def test_scaling_smoke(tmp_path, monkeypatch):
    """Cross-backend agreement + artifact; never a speedup (CI runners
    make no core promises)."""
    monkeypatch.setattr(
        sys.modules[__name__], "RESULTS_DIR", tmp_path
    )
    assert main(["--smoke", "--workers", "1", "2", "--repeats", "1"]) == 0
    payload = json.loads((tmp_path / "BENCH_scaling.json").read_text())
    assert payload["measured"] and payload["modeled"]
    assert {r["backend"] for r in payload["measured"]} == set(BACKENDS)


if __name__ == "__main__":
    raise SystemExit(main())
