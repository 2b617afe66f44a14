"""Bound-operator overhead benchmark: persistent plans vs per-call setup.

Iterative solvers apply the same operator hundreds of times (Section
II-C: CG's cost is one SpM×V per iteration). The bound-operator layer
(:meth:`ParallelSymmetricSpMV.bind`) pays the setup — reduction
indexing, scatter compilation, workspace allocation — once, so the
per-iteration cost is the kernel alone. This benchmark times a
fixed-iteration CG (SSS + indexed reduction) under three operator
regimes:

* ``per_call`` — a fresh :class:`ParallelSymmetricSpMV` is constructed
  for every application (the naive "build on use" pattern): each call
  binds the new driver's operator and drops it,
* ``unbound``  — one driver reused through plain ``driver(x)`` calls:
  the driver's cached bound operator plus a copy of each result into
  a fresh array,
* ``bound``    — ``driver.bind()``: precompiled tasks, persistent
  zeroed-in-place workspaces, window-restricted scatters, and the
  workspace returned without a copy.

It reports per-iteration wall-clock (p50 with the p95 tail, over the
suite-wide warmup policy of ``common.timed_repeat``) and the
tracemalloc transient-peak per application window, plus a multi-RHS
block-CG section (``k = 4``), an informational ``bound_traced`` row
(the same bound operator under a *recording* tracer), and the
disabled-tracer overhead: the p50 ratio of the full ``__call__``
dispatch (validation + one tracer check) over the raw ``_apply`` hot
path, which must stay within ``TRACER_OVERHEAD_BUDGET``.

With the streaming-metrics subsystem compiled into the traced branch
(``op.apply_ns`` histograms, ``batch.latency_ns`` recording inside
``run_batch``), the disabled path gained a few more ``tracer.enabled``
checks at the executor layer. ``disabled_metrics_overhead`` re-measures
that budget in the worst realistic state: a real tracer with a
*populated* metrics registry installed but flipped to
``enabled=False`` — the disabled branch must never touch registry
state, so the ratio must stay within ``METRICS_OVERHEAD_BUDGET``
(3 %).
Machine-readable output goes to ``results/BENCH_operator.json``.

Runs standalone (``python benchmarks/bench_operator_overhead.py``,
``--smoke`` for the tiny CI configuration) or under pytest. Acceptance
target: bound per-iteration wall-clock ≥ 1.5× better than per-call
construction on the smoke matrices.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import timed_repeat  # noqa: E402
from repro.formats import COOMatrix, SSSMatrix  # noqa: E402
from repro.matrices.generators import (  # noqa: E402
    banded_random,
    grid_laplacian_2d,
)
from repro.obs import Tracer, percentile, tracing  # noqa: E402
from repro.parallel import (  # noqa: E402
    Executor,
    ParallelSymmetricSpMV,
    partition_nnz_balanced,
)
from repro.solvers import block_conjugate_gradient, conjugate_gradient  # noqa: E402

N_THREADS = 4
CG_ITERS = 60
SMOKE_CG_ITERS = 40
BLOCK_K = 4
ALLOC_WINDOW = 12          # applications per tracemalloc window
TARGET_SPEEDUP = 1.5       # bound vs per_call, per-iteration CG
TRACER_OVERHEAD_BUDGET = 0.03  # disabled-tracer dispatch vs raw _apply
METRICS_OVERHEAD_BUDGET = 0.03  # disabled metrics checks vs bare loop
OVERHEAD_INNER = 40        # applications per overhead timing sample
VARIANTS = ("per_call", "unbound", "bound")
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

    names = MATRIX_NAMES[:4] if len(MATRIX_NAMES) > 4 else MATRIX_NAMES
    return {n: suite_matrix(n) for n in names}


def make_variants(coo: COOMatrix, n_threads: int = N_THREADS):
    """The three operator regimes over one SSS + indexed configuration.

    Returns ``(variant -> apply-callable, close-callable)``. The
    ``per_call`` closure stands the whole operator up inside every
    application — driver, reduction indexing, bind *and* its thread
    pool — which is exactly the state a bound operator keeps alive
    between iterations. ``unbound`` and ``bound`` share one persistent
    threads executor and apply the same kind of plan; ``unbound`` goes
    through the driver's cached operator and copies each result out,
    ``bound`` returns its workspace.
    """
    sss = SSSMatrix.from_coo(coo)
    parts = partition_nnz_balanced(sss.expanded_row_nnz(), n_threads)
    shared = Executor("threads", max_workers=n_threads)
    driver = ParallelSymmetricSpMV(sss, parts, "indexed", executor=shared)
    bound = driver.bind()

    def per_call(x):
        with Executor("threads", max_workers=n_threads) as ex:
            return ParallelSymmetricSpMV(
                sss, parts, "indexed", executor=ex
            )(x)

    def close():
        bound.close()
        driver.close()
        shared.close()

    variants = {
        "per_call": per_call,
        "unbound": lambda x: driver(x),
        "bound": bound,
    }
    return variants, close


def time_cg(apply_fn, b: np.ndarray, iters: int,
            repeats: int) -> tuple[dict, int]:
    """p50/p95 stats of a fixed-iteration CG solve (``tol = 0`` keeps
    it running the full ``iters``), and the SpM×V count per solve."""
    n_spmv = 0

    def solve() -> None:
        nonlocal n_spmv
        res = conjugate_gradient(
            lambda x: apply_fn(x), b, tol=0.0, max_iter=iters
        )
        n_spmv = res.n_spmv

    return timed_repeat(solve, repeats=repeats), n_spmv


def time_block_cg(apply_fn, B: np.ndarray, iters: int,
                  repeats: int) -> tuple[dict, int]:
    n_spmm = 0

    def solve() -> None:
        nonlocal n_spmm
        res = block_conjugate_gradient(
            lambda X: apply_fn(X), B, tol=0.0, max_iter=iters
        )
        n_spmm = res.n_spmm

    return timed_repeat(solve, repeats=repeats), n_spmm


def transient_peak_kb(apply_fn, x: np.ndarray,
                      window: int = ALLOC_WINDOW) -> float:
    """tracemalloc peak above the resting footprint across ``window``
    warm applications — per-call construction shows up as extra
    transient allocation; a bound operator's persistent workspaces do
    not (they are traced before the window opens)."""
    for _ in range(2):
        apply_fn(x)
    gc.collect()
    started = tracemalloc.is_tracing()
    if not started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        for _ in range(window):
            apply_fn(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not started:
            tracemalloc.stop()
    return max(0.0, (peak - base) / 1024.0)


def run_bench(matrices, iters: int, repeats: int = 3,
              n_threads: int = N_THREADS, block_k: int = BLOCK_K):
    """One row per (matrix, section, variant)."""
    rows = []
    rng = np.random.default_rng(42)
    for name, coo in matrices.items():
        variants, close = make_variants(coo, n_threads)
        b = rng.standard_normal(coo.n_cols)
        B = rng.standard_normal((coo.n_cols, block_k))

        # Differential check before timing: all regimes must agree.
        ys = {v: np.array(fn(b)) for v, fn in variants.items()}
        for v in VARIANTS[1:]:
            if not np.allclose(ys[v], ys["per_call"]):
                raise AssertionError(
                    f"variant mismatch for {v} on {name}"
                )

        for variant, fn in variants.items():
            stats, n_apply = time_cg(fn, b, iters, repeats)
            rows.append({
                "matrix": name,
                "section": "cg",
                "variant": variant,
                "iters": n_apply,
                "per_iter_ms": stats["p50_ms"] / max(1, n_apply),
                "per_iter_p95_ms": stats["p95_ms"] / max(1, n_apply),
                "alloc_peak_kb": transient_peak_kb(fn, b),
            })

        # Informational: the bound regime under a *recording* tracer
        # (spans + counters live) — the enabled-tracer cost, excluded
        # from the speedup targets.
        with tracing(Tracer(enabled=True)):
            stats, n_apply = time_cg(variants["bound"], b, iters, repeats)
            rows.append({
                "matrix": name,
                "section": "cg",
                "variant": "bound_traced",
                "iters": n_apply,
                "per_iter_ms": stats["p50_ms"] / max(1, n_apply),
                "per_iter_p95_ms": stats["p95_ms"] / max(1, n_apply),
                "alloc_peak_kb": transient_peak_kb(variants["bound"], b),
            })

        # Multi-RHS: rebind to the k signature for the bound regime.
        bound_k = variants["bound"].bind(block_k)
        variants_k = dict(variants, bound=bound_k)
        for variant, fn in variants_k.items():
            stats, n_apply = time_block_cg(fn, B, iters, repeats)
            rows.append({
                "matrix": name,
                "section": f"block_cg_k{block_k}",
                "variant": variant,
                "iters": n_apply,
                "per_iter_ms": stats["p50_ms"] / max(1, n_apply),
                "per_iter_p95_ms": stats["p95_ms"] / max(1, n_apply),
                "alloc_peak_kb": transient_peak_kb(fn, B),
            })
        bound_k.close()
        close()
    return rows


def _pairwise_ratio(call_fn, raw_fn, x, rounds: int, inner: int) -> dict:
    """Order-balanced adjacent A/B timing of ``call_fn`` vs ``raw_fn``.

    Two back-to-back A/B timing loops read CPU-frequency drift as fake
    overhead several times larger than the real one, so each round
    times both loops adjacently (order alternating between rounds) and
    contributes one call/raw *ratio* — drift common to the pair
    cancels — and the estimate is the median ratio over the rounds."""

    def sample(fn) -> float:
        t0 = time.perf_counter_ns()
        for _ in range(inner):
            fn(x)
        return (time.perf_counter_ns() - t0) / inner

    sample(call_fn), sample(raw_fn)  # warmup (caches, branch predictors)
    ratios, call_ns, raw_ns = [], [], []
    for r in range(rounds):
        if r % 2 == 0:
            c, w = sample(call_fn), sample(raw_fn)
        else:
            w, c = sample(raw_fn), sample(call_fn)
        ratios.append(c / w)
        call_ns.append(c)
        raw_ns.append(w)
    return {
        "per_apply_call_ms": percentile(call_ns, 50) / 1e6,
        "per_apply_raw_ms": percentile(raw_ns, 50) / 1e6,
        "ratio": percentile(ratios, 50),
    }


def _overhead_operator(coo, n_threads: int):
    """One serial-executor SSS + indexed bound operator (serial so
    thread-pool jitter does not drown the microsecond under
    measurement)."""
    sss = SSSMatrix.from_coo(coo)
    parts = partition_nnz_balanced(sss.expanded_row_nnz(), n_threads)
    bound = ParallelSymmetricSpMV(sss, parts, "indexed").bind()
    return bound


def disabled_tracer_overhead(
    matrices, n_threads: int = N_THREADS, rounds: int = 12,
    inner: int = OVERHEAD_INNER,
) -> dict:
    """Per-application cost of the tracing hooks when no tracer is
    active: ``bound(x)`` (input validation + one tracer-enabled check,
    then ``_apply``) vs ``bound._apply(x)`` (the raw hot path, the
    zero-instrumentation control). ``overhead`` is the geomean of the
    per-matrix median ratios minus 1 (0.01 = 1%)."""
    per_matrix = {}
    rng = np.random.default_rng(3)
    for name, coo in matrices.items():
        bound = _overhead_operator(coo, n_threads)
        x = np.asarray(rng.standard_normal(coo.n_cols), dtype=np.float64)
        per_matrix[name] = _pairwise_ratio(
            bound, bound._apply, x, rounds, inner
        )
        bound.close()
    overhead = _geomean(
        m["ratio"] for m in per_matrix.values()
    ) - 1.0
    return {
        "per_matrix": per_matrix,
        "overhead": overhead,
        "budget": TRACER_OVERHEAD_BUDGET,
        "pass": overhead <= TRACER_OVERHEAD_BUDGET,
    }


def disabled_metrics_overhead(
    matrices, n_threads: int = N_THREADS, rounds: int = 12,
    inner: int = OVERHEAD_INNER,
) -> dict:
    """Disabled-path budget with the streaming metrics compiled in and
    a *populated* registry installed.

    :func:`disabled_tracer_overhead` runs with no tracer in context
    (the NULL tracer). This measurement puts the operator in the state
    a long-running process is actually in after turning tracing off: a
    real :class:`Tracer` whose metrics registry was populated by
    enabled applications (``op.apply_ns`` / ``batch.latency_ns``
    histograms and kernel counters exist), then flipped to
    ``enabled=False``. The ``bound(x)`` vs ``bound._apply(x)`` pairwise
    ratio is re-timed under that tracer — the metrics hooks at every
    layer (``__call__`` dispatch, ``run_batch`` bookkeeping, the
    per-task wrapper) ride the same one-attribute ``tracer.enabled``
    gate, so the presence of a populated registry must not move the
    ratio."""
    per_matrix = {}
    rng = np.random.default_rng(5)
    for name, coo in matrices.items():
        bound = _overhead_operator(coo, n_threads)
        x = np.asarray(rng.standard_normal(coo.n_cols), dtype=np.float64)
        tracer = Tracer(enabled=True)
        with tracing(tracer):
            for _ in range(3):  # populate histograms and counters
                bound(x)
            tracer.enabled = False
            per_matrix[name] = _pairwise_ratio(
                bound, bound._apply, x, rounds, inner
            )
        bound.close()
    overhead = _geomean(
        m["ratio"] for m in per_matrix.values()
    ) - 1.0
    return {
        "per_matrix": per_matrix,
        "overhead": overhead,
        "budget": METRICS_OVERHEAD_BUDGET,
        "pass": overhead <= METRICS_OVERHEAD_BUDGET,
    }


def _geomean(vals) -> float:
    vals = list(vals)
    return float(np.exp(np.mean(np.log(vals)))) if vals else float("nan")


def geomean_speedup(rows, section: str, variant: str,
                    over: str = "per_call") -> float:
    """Geomean of per-iteration speedup of ``variant`` over ``over``."""
    by_matrix = {}
    for r in rows:
        if r["section"] == section:
            by_matrix.setdefault(r["matrix"], {})[r["variant"]] = r
    return _geomean(
        m[over]["per_iter_ms"] / m[variant]["per_iter_ms"]
        for m in by_matrix.values()
        if over in m and variant in m
    )


def render(rows, overhead=None, metrics_overhead=None) -> tuple[str, dict]:
    lines = [
        "Bound-operator overhead — per-iteration CG wall-clock (p50 of "
        "repeats) under three operator regimes (SSS + indexed reduction)",
        "",
        f"{'matrix':<14} {'section':<13} {'variant':<12} {'iters':>5} "
        f"{'p50 ms/it':>10} {'p95 ms/it':>10} {'peak KB':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r['matrix']:<14} {r['section']:<13} {r['variant']:<12} "
            f"{r['iters']:>5} {r['per_iter_ms']:>10.4f} "
            f"{r['per_iter_p95_ms']:>10.4f} {r['alloc_peak_kb']:>9.1f}"
        )
    lines.append("")
    sections = sorted({r["section"] for r in rows})
    summary = {}
    for section in sections:
        for variant in ("unbound", "bound"):
            s = geomean_speedup(rows, section, variant)
            summary[f"{section}:{variant}_vs_per_call"] = s
            lines.append(
                f"geomean per-iter speedup [{section}] {variant} vs "
                f"per_call: {s:.2f}x"
            )
    target = geomean_speedup(rows, "cg", "bound")
    passed = target >= TARGET_SPEEDUP
    lines.append(
        f"target cg bound vs per_call: {target:.2f}x >= "
        f"{TARGET_SPEEDUP}x -> {'PASS' if passed else 'FAIL'}"
    )
    summary["target_speedup"] = TARGET_SPEEDUP
    summary["cg_bound_vs_per_call"] = target
    summary["pass"] = passed
    if overhead is not None:
        lines.append(
            f"disabled-tracer overhead (bound __call__ vs raw _apply): "
            f"{100 * overhead['overhead']:+.2f}% (budget "
            f"{100 * overhead['budget']:.0f}%) -> "
            f"{'PASS' if overhead['pass'] else 'FAIL'}"
        )
        summary["disabled_tracer_overhead"] = overhead["overhead"]
        summary["tracer_overhead_budget"] = overhead["budget"]
        summary["tracer_overhead_pass"] = overhead["pass"]
    if metrics_overhead is not None:
        lines.append(
            f"disabled-metrics overhead (populated registry, disabled "
            f"gate): {100 * metrics_overhead['overhead']:+.2f}% (budget "
            f"{100 * metrics_overhead['budget']:.0f}%) -> "
            f"{'PASS' if metrics_overhead['pass'] else 'FAIL'}"
        )
        summary["disabled_metrics_overhead"] = metrics_overhead["overhead"]
        summary["metrics_overhead_budget"] = metrics_overhead["budget"]
        summary["metrics_overhead_pass"] = metrics_overhead["pass"]
    return "\n".join(lines), summary


def write_json(rows, summary, config) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_operator.json"
    path.write_text(json.dumps(
        {"config": config, "rows": rows, "summary": summary}, indent=2,
    ) + "\n")
    print(f"[json written to {path}]")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny matrices and shorter solves (CI smoke run)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--threads", type=int, default=N_THREADS)
    parser.add_argument("--iters", type=int, default=None,
                        help="CG iterations per timing (default: preset)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.threads < 1:
        parser.error("--threads must be >= 1")

    if args.smoke:
        matrices, iters = smoke_matrices(), SMOKE_CG_ITERS
    else:
        matrices, iters = full_matrices(), CG_ITERS
    if args.iters is not None:
        iters = args.iters
    rows = run_bench(matrices, iters, args.repeats, args.threads)
    overhead = disabled_tracer_overhead(matrices, args.threads)
    metrics_overhead = disabled_metrics_overhead(matrices, args.threads)
    text, summary = render(rows, overhead, metrics_overhead)
    config = {
        "smoke": args.smoke, "iters": iters,
        "repeats": args.repeats, "threads": args.threads,
        "block_k": BLOCK_K, "overhead_inner": OVERHEAD_INNER,
        "host_cores": os.cpu_count(),
    }
    write_json(
        rows,
        dict(
            summary,
            tracer_overhead_detail=overhead,
            metrics_overhead_detail=metrics_overhead,
        ),
        config,
    )
    try:
        from common import write_result

        write_result("operator_overhead", text)
    except ImportError:
        print(text)
    return 0 if summary["pass"] else 1


# -- pytest entry point (collected with the other wall-clock benches) --
def test_operator_overhead():
    rows = run_bench(smoke_matrices(), SMOKE_CG_ITERS, repeats=3)
    assert geomean_speedup(rows, "cg", "bound") >= TARGET_SPEEDUP


if __name__ == "__main__":
    raise SystemExit(main())
