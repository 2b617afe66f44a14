"""Command-line interface: run the paper's experiments from a shell.

Subcommands
-----------
``suite``
    List the Table I stand-in matrices with their statistics.
``spmv``
    Run one SpM×V configuration functionally and report the machine
    model's prediction for it.
``sweep``
    Thread sweep for one matrix (the Fig. 9/11 view).
``cg``
    Solve a random SPD system from the suite with the chosen kernel.
``fuzz``
    Differential fuzzing of every format × driver × kernel against a
    dense NumPy oracle (seed-deterministic; mismatches shrink to a
    ready-to-paste regression test).
``metrics``
    Run a traced workload and report its streaming metrics — latency/
    traffic histograms, counters, gauges — as a summary table,
    OpenMetrics text or JSON, optionally with an SLO evaluation and
    the measured-vs-modeled attribution report.
``serve``
    Stand up the async solver server over one suite matrix and drive
    it with the closed-loop load generator — including the chaos
    drill (``--executor chaos``), where every request must still
    complete correctly (serial fallback) or fail typed.
``loadgen``
    A/B measurement: the same load with coalescing on and off, with
    per-response bit-identity audits; optional JSON report.
``ooc ingest|spmv|cg``
    Out-of-core pipeline: shard a symmetric MatrixMarket file to disk
    (streaming, bounded memory), then apply or solve it shard-at-a-
    time under an explicit ``--memory-budget``, with durable
    checkpoints and crash-safe ``--resume``.

Examples
--------
::

    python -m repro.cli suite --scale 0.01
    python -m repro.cli spmv --matrix hood --format csx-sym --threads 8
    python -m repro.cli sweep --matrix ldoor --platform dunnington
    python -m repro.cli cg --matrix consph --format sss --threads 4
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis import (
    attribute_spmv,
    build_format,
    render_series,
    render_table,
)
from .formats import CSRMatrix, CSXSymMatrix, SSSMatrix
from .formats.validate import ValidationError
from .machine import PLATFORMS, predict_serial_csr, predict_spmv
from .obs import (
    SLO,
    Tracer,
    load_trace,
    metrics_report,
    openmetrics_text,
    text_report,
    tracing,
    validate_trace,
    write_trace,
)
from .matrices import SUITE, get_entry
from .parallel import Executor, ParallelSpMV, ParallelSymmetricSpMV
from .resilience import ChaosPlan
from .reorder import bandwidth_stats
from .solvers import conjugate_gradient

__all__ = ["main", "build_parser"]

_FORMATS = ("csr", "csx", "sss", "csx-sym")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symmetric SpM×V reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="list the matrix suite")
    p_suite.add_argument("--scale", type=float, default=0.01)

    def common(p):
        p.add_argument("--matrix", default="hood",
                       choices=[e.name for e in SUITE])
        p.add_argument("--scale", type=float, default=0.01)
        p.add_argument("--threads", type=int, default=8)

    def traceable(p):
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="record phase spans/counters and write a Chrome-"
                 "loadable trace document (JSON) to PATH",
        )
        p.add_argument(
            "--executor", default="serial",
            choices=("serial", "threads", "chaos"),
            help="task executor; 'threads' gives per-thread timelines "
                 "in the trace, 'chaos' is 'threads' with a fault plan "
                 "of delays + reordered completions (no exceptions) to "
                 "smoke-test determinism",
        )

    p_spmv = sub.add_parser("spmv", help="run one SpM×V configuration")
    common(p_spmv)
    p_spmv.add_argument("--format", default="sss", choices=_FORMATS)
    p_spmv.add_argument(
        "--reduction", default="indexed",
        choices=("naive", "effective", "indexed", "coloring"),
        help="local-vector reduction strategy, or 'coloring' for the "
             "conflict-free color-scheduled kernel (symmetric formats "
             "only: sss, csx-sym)",
    )
    p_spmv.add_argument(
        "--platform", default="dunnington", choices=sorted(PLATFORMS)
    )
    traceable(p_spmv)

    p_sweep = sub.add_parser("sweep", help="thread sweep (Fig. 9/11 view)")
    common(p_sweep)
    p_sweep.add_argument(
        "--platform", default="dunnington", choices=sorted(PLATFORMS)
    )

    p_cg = sub.add_parser("cg", help="CG solve on a suite matrix")
    common(p_cg)
    p_cg.add_argument("--format", default="sss", choices=_FORMATS)
    p_cg.add_argument(
        "--reduction", default="indexed",
        choices=("naive", "effective", "indexed", "coloring"),
        help="reduction strategy for the symmetric kernel (ignored by "
             "unsymmetric formats, except 'coloring' which they reject)",
    )
    p_cg.add_argument("--tol", type=float, default=1e-8)
    traceable(p_cg)

    p_trace = sub.add_parser(
        "trace", help="validate and summarize a recorded trace file"
    )
    p_trace.add_argument("file", help="trace JSON written by --trace")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: all formats/drivers vs dense oracle",
    )
    p_fuzz.add_argument(
        "--cases", type=int, default=500,
        help="number of generated matrix cases (default 500)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0,
        help="run seed; every case derives from (seed, index)",
    )
    p_fuzz.add_argument(
        "--budget", type=float, default=None,
        help="wall-clock cap in seconds (stops generating new cases)",
    )
    p_fuzz.add_argument(
        "--k", type=int, default=3,
        help="right-hand-side count for the SpM×M checks",
    )
    p_fuzz.add_argument(
        "--max-mismatches", type=int, default=5,
        help="stop after this many mismatches",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="skip ddmin reduction of failing cases",
    )
    p_fuzz.add_argument(
        "--executor", default=None,
        choices=("threads",),
        help="run the parallel/bound combos on this executor backend "
             "instead of the default serial one",
    )
    p_fuzz.add_argument(
        "--chaos", action="store_true",
        help="re-run parallel/bound combos on 'threads' with a "
             "fault-injecting plan; injected faults must surface as typed "
             "errors or leave the output oracle-correct",
    )
    p_fuzz.add_argument(
        "--reproducer", metavar="PATH", default=None,
        help="write the first mismatch's ready-to-paste regression "
             "test to PATH",
    )

    p_stats = sub.add_parser(
        "stats", help="structural fingerprint of a suite matrix"
    )
    p_stats.add_argument("--matrix", default="hood",
                         choices=[e.name for e in SUITE])
    p_stats.add_argument("--scale", type=float, default=0.01)
    p_stats.add_argument(
        "--rcm", action="store_true",
        help="also show the fingerprint after RCM reordering",
    )

    p_metrics = sub.add_parser(
        "metrics",
        help="run a traced workload and report streaming metrics",
    )
    p_metrics.add_argument("--matrix", default="hood",
                           choices=[e.name for e in SUITE])
    p_metrics.add_argument("--scale", type=float, default=0.01)
    p_metrics.add_argument("--threads", type=int, default=8)
    p_metrics.add_argument(
        "--storage", default="sss", choices=_FORMATS,
        help="matrix storage format (--format selects the *output* "
             "format on this subcommand)",
    )
    p_metrics.add_argument(
        "--reduction", default="indexed",
        choices=("naive", "effective", "indexed", "coloring"),
    )
    p_metrics.add_argument(
        "--executor", default="serial",
        choices=("serial", "threads"),
        help="backend the applications run on",
    )
    p_metrics.add_argument(
        "--applications", type=int, default=20,
        help="bound-operator applications to record (default 20)",
    )
    p_metrics.add_argument(
        "--k", type=int, default=None,
        help="right-hand sides per application (default: SpM×V)",
    )
    p_metrics.add_argument(
        "--format", default="table", dest="out_format",
        choices=("table", "openmetrics", "json"),
        help="output format: human-readable table (default), "
             "OpenMetrics/Prometheus exposition text, or JSON",
    )
    p_metrics.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the report to PATH instead of stdout",
    )
    p_metrics.add_argument(
        "--attribution", action="store_true",
        help="also emit the measured-vs-modeled per-phase attribution "
             "report against --platform's machine model",
    )
    p_metrics.add_argument(
        "--platform", default="dunnington", choices=sorted(PLATFORMS)
    )
    p_metrics.add_argument(
        "--rcm", action="store_true",
        help="RCM-reorder the matrix before building the format",
    )
    p_metrics.add_argument(
        "--slo-ms", type=float, default=None,
        help="evaluate an SLO on op.apply_ns: the --slo-percentile "
             "latency must stay under this many milliseconds (exit "
             "code 3 when the error budget is exhausted)",
    )
    p_metrics.add_argument(
        "--slo-percentile", type=float, default=95.0,
        help="target percentile for --slo-ms (default 95)",
    )

    def serving(p):
        common(p)
        p.add_argument("--format", default="sss", choices=_FORMATS)
        p.add_argument(
            "--reduction", default="indexed",
            choices=("naive", "effective", "indexed", "coloring"),
        )
        p.add_argument(
            "--executor", default="threads",
            choices=("serial", "threads", "chaos"),
            help="compute executor behind the served operators; "
                 "'chaos' is 'threads' injecting faults and delays (the "
                 "drill: requests must complete via serial fallback or fail "
                 "typed — never hang, never return wrong bits)",
        )
        p.add_argument("--kind", default="spmv",
                       choices=("spmv", "cg"))
        p.add_argument("--requests", type=int, default=200,
                       help="total requests to issue (default 200)")
        p.add_argument("--concurrency", type=int, default=8,
                       help="closed-loop workers (default 8)")
        p.add_argument("--max-batch", type=int, default=8,
                       help="SpM×M width cap (default 8)")
        p.add_argument("--max-pending", type=int, default=64,
                       help="admission limit (default 64)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline budget")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="CG tolerance (--kind cg)")
        p.add_argument("--seed", type=int, default=1234)

    p_serve = sub.add_parser(
        "serve",
        help="run the async solver server under closed-loop load "
             "(chaos drill with --executor chaos)",
    )
    serving(p_serve)
    p_serve.add_argument(
        "--no-coalesce", action="store_true",
        help="serve every request solo (baseline mode)",
    )
    p_serve.add_argument(
        "--slo-ms", type=float, default=None,
        help="latency objective on served requests; exit 3 when the "
             "error budget is blown",
    )
    p_serve.add_argument(
        "--slo-percentile", type=float, default=99.0,
        help="target percentile for --slo-ms (default 99)",
    )

    p_loadgen = sub.add_parser(
        "loadgen",
        help="A/B the same load with coalescing on vs off "
             "(bit-identity always audited)",
    )
    serving(p_loadgen)
    p_loadgen.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the paired reports as JSON to PATH",
    )

    p_ooc = sub.add_parser(
        "ooc",
        help="out-of-core sharded SpMV/CG: ingest, apply, and "
             "checkpointed solves under a memory budget",
    )
    ooc_sub = p_ooc.add_subparsers(dest="ooc_command", required=True)

    p_oi = ooc_sub.add_parser(
        "ingest",
        help="shard a symmetric MatrixMarket file to disk (streaming; "
             "peak memory bounded by --chunk-nnz + one shard)",
    )
    p_oi.add_argument("matrix", help="symmetric MatrixMarket file")
    p_oi.add_argument("out_dir", help="shard directory to create")
    p_oi.add_argument(
        "--shard-nnz", type=int, default=None,
        help="target stored entries per shard",
    )
    p_oi.add_argument(
        "--n-shards", type=int, default=None,
        help="explicit shard count (overrides --shard-nnz)",
    )
    p_oi.add_argument(
        "--chunk-nnz", type=int, default=65536,
        help="entries parsed per streaming chunk (default 65536)",
    )

    def ooc_runtime(p):
        p.add_argument("shard_dir", help="ingested shard directory")
        p.add_argument(
            "--memory-budget", default=None, metavar="BYTES",
            help="resident shard-payload cap, e.g. 64K / 8M / 1G "
                 "(default: unbounded)",
        )
        p.add_argument("--threads", type=int, default=2)
        p.add_argument(
            "--reduction", default="indexed",
            choices=("naive", "effective", "indexed"),
        )
        p.add_argument(
            "--executor", default="serial",
            choices=("serial", "threads"),
            help="per-shard task executor",
        )
        p.add_argument(
            "--chaos-io", type=float, default=0.0, metavar="P",
            help="probability of an injected disk fault per shard read "
                 "attempt (containment drill; 0 disables)",
        )
        p.add_argument("--chaos-seed", type=int, default=0)
        p.add_argument("--seed", type=int, default=1234,
                       help="seed for the derived x / b vector")
        p.add_argument(
            "--json", metavar="PATH", default=None,
            help="write the machine-readable outcome to PATH",
        )

    p_os = ooc_sub.add_parser(
        "spmv", help="one sharded SpM×V against a seeded random x"
    )
    ooc_runtime(p_os)

    p_oc = ooc_sub.add_parser(
        "cg",
        help="checkpointed CG solve over a shard set (crash-safe with "
             "--checkpoint-dir/--resume)",
    )
    ooc_runtime(p_oc)
    p_oc.add_argument("--tol", type=float, default=1e-8)
    p_oc.add_argument("--max-iter", type=int, default=None)
    p_oc.add_argument(
        "--precond", default="none", choices=("none", "jacobi"),
    )
    p_oc.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="durable solver-state directory (enables checkpointing)",
    )
    p_oc.add_argument(
        "--checkpoint-every", type=int, default=10,
        help="iterations between durable snapshots (default 10)",
    )
    p_oc.add_argument(
        "--resume", action="store_true",
        help="restart from the newest verifiable checkpoint (fresh "
             "start when none survives)",
    )
    return parser


def _cmd_suite(args) -> int:
    rows = []
    for entry in SUITE:
        coo = entry.build(scale=args.scale)
        bw = bandwidth_stats(coo)
        rows.append(
            [
                entry.name,
                entry.problem,
                coo.n_rows,
                coo.nnz,
                round(coo.nnz / coo.n_rows, 1),
                round(bw.avg_distance / max(1, coo.n_rows), 3),
                "corner" if entry.corner_case else "",
            ]
        )
    print(
        render_table(
            ["matrix", "problem", "rows", "nnz", "nnz/row",
             "avg dist/n", "note"],
            rows,
            title=f"Table I suite at scale {args.scale}",
        )
    )
    return 0


def _make_kernel(matrix, partitions, reduction, executor=None):
    if isinstance(matrix, (SSSMatrix, CSXSymMatrix)):
        return ParallelSymmetricSpMV(
            matrix, partitions, reduction, executor=executor
        )
    if reduction == "coloring":
        raise ValidationError(
            "reduction 'coloring' requires a symmetric driver: the "
            "conflict-free schedule colors the transpose write set of "
            "the stored lower triangle, which unsymmetric formats do "
            "not have; use --format sss or csx-sym"
        )
    return ParallelSpMV(matrix, partitions, executor=executor)


def _trace_setup(args):
    """(tracer, executor) for a traceable subcommand; the tracer is a
    recording one only when ``--trace`` was given."""
    tracer = Tracer(enabled=args.trace is not None)
    if args.executor == "chaos":
        # Scheduling perturbation only — delays and reordered
        # completions keep the two-phase algorithm bit-correct; no
        # injected exceptions from the CLI.
        plan = ChaosPlan(seed=0, p_raise=0.0, p_delay=0.5, max_delay_ms=0.2)
        executor = Executor("threads", plan=plan)
    elif args.executor == "threads":
        executor = Executor("threads")
    else:
        executor = None
    return tracer, executor


def _trace_finish(args, tracer, meta) -> None:
    """Write the trace document and print the phase report."""
    if args.trace is None:
        return
    write_trace(args.trace, tracer, meta=meta)
    print()
    print(text_report(tracer, title=f"trace written to {args.trace}"))


def _cmd_spmv(args) -> int:
    coo = get_entry(args.matrix).build(scale=args.scale)
    matrix, parts = build_format(coo, args.format, args.threads)
    tracer, executor = _trace_setup(args)
    try:
        kernel = _make_kernel(matrix, parts, args.reduction, executor)
    except ValidationError as exc:
        print(f"repro spmv: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(0)
    x = rng.standard_normal(coo.n_cols)
    with tracing(tracer), kernel:
        y = kernel(x)
    ref = CSRMatrix.from_coo(coo).spmv(x)
    ok = np.allclose(y, ref)
    platform = PLATFORMS[args.platform]
    red = (
        args.reduction
        if isinstance(matrix, (SSSMatrix, CSXSymMatrix))
        else None
    )
    pt = predict_spmv(
        matrix, parts, platform, reduction=red, machine_scale=args.scale
    )
    base = predict_serial_csr(
        CSRMatrix.from_coo(coo), platform, machine_scale=args.scale
    )
    print(
        f"{args.matrix} [{args.format}] {args.threads} threads on "
        f"{platform.name}: correct={ok}\n"
        f"  size: {matrix.size_bytes()} B "
        f"({matrix.size_bytes() / max(1, coo.nnz):.2f} B/nnz)\n"
        f"  model: mult {pt.t_mult * 1e6:.1f} us + reduce "
        f"{pt.t_reduce * 1e6:.1f} us"
        + (
            f" + barrier {pt.t_barrier * 1e6:.1f} us"
            if pt.t_barrier else ""
        )
        + f" = {pt.total * 1e6:.1f} us "
        f"({pt.gflops:.2f} Gflop/s, {pt.speedup_over(base):.2f}x "
        "serial CSR)"
    )
    _trace_finish(
        args, tracer,
        meta={
            "command": "spmv", "matrix": args.matrix,
            "format": args.format, "threads": args.threads,
            "reduction": args.reduction, "executor": args.executor,
            "scale": args.scale,
        },
    )
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    coo = get_entry(args.matrix).build(scale=args.scale)
    platform = PLATFORMS[args.platform]
    threads = [
        p
        for p in (1, 2, 4, 8, 12, 16, 24)
        if p <= platform.n_threads
    ]
    base = predict_serial_csr(
        CSRMatrix.from_coo(coo), platform, machine_scale=args.scale
    )
    curves: dict[str, dict[int, float]] = {}
    configs = (
        ("csr", "csr", None),
        ("sss-indexed", "sss", "indexed"),
        ("csx-sym", "csx-sym", "indexed"),
    )
    for label, fmt, red in configs:
        curves[label] = {}
        for p in threads:
            matrix, parts = build_format(coo, fmt, p)
            pt = predict_spmv(
                matrix, parts, platform, reduction=red,
                machine_scale=args.scale,
            )
            curves[label][p] = pt.speedup_over(base)
    print(
        render_series(
            "threads",
            curves,
            title=f"{args.matrix} on {platform.name}: modelled speedup "
                  "over serial CSR",
            floatfmt="{:.2f}",
        )
    )
    return 0


def _cmd_cg(args) -> int:
    coo = get_entry(args.matrix).build(scale=args.scale)
    matrix, parts = build_format(coo, args.format, args.threads)
    tracer, executor = _trace_setup(args)
    try:
        spmv = _make_kernel(matrix, parts, args.reduction, executor)
    except ValidationError as exc:
        print(f"repro cg: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(0)
    x_true = rng.standard_normal(coo.n_rows)
    b = CSRMatrix.from_coo(coo).spmv(x_true)
    with tracing(tracer), spmv:
        res = conjugate_gradient(spmv, b, tol=args.tol)
    err = float(np.abs(res.x - x_true).max())
    print(
        f"CG on {args.matrix} [{args.format}, {args.threads} threads]: "
        f"{'converged' if res.converged else 'NOT converged'} in "
        f"{res.iterations} iterations, residual {res.residual_norm:.2e}, "
        f"max error {err:.2e}"
    )
    _trace_finish(
        args, tracer,
        meta={
            "command": "cg", "matrix": args.matrix,
            "format": args.format, "threads": args.threads,
            "reduction": args.reduction,
            "executor": args.executor, "scale": args.scale,
            "tol": args.tol, "iterations": res.iterations,
            "converged": bool(res.converged),
        },
    )
    return 0 if res.converged else 1


def _cmd_fuzz(args) -> int:
    from .fuzz import FuzzConfig, run_fuzz

    config = FuzzConfig(
        cases=args.cases,
        seed=args.seed,
        budget=args.budget,
        k=args.k,
        shrink=not args.no_shrink,
        max_mismatches=args.max_mismatches,
        chaos=args.chaos,
        executor_mode=args.executor,
    )
    report = run_fuzz(config)
    print(report.summary())
    if report.mismatches and args.reproducer:
        first = next(
            (m for m in report.mismatches if m.reproducer), None
        )
        if first is not None:
            with open(args.reproducer, "w") as fh:
                fh.write(first.reproducer)
            print(f"reproducer written to {args.reproducer}")
    return 0 if report.ok else 1


def _cmd_trace(args) -> int:
    try:
        doc = load_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.file}: {exc}", file=sys.stderr)
        return 1
    problems = validate_trace(doc)
    if problems:
        print(f"{args.file}: INVALID trace document", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print(text_report(doc, title=args.file))
    return 0


def _cmd_stats(args) -> int:
    from .analysis import compute_matrix_stats
    from .reorder import rcm_reorder

    coo = get_entry(args.matrix).build(scale=args.scale)
    variants = [("native", coo)]
    if args.rcm:
        variants.append(("rcm", rcm_reorder(coo)[0]))
    rows = []
    for tag, m in variants:
        s = compute_matrix_stats(m)
        rows.append(
            [
                tag,
                s.nnz,
                round(s.nnz_per_row_mean, 1),
                s.bandwidth,
                round(s.normalized_bandwidth, 3),
                round(s.unit_stride_fraction, 3),
                round(s.x_miss_rate, 4),
                round(100 * s.sss_compression, 1),
            ]
        )
    print(
        render_table(
            [
                "ordering", "nnz", "nnz/row", "bandwidth", "bw/n",
                "unit-stride", "x miss/nnz", "SSS CR %",
            ],
            rows,
            title=f"{args.matrix} at scale {args.scale}",
        )
    )
    return 0


def _cmd_metrics(args) -> int:
    coo = get_entry(args.matrix).build(scale=args.scale)
    if args.rcm:
        from .reorder import rcm_reorder

        coo = rcm_reorder(coo)[0]
    matrix, parts = build_format(coo, args.storage, args.threads)
    executor = (
        Executor(args.executor) if args.executor != "serial" else None
    )
    try:
        kernel = _make_kernel(matrix, parts, args.reduction, executor)
    except (ValidationError, ValueError) as exc:
        print(f"repro metrics: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(0)
    shape = (
        (coo.n_cols,) if args.k is None else (coo.n_cols, args.k)
    )
    x = rng.standard_normal(shape)
    tracer = Tracer()
    op = kernel.bind(args.k)
    try:
        with tracing(tracer):
            for _ in range(max(1, args.applications)):
                op(x)
    finally:
        op.close()
        if executor is not None:
            executor.close()
    snap = tracer.metrics.snapshot()
    meta = {
        "command": "metrics", "matrix": args.matrix,
        "storage": args.storage, "reduction": args.reduction,
        "executor": args.executor, "threads": args.threads,
        "scale": args.scale, "k": args.k, "rcm": bool(args.rcm),
        "applications": max(1, args.applications),
    }

    attribution = None
    if args.attribution:
        red = (
            args.reduction
            if isinstance(matrix, (SSSMatrix, CSXSymMatrix))
            else None
        )
        platform = PLATFORMS[args.platform]
        predicted = predict_spmv(
            matrix, parts, platform, reduction=red,
            machine_scale=args.scale,
        )
        attribution = attribute_spmv(
            tracer, predicted, platform_name=platform.name,
            label=f"{args.matrix}/{args.storage}"
                  f"{'/rcm' if args.rcm else ''}",
        )

    if args.out_format == "openmetrics":
        text = openmetrics_text(snap)
    elif args.out_format == "json":
        doc = {"meta": meta, "metrics": snap}
        if attribution is not None:
            doc["attribution"] = attribution.to_dict()
        text = json.dumps(doc, indent=1)
    else:
        text = metrics_report(
            snap,
            title=f"metrics: {args.matrix} [{args.storage}/"
                  f"{args.reduction}] x{meta['applications']} on "
                  f"{args.executor}",
        )
    if args.output:
        out = Path(args.output)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + ("" if text.endswith("\n") else "\n"))
        print(f"metrics written to {args.output}")
    else:
        print(text)

    rc = 0
    if args.slo_ms is not None:
        hist = tracer.metrics.merged_matching("op.apply_ns")
        if hist is None:
            print("repro metrics: no op.apply_ns samples for the SLO",
                  file=sys.stderr)
            return 2
        slo = SLO(
            "op.apply", threshold=args.slo_ms * 1e6,
            percentile=args.slo_percentile,
        )
        report = slo.observe(hist)
        print()
        print(report.render())
        if not report.healthy:
            rc = 3
    if attribution is not None and args.out_format != "json":
        print()
        print(attribution.render())
    return rc


def _serve_setup(args):
    """(registry, key, server_kwargs) for the serving subcommands."""
    import asyncio  # noqa: F401  (the commands run an event loop)

    from .serve import OperatorRegistry

    coo = get_entry(args.matrix).build(scale=args.scale)
    matrix, parts = build_format(coo, args.format, args.threads)
    if args.executor == "chaos":
        # The drill: real injected exceptions and delays, unlike the
        # benign scheduling-only chaos of the spmv/cg subcommands —
        # the server's containment (serial fallback) is under test.
        plan = ChaosPlan(
            seed=args.seed, p_raise=0.3, p_delay=0.3, max_delay_ms=0.2
        )
        executor = Executor("threads", plan=plan)
    elif args.executor == "threads":
        executor = Executor("threads", max_workers=args.threads)
    else:
        executor = None
    registry = OperatorRegistry()
    try:
        entry = registry.register(
            matrix, parts, reduction=args.reduction, executor=executor
        )
    except ValidationError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return None
    return registry, entry.key, {
        "max_batch": args.max_batch,
        "max_pending": args.max_pending,
    }


def _run_serve_load(server, key, args):
    from .serve import run_load

    deadline = (
        None if args.deadline_ms is None else args.deadline_ms * 1e-3
    )
    return run_load(
        server, key, kind=args.kind, concurrency=args.concurrency,
        n_requests=args.requests, deadline=deadline, tol=args.tol,
        seed=args.seed,
    )


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import SolverServer

    setup = _serve_setup(args)
    if setup is None:
        return 2
    registry, key, kwargs = setup

    async def drive():
        server = SolverServer(
            registry, coalesce=not args.no_coalesce, **kwargs
        )
        if args.slo_ms is not None:
            server.add_slo(
                f"serve.{args.kind}", args.slo_ms,
                percentile=args.slo_percentile,
            )
        try:
            report = await _run_serve_load(server, key, args)
            slo_reports = server.slo_reports()
            batches = server.metrics.counter_value(
                "serve.batches", kind=args.kind
            )
            fallbacks = server.metrics.counter_value(
                "serve.fallback_requests"
            )
        finally:
            await server.close()
        return report, slo_reports, batches, fallbacks

    report, slo_reports, batches, fallbacks = asyncio.run(drive())
    registry.close()
    mode = "solo (coalescing off)" if args.no_coalesce else (
        f"coalescing (max batch {args.max_batch})"
    )
    print(
        f"served {args.matrix} [{args.format}, {args.reduction}, "
        f"{args.executor}] in {mode}: {int(batches)} batches, "
        f"{int(fallbacks)} serial fallbacks"
    )
    print(report.render())
    rc = 0
    for rep in slo_reports:
        print(rep.render())
        if not rep.healthy:
            rc = 3
    if not report.correct:
        print(
            f"repro serve: {report.n_incorrect} responses differed "
            "from the serial reference", file=sys.stderr,
        )
        return 1
    return rc


def _cmd_loadgen(args) -> int:
    import asyncio

    from .serve import SolverServer

    setup = _serve_setup(args)
    if setup is None:
        return 2
    registry, key, kwargs = setup

    async def drive(coalesce):
        server = SolverServer(registry, coalesce=coalesce, **kwargs)
        try:
            return await _run_serve_load(server, key, args)
        finally:
            await server.close()

    async def both():
        on = await drive(True)
        off = await drive(False)
        return on, off

    on, off = asyncio.run(both())
    registry.close()
    print("coalescing ON:")
    print(on.render())
    print("coalescing OFF:")
    print(off.render())
    speedup = off.p50_ms / on.p50_ms if on.p50_ms > 0 else float("nan")
    print(f"p50 latency ratio off/on: {speedup:.2f}x")
    if args.json is not None:
        doc = {
            "matrix": args.matrix, "format": args.format,
            "reduction": args.reduction, "executor": args.executor,
            "coalescing_on": on.to_dict(),
            "coalescing_off": off.to_dict(),
        }
        Path(args.json).write_text(json.dumps(doc, indent=2))
        print(f"report written to {args.json}")
    if not (on.correct and off.correct):
        print(
            f"repro loadgen: incorrect responses "
            f"(on={on.n_incorrect}, off={off.n_incorrect})",
            file=sys.stderr,
        )
        return 1
    return 0


def _ooc_operator(args, tracer):
    """(store, operator) for the ooc runtime subcommands."""
    from .ooc import ShardStore, ShardedOperator

    chaos = None
    if args.chaos_io > 0:
        chaos = ChaosPlan(
            args.chaos_seed, p_io=args.chaos_io, p_delay=0.0,
            reorder=False,
        )
    store = ShardStore(Path(args.shard_dir), chaos=chaos)
    executor = (
        Executor(args.executor) if args.executor != "serial" else None
    )
    op = ShardedOperator(
        store,
        memory_budget=args.memory_budget,
        n_threads=args.threads,
        reduction=args.reduction,
        executor=executor,
    )
    return store, op


def _ooc_counters(tracer) -> dict:
    return {
        name: value
        for name, value in sorted(tracer.counters().items())
        if name.startswith("ooc.")
    }


def _cmd_ooc(args) -> int:
    import hashlib

    from .ooc import checkpointed_cg, ingest_matrix_market
    from .ooc.checkpoint import CheckpointStore
    from .resilience.errors import ExecutionError

    tracer = Tracer(enabled=True)
    try:
        with tracing(tracer):
            if args.ooc_command == "ingest":
                store = ingest_matrix_market(
                    args.matrix, args.out_dir,
                    shard_nnz=args.shard_nnz, n_shards=args.n_shards,
                    chunk_nnz=args.chunk_nnz,
                )
                print(
                    f"ingested {store.n_rows}x{store.n_cols} "
                    f"({store.nnz_stored} stored entries) into "
                    f"{store.n_shards} shard(s), "
                    f"{store.total_payload_bytes()} B payload, "
                    f"fingerprint {store.fingerprint}"
                )
                return 0

            store, op = _ooc_operator(args, tracer)
            rng = np.random.default_rng(args.seed)
            if args.ooc_command == "spmv":
                x = rng.standard_normal(store.n_cols)
                y = op(x)
                digest = hashlib.sha256(y.tobytes()).hexdigest()[:16]
                outcome = {
                    "n": store.n_rows,
                    "shards": store.n_shards,
                    "y_sha256": digest,
                    "peak_resident_bytes": op.peak_resident_bytes,
                    "memory_budget": op.memory_budget,
                    "counters": _ooc_counters(tracer),
                }
                print(
                    f"ooc spmv over {store.n_shards} shard(s): "
                    f"y digest {digest}, peak resident "
                    f"{op.peak_resident_bytes} B"
                    + (
                        f" (budget {op.memory_budget} B)"
                        if op.memory_budget is not None else ""
                    )
                )
            else:  # cg
                ck = None
                if args.checkpoint_dir is not None:
                    ck = CheckpointStore(Path(args.checkpoint_dir))
                b = rng.standard_normal(store.n_rows)
                solve = checkpointed_cg(
                    op, b, tol=args.tol, max_iter=args.max_iter,
                    store=ck, checkpoint_every=args.checkpoint_every,
                    resume=args.resume, precond=args.precond,
                )
                res = solve.result
                digest = hashlib.sha256(res.x.tobytes()).hexdigest()[:16]
                outcome = {
                    "n": store.n_rows,
                    "shards": store.n_shards,
                    "converged": bool(res.converged),
                    "iterations": int(res.iterations),
                    "residual_norm": float(res.residual_norm),
                    "x_sha256": digest,
                    "resumed_from": solve.resumed_from,
                    "peak_resident_bytes": op.peak_resident_bytes,
                    "memory_budget": op.memory_budget,
                    "counters": _ooc_counters(tracer),
                }
                resumed = (
                    f" (resumed from iteration {solve.resumed_from})"
                    if solve.resumed_from is not None else ""
                )
                print(
                    f"ooc cg{resumed}: converged={res.converged} "
                    f"iterations={res.iterations} "
                    f"residual={res.residual_norm:.3e} "
                    f"x digest {digest}, peak resident "
                    f"{op.peak_resident_bytes} B"
                )
        if args.json is not None:
            Path(args.json).write_text(json.dumps(outcome, indent=1))
        return 0
    except ValidationError as exc:
        print(f"repro ooc: {exc}", file=sys.stderr)
        return 2
    except ExecutionError as exc:
        print(f"repro ooc: {exc}", file=sys.stderr)
        return 1


_COMMANDS = {
    "suite": _cmd_suite,
    "spmv": _cmd_spmv,
    "sweep": _cmd_sweep,
    "cg": _cmd_cg,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "fuzz": _cmd_fuzz,
    "metrics": _cmd_metrics,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "ooc": _cmd_ooc,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
