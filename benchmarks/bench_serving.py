"""Serving-layer benchmark: SpMM request coalescing on vs off.

The serving front end's claim is the paper's traffic argument applied
to concurrent clients: ``k`` same-matrix SpM×V requests served as one
SpM×M stream the matrix once instead of ``k`` times, so under
concurrency the coalescing scheduler should beat solo-serving on both
throughput and latency. This benchmark drives the real
:class:`~repro.serve.server.SolverServer` with the closed-loop load
generator (bit-identity audit always on — throughput of wrong answers
is not throughput) across a concurrency sweep, with coalescing on and
off, and records throughput and latency percentiles per cell.

Acceptance gate: coalescing-on throughput >= ``GATE_SPEEDUP``x
coalescing-off at concurrency >= ``GATE_CONCURRENCY`` (geomean across
qualifying cells). The gate verdict is only recorded as pass/fail on
hosts with >= ``GATE_MIN_CORES`` cores; smaller hosts record the
measurement honestly under ``gate.status = "skipped-single-core"``.
Incorrect responses fail the run unconditionally — there is no core
count on which wrong bits are acceptable.

Machine-readable output goes to ``results/BENCH_serving.json``
(consumed by ``check_regression.py``). Runs standalone
(``python benchmarks/bench_serving.py``, ``--smoke`` for CI) or under
pytest; the pytest entry asserts the artifact shape and the
zero-incorrect invariant, never the speedup.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.formats import SSSMatrix  # noqa: E402
from repro.matrices.generators import grid_laplacian_2d  # noqa: E402
from repro.parallel import Executor, partition_nnz_balanced  # noqa: E402
from repro.serve import (  # noqa: E402
    OperatorRegistry,
    SolverServer,
    run_load,
)

MODES = ("coalesce", "solo")
CONCURRENCY_SWEEP = (1, 4, 8, 16)
SMOKE_SWEEP = (2, 8)
REQUESTS_PER_CELL = 240
SMOKE_REQUESTS = 64
MAX_BATCH = 8
GATE_CONCURRENCY = 8        # the claim is about concurrent clients
GATE_SPEEDUP = 1.5          # coalescing-on vs off, throughput geomean
GATE_MIN_CORES = 4
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def build_registry(grid: int, workers: int):
    """(registry, key): an SSS + indexed operator over a 2-D Laplacian
    (SPD, so the CG coverage cell runs clean)."""
    coo = grid_laplacian_2d(grid, grid)
    sss = SSSMatrix.from_coo(coo)
    parts = partition_nnz_balanced(sss.expanded_row_nnz(), workers)
    registry = OperatorRegistry()
    entry = registry.register(
        sss, parts,
        executor=Executor("threads", max_workers=workers),
    )
    return registry, entry.key


def run_cell(
    registry, key, *, mode: str, concurrency: int, n_requests: int,
    kind: str = "spmv",
) -> dict:
    """One (mode x concurrency) measurement through the real server."""

    async def drive():
        server = SolverServer(
            registry,
            max_batch=MAX_BATCH,
            max_pending=4 * concurrency + MAX_BATCH,
            coalesce=(mode == "coalesce"),
        )
        try:
            # Warmup outside the timed window: first-use binds and
            # scatter compilation must not pollute the percentiles.
            await run_load(
                server, key, kind=kind, concurrency=concurrency,
                n_requests=2 * concurrency, seed=7, verify=False,
            )
            return await run_load(
                server, key, kind=kind, concurrency=concurrency,
                n_requests=n_requests, seed=1234,
            )
        finally:
            await server.close()

    report = asyncio.run(drive())
    return {
        "kind": kind,
        "mode": mode,
        "concurrency": concurrency,
        "rps": report.rps,
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "p99_ms": report.p99_ms,
        "mean_coalesced": report.mean_coalesced,
        "n_requests": report.n_requests,
        "n_ok": report.n_ok,
        "n_incorrect": report.n_incorrect,
        "n_failed": report.n_failed,
    }


def measure(registry, key, sweep, n_requests, with_cg: bool) -> list[dict]:
    rows = []
    for concurrency in sweep:
        for mode in MODES:
            rows.append(run_cell(
                registry, key, mode=mode, concurrency=concurrency,
                n_requests=n_requests,
            ))
    if with_cg:
        # One coverage cell per mode: coalesced block-CG vs solo CG.
        for mode in MODES:
            rows.append(run_cell(
                registry, key, mode=mode,
                concurrency=min(4, max(sweep)),
                n_requests=max(8, n_requests // 16), kind="cg",
            ))
    return rows


def evaluate_gate(rows, host_cores: int) -> dict:
    """Coalescing-on vs off throughput at high concurrency, or an
    honest skip on hosts that cannot host concurrent clients."""
    by_key = {
        (r["kind"], r["mode"], r["concurrency"]): r for r in rows
    }
    ratios = []
    for (kind, mode, conc), r in sorted(by_key.items()):
        if kind != "spmv" or mode != "coalesce":
            continue
        if conc < GATE_CONCURRENCY:
            continue
        solo = by_key.get((kind, "solo", conc))
        if solo is not None and solo["rps"] > 0:
            ratios.append(r["rps"] / solo["rps"])
    if not ratios:
        return {"status": "skipped-no-data"}
    geomean = float(np.exp(np.mean(np.log(ratios))))
    if host_cores < GATE_MIN_CORES:
        return {
            "status": "skipped-single-core",
            "detail": (
                f"host has {host_cores} core(s); the {GATE_SPEEDUP}x "
                f"coalescing gate at concurrency >= {GATE_CONCURRENCY} "
                f"needs >= {GATE_MIN_CORES} cores for a meaningful "
                "verdict"
            ),
            "coalesce_vs_solo": geomean,
            "host_cores": host_cores,
        }
    return {
        "status": "pass" if geomean >= GATE_SPEEDUP else "fail",
        "coalesce_vs_solo": geomean,
        "target": GATE_SPEEDUP,
        "concurrency": GATE_CONCURRENCY,
        "host_cores": host_cores,
    }


def render(rows, gate) -> str:
    lines = [
        "Serving throughput/latency — coalescing on vs off "
        f"(max batch {MAX_BATCH})",
        "",
        f"{'kind':<6} {'mode':<10} {'conc':>5} {'req/s':>10} "
        f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9} {'width':>6} "
        f"{'bad':>4}",
    ]
    for r in rows:
        lines.append(
            f"{r['kind']:<6} {r['mode']:<10} {r['concurrency']:>5} "
            f"{r['rps']:>10.1f} {r['p50_ms']:>9.3f} "
            f"{r['p95_ms']:>9.3f} {r['p99_ms']:>9.3f} "
            f"{r['mean_coalesced']:>6.2f} {r['n_incorrect']:>4}"
        )
    lines.append("")
    lines.append(f"gate: {json.dumps(gate)}")
    return "\n".join(lines)


def write_json(rows, gate, config) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_serving.json"
    path.write_text(json.dumps(
        {"config": config, "measured": rows, "gate": gate},
        indent=2,
    ) + "\n")
    print(f"[json written to {path}]")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grid, short sweep, fewer requests (CI smoke run)",
    )
    parser.add_argument(
        "--concurrency", type=int, nargs="+", default=None,
        help="concurrency sweep (default: 1 4 8 16)",
    )
    parser.add_argument("--grid", type=int, default=None,
                        help="Laplacian grid side (default 80/40 smoke)")
    parser.add_argument("--workers", type=int, default=2,
                        help="threads behind the served operator")
    parser.add_argument("--no-cg", action="store_true",
                        help="skip the CG coverage cells")
    args = parser.parse_args(argv)

    sweep = (
        tuple(args.concurrency) if args.concurrency
        else (SMOKE_SWEEP if args.smoke else CONCURRENCY_SWEEP)
    )
    if any(c < 1 for c in sweep):
        parser.error("--concurrency must be >= 1")
    grid = args.grid or (40 if args.smoke else 80)
    n_requests = SMOKE_REQUESTS if args.smoke else REQUESTS_PER_CELL
    host_cores = os.cpu_count() or 1

    registry, key = build_registry(grid, args.workers)
    try:
        rows = measure(
            registry, key, sweep, n_requests, with_cg=not args.no_cg
        )
    finally:
        registry.close()
    gate = evaluate_gate(rows, host_cores)
    config = {
        "smoke": args.smoke,
        "grid": grid,
        "workers": args.workers,
        "concurrency": list(sweep),
        "requests_per_cell": n_requests,
        "max_batch": MAX_BATCH,
        "host_cores": host_cores,
    }
    write_json(rows, gate, config)
    text = render(rows, gate)
    try:
        from common import write_result

        write_result("serving", text)
    except ImportError:
        print(text)

    n_incorrect = sum(r["n_incorrect"] for r in rows)
    if n_incorrect:
        print(
            f"INCORRECT RESPONSES: {n_incorrect} — serving must be "
            "bit-identical to the serial reference", file=sys.stderr,
        )
        return 1
    return 0 if gate["status"] in (
        "pass", "skipped-single-core", "skipped-no-data",
    ) else 1


# -- pytest entry point (collected with the other wall-clock benches) --
def test_serving_smoke(tmp_path, monkeypatch):
    """Artifact shape + the zero-incorrect invariant; never the 1.5x
    gate (CI runners make no core promises)."""
    monkeypatch.setattr(sys.modules[__name__], "RESULTS_DIR", tmp_path)
    rc = main(["--smoke", "--concurrency", "2", "8"])
    payload = json.loads((tmp_path / "BENCH_serving.json").read_text())
    assert rc == 0 or payload["gate"]["status"] == "fail"
    assert payload["measured"]
    assert all(r["n_incorrect"] == 0 for r in payload["measured"])
    assert {r["mode"] for r in payload["measured"]} == set(MODES)
    assert payload["gate"]["status"] in (
        "pass", "fail", "skipped-single-core", "skipped-no-data",
    )
    assert payload["config"]["host_cores"] >= 1


if __name__ == "__main__":
    sys.exit(main())
