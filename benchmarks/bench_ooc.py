"""Out-of-core operator benchmark: SpMV/CG under a memory budget.

The out-of-core layer's claim is containment, not speed: a solve whose
matrix never fully resides in memory should (a) stream shards at a
bounded, predictable cost over the in-core operator, (b) stay under
its declared resident-byte budget, and (c) pay only a small durability
tax for periodic checkpoints. This benchmark ingests a 5-point grid
Laplacian into a shard store once, then measures:

* ``spmv`` — one out-of-core apply per budget regime (``unbounded``
  caches every shard after the first pass; ``half`` holds roughly half
  the payload, so each apply reloads the shards evicted behind the
  sweep; ``tight`` fits little more than the largest shard, the worst
  case: every apply re-reads nearly everything);
* ``cg`` — a fixed-iteration checkpointed CG solve with durable
  snapshots every 5 iterations vs the same solve with no store, so the
  fsync-per-checkpoint tax is a first-class measured quantity.

Every budgeted cell asserts ``peak_resident_bytes <= budget`` and that
its result is bit-identical to the unbounded apply — throughput of
wrong or over-budget answers is not throughput.

Machine-readable output goes to ``results/BENCH_ooc.json`` (consumed
by ``check_regression.py``). Runs standalone
(``python benchmarks/bench_ooc.py``, ``--smoke`` for CI) or under
pytest; the pytest entry asserts the artifact shape and the
containment invariants, never wall-clock.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import timed_repeat  # noqa: E402
from repro.matrices.generators import grid_laplacian_2d  # noqa: E402
from repro.matrices.mmio import write_matrix_market  # noqa: E402
from repro.ooc import (  # noqa: E402
    CheckpointStore,
    ShardedOperator,
    checkpointed_cg,
    ingest_matrix_market,
)

GRID = 120
SMOKE_GRID = 48
N_SHARDS = 8
CG_ITERS = 40
CHECKPOINT_EVERY = 5
REPEATS = 7
SMOKE_REPEATS = 3
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def build_store(grid: int, work_dir: Path):
    """Ingest the grid Laplacian into ``work_dir`` once."""
    coo = grid_laplacian_2d(grid, grid)
    mm = work_dir / "laplacian.mtx"
    write_matrix_market(mm, coo, symmetric=True)
    return ingest_matrix_market(
        mm, work_dir / "shards", n_shards=N_SHARDS
    )


def budget_regimes(store) -> dict:
    """Named resident-byte budgets from the ingested payload sizes."""
    total = store.total_payload_bytes()
    largest = max(info.n_bytes for info in store.shards)
    return {
        "unbounded": None,
        "half": max(largest, total // 2),
        "tight": max(largest, int(largest * 1.5)),
    }


def measure_spmv(store, regimes, repeats: int) -> list[dict]:
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(store.n_cols)
    reference = ShardedOperator(store, n_threads=2)(x)
    rows = []
    for name, budget in regimes.items():
        op = ShardedOperator(store, memory_budget=budget, n_threads=2)
        y = op(x)
        assert np.array_equal(y, reference), name
        if budget is not None:
            assert op.peak_resident_bytes <= budget, name
        stats = timed_repeat(lambda: op(x), repeats=repeats, warmup=1)
        rows.append({
            "matrix": f"grid{store.n_rows}",
            "section": "spmv",
            "variant": name,
            "budget_bytes": budget,
            "peak_resident_bytes": op.peak_resident_bytes,
            "p50_ms": stats["p50_ms"],
            "p95_ms": stats["p95_ms"],
            "bit_identical": True,
        })
    return rows


def measure_cg(store, work_dir: Path, repeats: int) -> list[dict]:
    rng = np.random.default_rng(7)
    b = rng.standard_normal(store.n_rows)
    op = ShardedOperator(store, n_threads=2)
    rows = []
    for variant, with_store in (
        ("no-checkpoint", False),
        (f"ckpt-every-{CHECKPOINT_EVERY}", True),
    ):
        def solve():
            store_kw = {}
            if with_store:
                ck_dir = Path(
                    tempfile.mkdtemp(dir=work_dir, prefix="ck-")
                )
                store_kw = {
                    "store": CheckpointStore(ck_dir),
                    "checkpoint_every": CHECKPOINT_EVERY,
                }
            out = checkpointed_cg(
                op, b, tol=0.0, max_iter=CG_ITERS, **store_kw
            )
            assert out.result.iterations == CG_ITERS
            return out

        stats = timed_repeat(solve, repeats=repeats, warmup=1)
        rows.append({
            "matrix": f"grid{store.n_rows}",
            "section": "cg",
            "variant": variant,
            "budget_bytes": None,
            "peak_resident_bytes": op.peak_resident_bytes,
            "p50_ms": stats["p50_ms"],
            "p95_ms": stats["p95_ms"],
            "bit_identical": True,
        })
    return rows


def render(rows) -> str:
    lines = [
        "Out-of-core SpMV/CG — resident-byte budgets and checkpoint "
        "overhead",
        "",
        f"{'matrix':<10} {'section':<6} {'variant':<16} "
        f"{'budget B':>10} {'peak B':>10} {'p50 ms':>9} {'p95 ms':>9}",
    ]
    for r in rows:
        budget = r["budget_bytes"]
        lines.append(
            f"{r['matrix']:<10} {r['section']:<6} {r['variant']:<16} "
            f"{budget if budget is not None else '-':>10} "
            f"{r['peak_resident_bytes']:>10} "
            f"{r['p50_ms']:>9.3f} {r['p95_ms']:>9.3f}"
        )
    p50 = {(r["section"], r["variant"]): r["p50_ms"] for r in rows}
    ckpt = f"ckpt-every-{CHECKPOINT_EVERY}"
    budgeted = p50["spmv", "half"] / p50["spmv", "unbounded"]
    tax = p50["cg", ckpt] / p50["cg", "no-checkpoint"]
    lines += [
        "",
        f"half-budget / unbounded SpMV p50: {budgeted:.2f}x (gate <= 5x)",
        f"checkpoint tax ({ckpt} / no-checkpoint CG p50): {tax:.2f}x",
    ]
    return "\n".join(lines)


def write_json(rows, config) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_ooc.json"
    path.write_text(json.dumps(
        {"config": config, "measured": rows}, indent=2,
    ) + "\n")
    print(f"[json written to {path}]")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grid, fewer repeats (CI smoke run)",
    )
    parser.add_argument("--grid", type=int, default=None,
                        help="Laplacian grid side (default 120/48 smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed samples per cell (default 7/3 smoke)")
    args = parser.parse_args(argv)

    grid = args.grid or (SMOKE_GRID if args.smoke else GRID)
    repeats = args.repeats or (SMOKE_REPEATS if args.smoke else REPEATS)
    host_cores = os.cpu_count() or 1

    with tempfile.TemporaryDirectory(prefix="bench-ooc-") as tmp:
        work_dir = Path(tmp)
        store = build_store(grid, work_dir)
        regimes = budget_regimes(store)
        rows = measure_spmv(store, regimes, repeats)
        rows.extend(measure_cg(store, work_dir, repeats))

    config = {
        "smoke": args.smoke,
        "grid": grid,
        "n_shards": N_SHARDS,
        "cg_iters": CG_ITERS,
        "checkpoint_every": CHECKPOINT_EVERY,
        "repeats": repeats,
        "host_cores": host_cores,
    }
    write_json(rows, config)
    text = render(rows)
    try:
        from common import write_result

        write_result("ooc", text)
    except ImportError:
        print(text)
    return 0


# -- pytest entry point (collected with the other wall-clock benches) --
def test_ooc_bench_smoke(tmp_path, monkeypatch):
    """Artifact shape + containment invariants; never wall-clock."""
    monkeypatch.setattr(sys.modules[__name__], "RESULTS_DIR", tmp_path)
    assert main(["--smoke"]) == 0
    payload = json.loads((tmp_path / "BENCH_ooc.json").read_text())
    assert payload["measured"]
    assert {r["section"] for r in payload["measured"]} == {"spmv", "cg"}
    for r in payload["measured"]:
        assert r["bit_identical"]
        if r["budget_bytes"] is not None:
            assert r["peak_resident_bytes"] <= r["budget_bytes"]
    assert payload["config"]["host_cores"] >= 1


if __name__ == "__main__":
    sys.exit(main())
