#!/usr/bin/env python
"""Compare the paper's method against the published rivals (§VI).

Runs the three multithreaded symmetric SpM×V strategies implemented in
this library on one matrix:

* local-vectors **indexing** (the paper's contribution),
* symmetric **CSB** with three near-diagonal buffers + atomics
  (Buluç et al. [27]),
* the conflict-free **coloring** method (Batista et al. [7]),

verifies they all compute the same product, and prints each method's
characteristic statistic — index pairs, atomic updates, color count —
with the machine model's verdict on the Dunnington SMP.

Run:  python examples/related_methods.py [matrix] [scale]
"""

import sys

import numpy as np

from repro.analysis import thread_partitions
from repro.formats import CSBSymMatrix, CSRMatrix, SSSMatrix
from repro.machine import DUNNINGTON, predict_spmv
from repro.matrices import get_entry
from repro.parallel import (
    ParallelCSBSymSpMV,
    ParallelSymmetricSpMV,
    coloring_stats,
    predict_colored_time,
    predict_csb_sym_time,
)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "thermal2"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.005
    threads = 24
    coo = get_entry(name).build(scale=scale)
    print(f"{name}: {coo.n_rows} rows, {coo.nnz} nnz, {threads} threads\n")

    rng = np.random.default_rng(0)
    x = rng.standard_normal(coo.n_cols)
    reference = CSRMatrix.from_coo(coo).spmv(x)

    # --- local-vectors indexing (this paper) --------------------------
    sss = SSSMatrix.from_coo(coo)
    parts = thread_partitions(coo, threads, symmetric=True)
    indexed = ParallelSymmetricSpMV(sss, parts, "indexed")
    assert np.allclose(indexed(x), reference)
    fp = indexed.footprint()
    t_idx = predict_spmv(
        sss, parts, DUNNINGTON, reduction="indexed", machine_scale=scale
    ).total
    print(
        f"indexing : {fp.index_pairs} index pairs "
        f"(density {fp.effective_density:.3f}) "
        f"-> model {t_idx * 1e6:8.1f} us"
    )

    # --- symmetric CSB (Buluç et al.) ---------------------------------
    csbs = CSBSymMatrix(coo)
    csb_parts = csbs.block_row_partitions(threads)
    csb_kernel = ParallelCSBSymSpMV(csbs, csb_parts)
    assert np.allclose(csb_kernel(x), reference)
    t_csb = predict_csb_sym_time(
        csbs, csb_parts, DUNNINGTON, machine_scale=scale
    )
    atomics = csb_kernel.last_stats.atomic_updates
    print(
        f"csb-sym  : {atomics} atomic updates "
        f"({atomics / max(1, csbs.stored_entries):.0%} of elements) "
        f"-> model {t_csb * 1e6:8.1f} us"
    )

    # --- coloring (Batista et al.) -------------------------------------
    with ParallelSymmetricSpMV(sss, parts, "coloring") as colored:
        assert np.allclose(colored(x), reference)
        colors = colored.reduction.schedule.colors
    stats = coloring_stats(colors)
    t_col = predict_colored_time(
        sss, colors, DUNNINGTON, threads, machine_scale=scale
    )
    print(
        f"coloring : {stats.n_colors} colors "
        f"(mean class {stats.mean_class:.0f} rows) "
        f"-> model {t_col * 1e6:8.1f} us"
    )

    best = min(t_idx, t_csb, t_col)
    if best == t_idx:
        print(
            f"\nthe local-vectors indexing wins by "
            f"{min(t_csb, t_col) / t_idx:.2f}x over the closest rival "
            "(the paper's §VI conclusion)"
        )
    else:
        # On low-bandwidth structural matrices CSB-Sym's atomics vanish
        # and the two methods converge — the paper's argument is about
        # the high-bandwidth regime.
        print(
            f"\nrivals are within {best / t_idx:.2f}x here; try a "
            "high-bandwidth matrix (thermal2, G3_circuit) to see the "
            "paper's separation"
        )


if __name__ == "__main__":
    main()
