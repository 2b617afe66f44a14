"""§VI — comparison against the related symmetric SpM×V methods.

The paper positions its local-vectors indexing against two published
alternatives, both implemented in this library:

* **Symmetric CSB** (Buluç et al. [27]): bounded three-buffer reduction
  plus atomic updates for far blocks — "in matrices with a relatively
  high bandwidth, this method is expected to be bound by the atomic
  operations".
* **The colorful method** (Batista et al. [7]): conflict-free coloring,
  no reduction at all — "could not achieve a performance gain over the
  typical local vectors method".

This benchmark verifies all three methods compute identical results and
that the model reproduces both related-work conclusions.
"""

import numpy as np
import pytest

from common import MATRIX_NAMES, SCALE, suite_matrix, write_result
from repro.analysis import render_table, thread_partitions
from repro.formats import CSBSymMatrix, CSRMatrix, SSSMatrix
from repro.machine import DUNNINGTON, predict_spmv
from repro.matrices import get_entry
from repro.parallel import (
    ParallelCSBSymSpMV,
    ParallelSymmetricSpMV,
    coloring_stats,
    distance2_coloring,
    predict_colored_time,
    predict_csb_sym_time,
)

P = 24

#: Coloring is O(Σ deg²); keep to the sparser half of the suite plus
#: one structural matrix.
RIVAL_MATRICES = [
    n for n in ("parabolic_fem", "thermal2", "G3_circuit", "bmw7st_1")
    if n in MATRIX_NAMES
] or MATRIX_NAMES[:2]


def compute_rivals():
    rows = []
    stats = {}
    for name in RIVAL_MATRICES:
        coo = suite_matrix(name)
        sss = SSSMatrix.from_coo(coo)
        parts = thread_partitions(coo, P, symmetric=True)
        t_indexed = predict_spmv(
            sss, parts, DUNNINGTON, reduction="indexed",
            machine_scale=SCALE,
        ).total

        csbs = CSBSymMatrix(coo)
        csb_parts = csbs.block_row_partitions(P)
        atomic = csbs.count_atomic_updates(csb_parts)
        t_csb = predict_csb_sym_time(
            csbs, csb_parts, DUNNINGTON, machine_scale=SCALE
        )

        colors = distance2_coloring(sss)
        cstats = coloring_stats(colors)
        t_colored = predict_colored_time(
            sss, colors, DUNNINGTON, P, machine_scale=SCALE
        )

        rows.append(
            [
                name,
                t_indexed * 1e6,
                t_csb * 1e6,
                t_colored * 1e6,
                atomic / max(1, csbs.stored_entries),
                cstats.n_colors,
            ]
        )
        stats[name] = (t_indexed, t_csb, t_colored, atomic, cstats)
    return rows, stats


def _verify_correctness():
    """All three methods produce the SSS serial result."""
    name = RIVAL_MATRICES[0]
    coo = suite_matrix(name)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(coo.n_cols)
    ref = CSRMatrix.from_coo(coo).spmv(x)

    sss = SSSMatrix.from_coo(coo)
    parts = thread_partitions(coo, 8, symmetric=True)
    assert np.allclose(ParallelSymmetricSpMV(sss, parts, "indexed")(x), ref)

    csbs = CSBSymMatrix(coo)
    assert np.allclose(ParallelCSBSymSpMV(csbs, n_threads=8)(x), ref)

    with ParallelSymmetricSpMV(sss, parts, "coloring") as colored:
        assert np.allclose(colored(x), ref)


def test_related_methods(benchmark):
    _verify_correctness()
    rows, stats = benchmark.pedantic(compute_rivals, rounds=1, iterations=1)
    text = render_table(
        [
            "matrix", "indexed (us)", "csb-sym (us)", "colored (us)",
            "atomic frac", "colors",
        ],
        rows,
        title=f"§VI — rival symmetric methods @ {P} threads, Dunnington "
              "(model time)",
        floatfmt="{:.2f}",
    )
    write_result("related_methods", text)

    for name, (t_idx, t_csb, t_col, atomic, cstats) in stats.items():
        corner = get_entry(name).corner_case
        # The colorful method never beats local-vectors indexing.
        assert t_col > t_idx, name
        if corner:
            # High-bandwidth: CSB-Sym pays for its atomics and loses.
            assert atomic > 0, name
            assert t_csb > t_idx, name
