"""§V-E — CSX(-Sym) preprocessing cost in serial CSR SpM×V units.

Paper values: 49 (Dunnington, 24 preprocessing threads) and 94
(Gainestown, 16 threads) serial CSR SpM×V equivalents on average;
59 / 115 on the RCM-reordered suite (whose serial SpM×V is faster, so
the quotient grows).

Next to the modeled equivalents the table prints the measured ones:
the wall time of one ``build_format(..., "csx-sym", 16)`` on this host
over the p50 of a serial CSR SpM×V of the same matrix.
"""

import numpy as np

from common import (
    MATRIX_NAMES,
    SCALE,
    built_format,
    built_format_reordered,
    reordered_matrix,
    suite_matrix,
    timed_repeat,
    write_result,
)
from repro.analysis import build_format, preprocessing_cost, render_table
from repro.formats import CSRMatrix, SSSMatrix
from repro.machine import DUNNINGTON, GAINESTOWN
from repro.parallel import build_coloring_schedule, distance2_coloring


def compute_preproc():
    rows = []
    averages = {}
    for tag, matrix_of, built in (
        ("native", suite_matrix, built_format),
        ("rcm", reordered_matrix, built_format_reordered),
    ):
        for platform, p in ((DUNNINGTON, 24), (GAINESTOWN, 16)):
            equivalents = []
            for name in MATRIX_NAMES:
                csr = CSRMatrix.from_coo(matrix_of(name))
                csxs, _ = built(name, "csx-sym", p)
                cost = preprocessing_cost(csxs, csr, platform, p)
                equivalents.append(cost.csr_spmv_equivalents)
                rows.append(
                    [name, tag, platform.name, cost.csr_spmv_equivalents]
                )
            averages[(tag, platform.name)] = float(np.mean(equivalents))
    return rows, averages


def compute_measured_preproc(p: int = 16):
    """Measured CSX-Sym build time in serial CSR SpM×V units: the
    median of three ``build_format`` calls over the CSR SpM×V p50."""
    rows = []
    averages = {}
    rng = np.random.default_rng(5)
    for tag, matrix_of in (
        ("native", suite_matrix),
        ("rcm", reordered_matrix),
    ):
        equivalents = []
        for name in MATRIX_NAMES:
            coo = matrix_of(name)
            csr = CSRMatrix.from_coo(coo)
            x = rng.standard_normal(coo.n_cols)
            t_spmv = timed_repeat(lambda: csr.spmv(x), repeats=20)["p50_ms"]
            t_build = timed_repeat(
                lambda: build_format(coo, "csx-sym", p), repeats=3, warmup=0
            )["p50_ms"]
            units = t_build / max(t_spmv, 1e-9)
            equivalents.append(units)
            rows.append([name, tag, t_build / 1e3, t_spmv, units])
        averages[tag] = float(np.mean(equivalents))
    return rows, averages


def compute_coloring_preproc(p: int = 8):
    """Measured distance-2 coloring + schedule build, in serial CSR
    SpM×V equivalents — the same break-even currency as CSX above.

    The quotient is the number of SpM×V applications after which the
    one-off schedule build has amortized, assuming coloring then runs
    at local-vector speed (the gate ``bench_coloring_reduction.py``
    enforces at ``p >= 2``).
    """
    rows = []
    averages = {}
    rng = np.random.default_rng(17)
    for tag, matrix_of in (
        ("native", suite_matrix),
        ("rcm", reordered_matrix),
    ):
        equivalents = []
        for name in MATRIX_NAMES:
            coo = matrix_of(name)
            csr = CSRMatrix.from_coo(coo)
            sss = SSSMatrix.from_coo(coo)
            x = rng.standard_normal(coo.n_cols)
            t_spmv = timed_repeat(
                lambda: csr.spmv(x), repeats=5
            )["p50_ms"]
            t_build = timed_repeat(
                lambda: build_coloring_schedule(
                    sss, p, colors=distance2_coloring(sss)
                ),
                repeats=3,
            )["p50_ms"]
            t_color = timed_repeat(
                lambda: distance2_coloring(sss), repeats=3
            )["p50_ms"]
            units = (t_build + t_color) / max(t_spmv, 1e-9)
            equivalents.append(units)
            rows.append([name, tag, units])
        averages[tag] = float(np.mean(equivalents))
    return rows, averages


def test_preprocessing_cost(benchmark):
    rows, averages = benchmark.pedantic(
        compute_preproc, rounds=1, iterations=1
    )
    measured_rows, measured = compute_measured_preproc()
    paper = {
        ("native", "Dunnington"): 49,
        ("native", "Gainestown"): 94,
        ("rcm", "Dunnington"): 59,
        ("rcm", "Gainestown"): 115,
    }
    summary = [
        [tag, plat, avg, paper[(tag, plat)]]
        for (tag, plat), avg in averages.items()
    ]
    text = render_table(
        ["suite", "platform", "avg CSR-SpMV units", "paper"],
        summary,
        title="§V-E — CSX-Sym preprocessing cost, modeled "
              "(serial CSR SpM×V equivalents)",
        floatfmt="{:.1f}",
    ) + "\n\n" + render_table(
        ["suite", "avg measured CSR-SpMV units"],
        [[tag, avg] for tag, avg in measured.items()],
        title="measured on the host running this benchmark",
        floatfmt="{:.1f}",
    ) + "\n\n" + render_table(
        ["matrix", "suite", "platform", "CSR-SpMV units"],
        rows,
        floatfmt="{:.1f}",
    ) + "\n\n" + render_table(
        ["matrix", "suite", "build s", "CSR SpM×V p50 ms",
         "measured CSR-SpMV units"],
        measured_rows,
        title="measured: build_format(csx-sym, 16) wall time / serial "
              "CSR SpM×V p50",
        floatfmt="{:.3f}",
    )
    write_result("preproc_cost", text)

    # Same order of magnitude as the paper (tens, not thousands).
    for key, avg in averages.items():
        assert 5 < avg < 600, (key, avg)
    # NUMA preprocessing costs more (paper: 94 vs 49).
    assert (
        averages[("native", "Gainestown")]
        > averages[("native", "Dunnington")]
    )
    # Reordered suite costs more in SpM×V units (faster denominator).
    assert (
        averages[("rcm", "Dunnington")]
        > 0.9 * averages[("native", "Dunnington")]
    )


def test_coloring_schedule_cost(benchmark):
    rows, averages = benchmark.pedantic(
        compute_coloring_preproc, rounds=1, iterations=1
    )
    text = render_table(
        ["suite", "avg CSR-SpMV units"],
        [[tag, avg] for tag, avg in averages.items()],
        title="coloring preprocessing cost "
              "(distance-2 coloring + schedule build, measured)",
        floatfmt="{:.1f}",
    ) + "\n\n" + render_table(
        ["matrix", "suite", "CSR-SpMV units"],
        rows,
        floatfmt="{:.1f}",
    )
    write_result("coloring_preproc_cost", text)
    # A one-off cost in the tens-to-hundreds of SpM×V range: cheaper
    # than CSX's compile-everything pass by construction, and clearly
    # amortizable inside one CG solve of a few hundred iterations.
    for tag, avg in averages.items():
        assert 0 < avg < 5000, (tag, avg)
