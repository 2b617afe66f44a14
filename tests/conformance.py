"""Cross-format conformance kit (not itself a test module).

``test_conformance.py`` drives this. The kit owns three things:

* a seeded battery of edge-case symmetric matrices — dense-ish random,
  empty rows/columns, all-zero diagonal, banded with runs, 1×1 and
  all-zero — built once and reused across the parametrized suite;
* builders for every storage format from a shared COO matrix;
* partition layouts per case, including single-row partitions and
  layouts with more partitions than rows carrying non-zeros.

Every (format × reduction × {SpM×V, SpM×M}) combination is checked
against the dense product (and scipy, where available) on the same
battery, so a regression in any kernel or reduction fails loudly with
the exact case name in the test id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.formats import (
    BCSRMatrix,
    COOMatrix,
    CSBMatrix,
    CSBSymMatrix,
    CSRMatrix,
    CSXMatrix,
    CSXSymMatrix,
    SSSMatrix,
)

__all__ = [
    "ConformanceCase",
    "CASES",
    "EXECUTOR_BACKENDS",
    "SERIAL_FORMATS",
    "SYMMETRIC_FORMATS",
    "UNSYMMETRIC_DRIVER_FORMATS",
    "REDUCTIONS",
    "COLORING_FORMATS",
    "PARTITION_LAYOUTS",
    "reduction_supported",
    "skip_unless_supported",
    "build_format",
    "build_symmetric",
    "build_unsymmetric",
    "chaos_benign_executor",
    "make_backend_executor",
    "partitions_for",
    "rhs_block",
]

#: Block size shared by the CSB builders (small so tiny cases still
#: produce several blocks).
CSB_BETA = 4

REDUCTIONS = ("naive", "effective", "indexed", "coloring")
PARTITION_LAYOUTS = ("single", "thirds", "per_row", "with_empty")

#: Symmetric formats whose stored lower triangle is recoverable as a
#: CSR triple (``lower_triple()``), which the conflict-free coloring
#: schedule is built from. CSB-Sym keeps its entries block-local and
#: has no symmetric coloring kernel — those combinations skip.
COLORING_FORMATS = ("sss", "csx-sym")


def reduction_supported(fmt: str, method: str) -> bool:
    """Whether ``method`` runs on symmetric format ``fmt`` — only the
    ``coloring`` strategy is format-restricted."""
    return method != "coloring" or fmt in COLORING_FORMATS


def skip_unless_supported(fmt: str, method: str) -> None:
    """Graceful pytest skip for (format × reduction) holes."""
    import pytest

    if not reduction_supported(fmt, method):
        pytest.skip(f"{fmt} has no symmetric coloring kernel")


@dataclass(frozen=True)
class ConformanceCase:
    """One battery entry: a symmetric dense reference matrix."""

    name: str
    dense: np.ndarray = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.dense.shape[0]

    @property
    def coo(self) -> COOMatrix:
        return _case_coo(self.name)


def _random_symmetric(
    n: int,
    density: float,
    seed: int,
    *,
    band: int | None = None,
    with_runs: bool = False,
    zero_diagonal: bool = False,
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    mask = np.triu(rng.random((n, n)) < density, k=1)
    if band is not None:
        rows, cols = np.indices((n, n))
        mask &= np.abs(rows - cols) <= band
    dense[mask] = rng.uniform(-1.0, 1.0, int(mask.sum()))
    if with_runs:
        for off in (1, 2):
            idx = np.arange(n - off)
            dense[idx, idx + off] = rng.uniform(0.1, 1.0, n - off)
    dense = np.triu(dense)
    dense = dense + dense.T
    if not zero_diagonal:
        np.fill_diagonal(dense, rng.uniform(0.5, 2.0, n))
    return dense


def _battery() -> list[ConformanceCase]:
    cases = [
        ConformanceCase(
            "random", _random_symmetric(30, 0.15, seed=11, with_runs=True)
        ),
        ConformanceCase(
            "banded", _random_symmetric(26, 0.5, seed=12, band=3)
        ),
    ]

    # Several completely empty rows/columns (no diagonal either): the
    # partitioners and reductions must survive rows with zero work.
    dense = _random_symmetric(24, 0.2, seed=13)
    for i in (0, 3, 10, 11, 12, 23):
        dense[i, :] = 0.0
        dense[:, i] = 0.0
    cases.append(ConformanceCase("empty_rows", dense))

    # All-zero diagonal: SSS stores an explicit dense diagonal, so the
    # structurally-missing-diagonal path must still round-trip.
    cases.append(
        ConformanceCase(
            "zero_diagonal",
            _random_symmetric(20, 0.25, seed=14, zero_diagonal=True),
        )
    )

    cases.append(ConformanceCase("one_by_one", np.array([[2.5]])))
    cases.append(ConformanceCase("all_zero", np.zeros((5, 5))))
    return cases


CASES: dict[str, ConformanceCase] = {c.name: c for c in _battery()}

SERIAL_FORMATS = (
    "coo",
    "csr",
    "sss",
    "bcsr",
    "csb",
    "csb-sym",
    "csx",
    "csx-sym",
)
SYMMETRIC_FORMATS = ("sss", "csx-sym", "csb-sym")
UNSYMMETRIC_DRIVER_FORMATS = ("csr", "csx")


@lru_cache(maxsize=None)
def _case_coo(case_name: str) -> COOMatrix:
    return COOMatrix.from_dense(CASES[case_name].dense)


@lru_cache(maxsize=None)
def build_format(case_name: str, fmt: str):
    """Serial-kernel format instance for a battery case."""
    coo = _case_coo(case_name)
    builders = {
        "coo": lambda: coo,
        "csr": lambda: CSRMatrix.from_coo(coo),
        "sss": lambda: SSSMatrix.from_coo(coo),
        "bcsr": lambda: BCSRMatrix(coo, (2, 2)),
        "csb": lambda: CSBMatrix(coo, beta=CSB_BETA),
        "csb-sym": lambda: CSBSymMatrix(coo, beta=CSB_BETA),
        "csx": lambda: CSXMatrix(coo),
        "csx-sym": lambda: CSXSymMatrix(coo),
    }
    return builders[fmt]()


def partitions_for(case_name: str, layout: str) -> list[tuple[int, int]]:
    """Row-partition layout for the parallel drivers.

    ``per_row`` gives one row per partition — for cases with empty rows
    that is strictly more partitions than rows carrying non-zeros.
    ``with_empty`` brackets the row range with zero-width partitions.
    """
    n = CASES[case_name].n
    if layout == "single":
        return [(0, n)]
    if layout == "thirds":
        p = min(3, n)
        bounds = np.linspace(0, n, p + 1).astype(int)
        return [(int(bounds[i]), int(bounds[i + 1])) for i in range(p)]
    if layout == "per_row":
        return [(i, i + 1) for i in range(n)]
    if layout == "with_empty":
        mid = n // 2
        return [(0, 0), (0, mid), (mid, mid), (mid, n), (n, n)]
    raise ValueError(f"unknown layout {layout!r}")


def _aligned_partitions(
    matrix: CSBSymMatrix, layout: str
) -> list[tuple[int, int]]:
    """CSB-Sym requires beta-aligned boundaries; map each layout to its
    closest aligned equivalent (per_row becomes per-block-row)."""
    n = matrix.n_rows
    n_brows = -(-n // matrix.beta)
    if layout == "single":
        return [(0, n)]
    if layout == "thirds":
        return matrix.block_row_partitions(min(3, n_brows))
    if layout == "per_row":
        return matrix.block_row_partitions(n_brows)
    if layout == "with_empty":
        return (
            [(0, 0)]
            + matrix.block_row_partitions(min(2, n_brows))
            + [(n, n)]
        )
    raise ValueError(f"unknown layout {layout!r}")


@lru_cache(maxsize=None)
def build_symmetric(case_name: str, fmt: str, layout: str):
    """(matrix, partitions) for :class:`ParallelSymmetricSpMV`.

    CSX-Sym is preprocessed for exactly the partitions the driver will
    use; CSB-Sym swaps in the beta-aligned equivalent of the layout.
    """
    coo = _case_coo(case_name)
    parts = partitions_for(case_name, layout)
    if fmt == "sss":
        return SSSMatrix.from_coo(coo), parts
    if fmt == "csx-sym":
        return CSXSymMatrix(coo, partitions=parts), parts
    if fmt == "csb-sym":
        m = CSBSymMatrix(coo, beta=CSB_BETA)
        return m, _aligned_partitions(m, layout)
    raise ValueError(f"unknown symmetric format {fmt!r}")


@lru_cache(maxsize=None)
def build_unsymmetric(case_name: str, fmt: str, layout: str):
    """(matrix, partitions) for :class:`ParallelSpMV`."""
    coo = _case_coo(case_name)
    parts = partitions_for(case_name, layout)
    if fmt == "csr":
        return CSRMatrix.from_coo(coo), parts
    if fmt == "csx":
        return CSXMatrix(coo, partitions=parts), parts
    raise ValueError(f"unknown driver format {fmt!r}")


def chaos_benign_executor(seed: int = 0):
    """``threads`` executor whose fault plan only perturbs scheduling.

    Delays and reordered completions, no raised faults: tasks still
    write their disjoint regions and the reduction runs on the caller
    thread, so every driver must stay *bit-identical* to its serial
    execution under this executor.
    """
    from repro.parallel import Executor
    from repro.resilience import ChaosPlan

    return Executor(
        "threads",
        plan=ChaosPlan(
            seed=seed, p_raise=0.0, p_delay=0.6, max_delay_ms=0.2,
            reorder=True,
        ),
    )


#: Plain executor backends the cross-backend conformance suite sweeps;
#: every one must be *bit-identical* to serial on the whole battery.
EXECUTOR_BACKENDS = ("serial", "threads")


def make_backend_executor(backend: str, max_workers: int = 2):
    """Executor for one conformance backend."""
    from repro.parallel import Executor

    if backend == "serial":
        return Executor("serial")
    return Executor(backend, max_workers=max_workers)


def rhs_block(n: int, k: int | None, seed: int = 99) -> np.ndarray:
    """Seeded right-hand side: a vector when ``k`` is None, else an
    ``(n, k)`` block."""
    rng = np.random.default_rng(seed)
    shape = (n,) if k is None else (n, k)
    return rng.standard_normal(shape)


def reference_product(case_name: str, x: np.ndarray) -> np.ndarray:
    """Dense ground truth, cross-checked against scipy when present."""
    dense = CASES[case_name].dense
    expected = dense @ x
    try:
        import scipy.sparse as sp
    except ImportError:  # pragma: no cover - scipy is in the image
        return expected
    sp_ref = sp.csr_matrix(dense) @ x
    assert np.allclose(sp_ref, expected)
    return expected
