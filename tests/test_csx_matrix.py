"""Unit tests for the (unsymmetric) CSX format."""

import numpy as np
import pytest

from repro.formats import COOMatrix, CSRMatrix, CSXMatrix
from repro.formats.csx import DetectionConfig


def test_spmv_matches_dense(sym_dense_medium, rng):
    coo = COOMatrix.from_dense(sym_dense_medium)
    csx = CSXMatrix(coo)
    x = rng.standard_normal(csx.n_cols)
    assert np.allclose(csx.spmv(x), sym_dense_medium @ x)


def test_spmv_unsymmetric_matrix(rng):
    dense = rng.random((40, 40))
    dense[dense < 0.85] = 0.0
    coo = COOMatrix.from_dense(dense)
    csx = CSXMatrix(coo)
    x = rng.standard_normal(40)
    assert np.allclose(csx.spmv(x), dense @ x)


def test_nnz_preserved(sym_coo_medium):
    csx = CSXMatrix(sym_coo_medium)
    assert csx.nnz == sym_coo_medium.nnz
    assert csx.stored_entries == sym_coo_medium.nnz


def test_compresses_structured_matrix(sym_coo_medium):
    """CSX ctl must beat CSR's colind+rowptr on run-rich matrices."""
    csr = CSRMatrix.from_coo(sym_coo_medium)
    csx = CSXMatrix(sym_coo_medium)
    csr_index_bytes = 4 * csr.nnz + 4 * (csr.n_rows + 1)
    assert csx.ctl_size_bytes() < csr_index_bytes
    assert csx.size_bytes() < csr.size_bytes()


def test_partitioned_build_and_spmv(sym_dense_medium, rng):
    coo = COOMatrix.from_dense(sym_dense_medium)
    parts = [(0, 80), (80, 160), (160, 300)]
    csx = CSXMatrix(coo, partitions=parts)
    assert len(csx.partitions) == 3
    x = rng.standard_normal(coo.n_cols)
    assert np.allclose(csx.spmv(x), sym_dense_medium @ x)
    # Per-partition kernels write disjoint row ranges.
    y = np.zeros(coo.n_rows)
    for i in range(3):
        csx.spmv_partition_only(x, y, i)
    assert np.allclose(y, sym_dense_medium @ x)


def test_bad_partitions_rejected(sym_coo_small):
    n = sym_coo_small.n_rows
    with pytest.raises(ValueError):
        CSXMatrix(sym_coo_small, partitions=[(0, n - 1)])
    with pytest.raises(ValueError):
        CSXMatrix(sym_coo_small, partitions=[(0, 10), (20, n)])
    with pytest.raises(ValueError):
        CSXMatrix(sym_coo_small, partitions=[(0, 40), (30, n)])


def test_to_coo_roundtrip(sym_coo_medium):
    csx = CSXMatrix(sym_coo_medium)
    assert np.array_equal(
        csx.to_coo().to_dense(), sym_coo_medium.to_dense()
    )


def test_detection_reports_exposed(sym_coo_medium):
    csx = CSXMatrix(sym_coo_medium, partitions=[(0, 150), (150, 300)])
    reports = csx.detection_reports()
    assert len(reports) == 2
    assert sum(r.total_elements for r in reports) == csx.nnz


def test_substructure_coverage_range(sym_coo_medium):
    csx = CSXMatrix(sym_coo_medium)
    assert 0.0 < csx.substructure_coverage() <= 1.0


def test_deltas_only_config(sym_coo_medium, rng):
    config = DetectionConfig(
        enable_horizontal=False,
        enable_vertical=False,
        enable_diagonal=False,
        enable_anti_diagonal=False,
        enable_blocks=False,
    )
    csx = CSXMatrix(sym_coo_medium, config=config)
    assert csx.substructure_coverage() == 0.0
    x = rng.standard_normal(csx.n_cols)
    expected = sym_coo_medium.to_dense() @ x
    assert np.allclose(csx.spmv(x), expected)


def test_empty_matrix():
    csx = CSXMatrix(COOMatrix.empty((8, 8)))
    assert csx.nnz == 0
    assert np.array_equal(csx.spmv(np.ones(8)), np.zeros(8))


def test_values_and_ctl_sizes_accounted(sym_coo_medium):
    csx = CSXMatrix(sym_coo_medium)
    assert csx.size_bytes() == 8 * csx.nnz + csx.ctl_size_bytes()
    assert csx.ctl_size_bytes() > 0


def test_build_creates_no_unit_objects(monkeypatch):
    """The CSX and CSX-Sym builds run on UnitArrays end to end; a Unit
    is only made by the Unit-list adapters."""
    from repro.formats.csx import CSXSymMatrix
    from repro.formats.csx.substructures import Unit
    from repro.matrices.suite import get_entry

    made = []
    original = Unit.__post_init__

    def counting(self):
        made.append(self)
        original(self)

    monkeypatch.setattr(Unit, "__post_init__", counting)
    coo = get_entry("bmwcra_1").build(0.01)
    parts = [(0, 746), (746, coo.n_rows)]
    sym = CSXSymMatrix(coo, parts)
    csx = CSXMatrix(coo, parts)
    assert made == []
    # The builds exercised substructures, delta units and legalization.
    assert sym.rejected_units > 0
    assert 0 < csx.substructure_coverage() < 1
    # The adapters still make Units, so the counter is live.
    assert len(sym.partitions[0].units) == len(made) > 0
