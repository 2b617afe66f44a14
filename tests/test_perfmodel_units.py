"""The model's CSX work counts come from the partition unit arrays.

``repro.machine.perfmodel`` reads element counts and the x-access
column stream off each partition's struct-of-arrays units. The oracle
here walks the decoded :class:`Unit` objects one by one, the way the
model used to; streams, counts and whole predictions must agree
exactly on the suite.
"""

import numpy as np
import pytest

from repro.analysis import build_format
from repro.formats.csx.substructures import PatternType
from repro.machine import GAINESTOWN, predict_spmv
from repro.machine import perfmodel
from repro.matrices.suite import SUITE

SCALE = 0.01


def unit_columns(u) -> np.ndarray:
    """One unit's element columns in execution order."""
    t = u.pattern.type
    k = np.arange(u.length, dtype=np.int64)
    if t is PatternType.DELTA:
        return np.asarray(u.cols, dtype=np.int64)
    if t is PatternType.BLOCK:
        r, c = u.pattern.params
        return u.col + np.tile(np.arange(c, dtype=np.int64), r)
    (d,) = u.pattern.params
    step = {
        PatternType.HORIZONTAL: d,
        PatternType.VERTICAL: 0,
        PatternType.DIAGONAL: d,
        PatternType.ANTI_DIAGONAL: -d,
    }[t]
    return u.col + step * k


def per_unit_counts(p) -> tuple[int, int, int]:
    units = p.units
    sub = sum(u.length for u in units if not u.pattern.is_delta)
    delta = sum(u.length for u in units if u.pattern.is_delta)
    return sub, delta, len(units)


def per_unit_stream(p) -> np.ndarray:
    units = p.units
    if not units:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([unit_columns(u) for u in units])


@pytest.fixture(scope="module", params=[e.name for e in SUITE])
def suite_coo(request):
    entry = next(e for e in SUITE if e.name == request.param)
    return entry.build(scale=SCALE)


@pytest.mark.parametrize("fmt", ["csx-sym", "csx"])
def test_model_reads_unit_arrays(suite_coo, fmt, monkeypatch):
    matrix, parts = build_format(suite_coo, fmt, 2)
    for p in matrix.partitions:
        assert np.array_equal(
            perfmodel._units_column_stream(p.unit_arrays), per_unit_stream(p)
        )
        assert perfmodel._csx_unit_counts(p) == per_unit_counts(p)
    fast = predict_spmv(matrix, parts, GAINESTOWN)
    monkeypatch.setattr(
        perfmodel, "_units_column_stream",
        lambda units: next(
            per_unit_stream(p) for p in matrix.partitions
            if p.unit_arrays is units
        ),
    )
    monkeypatch.setattr(perfmodel, "_csx_unit_counts", per_unit_counts)
    assert predict_spmv(matrix, parts, GAINESTOWN) == fast
    if fmt == "csx-sym":
        sub = sum(per_unit_counts(p)[0] for p in matrix.partitions)
        assert matrix.substructure_coverage() == sub / matrix.nnz_lower
    assert sum(p.n_elements for p in matrix.partitions) == sum(
        sum(per_unit_counts(p)[:2]) for p in matrix.partitions
    )
