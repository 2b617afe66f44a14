"""Failure-injection tests: corrupted inputs must fail loudly.

The ctl codec, the format constructors and the parallel kernels sit on
trust boundaries (serialized bytes, user-supplied partitions); these
tests verify corruption is *detected*, never silently mis-executed.
"""

import numpy as np
import pytest

from repro.formats import COOMatrix, CSXMatrix, SSSMatrix
from repro.formats.csx.ctl import (
    build_pattern_table,
    decode_ctl,
    decode_pattern_table,
    encode_ctl,
    encode_pattern_table,
)
from repro.formats.csx.detect import detect_units
from repro.formats.csx.substructures import UnitArrays
from repro.parallel import ParallelSymmetricSpMV


@pytest.fixture(scope="module")
def encoded(sym_dense_small):
    rows, cols = np.nonzero(sym_dense_small)
    units, _ = detect_units(
        rows.astype(np.int64),
        cols.astype(np.int64),
        sym_dense_small[rows, cols],
        sym_dense_small.shape[1],
    )
    table = build_pattern_table(units)
    ctl = encode_ctl(units, table)
    return units, table, ctl


def test_truncated_ctl_all_prefixes(encoded):
    """Every proper prefix of a ctl stream decodes to fewer units or
    raises — never to the same count with different content."""
    units, table, ctl = encoded
    inv = {i: p for p, i in table.items()}
    full = decode_ctl(ctl, inv)
    for cut in range(1, min(len(ctl), 40)):
        try:
            partial = decode_ctl(ctl[:-cut], inv)
        except ValueError:
            continue
        assert partial.n_units < full.n_units


def test_bitflip_in_ctl_detected_or_changes_decode(encoded):
    """Single-byte corruption either raises or yields different units
    (the decoder must not mask corruption)."""
    units, table, ctl = encoded
    inv = {i: p for p, i in table.items()}

    def snapshot(decoded):
        return (
            [decoded.patterns[c] for c in decoded.code.tolist()],
            decoded.row.tolist(), decoded.col.tolist(),
            decoded.length.tolist(), decoded.delta_cols.tolist(),
        )

    reference = snapshot(decode_ctl(ctl, inv))
    rng = np.random.default_rng(0)
    detected = 0
    for _ in range(25):
        pos = int(rng.integers(0, len(ctl)))
        flip = bytearray(ctl)
        flip[pos] ^= 1 << int(rng.integers(0, 8))
        try:
            got = snapshot(decode_ctl(bytes(flip), inv))
        except ValueError:
            detected += 1
            continue
        if got != reference:
            detected += 1
    assert detected >= 23  # corruption overwhelmingly visible


def test_pattern_table_corruption():
    table = build_pattern_table(UnitArrays.empty())
    buf = encode_pattern_table(table)
    # Claim one more entry than present.
    bad = bytes([buf[0] + 1]) + buf[1:]
    with pytest.raises(ValueError):
        decode_pattern_table(bad)


def test_partitions_not_covering_rejected(sym_coo_medium):
    sss = SSSMatrix.from_coo(sym_coo_medium)
    with pytest.raises(ValueError):
        ParallelSymmetricSpMV(sss, [(0, 100), (100, 250)], "indexed")


def test_overlapping_partitions_rejected(sym_coo_medium):
    sss = SSSMatrix.from_coo(sym_coo_medium)
    with pytest.raises(ValueError):
        ParallelSymmetricSpMV(
            sss, [(0, 200), (150, 300)], "indexed"
        )


def test_nan_values_propagate_not_crash(sym_dense_small, rng):
    """NaN inputs flow through (IEEE semantics), never crash or hang."""
    dense = sym_dense_small.copy()
    coo = COOMatrix.from_dense(dense)
    sss = SSSMatrix.from_coo(coo)
    x = rng.standard_normal(coo.n_cols)
    x[3] = np.nan
    y = sss.spmv(x)
    assert np.isnan(y).any()
    assert y.shape == (coo.n_rows,)


def test_csx_rejects_nonfinite_free_matrix_ok(sym_dense_small, rng):
    """CSX encodes matrices with extreme magnitudes exactly (values are
    copied verbatim, never re-derived from the codec)."""
    dense = sym_dense_small.copy()
    dense[dense != 0] *= 1e300
    coo = COOMatrix.from_dense(dense)
    csx = CSXMatrix(coo)
    back = csx.to_coo().to_dense()
    assert np.array_equal(back, dense)


def test_mismatched_output_vector_rejected(sym_coo_medium, rng):
    sss = SSSMatrix.from_coo(sym_coo_medium)
    x = rng.standard_normal(sss.n_cols)
    with pytest.raises(ValueError):
        sss.spmv(x, np.zeros(sss.n_rows + 1))
    with pytest.raises(TypeError):
        sss.spmv(x, np.zeros(sss.n_rows, dtype=np.float32))
