"""Unit + property tests for the CSX ctl byte-stream codec (Fig. 7).

The codec works on :class:`UnitArrays`; most cases write their units as
:class:`Unit` objects for readability and pack them with
``UnitArrays.from_units``. The validation cases build malformed
``UnitArrays`` directly, since ``Unit``'s constructor would reject them
before they reach the encoder.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.csx.ctl import (
    build_pattern_table,
    decode_ctl,
    decode_pattern_table,
    encode_ctl,
    encode_pattern_table,
)
from repro.formats.csx.varint import encode_varint
from repro.formats.csx.substructures import (
    DELTA8,
    DELTA16,
    FIXED_PATTERN_IDS,
    PatternKey,
    PatternType,
    Unit,
    UnitArrays,
    delta_pattern_for,
)

HORIZONTAL1 = PatternKey(PatternType.HORIZONTAL, (1,))
HORIZONTAL2 = PatternKey(PatternType.HORIZONTAL, (2,))


def _invert(table):
    return {i: p for p, i in table.items()}


def roundtrip(units):
    """Encode a Unit list, decode it back; (table, ctl, decoded Units)."""
    packed = UnitArrays.from_units(units)
    table = build_pattern_table(packed)
    ctl = encode_ctl(packed, table)
    return table, ctl, decode_ctl(ctl, _invert(table)).to_units()


def encode_arrays(units):
    return encode_ctl(units, build_pattern_table(units))


def encode_units(units):
    return encode_arrays(UnitArrays.from_units(units))


def make_horizontal(row, col, length, stride=1):
    return Unit(PatternKey(PatternType.HORIZONTAL, (stride,)), row, col, length)


def make_delta(row, cols):
    cols = np.asarray(cols, dtype=np.int64)
    gaps_max = int(np.diff(cols).max()) if cols.size > 1 else 0
    return Unit(
        delta_pattern_for(gaps_max), row, int(cols[0]), len(cols), cols=cols
    )


def test_fixed_ids_for_delta_patterns():
    table = build_pattern_table(UnitArrays.empty())
    assert table[DELTA8] == 0
    assert table[DELTA16] == 1


def test_dynamic_ids_in_appearance_order():
    units = [
        make_horizontal(0, 0, 4, stride=2),
        make_horizontal(1, 0, 4, stride=1),
        make_horizontal(2, 0, 4, stride=2),
    ]
    table = build_pattern_table(UnitArrays.from_units(units))
    assert table[PatternKey(PatternType.HORIZONTAL, (2,))] == 3
    assert table[PatternKey(PatternType.HORIZONTAL, (1,))] == 4


def test_pattern_table_roundtrip():
    units = [
        make_horizontal(0, 0, 4),
        Unit(PatternKey(PatternType.BLOCK, (2, 3)), 1, 0, 6),
        Unit(PatternKey(PatternType.DIAGONAL, (2,)), 3, 0, 4),
    ]
    table = build_pattern_table(UnitArrays.from_units(units))
    buf = encode_pattern_table(table)
    decoded, consumed = decode_pattern_table(buf)
    assert consumed == len(buf)
    assert decoded == _invert(table)


def test_empty_pattern_table_decode_rejected():
    with pytest.raises(ValueError):
        decode_pattern_table(b"")


def test_basic_roundtrip():
    units = [
        make_delta(0, [0, 5, 9]),
        make_horizontal(0, 20, 4),
        make_horizontal(2, 3, 5),
        make_delta(5, [100, 400]),
    ]
    _, _, decoded = roundtrip(units)
    assert len(decoded) == len(units)
    for u, d in zip(units, decoded):
        assert (u.pattern, u.row, u.col, u.length) == (
            d.pattern, d.row, d.col, d.length,
        )
        if u.pattern.is_delta:
            assert np.array_equal(u.cols, d.cols)


def test_row_jump_encoding():
    units = [make_horizontal(0, 0, 4), make_horizontal(100, 0, 4)]
    _, _, decoded = roundtrip(units)
    assert decoded[1].row == 100


def test_first_unit_not_at_row_zero():
    units = [make_horizontal(7, 3, 4)]
    _, _, decoded = roundtrip(units)
    assert decoded[0].row == 7 and decoded[0].col == 3


def test_units_must_be_row_sorted():
    units = [make_horizontal(5, 0, 4), make_horizontal(2, 0, 4)]
    with pytest.raises(ValueError, match="sorted by row"):
        encode_units(units)


def test_units_must_be_col_sorted_within_row():
    units = [make_horizontal(5, 10, 4), make_horizontal(5, 0, 4)]
    with pytest.raises(ValueError, match="anchor column"):
        encode_units(units)


def test_wide_delta_body():
    cols = np.array([0, 70000, 140000])
    units = [make_delta(0, cols)]
    assert units[0].pattern.params[0] == 4  # needs 32-bit gaps
    _, _, decoded = roundtrip(units)
    assert np.array_equal(decoded[0].cols, cols)


def test_gap_overflow_rejected():
    # Force an 8-bit delta unit whose gaps exceed one byte.
    cols = np.array([0, 300])
    bad = Unit(DELTA8, 0, 0, 2, cols=cols)
    with pytest.raises(ValueError, match="overflows delta8"):
        encode_units([bad])


def test_truncated_ctl_raises():
    units = [make_delta(0, [0, 5, 9])]
    table, ctl, _ = roundtrip(units)
    with pytest.raises(ValueError):
        decode_ctl(ctl[:-1], _invert(table))


def test_unknown_pattern_id_raises():
    units = [make_horizontal(0, 0, 4)]
    _, ctl, _ = roundtrip(units)
    with pytest.raises(ValueError):
        decode_ctl(ctl, {0: DELTA8})  # table missing the dynamic id


# ----------------------------------------------------------------------
# Property: encode→decode is the identity on sorted unit streams.
# ----------------------------------------------------------------------
@st.composite
def unit_streams(draw):
    n_units = draw(st.integers(1, 20))
    units = []
    row = 0
    for _ in range(n_units):
        row += draw(st.integers(0, 5))
        first_in_row = not units or units[-1].row != row
        base_col = 0 if first_in_row else units[-1].col
        col = base_col + draw(st.integers(0 if first_in_row else 1, 1000))
        kind = draw(st.sampled_from(["delta", "horizontal", "block"]))
        if kind == "delta":
            length = draw(st.integers(1, 6))
            gaps = draw(
                st.lists(
                    st.integers(1, 5000), min_size=length - 1,
                    max_size=length - 1,
                )
            )
            cols = np.concatenate(([col], col + np.cumsum(gaps))).astype(
                np.int64
            ) if gaps else np.array([col], dtype=np.int64)
            units.append(make_delta(row, cols))
        elif kind == "horizontal":
            stride = draw(st.integers(1, 4))
            units.append(make_horizontal(row, col, draw(st.integers(2, 8)), stride))
        else:
            r, c = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
            units.append(
                Unit(PatternKey(PatternType.BLOCK, (r, c)), row, col, r * c)
            )
    return units


@given(unit_streams())
@settings(max_examples=60, deadline=None)
def test_ctl_roundtrip_property(units):
    _, _, decoded = roundtrip(units)
    assert len(decoded) == len(units)
    for u, d in zip(units, decoded):
        assert (u.pattern, u.row, u.col, u.length) == (
            d.pattern, d.row, d.col, d.length,
        )
        if u.pattern.is_delta:
            assert np.array_equal(u.cols, d.cols)


def reference_encode(units, table):
    """Unit-at-a-time ctl encoder: the Fig. 7 layout spelled out."""
    out = bytearray()
    row = col = 0
    for u in units:
        flags = table[u.pattern]
        jump = u.row - row
        if jump:
            flags |= 0x80 | (0x40 if jump > 1 else 0)
            col = 0
        out += bytes([flags, u.length])
        if jump > 1:
            encode_varint(jump, out)
        encode_varint(u.col - col, out)
        if u.pattern.is_delta:
            width = u.pattern.params[0]
            out += np.diff(u.cols).astype(f"<u{width}").tobytes()
        row, col = u.row, u.col
    return bytes(out)


@given(unit_streams())
@settings(max_examples=60, deadline=None)
def test_encoder_matches_unit_at_a_time_reference(units):
    packed = UnitArrays.from_units(units)
    table = build_pattern_table(packed)
    expected = dict(FIXED_PATTERN_IDS)
    for u in units:
        expected.setdefault(u.pattern, len(expected))
    assert table == expected
    assert encode_ctl(packed, table) == reference_encode(units, table)


# ----------------------------------------------------------------------
# Validation: malformed UnitArrays handed straight to the encoder.
# ----------------------------------------------------------------------
BLOCK23 = PatternKey(PatternType.BLOCK, (2, 3))


def arrays(patterns, code, row, col, length, delta_cols=()):
    return UnitArrays(
        tuple(patterns), code, row, col, length,
        np.asarray(delta_cols, dtype=np.int64),
    )


@pytest.mark.parametrize("length", [0, 256])
def test_encode_rejects_length_outside_size_byte(length):
    with pytest.raises(ValueError, match="length"):
        encode_arrays(arrays([HORIZONTAL1], [0], [0], [0], [length]))


def test_encode_rejects_block_length_not_r_times_c():
    with pytest.raises(ValueError, match="r\\*c"):
        encode_arrays(arrays([BLOCK23], [0], [0], [0], [5]))


def test_encode_rejects_non_increasing_delta_columns():
    with pytest.raises(ValueError, match="strictly increasing"):
        encode_arrays(arrays([DELTA8], [0], [0], [2], [2], [2, 2]))
    with pytest.raises(ValueError, match="strictly increasing"):
        encode_arrays(arrays([DELTA8], [0], [0], [2], [3], [2, 5, 4]))


def test_encode_rejects_first_delta_column_off_anchor():
    with pytest.raises(ValueError, match="first delta column"):
        encode_arrays(arrays([DELTA8], [0], [0], [0], [2], [1, 2]))


def test_encode_rejects_delta_columns_length_mismatch():
    with pytest.raises(ValueError, match="delta unit lengths"):
        encode_arrays(arrays([DELTA8], [0], [0], [0], [3], [0, 1]))


def test_encode_rejects_rows_out_of_order():
    with pytest.raises(ValueError, match="sorted by row"):
        encode_arrays(
            arrays([HORIZONTAL1], [0, 0], [5, 2], [0, 0], [4, 4])
        )
    with pytest.raises(ValueError, match="sorted by row"):
        encode_arrays(arrays([HORIZONTAL1], [0], [-1], [0], [4]))


def test_encode_rejects_anchor_columns_out_of_order_within_row():
    with pytest.raises(ValueError, match="anchor column"):
        encode_arrays(
            arrays([HORIZONTAL1], [0, 0], [5, 5], [10, 0], [4, 4])
        )


@pytest.mark.parametrize(
    "pattern, gap",
    [(DELTA8, 1 << 8), (DELTA16, 1 << 16),
     (PatternKey(PatternType.DELTA, (4,)), 1 << 32)],
)
def test_encode_rejects_gap_overflowing_width(pattern, gap):
    bits = 8 * pattern.params[0]
    # A second unit first, so the overflow is not in unit 0.
    units = arrays(
        [pattern], [0, 0], [0, 1], [0, 7], [2, 2], [0, 1, 7, 7 + gap]
    )
    with pytest.raises(ValueError, match=f"overflows delta{bits}"):
        encode_arrays(units)
    fits = arrays(
        [pattern], [0, 0], [0, 1], [0, 7], [2, 2], [0, 1, 7, 6 + gap]
    )
    table = build_pattern_table(fits)
    decoded = decode_ctl(encode_ctl(fits, table), _invert(table))
    assert np.array_equal(decoded.delta_cols, fits.delta_cols)


def test_encode_rejects_pattern_missing_from_table():
    units = arrays([HORIZONTAL1], [0], [0], [0], [4])
    with pytest.raises(ValueError, match="pattern table"):
        encode_ctl(units, build_pattern_table(UnitArrays.empty()))


def test_unused_patterns_get_no_id():
    """``patterns`` may list patterns no unit uses (legalization drops
    units, not patterns); ids follow first appearance over the units."""
    used_only = arrays([HORIZONTAL2], [0, 0], [0, 3], [0, 0], [4, 4])
    with_unused = arrays(
        [HORIZONTAL1, HORIZONTAL2], [1, 1], [0, 3], [0, 0], [4, 4]
    )
    table = build_pattern_table(with_unused)
    assert table == build_pattern_table(used_only)
    assert table[HORIZONTAL2] == 3 and HORIZONTAL1 not in table
    assert encode_ctl(with_unused, table) == encode_arrays(used_only)


# ----------------------------------------------------------------------
# Decode faults: malformed streams raise ValueError.
# ----------------------------------------------------------------------
DECODE_TABLE = {0: DELTA8, 3: HORIZONTAL1, 4: BLOCK23}


@pytest.mark.parametrize(
    "buf, message",
    [
        (b"\x03", "truncated unit head"),
        (b"\x03\x04", "truncated varint"),
        (b"\x03\x04\x80", "truncated varint"),
        (b"\x03\x04" + b"\x80" * 10 + b"\x01", "varint too long"),
        (b"\x03\x04" + b"\xff" * 9 + b"\x01", "exceeds 63 bits"),
        (b"\x00\x03\x00\x05", "truncated delta body"),
        (b"\x03\x00\x00", "zero length"),
        (b"\x05\x04\x00", "unknown pattern id 5"),
        (b"\xc3\x04\x01\x00", "jump >= 2"),
        (b"\x43\x04\x00", "rjmp set without nr"),
        (b"\x04\x05\x00", "r\\*c"),
        (b"\x00\x02\x00\x00", "strictly increasing"),
    ],
)
def test_decode_faults_raise_value_error(buf, message):
    with pytest.raises(ValueError, match=message):
        decode_ctl(buf, DECODE_TABLE)


def test_decode_rebuilds_rows_and_columns():
    # Row 0: horizontal at 3, delta8 at 9 (+4 +250); row 2 (rjmp):
    # horizontal at 1; row 3: block at 0.
    buf = bytes(
        [0x03, 4, 3, 0x00, 3, 6, 4, 250, 0xC3, 4, 2, 1, 0x84, 6, 0]
    )
    units = decode_ctl(buf, DECODE_TABLE)
    assert units.row.tolist() == [0, 0, 2, 3]
    assert units.col.tolist() == [3, 9, 1, 0]
    assert units.length.tolist() == [4, 3, 4, 6]
    assert units.delta_cols.tolist() == [9, 13, 263]
    assert units.values is None
    assert encode_ctl(units, {p: i for i, p in DECODE_TABLE.items()}) == buf


def test_empty_stream_roundtrip():
    table = build_pattern_table(UnitArrays.empty())
    assert encode_ctl(UnitArrays.empty(), table) == b""
    assert decode_ctl(b"", _invert(table)).n_units == 0
