"""Unit + property tests for the LEB128 varint codec."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.formats.csx.varint import (
    decode_varint,
    encode_varint,
    encode_varints,
    put_varints,
    varint_size,
    varint_sizes,
)


def test_single_byte_values():
    for v in (0, 1, 127):
        buf = bytearray()
        encode_varint(v, buf)
        assert len(buf) == 1
        assert decode_varint(bytes(buf), 0) == (v, 1)


def test_multi_byte_boundaries():
    for v, size in [(128, 2), (16383, 2), (16384, 3), (2**21 - 1, 3)]:
        buf = bytearray()
        encode_varint(v, buf)
        assert len(buf) == size == varint_size(v)


def test_negative_rejected():
    with pytest.raises(ValueError):
        encode_varint(-1, bytearray())
    with pytest.raises(ValueError):
        varint_size(-5)


def test_truncated_decode_raises():
    buf = bytearray()
    encode_varint(300, buf)
    with pytest.raises(ValueError):
        decode_varint(bytes(buf[:1]), 0)
    with pytest.raises(ValueError):
        decode_varint(b"", 0)


def test_overlong_decode_raises():
    with pytest.raises(ValueError):
        decode_varint(b"\x80" * 10 + b"\x01", 0)


def test_encode_varints_sequence():
    buf = encode_varints([0, 127, 128, 99999])
    pos = 0
    out = []
    while pos < len(buf):
        v, pos = decode_varint(buf, pos)
        out.append(v)
    assert out == [0, 127, 128, 99999]


def test_varint_sizes_vectorized():
    values = np.array([0, 127, 128, 16383, 16384, 2**28])
    expected = [varint_size(int(v)) for v in values]
    assert np.array_equal(varint_sizes(values), expected)


def test_varint_sizes_rejects_negative():
    with pytest.raises(ValueError):
        varint_sizes(np.array([1, -2]))


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_roundtrip_property(value):
    buf = bytearray()
    encode_varint(value, buf)
    decoded, pos = decode_varint(bytes(buf), 0)
    assert decoded == value
    assert pos == len(buf) == varint_size(value)


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=50))
def test_sequence_roundtrip_property(values):
    buf = encode_varints(values)
    pos = 0
    out = []
    while pos < len(buf):
        v, pos = decode_varint(buf, pos)
        out.append(v)
    assert out == values


@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=50))
def test_put_varints_matches_encode_varints(values):
    """The vectorized writer lays out the same bytes as the scalar one."""
    v = np.array(values, dtype=np.int64)
    sizes = varint_sizes(v)
    out = np.zeros(int(sizes.sum()), dtype=np.uint8)
    put_varints(out, np.cumsum(sizes) - sizes, v, sizes)
    assert out.tobytes() == encode_varints(values)
