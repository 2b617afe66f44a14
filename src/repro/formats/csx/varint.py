"""Variable-size integer codec used by the CSX ``ctl`` byte stream.

CSX stores row jumps and column deltas as variable-size integers so that
the common small values cost a single byte. We use the standard LEB128
(7 bits per byte, high bit = continuation) encoding, the same family of
codec the original implementation uses.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "encode_varint",
    "decode_varint",
    "encode_varints",
    "varint_size",
    "varint_sizes",
    "put_varints",
]


def encode_varint(value: int, out: bytearray) -> None:
    """Append the LEB128 encoding of a non-negative ``value`` to ``out``."""
    if value < 0:
        raise ValueError(f"varints must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(buf, pos: int) -> tuple[int, int]:
    """Decode one varint from ``buf`` starting at ``pos``.

    Returns ``(value, next_pos)``. Raises ``ValueError`` on truncation.
    """
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ValueError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def encode_varints(values: Iterable[int]) -> bytes:
    """Encode a sequence of varints into one byte string."""
    out = bytearray()
    for v in values:
        encode_varint(int(v), out)
    return bytes(out)


def varint_size(value: int) -> int:
    """Number of bytes ``encode_varint`` uses for ``value``."""
    if value < 0:
        raise ValueError(f"varints must be non-negative, got {value}")
    size = 1
    value >>= 7
    while value:
        size += 1
        value >>= 7
    return size


def varint_sizes(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`varint_size` for a non-negative int array."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("varints must be non-negative")
    sizes = np.ones(values.shape, dtype=np.int64)
    v = values >> 7
    while np.any(v):
        sizes += (v != 0).astype(np.int64)
        v >>= 7
    return sizes


def put_varints(
    out: np.ndarray, pos: np.ndarray, values: np.ndarray, sizes: np.ndarray
) -> None:
    """Write the varint of each ``values[i]`` into the uint8 array ``out``
    at ``pos[i]``, taking ``sizes[i]`` (its :func:`varint_sizes`) bytes."""
    for k in range(int(sizes.max()) if sizes.size else 0):
        m = sizes > k
        out[pos[m] + k] = ((values[m] >> (7 * k)) & 0x7F) | np.where(
            sizes[m] > k + 1, 0x80, 0
        )
