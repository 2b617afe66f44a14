"""The CSX ``ctl`` byte-array codec (paper Fig. 7).

CSX discards ``rowptr``/``colind`` and stores all location metadata in a
single byte stream of unit heads (+ bodies for delta units):

* **flags byte** — bit 7 ``nr`` (unit starts a new row), bit 6 ``rjmp``
  (the row jump is > 1 and follows as a varint), bits 0-5 the pattern id.
* **size byte** — number of elements in the unit (1..255).
* **rjmp varint** — present iff ``rjmp``: rows jumped (≥ 2).
* **column-delta varint** — the unit anchor's column as a delta from the
  previous unit's anchor column (reset to 0 on a new row).
* **body** — delta units only: ``size - 1`` column gaps, each stored in
  the unit's fixed byte width (8/16/32-bit little-endian).

Substructure pattern ids above the three fixed delta ids index a small
per-matrix *pattern table* mapping id → (pattern type, stride / block
shape); the table is part of the encoded representation and its bytes
are counted in the format size.

The codec reads and writes :class:`UnitArrays` directly: the encoder
validates and lays out every unit with whole-array numpy, the decoder
scans the unit heads once and rebuilds the arrays with numpy.
"""

from __future__ import annotations

import numpy as np

from .substructures import (
    FIRST_DYNAMIC_ID,
    FIXED_PATTERN_IDS,
    MAX_PATTERN_ID,
    MAX_UNIT_LEN,
    PatternKey,
    PatternType,
    UnitArrays,
)
from .varint import decode_varint, encode_varint, put_varints, varint_sizes

__all__ = [
    "build_pattern_table",
    "encode_ctl",
    "decode_ctl",
    "encode_pattern_table",
    "decode_pattern_table",
]

_NR_BIT = 0x80
_RJMP_BIT = 0x40
_ID_MASK = 0x3F


def build_pattern_table(units: UnitArrays) -> dict[PatternKey, int]:
    """Assign ``ctl`` pattern ids: fixed ids for the delta widths, then
    dynamic ids in first-appearance order over the *units* (not over
    ``units.patterns``, which may list patterns no unit uses)."""
    table = dict(FIXED_PATTERN_IDS)
    dynamic = np.array([p not in table for p in units.patterns], bool)
    used = units.code[dynamic[units.code]]
    codes, first = np.unique(used, return_index=True)
    if codes.size > MAX_PATTERN_ID - FIRST_DYNAMIC_ID + 1:
        raise ValueError(
            "pattern table overflow: more than "
            f"{MAX_PATTERN_ID - FIRST_DYNAMIC_ID + 1} substructure "
            "instantiations"
        )
    for i, c in enumerate(codes[np.argsort(first)].tolist()):
        table[units.patterns[c]] = FIRST_DYNAMIC_ID + i
    return table


def encode_pattern_table(table: dict[PatternKey, int]) -> bytes:
    """Serialize the dynamic part of the pattern table.

    Layout: count byte, then per entry ``id, type, p0 varint, p1 varint``
    (``p1`` only for blocks).
    """
    dynamic = sorted(
        ((i, p) for p, i in table.items() if i >= FIRST_DYNAMIC_ID)
    )
    out = bytearray([len(dynamic)])
    for pid, pattern in dynamic:
        out.append(pid)
        out.append(int(pattern.type))
        encode_varint(pattern.params[0], out)
        if pattern.type is PatternType.BLOCK:
            encode_varint(pattern.params[1], out)
    return bytes(out)


def decode_pattern_table(buf: bytes) -> tuple[dict[int, PatternKey], int]:
    """Inverse of :func:`encode_pattern_table`.

    Returns ``(id -> pattern, bytes consumed)`` including the fixed ids.
    """
    table: dict[int, PatternKey] = {
        i: p for p, i in FIXED_PATTERN_IDS.items()
    }
    if not buf:
        raise ValueError("empty pattern table buffer")
    count = buf[0]
    pos = 1
    for _ in range(count):
        if pos + 2 > len(buf):
            raise ValueError("truncated pattern table")
        pid = buf[pos]
        ptype = PatternType(buf[pos + 1])
        pos += 2
        p0, pos = decode_varint(buf, pos)
        if ptype is PatternType.BLOCK:
            p1, pos = decode_varint(buf, pos)
            params: tuple = (p0, p1)
        else:
            params = (p0,)
        table[pid] = PatternKey(ptype, params)
    return table, pos


def _pattern_arrays(patterns) -> tuple[np.ndarray, np.ndarray]:
    """Per pattern: its delta-body byte width (0 for substructures) and
    its block size ``r*c`` (0 for everything but blocks)."""
    width = np.array(
        [p.params[0] if p.is_delta else 0 for p in patterns], np.int64
    )
    block = np.array(
        [
            p.params[0] * p.params[1] if p.type is PatternType.BLOCK else 0
            for p in patterns
        ],
        np.int64,
    )
    return width, block


def _delta_layout(
    units: UnitArrays, is_delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the delta units: their lengths, the offset of each one's
    first column in ``delta_cols`` and each delta element's index inside
    its unit."""
    dlen = units.length[is_delta]
    dstart = np.cumsum(dlen) - dlen
    k = np.arange(int(dlen.sum()), dtype=np.int64) - np.repeat(dstart, dlen)
    return dlen, dstart, k


def encode_ctl(units: UnitArrays, table: dict[PatternKey, int]) -> bytes:
    """Serialize units, in ``ctl`` order, into the ctl byte stream.

    Every unit is validated first (all at once): lengths fit the size
    byte, blocks hold ``r*c`` elements, delta columns start at the
    anchor, increase strictly and fit the body width, and the units are
    sorted by row, then by anchor column. Then each field's size and
    offset is computed and every field is written for all units at
    once.
    """
    if units.n_units == 0:
        return b""
    length = units.length
    pid = np.array([table.get(p, -1) for p in units.patterns], np.int64)
    width, block = _pattern_arrays(units.patterns)
    if (length < 1).any():
        raise ValueError("unit length must be >= 1")
    if (length > MAX_UNIT_LEN).any():
        raise ValueError(
            f"unit length {int(length.max())} exceeds the 1-byte size field"
        )
    missing = pid[units.code] < 0
    if missing.any():
        pattern = units.patterns[units.code[np.argmax(missing)]]
        raise ValueError(f"pattern {pattern} is not in the pattern table")
    ublock = block[units.code]
    if ((ublock > 0) & (length != ublock)).any():
        raise ValueError("block unit length does not equal r*c")

    uwidth = width[units.code]
    is_delta = units.unit_is_delta()
    dlen, dstart, k = _delta_layout(units, is_delta)
    dcols = units.delta_cols
    if dcols.size != k.size:
        raise ValueError("delta columns do not match the delta unit lengths")
    if not np.array_equal(dcols[dstart], units.col[is_delta]):
        raise ValueError("first delta column must equal unit col")
    inner = k > 0
    gaps = np.diff(dcols, prepend=0)[inner]
    if (gaps <= 0).any():
        raise ValueError("delta columns must be strictly increasing")
    ewidth = np.repeat(uwidth[is_delta], dlen)
    gwidth = ewidth[inner]
    overflow = gaps >= np.left_shift(1, 8 * gwidth)
    if overflow.any():
        w = int(gwidth[np.argmax(overflow)])
        raise ValueError(f"column gap overflows delta{8 * w} body")

    jump = np.diff(units.row, prepend=0)
    if (jump < 0).any():
        raise ValueError("units must be sorted by row")
    new_row = jump > 0
    prev_col = np.empty_like(units.col)
    prev_col[0] = 0
    prev_col[1:] = units.col[:-1]
    prev_col[new_row] = 0
    delta = units.col - prev_col
    if (delta < 0).any():
        raise ValueError(
            "units within a row must be sorted by anchor column"
        )

    rjmp = jump > 1
    jsize = np.where(rjmp, varint_sizes(jump), 0)
    dsize = varint_sizes(delta)
    size = 2 + jsize + dsize + (length - 1) * uwidth
    head = np.cumsum(size) - size
    out = np.zeros(int(size.sum()), dtype=np.uint8)
    out[head] = pid[units.code] | np.where(new_row, _NR_BIT, 0) | np.where(
        rjmp, _RJMP_BIT, 0
    )
    out[head + 1] = length
    put_varints(out, head[rjmp] + 2, jump[rjmp], jsize[rjmp])
    put_varints(out, head + 2 + jsize, delta, dsize)
    # Gap j of a delta unit goes at body + (j - 1) * width, little-endian.
    body = np.repeat((head + 2 + jsize + dsize)[is_delta], dlen)
    pos = (body + (k - 1) * ewidth)[inner]
    for b in range(int(gwidth.max()) if gwidth.size else 0):
        m = gwidth > b
        out[pos[m] + b] = (gaps[m] >> (8 * b)) & 0xFF
    return out.tobytes()


def decode_ctl(buf: bytes, table: dict[int, PatternKey]) -> UnitArrays:
    """Decode a ctl byte stream back into its units (without values).

    Exact inverse of :func:`encode_ctl` — property-tested round trip.
    One scan over the unit heads collects each unit's pattern id,
    length, row jump, column delta and body offset; rows, anchor
    columns and delta columns are then rebuilt with numpy.
    """
    buf = bytes(buf)
    n = len(buf)
    # Body byte width per id (0 for substructures), -1 for unknown ids.
    widths = [-1] * (_ID_MASK + 1)
    for i, p in table.items():
        if 0 <= i <= _ID_MASK:
            widths[i] = p.params[0] if p.is_delta else 0
    ids, lengths, jumps, deltas, bodies = [], [], [], [], []
    pos = 0
    while pos < n:
        if pos + 2 > n:
            raise ValueError("truncated unit head")
        flags = buf[pos]
        length = buf[pos + 1]
        pos += 2
        if not length:
            raise ValueError("unit with zero length")
        pid = flags & _ID_MASK
        width = widths[pid]
        if width < 0:
            raise ValueError(f"unknown pattern id {pid}")
        if flags & _NR_BIT:
            if flags & _RJMP_BIT:
                jump, pos = decode_varint(buf, pos)
                if jump < 2:
                    raise ValueError("rjmp must encode a jump >= 2")
            else:
                jump = 1
        elif flags & _RJMP_BIT:
            raise ValueError("rjmp set without nr")
        else:
            jump = 0
        if pos < n and buf[pos] < 0x80:  # one-byte varint
            delta = buf[pos]
            pos += 1
        else:
            delta, pos = decode_varint(buf, pos)
        ids.append(pid)
        lengths.append(length)
        jumps.append(jump)
        deltas.append(delta)
        bodies.append(pos)
        pos += (length - 1) * width
        if pos > n:
            raise ValueError("truncated delta body")
    if not ids:
        return UnitArrays.empty()

    try:
        jump = np.array(jumps, dtype=np.int64)
        delta = np.array(deltas, dtype=np.int64)
    except OverflowError:
        raise ValueError("varint exceeds 63 bits") from None
    length = np.array(lengths, dtype=np.int64)
    pid = np.array(ids, dtype=np.int64)
    used = np.flatnonzero(np.bincount(pid))
    code = np.searchsorted(used, pid)
    patterns = tuple(table[i] for i in used.tolist())
    width, block = _pattern_arrays(patterns)
    ublock = block[code]
    if ((ublock > 0) & (length != ublock)).any():
        raise ValueError("block unit length does not equal r*c")
    row = np.cumsum(jump)
    # Anchor columns: column deltas summed from the start of each row.
    col = np.cumsum(delta)
    new_row = jump > 0
    new_row[0] = True
    col -= (col - delta)[new_row][np.cumsum(new_row) - 1]

    units = UnitArrays(
        patterns, code, row, col, length, np.zeros(0, np.int64)
    )
    is_delta = units.unit_is_delta()
    dlen, dstart, k = _delta_layout(units, is_delta)
    inner = k > 0
    # Each delta unit's first column is its anchor, then gap j sits at
    # body + (j - 1) * width, little-endian.
    ewidth = np.repeat(width[code][is_delta], dlen)
    pos = np.repeat(np.array(bodies, dtype=np.int64)[is_delta], dlen)
    pos = (pos + (k - 1) * ewidth)[inner]
    ewidth = ewidth[inner]
    raw = np.frombuffer(buf, dtype=np.uint8)
    gaps = np.zeros(pos.size, dtype=np.int64)
    for b in range(int(ewidth.max()) if ewidth.size else 0):
        m = ewidth > b
        gaps[m] |= raw[pos[m] + b].astype(np.int64) << (8 * b)
    if (gaps == 0).any():
        raise ValueError("delta columns must be strictly increasing")
    steps = np.repeat(col[is_delta], dlen)
    steps[inner] = gaps
    dcols = np.cumsum(steps)
    dcols -= np.repeat(dcols[dstart] - steps[dstart], dlen)
    units.delta_cols = dcols
    return units
