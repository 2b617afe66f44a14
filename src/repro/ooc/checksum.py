"""CRC32C (Castagnoli) for shard and checkpoint integrity.

The out-of-core layer stores matrix shards and solver checkpoints as
binary files that must survive torn writes, bit rot and the injected
``io`` chaos faults. Every payload carries a CRC32C — the Castagnoli
polynomial (0x1EDC6F41, reflected 0x82F63B78), the same checksum
iSCSI, ext4 metadata and most storage systems use — so a corrupt or
truncated file is *detected* on read instead of silently feeding wrong
bytes into a solve.

Every shard reload verifies its payload, so the checksum sits on the
budgeted apply's critical path and its throughput matters. The
container has no ``crc32c`` wheel, so the implementation is
lane-parallel numpy over the linearity of CRCs in GF(2):

* the payload is cut into blocks of ``_BLOCK`` bytes, chained through
  the streaming identity, so transient memory stays O(block);
* a block is cut into lanes of ``_LANE`` bytes. A byte's contribution
  to its lane's CRC depends only on its value and its distance to the
  lane's end, so every lane CRC is one gather from a
  ``_LANE x 256`` position table and one XOR reduction, for all lanes
  at once;
* the running register is folded into the block's first four bytes
  (for a reflected CRC, feeding bytes from register ``r`` equals
  feeding them XOR ``r`` from register 0);
* lane CRCs merge up a tree of fan-in ``_FANIN``, one level per
  step: a lane CRC is shifted past the zero bytes of the lanes to its
  right by precomputed "shift by B zero bytes" tables (one 4 x 256
  table per position in the group, one gather for all of them), and
  the group's shifted CRCs are XORed together;
* a tail shorter than a lane is the end of a lane: one more gather
  from the position table's last rows, with the register folded into
  its first bytes (bytes of the register beyond a tail of fewer than
  four bytes stay in it, shifted down).

Values are bit-identical to the classic table-driven CRC32C (the RFC
3720 vectors pin them), so manifests and checkpoints written by any
version still verify.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["crc32c"]

_POLY = 0x82F63B78  # reflected Castagnoli polynomial
#: Bytes per lane (the position table holds one 256-entry row per
#: byte of a lane; at most 256 so a table index fits in uint16).
_LANE = 128
#: Bytes per block; a multiple of ``_LANE``.
_BLOCK = 1 << 16
#: Lane CRCs merged per tree level.
_FANIN = 16
#: Table-row offset of each byte of a group of ``_FANIN`` registers.
_GROUP_ROWS = np.arange(4 * _FANIN, dtype=np.uint16) * 256


class _Tables:
    """Lazily built lookup tables (module singleton)."""

    def __init__(self):
        t0 = np.arange(256, dtype=np.uint32)
        for _ in range(8):
            t0 = (t0 >> 1) ^ (np.uint32(_POLY) * (t0 & 1))
        # rows[d][v]: CRC register after byte v from register 0, then
        # d zero bytes.
        rows = [t0]
        for _ in range(_LANE - 1):
            prev = rows[-1]
            rows.append((prev >> 8) ^ t0[prev & 0xFF])
        #: Flat position table: entry ``k * 256 + v`` is byte ``v`` at
        #: offset ``k`` of a lane (``_LANE - 1 - k`` bytes from its end).
        self.position = np.concatenate(rows[::-1])
        #: Position-table row offset of each lane byte.
        self.row_base = np.arange(_LANE, dtype=np.uint16) * 256
        # A shift table maps a register to the register after B zero
        # bytes, as a flat 4 x 256 table over the register's bytes
        # (GF(2)-linear, so the four lookups XOR). A register byte j
        # past B >= 4 zero bytes sits B - 1 - j bytes from the end, so
        # the one-lane shift is the position table's first four rows.
        # Applying table a to the entries of table b composes them.
        step = self.position[: 4 * 256]
        #: levels[l]: for a group of _FANIN nodes of _LANE * _FANIN**l
        #: bytes each, entry ``(g * 4 + j) * 256 + v`` is byte ``v`` of
        #: node ``g``'s register shifted past the nodes after it.
        self.levels = []
        span = _LANE
        while span < _BLOCK:
            shifts = [np.concatenate(
                [np.arange(256, dtype=np.uint32) << (8 * j) for j in range(4)]
            )]
            for _ in range(_FANIN - 1):
                shifts.append(_shift(step, shifts[-1]))
            self.levels.append(np.concatenate(shifts[::-1]))
            step = _shift(step, shifts[-1])
            span *= _FANIN


_TABLES: Optional[_Tables] = None


def _shift(table: np.ndarray, regs: np.ndarray, group: int = 1):
    """XOR of each run of ``group`` uint32 registers, each shifted by
    its own 4 x 256 block of the flat ``table``."""
    idx = regs.astype("<u4").view(np.uint8).reshape(-1, 4 * group)
    return np.bitwise_xor.reduce(
        table.take(idx + _GROUP_ROWS[: 4 * group]), axis=1
    )


def _register_bytes(reg: int) -> np.ndarray:
    return np.array([reg], dtype="<u4").view(np.uint8)


def _feed_lanes(tab: _Tables, lanes: np.ndarray, reg: int) -> int:
    """Register after feeding whole lanes ``(m, _LANE)`` from ``reg``."""
    idx = lanes + tab.row_base
    idx[0, :4] ^= _register_bytes(reg)
    crcs = np.bitwise_xor.reduce(tab.position.take(idx), axis=1)
    for level in tab.levels:
        if crcs.size == 1:
            break
        # Zero nodes in front: leading zeros leave a CRC from register
        # 0 unchanged, and every group stays full.
        pad = -crcs.size % _FANIN
        if pad:
            crcs = np.concatenate((np.zeros(pad, np.uint32), crcs))
        crcs = _shift(level, crcs, _FANIN)
    return int(crcs[0])


def _feed_tail(tab: _Tables, tail: np.ndarray, reg: int) -> int:
    """Register after feeding ``tail`` (shorter than a lane) from
    ``reg``."""
    t = tail.size
    idx = tail + tab.row_base[_LANE - t:]
    k = min(t, 4)
    idx[:k] ^= _register_bytes(reg)[:k]
    crc = np.bitwise_xor.reduce(tab.position.take(idx))
    return (reg >> (8 * t)) ^ int(crc)


def crc32c(data, crc: int = 0) -> int:
    """CRC32C of ``data`` (bytes-like), continuing from ``crc``.

    ``crc32c(b) == crc32c(b[k:], crc32c(b[:k]))`` for any split, so
    callers can stream large payloads chunk by chunk.
    """
    global _TABLES
    if _TABLES is None:
        _TABLES = _Tables()
    tab = _TABLES
    buf = np.frombuffer(memoryview(data).cast("B"), dtype=np.uint8)
    reg = (crc ^ 0xFFFFFFFF) & 0xFFFFFFFF
    whole = buf.size - buf.size % _LANE
    for start in range(0, whole, _BLOCK):
        block = buf[start: min(start + _BLOCK, whole)]
        reg = _feed_lanes(tab, block.reshape(-1, _LANE), reg)
    if whole < buf.size:
        reg = _feed_tail(tab, buf[whole:], reg)
    return reg ^ 0xFFFFFFFF
