"""CSX substructure taxonomy (paper Section IV-A, Fig. 6).

CSX represents a sparse matrix as a stream of *units*. A unit is either:

* a **delta unit** — a run of same-row elements whose column deltas all
  fit in 8, 16 or 32 bits (the generic fallback; every element can be
  stored this way), or
* a **substructure unit** — a run of elements following a regular
  pattern (horizontal / vertical / diagonal / anti-diagonal with a
  constant stride ``delta``, or a dense row-major ``r×c`` block) whose
  per-element index information is therefore *zero* bytes.

The module defines the pattern algebra: pattern keys, element coordinate
generation, and the legality predicate CSX-Sym adds (Section IV-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "PatternType",
    "PatternKey",
    "Unit",
    "UnitArrays",
    "DELTA8",
    "DELTA16",
    "DELTA32",
    "delta_pattern_for",
    "unit_coordinates",
]


class PatternType(enum.IntEnum):
    """Kinds of CSX units."""

    DELTA = 0          # params: byte width of the encoded column deltas
    HORIZONTAL = 1     # params: column stride
    VERTICAL = 2       # params: row stride
    DIAGONAL = 3       # params: stride along (+1, +1)
    ANTI_DIAGONAL = 4  # params: stride along (+1, -1)
    BLOCK = 5          # params: (block_rows, block_cols), row-aligned


@dataclass(frozen=True, order=True)
class PatternKey:
    """Identity of a pattern instantiation, e.g. HORIZONTAL with stride 2.

    ``params`` is the byte-width for DELTA, the stride for the four 1-D
    run patterns, and the ``(r, c)`` shape tuple for BLOCK.
    """

    type: PatternType
    params: tuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.type is PatternType.DELTA:
            return f"delta{8 * self.params[0]}"
        if self.type is PatternType.BLOCK:
            return f"block{self.params[0]}x{self.params[1]}"
        return f"{self.type.name.lower()}(d={self.params[0]})"

    @property
    def is_delta(self) -> bool:
        return self.type is PatternType.DELTA


DELTA8 = PatternKey(PatternType.DELTA, (1,))
DELTA16 = PatternKey(PatternType.DELTA, (2,))
DELTA32 = PatternKey(PatternType.DELTA, (4,))

#: Fixed ``ctl`` pattern ids for the three delta widths; substructure
#: instantiations get per-matrix ids from 3 upward (6-bit field → ≤ 64).
FIXED_PATTERN_IDS = {DELTA8: 0, DELTA16: 1, DELTA32: 2}
FIRST_DYNAMIC_ID = 3
MAX_PATTERN_ID = 63

#: Maximum unit length: the ctl size field is one byte.
MAX_UNIT_LEN = 255


def delta_pattern_for(max_delta: int) -> PatternKey:
    """Smallest delta pattern whose width fits ``max_delta``."""
    if max_delta < 0:
        raise ValueError("column deltas must be non-negative")
    if max_delta < (1 << 8):
        return DELTA8
    if max_delta < (1 << 16):
        return DELTA16
    if max_delta < (1 << 32):
        return DELTA32
    raise ValueError(f"column delta {max_delta} exceeds 32 bits")


@dataclass
class Unit:
    """One CSX unit: a pattern instantiation anchored at ``(row, col)``.

    ``length`` counts elements. Delta units additionally carry their
    absolute column indices in ``cols`` (first entry equals ``col``).
    ``values`` are attached at encode time in execution order.
    """

    pattern: PatternKey
    row: int
    col: int
    length: int
    cols: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("unit length must be >= 1")
        if self.length > MAX_UNIT_LEN:
            raise ValueError(
                f"unit length {self.length} exceeds the 1-byte size field"
            )
        if self.pattern.is_delta:
            if self.cols is None:
                raise ValueError("delta units need explicit column indices")
            self.cols = np.asarray(self.cols, dtype=np.int64)
            if self.cols.size != self.length:
                raise ValueError("cols length mismatch")
            if self.cols[0] != self.col:
                raise ValueError("first delta column must equal unit col")
            if self.length > 1 and (self.cols[1:] <= self.cols[:-1]).any():
                raise ValueError("delta columns must be strictly increasing")
        elif self.pattern.type is PatternType.BLOCK:
            r, c = self.pattern.params
            if self.length != r * c:
                raise ValueError(
                    f"block unit length {self.length} != {r}*{c}"
                )


#: (row, column) direction of each 1-D run pattern; the stride scales it.
_RUN_DIRECTIONS = {
    PatternType.HORIZONTAL: (0, 1),
    PatternType.VERTICAL: (1, 0),
    PatternType.DIAGONAL: (1, 1),
    PatternType.ANTI_DIAGONAL: (1, -1),
}


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` for every ``(s, n)`` pair."""
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(
        offsets - starts, lengths
    )


@dataclass
class UnitArrays:
    """A unit list as struct-of-arrays, in execution (``ctl``) order.

    The build pipeline — detection, legalization, value attachment,
    the ``ctl`` codec and plan compilation — works on this form;
    :class:`Unit` objects only appear in the Unit-list adapters
    (:meth:`from_units`, :meth:`to_units`).

    Per unit: ``code`` (an index into the ascending ``patterns``), the
    anchor ``row`` / ``col`` and ``length``. ``delta_cols`` concatenates
    the explicit columns of the delta units, in unit order; ``values``
    (``None`` before value attachment) concatenates every unit's values
    in execution order. ``patterns`` may list patterns no unit uses
    (legalization drops units, not patterns).
    """

    patterns: tuple
    code: np.ndarray
    row: np.ndarray
    col: np.ndarray
    length: np.ndarray
    delta_cols: np.ndarray
    values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # Keep ``patterns`` sorted and unique so that code order is
        # PatternKey order (the ctl sort key) and grouping is by code.
        patterns = sorted(set(self.patterns))
        code = np.asarray(self.code, dtype=np.int64)
        if tuple(self.patterns) != tuple(patterns):
            remap = np.array(
                [patterns.index(p) for p in self.patterns], dtype=np.int64
            )
            code = remap[code] if code.size else code
        self.patterns = tuple(patterns)
        self.code = code
        self.row = np.asarray(self.row, dtype=np.int64)
        self.col = np.asarray(self.col, dtype=np.int64)
        self.length = np.asarray(self.length, dtype=np.int64)
        self.delta_cols = np.asarray(self.delta_cols, dtype=np.int64)

    @classmethod
    def empty(cls) -> "UnitArrays":
        z = np.zeros(0, dtype=np.int64)
        return cls((), z, z, z, z, z, np.zeros(0))

    @classmethod
    def from_units(cls, units: Sequence[Unit]) -> "UnitArrays":
        """Pack a :class:`Unit` list (values all present or all absent)."""
        if not units:
            return cls.empty()
        patterns = sorted({u.pattern for u in units})
        index = {p: i for i, p in enumerate(patterns)}
        code = np.fromiter(
            (index[u.pattern] for u in units), np.int64, len(units)
        )
        row = np.fromiter((u.row for u in units), np.int64, len(units))
        col = np.fromiter((u.col for u in units), np.int64, len(units))
        length = np.fromiter((u.length for u in units), np.int64, len(units))
        dcols = [u.cols for u in units if u.pattern.is_delta]
        values = None
        if all(u.values is not None for u in units):
            values = np.concatenate([u.values for u in units]).astype(
                np.float64, copy=False
            )
        return cls(
            tuple(patterns), code, row, col, length,
            np.concatenate(dcols) if dcols else np.zeros(0, np.int64),
            values,
        )

    @property
    def n_units(self) -> int:
        return int(self.code.size)

    @property
    def n_elements(self) -> int:
        return int(self.length.sum())

    def unit_is_delta(self) -> np.ndarray:
        """Boolean per unit: a delta (not a substructure) unit."""
        flags = np.array([p.is_delta for p in self.patterns], dtype=bool)
        return flags[self.code] if self.code.size else np.zeros(0, bool)

    def starts(self) -> np.ndarray:
        """Offset of each unit's first element in execution order."""
        return np.cumsum(self.length) - self.length

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Every element's ``(row, col)`` in execution order: row-major
        inside blocks, run order for everything else."""
        n = self.n_elements
        if n == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z.copy()
        # Per-pattern steps: 1-D runs move (rstep, cstep) per element;
        # blocks of c columns wrap every c elements; deltas stay put.
        rstep = np.zeros(len(self.patterns), dtype=np.int64)
        cstep = np.zeros(len(self.patterns), dtype=np.int64)
        bcols = np.zeros(len(self.patterns), dtype=np.int64)
        for i, p in enumerate(self.patterns):
            if p.type is PatternType.BLOCK:
                bcols[i] = p.params[1]
            elif p.type in _RUN_DIRECTIONS:
                dr, dc = _RUN_DIRECTIONS[p.type]
                rstep[i], cstep[i] = dr * p.params[0], dc * p.params[0]
        ecode = np.repeat(self.code, self.length)
        k = np.arange(n, dtype=np.int64) - np.repeat(
            self.starts(), self.length
        )
        rows = np.repeat(self.row, self.length) + rstep[ecode] * k
        cols = np.repeat(self.col, self.length) + cstep[ecode] * k
        if bcols.any():
            eb = bcols[ecode]
            blk = np.flatnonzero(eb)
            rows[blk] += k[blk] // eb[blk]
            cols[blk] += k[blk] % eb[blk]
        if self.delta_cols.size:
            cols[np.repeat(self.unit_is_delta(), self.length)] = (
                self.delta_cols
            )
        return rows, cols

    def take(self, units: np.ndarray) -> "UnitArrays":
        """The units at indices ``units`` (in that order)."""
        units = np.asarray(units, dtype=np.int64)
        length = self.length[units]
        values = None
        if self.values is not None:
            values = self.values[_ranges(self.starts()[units], length)]
        is_delta = self.unit_is_delta()
        dlen = np.where(is_delta, self.length, 0)
        dstart = np.cumsum(dlen) - dlen
        delta_cols = self.delta_cols[_ranges(dstart[units], dlen[units])]
        return UnitArrays(
            self.patterns, self.code[units], self.row[units],
            self.col[units], length, delta_cols, values,
        )

    @classmethod
    def concat(cls, parts: Sequence["UnitArrays"]) -> "UnitArrays":
        """Concatenate unit lists (patterns are merged, order is kept)."""
        offsets = np.cumsum([0] + [len(a.patterns) for a in parts])
        values = None
        if all(a.values is not None for a in parts):
            values = np.concatenate([a.values for a in parts])
        return cls(
            tuple(p for a in parts for p in a.patterns),
            np.concatenate([a.code + o for a, o in zip(parts, offsets)]),
            np.concatenate([a.row for a in parts]),
            np.concatenate([a.col for a in parts]),
            np.concatenate([a.length for a in parts]),
            np.concatenate([a.delta_cols for a in parts]),
            values,
        )

    def sorted_by_anchor(self) -> "UnitArrays":
        """Units in ``ctl`` order: by anchor row, column, then pattern."""
        return self.take(np.lexsort((self.code, self.col, self.row)))

    def to_units(self) -> list[Unit]:
        """Materialize :class:`Unit` objects (validated on creation)."""
        units: list[Unit] = []
        start = dstart = 0
        for c, r, col, n, delta in zip(
            self.code.tolist(), self.row.tolist(), self.col.tolist(),
            self.length.tolist(), self.unit_is_delta().tolist(),
        ):
            cols = None
            if delta:
                cols = self.delta_cols[dstart : dstart + n]
                dstart += n
            vals = None
            if self.values is not None:
                vals = self.values[start : start + n]
            start += n
            units.append(Unit(self.patterns[c], r, col, n, cols, vals))
        return units


def unit_coordinates(unit: Unit) -> tuple[np.ndarray, np.ndarray]:
    """Expand a unit into its element coordinates ``(rows, cols)``.

    Coordinates are produced in the unit's canonical (execution) order:
    row-major for blocks, run order for everything else.
    """
    return UnitArrays.from_units([unit]).coordinates()


def unit_column_span(unit: Unit) -> tuple[int, int]:
    """Inclusive ``(min_col, max_col)`` of the unit's elements.

    Used by CSX-Sym's legality filter: a substructure is only encoded if
    its transposed writes fall entirely on one side of the thread's
    local/direct boundary (Section IV-B, Fig. 8).
    """
    _, cols = unit_coordinates(unit)
    return int(cols.min()), int(cols.max())
