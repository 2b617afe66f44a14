"""Substructure detection and encoding selection for CSX (Section IV-A).

The pipeline mirrors the original CSX preprocessing:

1. **Scan** the non-zero elements in four orientations (horizontal,
   vertical, diagonal, anti-diagonal) plus row-aligned 2-D blocks and
   collect, per pattern instantiation (type + stride / block shape), how
   many elements it could cover.
2. **Select** the instantiations whose estimated byte gain clears a
   threshold, capped by the 6-bit ``ctl`` pattern-id space.
3. **Encode** greedily in decreasing-gain order, marking elements as
   consumed so each element belongs to exactly one unit; leftovers become
   delta units of the narrowest sufficient width.

Statistics may be computed on a sampled subset of row windows — the
mechanism behind the contained preprocessing cost the paper reports in
Section V-E.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .substructures import (
    DELTA8,
    DELTA16,
    DELTA32,
    MAX_PATTERN_ID,
    MAX_UNIT_LEN,
    FIRST_DYNAMIC_ID,
    PatternKey,
    PatternType,
    Unit,
    UnitArrays,
    _ranges,
)

__all__ = [
    "DetectionConfig",
    "DetectionReport",
    "PatternStats",
    "detect_and_encode",
    "detect_units",
    "collect_pattern_stats",
]

#: Approximate ctl head bytes per unit (flags + size + column delta).
UNIT_HEAD_BYTES = 3


@dataclass
class DetectionConfig:
    """Tunables of the CSX preprocessing pass.

    Defaults follow the spirit of the original implementation: 1-D runs
    must have at least 4 elements to beat a delta unit, small dense
    blocks are probed, and at most a couple of stride instantiations per
    orientation are kept so the pattern-id space is never exhausted.
    """

    min_run_len: int = 4
    #: Orientations to scan. Disable entries for the ablation study.
    enable_horizontal: bool = True
    enable_vertical: bool = True
    enable_diagonal: bool = True
    enable_anti_diagonal: bool = True
    enable_blocks: bool = True
    #: Row-aligned dense block shapes probed, in probe order.
    block_shapes: tuple[tuple[int, int], ...] = (
        (3, 3),
        (2, 2),
        (2, 3),
        (3, 2),
        (2, 4),
        (4, 2),
    )
    #: Keep at most this many stride instantiations per 1-D orientation.
    max_deltas_per_type: int = 2
    #: Largest stride considered for 1-D runs.
    max_stride: int = 8
    #: Minimum fraction of nnz an instantiation must cover to be encoded.
    min_coverage: float = 0.005
    #: Fraction of row windows sampled for statistics (1.0 = full scan).
    sampling_fraction: float = 1.0
    #: Row-window size used by the sampler.
    sampling_window: int = 1024
    #: Seed for the sampling RNG (determinism matters for tests).
    sampling_seed: int = 0


@dataclass
class PatternStats:
    """Scan statistics for one pattern instantiation."""

    pattern: PatternKey
    covered: int = 0
    n_units: int = 0

    @property
    def gain_bytes(self) -> float:
        """Estimated ctl bytes saved by encoding this instantiation.

        Each covered element would otherwise carry roughly one delta
        byte; each unit costs a head. Blocks additionally replace several
        unit heads with one.
        """
        return float(self.covered) - UNIT_HEAD_BYTES * self.n_units


@dataclass
class DetectionReport:
    """Preprocessing outcome: what was scanned, selected and encoded.

    ``elements_scanned`` accumulates the number of (element, orientation)
    visits — the work metric behind the preprocessing-cost model of
    :mod:`repro.analysis.preproc`.
    """

    stats: dict[PatternKey, PatternStats] = field(default_factory=dict)
    selected: list[PatternKey] = field(default_factory=list)
    elements_scanned: int = 0
    sampled_elements: int = 0
    total_elements: int = 0
    encoded_by_pattern: dict[PatternKey, int] = field(default_factory=dict)

    def coverage_fraction(self) -> float:
        """Fraction of elements encoded into (non-delta) substructures."""
        if self.total_elements == 0:
            return 0.0
        covered = sum(
            n
            for p, n in self.encoded_by_pattern.items()
            if not p.is_delta
        )
        return covered / self.total_elements


# ----------------------------------------------------------------------
# Run scanning
# ----------------------------------------------------------------------
def _runs_in_ordering(
    group: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Given elements sorted by ``(group, pos)``, return
    ``(valid, diffs)`` where ``valid[i]`` says elements ``i`` and ``i+1``
    are in the same group and ``diffs[i]`` is their position gap."""
    if group.size < 2:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    same = group[1:] == group[:-1]
    diffs = pos[1:] - pos[:-1]
    return same, diffs


def _extract_runs(
    links: np.ndarray, min_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Find maximal runs of consecutive True ``links``.

    A run of ``m`` links covers ``m + 1`` elements. Returns
    ``(starts, lengths)`` in *element* units, keeping runs with at least
    ``min_len`` elements.
    """
    if links.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    padded = np.concatenate(([False], links, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts = changes[0::2]
    ends = changes[1::2]
    lengths = ends - starts + 1  # link count + 1 = element count
    keep = lengths >= min_len
    return starts[keep].astype(np.int64), lengths[keep].astype(np.int64)


@dataclass
class _Orientation:
    """One scan orientation: a sort order plus grouping/position keys."""

    type: PatternType
    order: np.ndarray  # canonical element index, sorted by (group, pos)
    group: np.ndarray  # in sorted order
    pos: np.ndarray  # in sorted order


def _build_orientations(
    rows: np.ndarray, cols: np.ndarray, config: DetectionConfig
) -> list[_Orientation]:
    orientations: list[_Orientation] = []
    r = rows.astype(np.int64)
    c = cols.astype(np.int64)

    def add(ptype: PatternType, group: np.ndarray, pos: np.ndarray) -> None:
        order = np.lexsort((pos, group))
        orientations.append(
            _Orientation(ptype, order, group[order], pos[order])
        )

    if config.enable_horizontal:
        add(PatternType.HORIZONTAL, r, c)
    if config.enable_vertical:
        add(PatternType.VERTICAL, c, r)
    if config.enable_diagonal:
        add(PatternType.DIAGONAL, r - c, r)
    if config.enable_anti_diagonal:
        add(PatternType.ANTI_DIAGONAL, r + c, r)
    return orientations


def _stride_candidates(
    diffs: np.ndarray, valid: np.ndarray, config: DetectionConfig
) -> list[int]:
    """Most frequent strides among in-group gaps, small strides only."""
    if diffs.size == 0:
        return []
    usable = valid & (diffs >= 1) & (diffs <= config.max_stride)
    if not np.any(usable):
        return []
    values, counts = np.unique(diffs[usable], return_counts=True)
    order = np.argsort(counts)[::-1]
    return [int(values[i]) for i in order[: config.max_deltas_per_type]]


# ----------------------------------------------------------------------
# Block scanning
# ----------------------------------------------------------------------
class _ElementIndex:
    """The elements in row-major order with their grid neighbours:
    coordinate lookup by sorted ``row * n_cols + col`` keys, and dense
    block tests by walking neighbour links instead of searching."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n_cols: int):
        self.n_cols = n_cols
        keys = rows * n_cols + cols
        self.order = np.argsort(keys)
        self.sorted_keys = keys[self.order]
        self.rows, self.cols = rows[self.order], cols[self.order]
        # Row-major position of each position's neighbour to the right,
        # left, below and above; the extra slot n stands for "none" and
        # links to itself.
        n = keys.size
        pos = np.arange(n)
        self.right = np.full(n + 1, n, dtype=np.int64)
        self.left = self.right.copy()
        self.below = self.right.copy()
        self.above = self.right.copy()
        across = (self.rows[1:] == self.rows[:-1]) & (
            self.cols[1:] == self.cols[:-1] + 1
        )
        self.right[pos[:-1][across]] = pos[1:][across]
        self.left[pos[1:][across]] = pos[:-1][across]
        down = np.lexsort((self.rows, self.cols))
        linked = (self.cols[down[1:]] == self.cols[down[:-1]]) & (
            self.rows[down[1:]] == self.rows[down[:-1]] + 1
        )
        self.below[down[:-1][linked]] = down[1:][linked]
        self.above[down[1:][linked]] = down[:-1][linked]

    def find(self, qrows: np.ndarray, qcols: np.ndarray) -> np.ndarray:
        """Element index of each query coordinate, ``-1`` where absent.

        Columns must lie in ``[0, n_cols)`` for the key to be exact;
        callers that cannot promise this compare the coordinates back.
        """
        q = qrows * self.n_cols + qcols
        size = self.sorted_keys.size
        if size == 0:
            return np.full(q.shape, -1, dtype=np.int64)
        idx = np.minimum(np.searchsorted(self.sorted_keys, q), size - 1)
        return np.where(self.sorted_keys[idx] == q, self.order[idx], -1)

    def free_runs(self, consumed: Optional[np.ndarray]) -> np.ndarray:
        """Per row-major position: how many free elements run rightwards
        from it without a gap (0 when it is consumed; slot n is 0)."""
        n = self.order.size
        free = (
            np.ones(n, dtype=bool) if consumed is None
            else ~consumed[self.order]
        )
        pos = np.arange(n)
        linked = (self.right[:-2] == pos[1:]) & free[:-1] & free[1:]
        stop = np.append(np.where(linked, n, pos[:-1]), n - 1)
        end = np.minimum.accumulate(stop[::-1])[::-1]
        return np.append(np.where(free, end - pos + 1, 0), 0)


#: Stop resolving greedy block selection in rounds once a round decides
#: less than this fraction of the still-open anchors (long chains of
#: overlapping anchors); the rest is swept row by row. Neither path is
#: fast alone: rounds crawl along the long anchor chains of dense blocks
#: (``nd12k``), and the per-row sweep is several times slower where many
#: rows hold a few anchors each (``bmwcra_1``, ``ldoor``). Of the cutoffs
#: tried from 0 to 1, 0.05 gave the least selection time on the suite.
_ROUND_MIN_DECIDED = 0.05


def _greedy_rounds(
    index: _ElementIndex, anchors: np.ndarray, br: int, bc: int
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the greedy choice over row-major ``anchors`` (positions
    in ``index``) in vectorized rounds.

    An anchor is chosen once every earlier overlapping anchor is decided
    and none of them was chosen; it is rejected as soon as one was.
    Returns ``(chosen, open)``: the chosen mask, and the anchors still
    undecided when the rounds stopped paying off. No open anchor
    overlaps a chosen one (every chosen anchor's earlier neighbours are
    decided, and open anchors with a chosen neighbour are rejected), so
    the open anchors form an independent greedy problem of their own.
    """
    m = anchors.size
    anchor_of = np.full(index.right.size, m, dtype=np.int64)  # m: none
    anchor_of[anchors] = np.arange(m)
    # The earlier anchors a block can overlap sit dr <= 0 rows and
    # |dc| < bc columns away. Both blocks are dense, so each such anchor
    # is reached by neighbour links through their cells: up the anchor's
    # column then left (dc <= 0), or right then up (dc > 0).
    up = [anchors]
    for _ in range(br - 1):
        up.append(index.above[up[-1]])
    right = [anchors]
    for _ in range(bc - 1):
        right.append(index.right[right[-1]])
    preds = []
    for dr in range(br):
        cell = up[dr]
        for _ in range(1, bc):
            cell = index.left[cell]
            preds.append(cell)
        if dr:
            preds.append(up[dr])
            for dc in range(1, bc):
                cell = right[dc]
                for _ in range(dr):
                    cell = index.above[cell]
                preds.append(cell)
    pred = anchor_of[np.stack(preds, axis=1)]
    # 0 open, 1 chosen, 2 rejected; the sentinel slot m reads "rejected".
    status = np.zeros(m + 1, dtype=np.int8)
    status[m] = 2
    live = np.arange(m)
    while live.size:
        s = status[pred]
        blocked = (s == 1).any(axis=1)
        ready = ~blocked & (s != 0).all(axis=1)
        status[live[blocked]] = 2
        status[live[ready]] = 1
        keep = ~(blocked | ready)
        live, pred = live[keep], pred[keep]
        if live.size and (
            live.size > (1.0 - _ROUND_MIN_DECIDED) * keep.size
        ):
            blocked = (status[pred] == 1).any(axis=1)
            status[live[blocked]] = 2
            live, pred = live[~blocked], pred[~blocked]
            break
    return status[:m] == 1, live


def _greedy_sweep(
    ar: np.ndarray, ac: np.ndarray, br: int, bc: int
) -> np.ndarray:
    """Row sweep of the greedy choice over row-major anchors.

    Rows are decided in order. An anchor is blocked by a chosen anchor
    of the previous ``br - 1`` rows less than ``bc`` columns away; the
    free anchors of a row then follow the 1-D greedy: take the leftmost
    and jump to the first one at least ``bc`` columns further on.
    """
    chosen = np.zeros(ar.size, dtype=bool)
    bounds = np.flatnonzero(np.diff(ar)) + 1
    starts = np.concatenate(([0], bounds)).tolist()
    ends = np.concatenate((bounds, [ar.size])).tolist()
    recent: list[tuple[int, np.ndarray]] = []  # (row, chosen columns)
    for s, e in zip(starts, ends):
        r = int(ar[s])
        recent = [(q, c) for q, c in recent if q > r - br]
        cols = ac[s:e]
        members = np.arange(s, e)
        if recent:
            taken = np.sort(np.concatenate([c for _, c in recent]))
            idx = np.minimum(
                np.searchsorted(taken, cols - (bc - 1)), taken.size - 1
            )
            ok = np.abs(taken[idx] - cols) >= bc
            members, cols = members[ok], cols[ok]
        nxt = np.searchsorted(cols, cols + bc).tolist()
        pick = []
        i = 0
        while i < len(nxt):
            pick.append(i)
            i = nxt[i]
        if pick:
            chosen[members[pick]] = True
            recent.append((r, cols[pick]))
    return chosen


def _block_candidates(
    index: _ElementIndex,
    shape: tuple[int, int],
    consumed: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Anchors ``(r0, c0)`` of fully dense, non-overlapping ``r×c``
    blocks of free elements, chosen greedily in row-major anchor order
    (each anchor is kept unless it overlaps an earlier kept one).

    Returns the anchor rows and columns in that order.
    """
    br, bc = shape
    # A block is dense and free iff each of its br rows has a run of at
    # least bc free elements starting in the anchor's column.
    run = index.free_runs(consumed)
    anchors = np.flatnonzero(run >= bc)
    cell = anchors
    for _ in range(br - 1):
        cell = index.below[cell]
        dense = run[cell] >= bc
        anchors, cell = anchors[dense], cell[dense]
    # Positions are row-major, so the anchors are in greedy order.
    ar, ac = index.rows[anchors], index.cols[anchors]
    if ar.size == 0:
        return ar, ac
    chosen, open_ = _greedy_rounds(index, anchors, br, bc)
    if open_.size:
        chosen[open_] = _greedy_sweep(ar[open_], ac[open_], br, bc)
    return ar[chosen], ac[chosen]


# ----------------------------------------------------------------------
# Statistics (optionally sampled)
# ----------------------------------------------------------------------
def _sample_mask(
    rows: np.ndarray, n_rows: int, config: DetectionConfig
) -> np.ndarray:
    """Boolean element mask selecting sampled row windows."""
    if config.sampling_fraction >= 1.0:
        return np.ones(rows.size, dtype=bool)
    if not 0.0 < config.sampling_fraction < 1.0:
        raise ValueError("sampling_fraction must be in (0, 1]")
    window = max(1, config.sampling_window)
    n_windows = max(1, -(-n_rows // window))
    n_pick = max(1, int(round(config.sampling_fraction * n_windows)))
    rng = np.random.default_rng(config.sampling_seed)
    picked = rng.choice(n_windows, size=min(n_pick, n_windows), replace=False)
    window_of = rows // window
    return np.isin(window_of, picked)


@dataclass
class _Scan:
    """An element set prepared for scanning: the 1-D run orientations
    and the coordinate index, built once and shared by the statistics
    pass (when it sees every element) and the encoder."""

    orientations: list[_Orientation]
    index: _ElementIndex

    @classmethod
    def of(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        n_cols: int,
        config: DetectionConfig,
    ) -> "_Scan":
        return cls(
            _build_orientations(rows, cols, config),
            _ElementIndex(rows, cols, n_cols),
        )


def _sample(
    rows: np.ndarray, config: DetectionConfig, report: DetectionReport
) -> np.ndarray:
    """Sampled-element mask; records the sample size in ``report``."""
    n_rows_est = int(rows.max()) + 1 if rows.size else 0
    mask = _sample_mask(rows, n_rows_est, config)
    report.sampled_elements = int(np.count_nonzero(mask))
    report.total_elements = int(rows.size)
    return mask


def _tabulate(
    scan: _Scan, config: DetectionConfig, report: DetectionReport
) -> dict[PatternKey, PatternStats]:
    """Per-instantiation coverage of the scanned elements."""
    stats: dict[PatternKey, PatternStats] = {}
    size = int(scan.index.order.size)
    for orient in scan.orientations:
        report.elements_scanned += size
        valid, diffs = _runs_in_ordering(orient.group, orient.pos)
        for stride in _stride_candidates(diffs, valid, config):
            links = valid & (diffs == stride)
            starts, lengths = _extract_runs(links, config.min_run_len)
            if starts.size == 0:
                continue
            key = PatternKey(orient.type, (stride,))
            # Long runs split into MAX_UNIT_LEN-sized units.
            n_units = int(np.sum(-(-lengths // MAX_UNIT_LEN)))
            stats[key] = PatternStats(
                key, covered=int(lengths.sum()), n_units=n_units
            )

    if config.enable_blocks:
        for shape in config.block_shapes:
            report.elements_scanned += size
            anchor_rows, _ = _block_candidates(scan.index, shape)
            if not anchor_rows.size:
                continue
            key = PatternKey(PatternType.BLOCK, shape)
            stats[key] = PatternStats(
                key,
                covered=int(anchor_rows.size) * shape[0] * shape[1],
                n_units=int(anchor_rows.size),
            )

    report.stats = stats
    return stats


def collect_pattern_stats(
    rows: np.ndarray,
    cols: np.ndarray,
    n_cols: int,
    config: DetectionConfig,
    report: DetectionReport,
) -> dict[PatternKey, PatternStats]:
    """Scan (a sample of) the elements and tabulate per-instantiation
    coverage. Populates and returns ``report.stats``."""
    mask = _sample(rows, config, report)
    return _tabulate(
        _Scan.of(rows[mask], cols[mask], n_cols, config), config, report
    )


def select_patterns(
    stats: dict[PatternKey, PatternStats],
    total_elements: int,
    sampled_elements: int,
    config: DetectionConfig,
) -> list[PatternKey]:
    """Rank instantiations by estimated gain and keep the worthwhile ones.

    Sampled statistics are extrapolated to the full matrix before the
    coverage threshold is applied.
    """
    if sampled_elements == 0:
        return []
    scale = total_elements / sampled_elements
    ranked = sorted(
        stats.values(), key=lambda s: s.gain_bytes * scale, reverse=True
    )
    selected: list[PatternKey] = []
    budget = MAX_PATTERN_ID - FIRST_DYNAMIC_ID + 1
    for s in ranked:
        if len(selected) >= budget:
            break
        if s.gain_bytes <= 0:
            continue
        if s.covered * scale < config.min_coverage * total_elements:
            continue
        selected.append(s.pattern)
    return selected


# ----------------------------------------------------------------------
# Greedy encoding
# ----------------------------------------------------------------------
def _encode_runs_for_pattern(
    stride: int,
    orient: _Orientation,
    consumed: np.ndarray,
    min_run_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode all maximal unconsumed runs of one 1-D instantiation.

    Runs are recomputed against the ``consumed`` mask so earlier
    (higher-gain) patterns win overlaps, and split into units of at
    most ``MAX_UNIT_LEN`` elements; a trailing piece shorter than
    ``min_run_len`` is not worth a unit head and stays free. Marks the
    encoded elements consumed and returns each unit's anchor element
    and length.
    """
    group, pos, order = orient.group, orient.pos, orient.order
    none = np.zeros(0, dtype=np.int64)
    if group.size < 2:
        return none, none
    free = ~consumed[order]
    links = (
        (group[1:] == group[:-1])
        & (pos[1:] - pos[:-1] == stride)
        & free[1:]
        & free[:-1]
    )
    starts, lengths = _extract_runs(links, min_run_len)
    pieces = -(-lengths // MAX_UNIT_LEN)
    last = lengths - MAX_UNIT_LEN * (pieces - 1)
    if min_run_len > MAX_UNIT_LEN:
        pieces = np.minimum(pieces, 1)
    else:
        pieces -= (pieces > 1) & (last < min_run_len)
    run = np.repeat(np.arange(starts.size), pieces)
    k = _ranges(np.zeros(pieces.size, dtype=np.int64), pieces)
    first = starts[run] + MAX_UNIT_LEN * k
    unit_len = np.minimum(MAX_UNIT_LEN, lengths[run] - MAX_UNIT_LEN * k)
    consumed[order[_ranges(first, unit_len)]] = True
    return order[first], unit_len


def _encode_delta_leftovers(
    rows: np.ndarray, cols: np.ndarray, consumed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack every unconsumed element into delta units (per row, grouped
    by the narrowest byte width that fits the run's column gaps).

    Returns the free elements in row-major order and, per unit, its
    first position in them, its length and its byte width.
    """
    free_idx = np.flatnonzero(~consumed)
    fr = rows[free_idx]
    fc = cols[free_idx]
    order = np.lexsort((fc, fr))
    elems = free_idx[order]
    fr, fc = fr[order], fc[order]

    # Width class of the gap *into* each element (first of a row: width 1,
    # the head column delta is a varint and costs no body byte).
    widths = np.ones(fr.size, dtype=np.int64)
    if fr.size > 1:
        same_row = fr[1:] == fr[:-1]
        gaps = fc[1:] - fc[:-1]
        w = np.ones(gaps.size, dtype=np.int64)
        w[gaps >= (1 << 8)] = 2
        w[gaps >= (1 << 16)] = 4
        widths[1:][same_row] = w[same_row]

    # Split points: new row, width change, or unit overflow.
    split = np.zeros(fr.size, dtype=bool)
    split[:1] = True
    if fr.size > 1:
        split[1:] = (fr[1:] != fr[:-1]) | (widths[1:] != widths[:-1])
    seg_start = np.flatnonzero(split)
    seg_len = np.diff(np.append(seg_start, fr.size))
    pieces = -(-seg_len // MAX_UNIT_LEN)
    seg = np.repeat(np.arange(seg_start.size), pieces)
    k = _ranges(np.zeros(pieces.size, dtype=np.int64), pieces)
    first = seg_start[seg] + MAX_UNIT_LEN * k
    unit_len = np.minimum(MAX_UNIT_LEN, seg_len[seg] - MAX_UNIT_LEN * k)
    # A segment's first unit takes the width of its second element's gap.
    probe = np.where(
        k > 0, first, np.minimum(first + 1, first + unit_len - 1)
    )
    return elems, first, unit_len, widths[probe]


def detect_units(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n_cols: int,
    config: Optional[DetectionConfig] = None,
) -> tuple[UnitArrays, DetectionReport]:
    """Full CSX preprocessing on arrays: scan, select, and encode.

    Elements must be unique coordinates. Returns the units sorted by
    anchor (row-major) with values attached in execution order, plus
    the :class:`DetectionReport`.
    """
    config = config or DetectionConfig()
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    report = DetectionReport(total_elements=int(rows.size))
    if rows.size == 0:
        return UnitArrays.empty(), report

    scan = _Scan.of(rows, cols, n_cols, config)
    mask = _sample(rows, config, report)
    sample = (
        scan if mask.all()
        else _Scan.of(rows[mask], cols[mask], n_cols, config)
    )
    stats = _tabulate(sample, config, report)
    selected = select_patterns(
        stats, report.total_elements, report.sampled_elements, config
    )
    report.selected = selected

    consumed = np.zeros(rows.size, dtype=bool)
    orientations = {o.type: o for o in scan.orientations}
    none = np.zeros(0, dtype=np.int64)
    parts: list[UnitArrays] = []
    for pattern in selected:
        report.elements_scanned += int(rows.size)
        if pattern.type is PatternType.BLOCK:
            br, bc = pattern.params
            ar, ac = _block_candidates(scan.index, pattern.params, consumed)
            cells = scan.index.find(
                ar[:, None] + np.repeat(np.arange(br), bc),
                ac[:, None] + np.tile(np.arange(bc), br),
            )
            consumed[cells] = True
            length = np.full(ar.size, br * bc, dtype=np.int64)
        else:
            anchor, length = _encode_runs_for_pattern(
                pattern.params[0],
                orientations[pattern.type],
                consumed,
                config.min_run_len,
            )
            ar, ac = rows[anchor], cols[anchor]
        if length.size:
            report.encoded_by_pattern[pattern] = int(length.sum())
            parts.append(
                UnitArrays(
                    (pattern,), np.zeros(length.size), ar, ac, length, none
                )
            )

    elems, first, length, width = _encode_delta_leftovers(
        rows, cols, consumed
    )
    # Delta widths are reported in the order they first appear.
    widths, first_seen = np.unique(width, return_index=True)
    for w in widths[np.argsort(first_seen)].tolist():
        key = PatternKey(PatternType.DELTA, (w,))
        report.encoded_by_pattern[key] = int(length[width == w].sum())
    parts.append(
        UnitArrays(
            (DELTA8, DELTA16, DELTA32),
            np.searchsorted([1, 2, 4], width),
            rows[elems[first]],
            cols[elems[first]],
            length,
            cols[elems],
        )
    )
    units = UnitArrays.concat(parts).sorted_by_anchor()
    # Row-major anchor order, then attach values in execution order.
    return _attach_values(units, rows, cols, vals, scan.index), report


def detect_and_encode(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n_cols: int,
    config: Optional[DetectionConfig] = None,
) -> tuple[list[Unit], DetectionReport]:
    """:func:`detect_units` returning a :class:`Unit` list (sorted by
    anchor, values attached in execution order)."""
    units, report = detect_units(rows, cols, vals, n_cols, config)
    return units.to_units(), report


def _attach_values(
    units: UnitArrays,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    index: _ElementIndex,
) -> UnitArrays:
    """Fill the units' ``values`` by looking their coordinates up in the
    element set (values are stored substructure-wise, Section IV-A)."""
    ur, uc = units.coordinates()
    sel = index.find(ur, uc)
    if np.any(sel < 0) or not (
        np.array_equal(rows[sel], ur) and np.array_equal(cols[sel], uc)
    ):
        raise ValueError("unit references a missing element")
    units.values = vals[sel]
    return units
