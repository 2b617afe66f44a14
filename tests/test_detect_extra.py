"""Additional CSX detection edge cases: sampling determinism, pattern
budget limits, gain thresholds."""

import numpy as np
import pytest

from repro.formats.csx.ctl import build_pattern_table
from repro.formats.csx.detect import (
    DetectionConfig,
    detect_and_encode,
    select_patterns,
)
from repro.formats.csx.detect import PatternStats
from repro.formats.csx.substructures import (
    FIRST_DYNAMIC_ID,
    MAX_PATTERN_ID,
    PatternKey,
    PatternType,
    Unit,
    UnitArrays,
)


def _grid_elements(n=60, stride=1):
    rows, cols = [], []
    for r in range(n):
        for k in range(6):
            rows.append(r)
            cols.append((r + k * stride) % n)
    rows = np.array(rows, dtype=np.int64)
    cols = np.array(cols, dtype=np.int64)
    keys = rows * n + cols
    _, idx = np.unique(keys, return_index=True)
    return rows[idx], cols[idx], n


def test_sampling_is_deterministic():
    rows, cols, n = _grid_elements()
    config = DetectionConfig(sampling_fraction=0.4, sampling_window=8,
                             sampling_seed=7)
    a, _ = detect_and_encode(rows, cols, np.ones(rows.size), n, config)
    b, _ = detect_and_encode(rows, cols, np.ones(rows.size), n, config)
    assert [(u.pattern, u.row, u.col, u.length) for u in a] == [
        (u.pattern, u.row, u.col, u.length) for u in b
    ]


def test_different_seed_may_change_selection_not_correctness():
    rows, cols, n = _grid_elements()
    for seed in (1, 2, 3):
        config = DetectionConfig(
            sampling_fraction=0.3, sampling_window=8, sampling_seed=seed
        )
        units, report = detect_and_encode(
            rows, cols, np.ones(rows.size), n, config
        )
        assert sum(u.length for u in units) == rows.size


def test_min_coverage_threshold_prunes():
    rows, cols, n = _grid_elements()
    strict = DetectionConfig(min_coverage=0.99)
    units, report = detect_and_encode(
        rows, cols, np.ones(rows.size), n, strict
    )
    assert report.selected == []  # nothing covers 99% alone
    assert all(u.pattern.is_delta for u in units)


def test_select_patterns_respects_id_budget():
    budget = MAX_PATTERN_ID - FIRST_DYNAMIC_ID + 1
    stats = {}
    for d in range(1, budget + 10):
        key = PatternKey(PatternType.HORIZONTAL, (d,))
        stats[key] = PatternStats(key, covered=10_000 - d, n_units=10)
    config = DetectionConfig(min_coverage=0.0)
    selected = select_patterns(stats, 100_000, 100_000, config)
    assert len(selected) == budget


def test_pattern_table_overflow_raises():
    units = [
        Unit(PatternKey(PatternType.HORIZONTAL, (d,)), row=d, col=0,
             length=4)
        for d in range(1, MAX_PATTERN_ID - FIRST_DYNAMIC_ID + 3)
    ]
    with pytest.raises(ValueError, match="overflow"):
        build_pattern_table(UnitArrays.from_units(units))


def test_zero_gain_patterns_not_selected():
    key = PatternKey(PatternType.VERTICAL, (1,))
    stats = {key: PatternStats(key, covered=3, n_units=1)}
    config = DetectionConfig(min_coverage=0.0)
    assert select_patterns(stats, 100, 100, config) == []


def test_stride_candidates_capped():
    """At most max_deltas_per_type instantiations per orientation."""
    rows, cols = [], []
    r = 0
    for stride in (1, 2, 3, 4, 5):
        for run in range(3):
            for k in range(8):
                rows.append(r)
                cols.append(10 + k * stride)
            r += 1
    rows = np.array(rows, dtype=np.int64)
    cols = np.array(cols, dtype=np.int64)
    config = DetectionConfig(max_deltas_per_type=2, enable_blocks=False,
                             enable_vertical=False,
                             enable_diagonal=False,
                             enable_anti_diagonal=False)
    units, report = detect_and_encode(
        rows, cols, np.ones(rows.size), 200, config
    )
    horiz = {
        u.pattern.params for u in units
        if u.pattern.type is PatternType.HORIZONTAL
    }
    assert len(horiz) <= 2
    assert sum(u.length for u in units) == rows.size
