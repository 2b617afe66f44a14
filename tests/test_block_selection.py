"""Oracle test: vectorized dense-block selection equals the greedy loop.

``_block_candidates`` picks non-overlapping dense blocks greedily in
row-major anchor order. It resolves that greedy choice in vectorized
rounds and finishes long chains of overlapping anchors with a row
sweep. The reference below is the plain per-anchor loop over a
``taken`` cell set; both must return the same anchors in the same
order for every block shape, with and without a ``consumed`` mask.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.csx import detect
from repro.formats.csx.detect import (
    DetectionConfig,
    _block_candidates,
    _ElementIndex,
)
from repro.fuzz.generators import generate_case
from repro.matrices.suite import get_entry

SHAPES = DetectionConfig().block_shapes


def reference_block_candidates(rows, cols, n_cols, shape, consumed=None):
    """The per-anchor greedy loop over a ``taken`` cell set."""
    br, bc = shape
    keys = rows.astype(np.int64) * n_cols + cols.astype(np.int64)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if consumed is not None:
        free_sorted = ~consumed[order]
    else:
        free_sorted = np.ones(keys.size, dtype=bool)

    def present(qkeys):
        idx = np.searchsorted(sorted_keys, qkeys)
        ok = idx < sorted_keys.size
        hit = np.zeros(qkeys.size, dtype=bool)
        safe = np.where(ok, idx, 0)
        hit[ok] = (sorted_keys[safe[ok]] == qkeys[ok]) & free_sorted[safe[ok]]
        return hit

    if consumed is not None:
        anchor_mask = ~consumed
    else:
        anchor_mask = np.ones(rows.size, dtype=bool)
    cand_r = rows[anchor_mask].astype(np.int64)
    cand_c = cols[anchor_mask].astype(np.int64)
    in_range = cand_c + bc <= n_cols
    cand_r, cand_c = cand_r[in_range], cand_c[in_range]
    if cand_r.size == 0:
        return []

    full = np.ones(cand_r.size, dtype=bool)
    for dr in range(br):
        for dc in range(bc):
            if dr == 0 and dc == 0:
                continue
            q = (cand_r + dr) * n_cols + (cand_c + dc)
            full &= present(q)
            if not np.any(full):
                return []
    anchors_r = cand_r[full]
    anchors_c = cand_c[full]

    order2 = np.lexsort((anchors_c, anchors_r))
    chosen = []
    taken = set()
    for i in order2:
        r0, c0 = int(anchors_r[i]), int(anchors_c[i])
        cells = [(r0 + dr, c0 + dc) for dr in range(br) for dc in range(bc)]
        if any(cell in taken for cell in cells):
            continue
        taken.update(cells)
        chosen.append((r0, c0))
    return chosen


def assert_same_selection(rows, cols, n_cols, consumed=None):
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    index = _ElementIndex(rows, cols, n_cols)
    for shape in SHAPES:
        ar, ac = _block_candidates(index, shape, consumed)
        got = list(zip(ar.tolist(), ac.tolist()))
        want = reference_block_candidates(rows, cols, n_cols, shape, consumed)
        assert got == want, shape


@st.composite
def block_patterns(draw):
    """Sparse noise plus dense rectangles: large rectangles give long
    chains of overlapping anchors, like the dense blocks of ``nd12k``."""
    n_rows = draw(st.integers(1, 48))
    n_cols = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((n_rows, n_cols)) < draw(st.floats(0.0, 0.6))
    for _ in range(draw(st.integers(0, 4))):
        r0 = int(rng.integers(0, n_rows))
        c0 = int(rng.integers(0, n_cols))
        h = int(rng.integers(1, n_rows - r0 + 1))
        w = int(rng.integers(1, n_cols - c0 + 1))
        mask[r0 : r0 + h, c0 : c0 + w] = True
    rows, cols = np.nonzero(mask)
    perm = rng.permutation(rows.size)
    consumed = None
    if draw(st.booleans()):
        consumed = rng.random(rows.size) < draw(st.floats(0.0, 0.5))
    return rows[perm], cols[perm], n_cols, consumed


@pytest.fixture(params=[0.0, 0.5, 1.0], ids=["rounds", "mixed", "sweep"])
def round_cutoff(request, monkeypatch):
    """Exercise rounds only, an early hand-over, and a hand-over right
    after the first round (the sweep decides nearly everything)."""
    monkeypatch.setattr(detect, "_ROUND_MIN_DECIDED", request.param)


@given(block_patterns())
@settings(max_examples=60, deadline=None)
def test_matches_greedy_loop(pattern):
    assert_same_selection(*pattern)


def test_matches_greedy_loop_every_hand_over(round_cutoff):
    rng = np.random.default_rng(3)
    mask = rng.random((60, 80)) < 0.3
    mask[5:45, 10:70] = True  # one long chain of overlapping anchors
    rows, cols = np.nonzero(mask)
    assert_same_selection(rows, cols, 80)
    assert_same_selection(rows, cols, 80, rng.random(rows.size) < 0.1)


@pytest.mark.parametrize("index", range(22))
def test_matches_greedy_loop_on_fuzz_cases(index):
    coo = generate_case(7, index).coo
    assert_same_selection(coo.rows, coo.cols, coo.n_cols)
    consumed = np.random.default_rng(index).random(coo.nnz) < 0.2
    assert_same_selection(coo.rows, coo.cols, coo.n_cols, consumed)


def test_matches_greedy_loop_on_nd12k():
    """Dense clustered rows: the long-chain case rounds alone are slow on."""
    lower = get_entry("nd12k").build(scale=0.01).lower_triangle(strict=True)
    assert_same_selection(lower.rows, lower.cols, lower.n_cols)
    consumed = np.random.default_rng(0).random(lower.nnz) < 0.05
    assert_same_selection(lower.rows, lower.cols, lower.n_cols, consumed)
