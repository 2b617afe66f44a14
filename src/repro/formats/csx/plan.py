"""Vectorized execution plans: the library's stand-in for CSX codegen.

The original CSX emits an LLVM-JIT'ed SpM×V kernel per matrix so decoding
the ``ctl`` stream costs nothing per element at run time. A pure-Python
per-element interpreter would bury the experiment in interpreter
overhead, so we play the same trick at the numpy level: after decoding,
units are grouped by ``(pattern, length)`` into rectangular index/value
blocks, and SpM×V becomes one gather + multiply + segmented reduction
per group ("compiling" the matrix into a handful of vectorized
operations). This substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ...obs.tracer import active as _active_tracer
from ..base import RowScatter, bounded_cache_insert
from .substructures import PatternKey, PatternType, Unit, UnitArrays

__all__ = ["CompiledKernel", "ExecutionPlan", "compile_plan", "compile_units"]

#: Minimum cap on cached transposed local/direct splits per plan (the
#: actual cap scales with the kernel count; oldest boundary evicted).
TSPLIT_CACHE_MIN = 32


@dataclass
class CompiledKernel:
    """All units sharing one ``(pattern, element count)`` signature.

    Arrays are rectangular: one row per unit, one column per element.

    Attributes
    ----------
    rows2d, cols2d : (n_units, length) int64
        Element coordinates (output row, input column).
    values : (n_units, length) float64
    row_uniform : bool
        True when every element of a unit shares the unit's anchor row
        (horizontal and delta patterns) — those reduce with a row sum
        instead of a scatter.
    """

    pattern: PatternKey
    length: int
    rows2d: np.ndarray
    cols2d: np.ndarray
    values: np.ndarray
    row_uniform: bool

    @property
    def n_units(self) -> int:
        return self.rows2d.shape[0]

    @property
    def n_elements(self) -> int:
        return int(self.rows2d.size)


class ExecutionPlan:
    """Compiled SpM×V program for one CSX(-Sym) matrix (or partition)."""

    def __init__(self, n_rows: int, kernels: Sequence[CompiledKernel]):
        self.n_rows = n_rows
        self.kernels = list(kernels)
        # Lazy per-kernel scatter compilations (shared by the 1-D and
        # multi-RHS paths): kernel index -> RowScatter, and (kernel
        # index, boundary) -> (local positions, local scatter, direct
        # positions, direct scatter) for the transposed local/direct
        # split. Both are bounded; clear_caches() releases them. All
        # mutation (miss-path build, eviction, clear) runs under the
        # cache lock — concurrent bind()/apply through operators
        # sharing this plan read lock-free and keep local references.
        self._row_scatters: dict[int, RowScatter] = {}
        self._tsplit_cache: dict[tuple[int, int], tuple] = {}
        self._tsplit_cache_max = max(
            TSPLIT_CACHE_MIN, 4 * len(self.kernels)
        )
        self._cache_lock = threading.Lock()

    def __getstate__(self):
        # Locks are unpicklable; the process backend ships the plan to
        # workers through the shared arena. Workers get their own.
        state = self.__dict__.copy()
        del state["_cache_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()

    @property
    def n_elements(self) -> int:
        return sum(k.n_elements for k in self.kernels)

    def _scatter_for(self, i: int) -> RowScatter:
        """Cached window-restricted row scatter of kernel ``i``."""
        sc = self._row_scatters.get(i)
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.count(
                "csx.scatter_hit" if sc is not None else "csx.scatter_miss"
            )
        if sc is None:
            with self._cache_lock:
                sc = self._row_scatters.get(i)
                if sc is None:
                    k = self.kernels[i]
                    idx = (
                        k.rows2d[:, 0] if k.row_uniform
                        else k.rows2d.ravel()
                    )
                    sc = self._row_scatters[i] = RowScatter(idx)
        return sc

    def _tsplit_for(self, i: int, boundary: int) -> tuple:
        """Cached local/direct split of kernel ``i``'s transposed
        writes at ``boundary`` (positions + window scatters)."""
        cache = self._tsplit_cache.get((i, boundary))
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.count(
                "csx.tsplit_hit" if cache is not None else "csx.tsplit_miss"
            )
        if cache is None:
            with self._cache_lock:
                cache = self._tsplit_cache.get((i, boundary))
                if cache is None:
                    cols = self.kernels[i].cols2d.ravel()
                    local_pos = np.flatnonzero(cols < boundary)
                    direct_pos = np.flatnonzero(cols >= boundary)
                    cache = (
                        local_pos,
                        RowScatter(cols[local_pos]),
                        direct_pos,
                        RowScatter(cols[direct_pos]),
                    )
                    bounded_cache_insert(
                        self._tsplit_cache, (i, boundary), cache,
                        self._tsplit_cache_max,
                    )
        return cache

    def execute(self, x: np.ndarray, y: np.ndarray) -> None:
        """Accumulate ``A_plan @ x`` into ``y`` (not cleared here).

        ``x`` may be a vector ``(n,)`` or a multi-RHS block ``(n, k)``
        (with matching ``y``); either way each compiled kernel's index
        and value arrays are traversed exactly once, and every scatter
        is window-restricted to the kernel's effective row range.
        """
        multi = x.ndim == 2
        # Row-uniform units are summed along a contiguous axis, one
        # right-hand side at a time, so column j of the multi-RHS
        # result is bit-identical to the vector product with x[:, j]
        # (a strided-axis sum would run in a different order).
        xt = np.ascontiguousarray(x.T) if multi else None
        for i, k in enumerate(self.kernels):
            sc = self._scatter_for(i)
            if multi:
                if k.row_uniform:
                    products = k.values * xt.take(k.cols2d, axis=1)
                    sc.add(y, products.sum(axis=2).T)
                else:
                    products = k.values[..., None] * x[k.cols2d]
                    sc.add(y, products.reshape(-1, x.shape[1]))
            else:
                products = k.values * x[k.cols2d]
                if k.row_uniform:
                    sc.add(y, products.sum(axis=1))
                else:
                    sc.add(y, products.ravel())

    def execute_transposed_split(
        self,
        x: np.ndarray,
        y_direct: np.ndarray,
        y_local: np.ndarray,
        boundary: int,
    ) -> None:
        """Accumulate the *transposed* products ``A_plan^T @ x`` routing
        each write ``y[c] += a_rc * x[r]`` to ``y_direct`` when
        ``c >= boundary`` and to ``y_local`` otherwise.

        This is the upper-triangle half of the symmetric kernel
        (Alg. 3 line 8) with the local/direct split of Section III-B.
        Both sides scatter through the cached split, window-restricted
        to their effective column ranges.

        Accepts a vector ``(n,)`` or a multi-RHS block ``(n, k)``.
        """
        multi = x.ndim == 2
        for i, k in enumerate(self.kernels):
            if multi:
                products = (k.values[..., None] * x[k.rows2d]).reshape(
                    -1, x.shape[1]
                )
            else:
                products = (k.values * x[k.rows2d]).ravel()
            local_pos, local_sc, direct_pos, direct_sc = self._tsplit_for(
                i, boundary
            )
            if local_pos.size == 0:
                direct_sc.add(y_direct, products)
                continue
            local_sc.add(y_local, products[local_pos])
            if direct_pos.size:
                direct_sc.add(y_direct, products[direct_pos])

    def precompile(
        self, k: Optional[int] = None, boundary: Optional[int] = None
    ) -> None:
        """Eagerly build the row scatters (and, when ``boundary`` is
        given, the transposed local/direct split at that boundary) plus
        their flattened ``k``-RHS indices, so the first execution after
        a bind is not a compilation run."""
        for i in range(len(self.kernels)):
            self._scatter_for(i).compile(k)
            if boundary is not None:
                _, local_sc, _, direct_sc = self._tsplit_for(i, boundary)
                local_sc.compile(k)
                direct_sc.compile(k)

    def clear_caches(self) -> None:
        """Release the lazy scatter/split compilations (rebuilt on
        demand). Safe against concurrent execution: running kernels
        hold local references to the compiled structures."""
        with self._cache_lock:
            self._row_scatters.clear()
            self._tsplit_cache.clear()

    def element_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """All (rows, cols) covered by the plan, in no particular order."""
        if not self.kernels:
            z = np.zeros(0, dtype=np.int64)
            return z, z
        rows = np.concatenate([k.rows2d.ravel() for k in self.kernels])
        cols = np.concatenate([k.cols2d.ravel() for k in self.kernels])
        return rows, cols


def compile_units(units: UnitArrays, n_rows: int) -> ExecutionPlan:
    """Group units by ``(pattern, length)`` into :class:`CompiledKernel`
    blocks, kernels in that order and units in execution order inside
    each. The units must carry values."""
    if units.values is None:
        raise ValueError("cannot compile units without values")
    if units.values.size != units.n_elements:
        raise ValueError("unit values do not match unit lengths")
    if units.n_units == 0:
        return ExecutionPlan(n_rows, [])
    rows, cols = units.coordinates()
    starts = units.starts()
    # Stable: units keep their execution order inside a group.
    order = np.lexsort((units.length, units.code))
    code, length = units.code[order], units.length[order]
    bounds = np.flatnonzero((np.diff(code) != 0) | (np.diff(length) != 0))
    kernels: list[CompiledKernel] = []
    for lo, hi in zip(
        np.concatenate(([0], bounds + 1)).tolist(),
        np.concatenate((bounds + 1, [order.size])).tolist(),
    ):
        pattern = units.patterns[int(code[lo])]
        n = int(length[lo])
        elems = starts[order[lo:hi], None] + np.arange(n)
        kernels.append(
            CompiledKernel(
                pattern, n, rows[elems], cols[elems], units.values[elems],
                pattern.type in (PatternType.DELTA, PatternType.HORIZONTAL),
            )
        )
    return ExecutionPlan(n_rows, kernels)


def compile_plan(units: Sequence[Unit], n_rows: int) -> ExecutionPlan:
    """:func:`compile_units` for a :class:`Unit` list.

    Units must carry values (i.e. come from the encoder, or have values
    re-attached after a ctl decode).
    """
    return compile_units(UnitArrays.from_units(units), n_rows)
