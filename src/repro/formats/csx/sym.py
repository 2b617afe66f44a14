"""CSX-Sym: the symmetric CSX variant (paper Section IV-B).

CSX-Sym stores the main diagonal in a dense ``dvalues`` array (like SSS)
and runs the CSX substructure machinery on the *strictly lower*
triangle only. One restriction is added: a substructure whose transposed
writes would hit both the thread's local vector and the output vector
(i.e. whose column span straddles the partition's ``row_start``
boundary, Fig. 8) is rejected and falls back to delta units — this
avoids a per-element routing check inside the generated kernel.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..base import VALUE_BYTES, SymmetricFormat
from ..coo import COOMatrix
from ..validate import SymmetryError
from .detect import DetectionConfig, DetectionReport, detect_units
from .matrix import CSXPartition, encode_partition
from .plan import plan_triples
from .substructures import (
    Unit,
    UnitArrays,
    delta_pattern_for,
)

__all__ = ["CSXSymMatrix", "legalize", "legalize_units"]


def legalize(units: UnitArrays, boundary: int) -> tuple[UnitArrays, int]:
    """Apply the CSX-Sym legality filter for a partition starting at
    ``boundary``.

    A substructure is legal iff all its columns are on one side of
    ``boundary`` (all-local or all-direct transposed writes). Rejected
    substructures are broken into per-row delta units, stored as
    generic delta units instead. Returns the legalized units re-sorted
    into ``ctl`` order and the number of rejected substructure units.
    """
    if units.n_units == 0:
        return units, 0
    rows, cols = units.coordinates()
    starts = units.starts()
    straddles = (
        ~units.unit_is_delta()
        & (np.minimum.reduceat(cols, starts) < boundary)
        & (boundary <= np.maximum.reduceat(cols, starts))
    )
    rejected = int(np.count_nonzero(straddles))
    parts = [units.take(np.flatnonzero(~straddles))]
    if rejected:
        elems = np.repeat(straddles, units.length)
        unit = np.repeat(np.arange(units.n_units), units.length)[elems]
        rows, cols = rows[elems], cols[elems]
        order = np.lexsort((cols, rows, unit))
        unit, rows, cols = unit[order], rows[order], cols[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (unit[1:] != unit[:-1]) | (rows[1:] != rows[:-1])
        seg = np.flatnonzero(first)
        gaps = np.diff(cols, prepend=0)
        gaps[seg] = 0
        widest, code = np.unique(
            np.maximum.reduceat(gaps, seg), return_inverse=True
        )
        parts.append(
            UnitArrays(
                tuple(delta_pattern_for(int(g)) for g in widest),
                code,
                rows[seg],
                cols[seg],
                np.diff(np.append(seg, rows.size)),
                cols,
                None if units.values is None
                else units.values[elems][order],
            )
        )
    return UnitArrays.concat(parts).sorted_by_anchor(), rejected


def legalize_units(
    units: Sequence[Unit], boundary: int
) -> tuple[list[Unit], int]:
    """:func:`legalize` for a :class:`Unit` list. Legal units come back
    as the same objects."""
    out, rejected = legalize(UnitArrays.from_units(units), boundary)
    kept = {(u.row, u.col, u.pattern): u for u in units}
    return [
        kept.get((u.row, u.col, u.pattern), u) for u in out.to_units()
    ], rejected


class CSXSymMatrix(SymmetricFormat):
    """Symmetric CSX storage.

    Parameters
    ----------
    coo : COOMatrix
        Fully expanded symmetric matrix.
    partitions : sequence of (row_start, row_end), optional
        Thread partitions the matrix is preprocessed for (defaults to a
        single serial partition). The legality filter and the
        partitioned kernel both depend on these boundaries, exactly as
        in the original implementation where CSX-Sym is built per
        thread.
    config : DetectionConfig, optional
    check_symmetry : bool
    """

    format_name = "csx-sym"

    def __init__(
        self,
        coo: COOMatrix,
        partitions: Optional[Sequence[tuple[int, int]]] = None,
        config: Optional[DetectionConfig] = None,
        *,
        check_symmetry: bool = True,
        legality_filter: bool = True,
    ):
        super().__init__(coo.shape)
        if check_symmetry and not coo.is_symmetric():
            raise SymmetryError("CSX-Sym requires a symmetric matrix")
        self.config = config or DetectionConfig()
        self.legality_filter = legality_filter
        if partitions is None:
            partitions = [(0, self.n_rows)]
        self._partition_bounds = [(int(s), int(e)) for s, e in partitions]
        self._check_partitions()

        self.dvalues = coo.diagonal()
        lower = coo.lower_triangle(strict=True)
        rows = lower.rows.astype(np.int64)
        cols = lower.cols.astype(np.int64)

        self.partitions: list[CSXPartition] = []
        self.rejected_units = 0
        for start, end in self._partition_bounds:
            mask = (rows >= start) & (rows < end)
            units, report = detect_units(
                rows[mask], cols[mask], lower.vals[mask], self.n_cols,
                self.config,
            )
            if self.legality_filter:
                units, nrej = legalize(units, start)
                self.rejected_units += nrej
            self.partitions.append(
                encode_partition(units, report, start, end, self.n_rows)
            )
        self._nnz_lower = int(lower.nnz)
        total = sum(p.n_elements for p in self.partitions)
        if total != self._nnz_lower:
            raise AssertionError(
                f"encoded {total} lower elements, expected {self._nnz_lower}"
            )
        self._part_index = {
            (s, e): i for i, (s, e) in enumerate(self._partition_bounds)
        }

    def _check_partitions(self) -> None:
        prev = 0
        for start, end in self._partition_bounds:
            if start != prev or end < start:
                raise ValueError("partitions must tile [0, n_rows)")
            prev = end
        if prev != self.n_rows:
            raise ValueError("partitions must cover all rows")

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(
            2 * self._nnz_lower + np.count_nonzero(self.dvalues)
        )

    @property
    def stored_entries(self) -> int:
        return self.n_rows + self._nnz_lower

    @property
    def nnz_lower(self) -> int:
        return self._nnz_lower

    def size_bytes(self) -> int:
        """dvalues + lower values + ctl streams + pattern tables."""
        return (
            self.n_rows * VALUE_BYTES
            + self._nnz_lower * VALUE_BYTES
            + sum(p.ctl_bytes() for p in self.partitions)
        )

    def ctl_size_bytes(self) -> int:
        return sum(p.ctl_bytes() for p in self.partitions)

    def serial_partitions(self) -> list[tuple[int, int]]:
        return self._partition_bounds

    def spmv_partition(
        self,
        x: np.ndarray,
        y_direct: np.ndarray,
        y_local: np.ndarray,
        row_start: int,
        row_end: int,
    ) -> None:
        """One thread's multiplication phase (Alg. 3 lines 2-11): the
        diagonal, then one fused pass of the partition's compiled plan.
        ``(row_start, row_end)`` must be one of the partitions the
        matrix was preprocessed for. Takes ``(n,)`` or ``(n, k)``
        operands."""
        try:
            i = self._part_index[(row_start, row_end)]
        except KeyError:
            raise ValueError(
                f"({row_start}, {row_end}) is not a preprocessed partition; "
                f"available: {self._partition_bounds}"
            ) from None
        self.partitions[i].plan.execute(
            x, y_direct, y_local, row_start,
            diag=self.dvalues, diag_rows=(row_start, row_end),
        )

    spmm_partition = spmv_partition  # the kernel takes (n, k) blocks

    def to_coo(self) -> COOMatrix:
        r, c, v = plan_triples([p.plan for p in self.partitions])
        diag_rows = np.flatnonzero(self.dvalues).astype(np.int64)
        return COOMatrix(
            self.shape,
            np.concatenate([r, c, diag_rows]),
            np.concatenate([c, r, diag_rows]),
            np.concatenate([v, v, self.dvalues[diag_rows]]),
            sum_duplicates=False,
        )

    def lower_triple(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Lower-triangle CSR with ascending columns in each row, read
        from the partition plans (cached — the structure is immutable).

        The coloring scheduler consumes this; the encoded units
        themselves stay untouched, so CSX-Sym keeps its compressed
        in-memory representation while still joining the conflict-free
        schedule build.
        """
        cached = getattr(self, "_lower_triple_cache", None)
        if cached is not None:
            return cached
        rows, cols, vals = plan_triples([p.plan for p in self.partitions])
        order = np.lexsort((cols, rows))
        rowptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n_rows), out=rowptr[1:])
        cached = (self.dvalues, rowptr, cols[order], vals[order])
        self._lower_triple_cache = cached
        return cached

    def clear_caches(self) -> None:
        """Release the cached :meth:`lower_triple`."""
        self._lower_triple_cache = None

    # ------------------------------------------------------------------
    # Partition structure queries
    # ------------------------------------------------------------------
    @property
    def partition_bounds(self) -> list[tuple[int, int]]:
        return list(self._partition_bounds)

    def partition_conflict_rows(self, row_start: int, row_end: int) -> np.ndarray:
        """Unique output rows before ``row_start`` that the partition's
        transposed writes touch (= non-zeros of its local vector)."""
        plan = self.partitions[self._part_index[(row_start, row_end)]].plan
        cols = np.unique(plan.indices) + np.int64(plan.col_lo)
        return cols[cols < row_start]

    def detection_reports(self) -> list[DetectionReport]:
        return [p.report for p in self.partitions]

    def substructure_coverage(self) -> float:
        """Fraction of stored lower elements inside non-delta units."""
        if self._nnz_lower == 0:
            return 0.0
        covered = sum(
            int(p.unit_arrays.length[~p.unit_arrays.unit_is_delta()].sum())
            for p in self.partitions
        )
        return covered / self._nnz_lower
