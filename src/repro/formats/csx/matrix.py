"""The CSX storage format (unsymmetric variant), paper Section IV-A.

A :class:`CSXMatrix` is preprocessed per thread partition, exactly like
the original implementation: each partition owns an independent ``ctl``
byte stream, values array and compiled execution plan, so the
multithreaded SpM×V simply runs one partition per thread (rows never
conflict for the unsymmetric kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..base import VALUE_BYTES, SparseFormat
from ..coo import COOMatrix
from .ctl import (
    build_pattern_table,
    decode_ctl,
    encode_ctl,
    encode_pattern_table,
)
from .detect import DetectionConfig, DetectionReport, detect_units
from .plan import ExecutionPlan, compile_units, plan_triples
from .substructures import Unit, UnitArrays

__all__ = ["CSXPartition", "CSXMatrix"]


@dataclass
class CSXPartition:
    """One thread's share of a CSX matrix.

    ``unit_arrays`` holds the units decoded from ``ctl`` (with values
    attached), as struct-of-arrays in execution order; the build makes
    no :class:`Unit` objects (:attr:`units` is an adapter).
    """

    row_start: int
    row_end: int
    unit_arrays: UnitArrays
    ctl: bytes
    pattern_table_bytes: bytes
    plan: ExecutionPlan
    report: DetectionReport

    @property
    def units(self) -> list[Unit]:
        """The decoded units as :class:`Unit` objects, values attached.

        Built afresh from ``unit_arrays`` on every access: a read-only
        copy (edits to it do not reach the partition), costing O(units)
        of Python. Use ``unit_arrays`` in loops.
        """
        return self.unit_arrays.to_units()

    @property
    def n_elements(self) -> int:
        return self.unit_arrays.n_elements

    def ctl_bytes(self) -> int:
        return len(self.ctl) + len(self.pattern_table_bytes)


def encode_partition(
    units: UnitArrays,
    report: DetectionReport,
    row_start: int,
    row_end: int,
    n_rows: int,
) -> CSXPartition:
    """Encode a partition's units into ``ctl`` and compile its plan.

    Arrays go to bytes and back to arrays: :func:`encode_ctl` validates
    every unit and writes the stream, :func:`decode_ctl` reads it back.
    Fidelity check: the plan is compiled from the *decoded* stream so
    the bytes we account for are the bytes we execute.
    """
    table = build_pattern_table(units)
    ctl = encode_ctl(units, table)
    decoded = decode_ctl(ctl, {i: p for p, i in table.items()})
    if decoded.n_units != units.n_units or not np.array_equal(
        decoded.length, units.length
    ):
        raise AssertionError("ctl round-trip lost units")
    decoded.values = units.values
    return CSXPartition(
        row_start, row_end, decoded, ctl, encode_pattern_table(table),
        compile_units(decoded, n_rows), report,
    )


def _encode_partition(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n_rows: int,
    n_cols: int,
    row_start: int,
    row_end: int,
    config: DetectionConfig,
) -> CSXPartition:
    """Run the full CSX pipeline on one row slice."""
    mask = (rows >= row_start) & (rows < row_end)
    units, report = detect_units(
        rows[mask], cols[mask], vals[mask], n_cols, config
    )
    return encode_partition(units, report, row_start, row_end, n_rows)


class CSXMatrix(SparseFormat):
    """Compressed Sparse eXtended storage.

    Parameters
    ----------
    coo : COOMatrix
        Source matrix (all non-zeros stored; use
        :class:`~repro.formats.csx.sym.CSXSymMatrix` for the symmetric
        variant).
    partitions : sequence of (row_start, row_end), optional
        Thread partition boundaries; default one partition covering the
        whole matrix (serial build).
    config : DetectionConfig, optional
    """

    format_name = "csx"

    def __init__(
        self,
        coo: COOMatrix,
        partitions: Optional[Sequence[tuple[int, int]]] = None,
        config: Optional[DetectionConfig] = None,
    ):
        super().__init__(coo.shape)
        self.config = config or DetectionConfig()
        if partitions is None:
            partitions = [(0, self.n_rows)]
        self._check_partitions(partitions)
        rows = coo.rows.astype(np.int64)
        cols = coo.cols.astype(np.int64)
        self.partitions: list[CSXPartition] = [
            _encode_partition(
                rows,
                cols,
                coo.vals,
                self.n_rows,
                self.n_cols,
                start,
                end,
                self.config,
            )
            for start, end in partitions
        ]
        self._nnz = int(coo.nnz)
        total = sum(p.n_elements for p in self.partitions)
        if total != self._nnz:
            raise AssertionError(
                f"encoded {total} elements, expected {self._nnz}"
            )

    def _check_partitions(self, partitions: Sequence[tuple[int, int]]) -> None:
        prev_end = 0
        for start, end in partitions:
            if start != prev_end or end < start:
                raise ValueError(
                    f"partitions must tile [0, n_rows) contiguously, got "
                    f"{list(partitions)}"
                )
            prev_end = end
        if prev_end != self.n_rows:
            raise ValueError("partitions must cover all rows")

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def stored_entries(self) -> int:
        return self._nnz

    def size_bytes(self) -> int:
        """values + ctl stream + pattern tables."""
        return self._nnz * VALUE_BYTES + sum(
            p.ctl_bytes() for p in self.partitions
        )

    def ctl_size_bytes(self) -> int:
        """Indexing metadata only (the part CSX compresses)."""
        return sum(p.ctl_bytes() for p in self.partitions)

    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        x, y = self._check_spmv_args(x, y)
        for p in self.partitions:
            p.plan.execute(x, y)
        return y

    def spmm(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Multi-RHS product through the compiled plans: each partition's
        CSR is traversed once for all ``k`` columns."""
        X, Y = self._check_spmm_args(X, Y)
        for p in self.partitions:
            p.plan.execute(X, Y)
        return Y

    def spmv_partition_only(
        self, x: np.ndarray, y: np.ndarray, part_index: int
    ) -> None:
        """Execute a single partition's plan (one thread's work).

        For unsymmetric CSX partitions write disjoint row ranges, so
        threads need no reduction."""
        self.partitions[part_index].plan.execute(x, y)

    #: The plan takes ``(n, k)`` blocks as they are.
    spmm_partition_only = spmv_partition_only

    def to_coo(self) -> COOMatrix:
        return COOMatrix(
            self.shape,
            *plan_triples([p.plan for p in self.partitions]),
            sum_duplicates=False,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def detection_reports(self) -> list[DetectionReport]:
        return [p.report for p in self.partitions]

    def substructure_coverage(self) -> float:
        """Fraction of elements encoded as (non-delta) substructures."""
        if self._nnz == 0:
            return 0.0
        covered = sum(
            n
            for p in self.partitions
            for pat, n in p.report.encoded_by_pattern.items()
            if not pat.is_delta
        )
        return covered / self._nnz
