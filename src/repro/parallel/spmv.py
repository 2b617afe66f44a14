"""Multithreaded SpM×V orchestration (paper Alg. 3 and Section III).

:class:`ParallelSymmetricSpMV` wires a symmetric format (SSS or
CSX-Sym), a thread partitioning and a reduction method into the
two-phase kernel: per-thread multiplication into direct/local targets,
then the reduction of local vectors into the output.

:class:`ParallelSpMV` is the unsymmetric counterpart (CSR / CSX): rows
are independent, so there is no reduction phase at all.

Both drivers apply through one path, the bound operator of
:mod:`repro.parallel.bound`. ``driver.bind(k)`` returns a new operator
the caller owns; ``driver.operator(k)`` binds once per ``k`` and keeps
the operator until ``driver.close()``; a plain ``driver(x)`` applies
that cached operator and copies the result into a fresh (or the given)
output. Every call therefore runs on the driver's
:class:`~repro.parallel.executor.Executor` exactly as a bound call
does.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Union

import numpy as np

from ..formats.base import SymmetricFormat
from ..formats.csr import CSRMatrix
from ..formats.csx.matrix import CSXMatrix
from ..formats.validate import check_driver_x, prepare_driver_y
from .bound import BoundOperator, BoundSpMV, BoundSymmetricSpMV
from .executor import Executor
from .partition import validate_partitions
from .reduction import ReductionFootprint, ReductionMethod, make_reduction

__all__ = ["ParallelSymmetricSpMV", "ParallelSpMV"]


class _Driver:
    """The surface both drivers share: ``bind``, the per-``k`` cache of
    bound operators behind ``operator`` and plain calls, and ``close``.

    Concurrent callers of one driver serialize on the cached operator's
    lock. A solver handed a driver applies ``operator(k)`` directly and
    reads its workspace, so concurrent solves need one driver (or one
    ``bind()``) each."""

    _bound_type: type

    def __init__(
        self,
        matrix,
        partitions: Sequence[tuple[int, int]],
        executor: Optional[Executor],
    ):
        validate_partitions(partitions, matrix.n_rows)
        self.matrix = matrix
        self.partitions = [(int(s), int(e)) for s, e in partitions]
        self.executor = executor or Executor("serial")
        self._ops: dict[Optional[int], BoundOperator] = {}
        self._ops_lock = threading.Lock()

    @property
    def n_threads(self) -> int:
        return len(self.partitions)

    def bind(self, k: Optional[int] = None) -> BoundOperator:
        """A new :class:`~repro.parallel.bound.BoundOperator` for ``k``
        right-hand sides (``None`` = 1-D SpM×V): persistent workspaces
        and precompiled tasks. The caller owns it and must
        close it."""
        return self._bound_type(self, k)

    def operator(self, k: Optional[int] = None) -> BoundOperator:
        """The driver's own operator for ``k``: bound on first use,
        then cached until :meth:`close`. One instance per ``k`` is
        shared by every caller; it serializes its own applies."""
        op = self._ops.get(k)  # lock-free hit: dict.get is atomic
        if op is None:
            with self._ops_lock:
                op = self._ops.get(k)
                if op is None:
                    op = self.bind(k)
                    op._owned = True
                    self._ops[k] = op
        return op

    def __call__(
        self, x: np.ndarray, y: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute ``y = A @ x`` through :meth:`operator`. ``x`` may be
        a vector ``(n,)`` or a block of ``k`` right-hand sides
        ``(n, k)`` (one matrix traversal for all columns). The result
        is ``y`` if given, else a fresh array."""
        x = check_driver_x(x, self.matrix.n_cols)
        y = prepare_driver_y(y, self.matrix.n_rows, x)
        return self.operator(x.shape[1] if x.ndim == 2 else None)(x, out=y)

    def close(self) -> None:
        """Close the cached operators. Idempotent; a later call binds
        again."""
        with self._ops_lock:
            ops, self._ops = list(self._ops.values()), {}
        for op in ops:
            op.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ParallelSymmetricSpMV(_Driver):
    """Two-phase multithreaded symmetric SpM×V.

    Parameters
    ----------
    matrix : SymmetricFormat
        SSS or CSX-Sym matrix. For CSX-Sym the partitions must match
        the ones the matrix was preprocessed for.
    partitions : sequence of (row_start, row_end)
    reduction : str or ReductionMethod
        ``"naive"``, ``"effective"`` or ``"indexed"`` (Section III), or
        ``"coloring"`` (conflict-free scheduling, no reduction phase),
        or a prebuilt method instance.
    executor : Executor, optional
    """

    _bound_type = BoundSymmetricSpMV

    def __init__(
        self,
        matrix: SymmetricFormat,
        partitions: Sequence[tuple[int, int]],
        reduction: Union[str, ReductionMethod] = "indexed",
        executor: Optional[Executor] = None,
    ):
        super().__init__(matrix, partitions, executor)
        if isinstance(reduction, str):
            reduction = make_reduction(reduction, matrix, self.partitions)
        self.reduction = reduction

    def footprint(self, k: int = 1) -> ReductionFootprint:
        """Working-set accounting of the configured reduction (``k``
        right-hand sides per pass)."""
        return self.reduction.footprint(k)


class ParallelSpMV(_Driver):
    """Row-partitioned multithreaded *unsymmetric* SpM×V (CSR / CSX).

    Output rows are exclusive to their thread, so phase 2 is empty —
    the baseline the symmetric kernels are compared against.
    """

    _bound_type = BoundSpMV

    def __init__(
        self,
        matrix: Union[CSRMatrix, CSXMatrix],
        partitions: Sequence[tuple[int, int]],
        executor: Optional[Executor] = None,
    ):
        super().__init__(matrix, partitions, executor)
        if isinstance(matrix, CSXMatrix):
            want = [(p.row_start, p.row_end) for p in matrix.partitions]
            if want != self.partitions:
                raise ValueError(
                    "CSX matrix was preprocessed for different partitions"
                )
