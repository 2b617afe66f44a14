"""Iterative solvers: instrumented CG (Alg. 1, optionally
Jacobi-preconditioned through ``precond=``) and the multi-RHS block CG
riding the SpM×M fast path. Both guard their recurrences (non-finite
scalars, indefinite curvature, stagnation) and report faults as typed
:class:`Breakdown` diagnoses instead of iterating to ``max_iter``."""

from .block_cg import BlockCGResult, block_conjugate_gradient
from .cg import (
    CGResult,
    CGState,
    bind_operator,
    conjugate_gradient,
    jacobi_preconditioner,
)
from .guards import BREAKDOWN_KINDS, Breakdown, BreakdownDetector
from .vecops import OpCounter, VectorOps

__all__ = [
    "Breakdown",
    "BreakdownDetector",
    "BREAKDOWN_KINDS",
    "CGResult",
    "CGState",
    "conjugate_gradient",
    "bind_operator",
    "BlockCGResult",
    "block_conjugate_gradient",
    "jacobi_preconditioner",
    "OpCounter",
    "VectorOps",
]
