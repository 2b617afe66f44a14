"""Checkpointable out-of-core CG/PCG: sharded operator + durable state.

:func:`checkpointed_cg` wires three pieces that are each independently
tested — the :class:`~repro.ooc.operator.ShardedOperator` (bounded
resident matrix bytes), the CG recurrence (Jacobi-preconditioned or
not) with its ``checkpoint``/``resume_from`` hooks, and the
:class:`~repro.ooc.checkpoint.CheckpointStore` (atomic generations,
CRC-verified recovery) — into one crash-safe solve:

* every ``checkpoint_every`` iterations the full recurrence state is
  made durable under generation = iteration number;
* ``resume=True`` restarts from the newest *verifiable* generation
  (falling back over torn/corrupt ones) and continues bit-identically
  — same iterates, same final iteration count — as the uninterrupted
  solve; with no usable generation it degrades to a fresh start, so
  a process killed before its first checkpoint just runs again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs.tracer import active as _active_tracer
from ..solvers.cg import (
    CGResult,
    CGState,
    conjugate_gradient,
    jacobi_preconditioner,
)
from .checkpoint import CheckpointStore

__all__ = ["OOCSolveResult", "checkpointed_cg"]


@dataclass
class OOCSolveResult:
    """A solve's :class:`CGResult` plus its recovery provenance."""

    result: CGResult
    #: Generation (iteration number) the solve resumed from; ``None``
    #: for a fresh start (no store, resume off, or nothing durable).
    resumed_from: Optional[int]


def checkpointed_cg(
    operator,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iter: Optional[int] = None,
    store: Optional[CheckpointStore] = None,
    checkpoint_every: int = 10,
    resume: bool = False,
    precond: str = "none",
) -> OOCSolveResult:
    """Solve ``A x = b`` with durable, resumable CG.

    Parameters
    ----------
    operator : callable ``y = A(x)``
        Typically a :class:`~repro.ooc.operator.ShardedOperator`; for
        ``precond="jacobi"`` it must also expose ``diagonal()``.
    store : CheckpointStore, optional
        Without one the solve runs unprotected (no persistence).
    checkpoint_every : int
        Iterations between durable snapshots (>= 1 when a store is
        given).
    resume : bool
        Restart from ``store.latest()`` when it yields a verifiable
        state; the state's solver tag must match ``precond`` (a
        ``"cg"`` state cannot seed a Jacobi solve).
    precond : ``"none"`` or ``"jacobi"``.
    """
    if precond not in ("none", "jacobi"):
        raise ValueError(f"unknown preconditioner {precond!r}")
    if store is not None and checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    tracer = _active_tracer()

    resume_state: Optional[CGState] = None
    resumed_from: Optional[int] = None
    if resume and store is not None:
        found = store.latest()
        if found is not None:
            resumed_from, state_dict = found
            resume_state = CGState.from_dict(state_dict)
            tracer.event(
                "ooc.resume", generation=resumed_from,
                solver=resume_state.solver,
            )
            if tracer.enabled:
                tracer.count("ooc.resumes")

    checkpoint_cb = None
    if store is not None:
        def checkpoint_cb(state: CGState) -> None:
            store.save(state.iteration, state.to_dict())

    result = conjugate_gradient(
        operator, b,
        precond=(
            jacobi_preconditioner(operator.diagonal())
            if precond == "jacobi" else None
        ),
        tol=tol, max_iter=max_iter,
        checkpoint=checkpoint_cb, checkpoint_every=checkpoint_every,
        resume_from=resume_state,
    )
    return OOCSolveResult(result, resumed_from)
