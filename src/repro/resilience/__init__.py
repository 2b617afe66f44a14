"""Fault injection and failure containment for the execution stack.

PR 4's differential fuzzer hardened the library against adversarial
*inputs*; ``repro.resilience`` does the same for adversarial
*execution*. It owns two things:

* the **typed execution-failure taxonomy** (:mod:`.errors`):
  :class:`BatchExecutionError` (a task batch failed after full
  containment — every sibling awaited or cancelled),
  :class:`OperatorClosedError` (a bound operator applied after
  ``close()``), all
  ``RuntimeError``-catchable, mirroring the ``ValidationError``
  convention of :mod:`repro.formats.validate`; and
* the **deterministic chaos plans** (:mod:`.chaos`): seed-derived
  per-``(batch, tid)`` exceptions, delays and submission reorders that
  ``Executor("threads", plan=...)`` injects, so every
  failure path is reachable from tests and from ``repro fuzz --chaos``.

The containment machinery itself lives where the state lives —
:mod:`repro.parallel.executor` (await/cancel + aggregation; a
batch runs or raises, with no retry), :mod:`repro.parallel.bound`
(workspace poisoning and automatic recovery on the next call), the
serving layer's per-request serial retry (:mod:`repro.serve.server`)
and :mod:`repro.solvers` (breakdown diagnoses) — and records
``resilience.*`` warning counters through :mod:`repro.obs`. See
DESIGN.md §4f for the failure model.
"""

from .chaos import IO_FAULT_KINDS, NO_FAULT, ChaosPlan, FaultSpec
from .errors import (
    BatchExecutionError,
    ChaosInjectedError,
    ExecutionError,
    OperatorClosedError,
    TaskFailure,
)

__all__ = [
    "ChaosPlan",
    "FaultSpec",
    "NO_FAULT",
    "IO_FAULT_KINDS",
    "ExecutionError",
    "TaskFailure",
    "BatchExecutionError",
    "OperatorClosedError",
    "ChaosInjectedError",
]
