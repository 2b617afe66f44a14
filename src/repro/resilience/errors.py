"""Typed failure taxonomy for the execution stack.

The input side of the library already fails with a machine-matchable
hierarchy (:mod:`repro.formats.validate`: everything is a
``ValidationError`` and stays ``ValueError``-catchable). This module is
the *execution*-side counterpart: faults that happen while a batch of
thread tasks is in flight, or that leave a persistent operator in a
state it must not silently compute from.

Following the same convention, every class here derives from
``RuntimeError`` so pre-existing ``except RuntimeError`` call sites
keep working, while tests and the fuzz harness can match the precise
taxon.

============================  =========================================
:class:`ExecutionError`       base class for execution-side failures
:class:`BatchExecutionError`  one or more tasks of a batch raised; all
                              sibling tasks were awaited/cancelled
                              before this was raised (containment)
:class:`TaskFailure`          per-task record inside a batch error
:class:`OperatorClosedError`  a bound operator was applied after
                              ``close()``
:class:`ChaosInjectedError`   the deterministic fault the chaos
                              executor injects
============================  =========================================

Exceptions that cross a process boundary must survive a pickle
round-trip; classes with non-``(msg,)`` constructors therefore define
``__reduce__`` explicitly (the default reduction calls ``cls(str)``
and breaks on load).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "ExecutionError",
    "TaskFailure",
    "BatchExecutionError",
    "OperatorClosedError",
    "ChaosInjectedError",
]


class ExecutionError(RuntimeError):
    """Base class for execution-side (task/operator) failures."""


@dataclass(frozen=True)
class TaskFailure:
    """One task's exception inside a failed batch."""

    tid: int
    error: BaseException

    def describe(self) -> str:
        return f"task {self.tid}: {type(self.error).__name__}: {self.error}"


class BatchExecutionError(ExecutionError):
    """A task batch failed; every sibling was awaited or cancelled.

    Raised by :meth:`repro.parallel.executor.Executor.run_batch` after
    full containment: by the time this propagates, no task of the batch
    is still running (so no future can keep mutating shared output
    buffers behind the caller's back).

    Attributes
    ----------
    label : str
        The batch label (the tracer span name, e.g. ``"spmv.mult"``).
    batch : int
        The executor's batch sequence number — together with the chaos
        seed this pins the exact injected fault for replay.
    failures : list of TaskFailure
        Every task that raised, sorted by ``tid``.
    n_tasks, n_cancelled : int
        Batch size and how many queued tasks were cancelled unstarted.
    """

    def __init__(
        self,
        label: str,
        batch: int,
        failures: Sequence[TaskFailure],
        n_tasks: int = 0,
        n_cancelled: int = 0,
    ):
        self.label = label
        self.batch = batch
        self.failures = sorted(failures, key=lambda f: f.tid)
        self.n_tasks = n_tasks
        self.n_cancelled = n_cancelled
        detail = "; ".join(f.describe() for f in self.failures[:4])
        if len(self.failures) > 4:
            detail += f"; ... {len(self.failures) - 4} more"
        super().__init__(
            f"batch {label!r} #{batch}: {len(self.failures)}/{n_tasks} "
            f"task(s) failed ({n_cancelled} cancelled): {detail}"
        )

    @property
    def first(self) -> Optional[BaseException]:
        """The lowest-``tid`` task's exception (``None`` if empty)."""
        return self.failures[0].error if self.failures else None

    def __reduce__(self):
        return (
            type(self),
            (self.label, self.batch, self.failures,
             self.n_tasks, self.n_cancelled),
        )


class OperatorClosedError(ExecutionError):
    """A bound operator was applied after ``close()`` released its
    workspaces; bind a new one."""


class ChaosInjectedError(ExecutionError):
    """The deterministic fault a chaos plan raises in place of
    running a task (see :class:`repro.resilience.chaos.ChaosPlan`)."""

    def __init__(self, batch: int, tid: int):
        self.batch = batch
        self.tid = tid
        super().__init__(
            f"injected fault (batch={batch}, tid={tid})"
        )

    def __reduce__(self):
        return (type(self), (self.batch, self.tid))
