"""Typed failure taxonomy for the serving front end.

Mirrors the conventions of :mod:`repro.resilience.errors`: every class
derives from ``RuntimeError`` (via :class:`ServeError`) so coarse
``except RuntimeError`` call sites keep working, while the load
generator, the chaos drill and the tests can match the precise taxon.
A request admitted into :class:`~repro.serve.server.SolverServer`
terminates in exactly one of three ways — a result, one of these
errors, or an :class:`~repro.resilience.errors.ExecutionError`
propagated from the compute layer. It never hangs.

=============================  ========================================
:class:`ServeError`            base class for serving-side failures
:class:`QueueFullError`        admission control rejected the request:
                               ``max_pending`` requests already in
                               flight (backpressure signal)
:class:`DeadlineExceededError` the request's deadline expired while it
                               was ``"queued"`` (never computed) or
                               ``"computing"`` (solve cut short)
:class:`ServerClosedError`     submitted to a closed server, or the
                               server closed while the request waited
:class:`UnknownOperatorError`  no operator registered under the key
=============================  ========================================
"""

from __future__ import annotations

__all__ = [
    "ServeError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServerClosedError",
    "UnknownOperatorError",
]


class ServeError(RuntimeError):
    """Base class for serving-side failures."""


class QueueFullError(ServeError):
    """Admission control: the server already holds ``max_pending``
    in-flight requests. The caller should back off and retry; the
    rejection is immediate (no queueing) so backpressure propagates."""

    def __init__(self, pending: int, limit: int):
        super().__init__(
            f"server at capacity: {pending} pending requests "
            f"(max_pending={limit})"
        )
        self.pending = int(pending)
        self.limit = int(limit)

    def __reduce__(self):
        return (self.__class__, (self.pending, self.limit))


class DeadlineExceededError(ServeError):
    """The per-request deadline expired.

    ``stage`` records where: ``"queued"`` means the request never
    reached the kernel (it expired waiting behind its bucket's running
    batch or a busy operator); ``"computing"`` means the solve started
    but was cut short by the deadline hook and the partial result was
    discarded.
    """

    def __init__(self, stage: str, budget_s: float):
        super().__init__(
            f"deadline exceeded while {stage} "
            f"(budget {budget_s * 1e3:.1f} ms)"
        )
        self.stage = stage
        self.budget_s = float(budget_s)

    def __reduce__(self):
        return (self.__class__, (self.stage, self.budget_s))


class ServerClosedError(ServeError):
    """The server is closed: new submissions are refused and requests
    still waiting at close time fail with this instead of hanging."""

    def __init__(self, msg: str = "server is closed"):
        super().__init__(msg)


class UnknownOperatorError(ServeError, KeyError):
    """No operator registered under the requested key. Also a
    ``KeyError`` so registry lookups match mapping idiom."""

    def __init__(self, key: str):
        RuntimeError.__init__(
            self, f"no operator registered under key {key!r}"
        )
        self.key = key

    def __str__(self) -> str:  # KeyError.__str__ repr-quotes args
        return RuntimeError.__str__(self)

    def __reduce__(self):
        return (self.__class__, (self.key,))
