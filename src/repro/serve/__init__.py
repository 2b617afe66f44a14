"""Async solver-serving front end with SpMM request coalescing.

The paper's traffic argument, turned into a service: same-matrix
single-RHS SpM×V requests (and compatible CG solves) that queue up
while the matrix is busy are batched into one SpM×M / block-CG call
up to ``max_batch`` columns, streaming the matrix once for all of them —
responses stay bit-identical to what each request would have computed
alone. See DESIGN.md §4j for the scheduler, the deadline/backpressure
semantics and the chaos-containment story.
"""

from .errors import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServerClosedError,
    UnknownOperatorError,
)
from .registry import (
    OperatorRegistry,
    RegisteredOperator,
    matrix_fingerprint,
)
from .server import (
    CGResponse,
    SolverServer,
    SpMVResponse,
    serial_compute,
)
from .loadgen import LoadReport, run_load

__all__ = [
    "ServeError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServerClosedError",
    "UnknownOperatorError",
    "matrix_fingerprint",
    "OperatorRegistry",
    "RegisteredOperator",
    "SolverServer",
    "SpMVResponse",
    "CGResponse",
    "serial_compute",
    "LoadReport",
    "run_load",
]
