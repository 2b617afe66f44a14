"""In-kernel tracing: spans and instant events in per-thread buffers.

The paper's claims are *per-phase* (compute vs. reduction, Fig. 9/10)
and *per-thread* (effective-region density and load balance, Fig. 4/5),
so the execution stack needs first-class instrumentation rather than
ad-hoc timing around it. This module supplies the hot-path half of that
layer; :mod:`repro.obs.export` turns the recorded data into reports.

Design constraints, in order:

* **Disabled cost is one attribute check.** The module-level active
  tracer defaults to :data:`NULL_TRACER` (``enabled=False``); its
  ``span()`` returns a shared no-op context manager and ``count()`` /
  ``event()`` return immediately. Kernels therefore instrument
  unconditionally and pay ~an ``if`` when nobody is tracing.
* **One counter store.** ``count(name, v)`` bumps the unlabeled
  counter ``name`` of the tracer's :attr:`Tracer.metrics` registry.
* **No locks on the hot path.** Every recording thread appends to its
  own buffer (reached through ``threading.local``); the tracer lock is
  taken only once per thread, when its buffer is first created.
* **Zero dependencies.** Pure stdlib — the tracer must be importable
  from the lowest layers (``formats.base``) without cycles.

Timing uses :func:`time.perf_counter_ns`. Span nesting is tracked per
thread with a depth counter so exporters can rebuild the hierarchy
without parent pointers.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator, Optional, Sequence

from .metrics import MetricsRegistry

__all__ = [
    "Tracer",
    "SpanEvent",
    "NULL_TRACER",
    "active",
    "set_active",
    "tracing",
    "warn",
    "warning_counts",
    "reset_warning_counts",
    "percentile",
    "summarize_ns",
]

#: Sentinel duration of instant (zero-width) events.
INSTANT = -1


class _NullSpan:
    """Shared do-nothing context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class SpanEvent:
    """One completed span (or instant event, ``dur_ns == INSTANT``)."""

    __slots__ = ("name", "start_ns", "dur_ns", "depth", "attrs")

    def __init__(self, name, start_ns, dur_ns, depth, attrs):
        self.name = name
        self.start_ns = start_ns
        self.dur_ns = dur_ns
        self.depth = depth
        self.attrs = attrs

    @property
    def is_instant(self) -> bool:
        return self.dur_ns == INSTANT

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SpanEvent {self.name} depth={self.depth} "
            f"dur={self.dur_ns}ns>"
        )


class _ThreadBuffer:
    """Per-thread event list; only its owner writes."""

    __slots__ = ("ident", "thread_name", "events", "depth")

    def __init__(self, ident: int, thread_name: str):
        self.ident = ident
        self.thread_name = thread_name
        self.events: list[SpanEvent] = []
        self.depth = 0


class _Span:
    """Live span context manager (enabled tracers only)."""

    __slots__ = ("_buf", "name", "attrs", "start_ns")

    def __init__(self, buf: _ThreadBuffer, name: str, attrs):
        self._buf = buf
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._buf.depth += 1
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter_ns()
        buf = self._buf
        buf.depth -= 1
        buf.events.append(
            SpanEvent(
                self.name, self.start_ns, end - self.start_ns,
                buf.depth, self.attrs,
            )
        )
        return False


class Tracer:
    """Collects spans and instant events across threads; counters live
    in its :attr:`metrics` registry.

    Parameters
    ----------
    enabled : bool
        A disabled tracer records nothing and its hot-path methods are
        near-free; :data:`NULL_TRACER` is the shared disabled instance.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.origin_ns = perf_counter_ns()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        #: Streaming metrics riding on the same enablement gate: code
        #: records with ``t.metrics.histogram(...)`` only after checking
        #: ``t.enabled``, so the disabled path stays one attribute test.
        self.metrics = MetricsRegistry()

    # -- recording (hot path) -------------------------------------------
    def span(self, name: str, **attrs):
        """Nestable timed region; use as ``with tracer.span("mult"):``.

        Disabled tracers return the shared no-op span.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self._buffer(), name, attrs or None)

    def record_span(
        self, name: str, dur_ns: int, *,
        start_ns: Optional[int] = None, **attrs,
    ) -> None:
        """Record a span that was timed *elsewhere* — e.g. a served
        request's latency from submission to response.
        Recorded on the calling thread's
        buffer; when ``start_ns`` is omitted, the span is back-dated so
        it ends now."""
        if not self.enabled:
            return
        buf = self._buffer()
        start = (
            start_ns if start_ns is not None
            else perf_counter_ns() - int(dur_ns)
        )
        buf.events.append(
            SpanEvent(name, start, int(dur_ns), buf.depth, attrs or None)
        )

    def event(self, name: str, **attrs) -> None:
        """Record an instant (zero-duration) event, e.g. one solver
        iteration's residual."""
        if not self.enabled:
            return
        buf = self._buffer()
        buf.events.append(
            SpanEvent(name, perf_counter_ns(), INSTANT, buf.depth,
                      attrs or None)
        )

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the registry's unlabeled counter ``name``."""
        if self.enabled:
            self.metrics.counter(name).inc(value)

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            t = threading.current_thread()
            buf = _ThreadBuffer(t.ident or 0, t.name)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    # -- introspection (cold path) --------------------------------------
    def events(self) -> list[tuple[_ThreadBuffer, SpanEvent]]:
        """Snapshot of all recorded events as (thread buffer, event)."""
        with self._lock:
            buffers = list(self._buffers)
        return [(buf, ev) for buf in buffers for ev in buf.events]

    def span_durations_ns(self) -> dict[str, list[int]]:
        """Span name -> list of recorded durations (instants excluded)."""
        out: dict[str, list[int]] = {}
        for _, ev in self.events():
            if not ev.is_instant:
                out.setdefault(ev.name, []).append(ev.dur_ns)
        return out

    def counters(self) -> dict[str, float]:
        """Read-only view of the registry's unlabeled counters."""
        return {
            e["name"]: e["value"]
            for e in self.metrics.snapshot()["counters"] if not e["labels"]
        }

    def n_threads_seen(self) -> int:
        with self._lock:
            return len(self._buffers)

    def clear(self) -> None:
        """Drop all recorded data (buffers of live threads persist but
        are emptied; the origin timestamp resets)."""
        with self._lock:
            for buf in self._buffers:
                buf.events.clear()
        self.metrics.clear()
        self.origin_ns = perf_counter_ns()


#: The shared disabled tracer — the default "nobody is tracing" state.
NULL_TRACER = Tracer(enabled=False)

_active: Tracer = NULL_TRACER


def active() -> Tracer:
    """The tracer instrumented code records into right now."""
    return _active


def set_active(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` (``None`` = :data:`NULL_TRACER`) as the
    active tracer; returns the previous one for restoration."""
    global _active
    prev = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return prev


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate a tracer for the duration of a block::

        with tracing() as t:
            kernel(x)
        print(t.counters())
    """
    t = tracer if tracer is not None else Tracer()
    prev = set_active(t)
    try:
        yield t
    finally:
        set_active(prev)


# ----------------------------------------------------------------------
# Warning counters — always recorded, independent of the active tracer
# ----------------------------------------------------------------------
_warn_lock = threading.Lock()
_warning_counts: dict[str, int] = {}


def warn(name: str, value: int = 1) -> None:
    """Bump a process-wide warning counter (e.g. a bound operator
    garbage-collected without ``close()``). Unlike span/counter data
    this is recorded even with tracing disabled — a leak is a leak —
    and additionally mirrored into the active tracer when enabled."""
    with _warn_lock:
        _warning_counts[name] = _warning_counts.get(name, 0) + value
    t = _active
    if t.enabled:
        t.count(f"warn.{name}", value)


def warning_counts() -> dict[str, int]:
    with _warn_lock:
        return dict(_warning_counts)


def reset_warning_counts() -> None:
    with _warn_lock:
        _warning_counts.clear()


# ----------------------------------------------------------------------
# Duration statistics (shared by exporters and the benchmarks)
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method),
    dependency-free so the benchmarks and exporters share one
    definition of p50/p95."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if any(v != v for v in values):
        raise ValueError("percentile of data containing NaN")
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    if len(data) == 1:
        return float(data[0])
    pos = q / 100 * (len(data) - 1)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= len(data):
        return float(data[-1])
    return float(data[lo] * (1 - frac) + data[lo + 1] * frac)


def summarize_ns(samples_ns: Sequence[float]) -> dict[str, float]:
    """p50/p95/min/max/mean/total statistics of nanosecond samples,
    reported in milliseconds — the one summary shape used by the span
    exporters and the wall-clock benchmarks alike."""
    if not samples_ns:
        raise ValueError("summarize_ns needs at least one sample")
    if any(v != v for v in samples_ns):
        raise ValueError("summarize_ns of data containing NaN")
    n = len(samples_ns)
    total = float(sum(samples_ns))
    return {
        "count": n,
        "total_ms": total / 1e6,
        "mean_ms": total / n / 1e6,
        "p50_ms": percentile(samples_ns, 50) / 1e6,
        "p95_ms": percentile(samples_ns, 95) / 1e6,
        "min_ms": min(samples_ns) / 1e6,
        "max_ms": max(samples_ns) / 1e6,
    }
