"""Trace exporters: JSON summary, Chrome ``trace_event`` timeline, text.

One trace document serves every consumer:

* ``traceEvents`` — the Chrome/Perfetto JSON Object Format (load the
  file directly in ``chrome://tracing`` or https://ui.perfetto.dev for
  the per-thread timeline; extra top-level keys are ignored by both).
* ``summary.spans`` — p50/p95/total per span name (the machine-readable
  phase breakdown benchmarks and CI assert on).
* ``summary.counters`` — the registry's unlabeled counters
  (traffic, reduction, out-of-core volumes; ``Tracer.counters()``).
* ``summary.metrics`` — the tracer's streaming-metrics snapshot
  (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`): histograms
  with bucket data and p50/p95/p99 summaries, counters, gauges.

Schema v2 additionally renders every unlabeled counter as a Chrome
counter track (``"ph": "C"``): a zero sample at the timeline
origin and the final total at the last event timestamp, so traffic
and reduction volumes are visible alongside the span timeline.

:func:`validate_trace` checks the schema; the ``repro trace`` CLI
subcommand and the CI smoke job both go through it, so a malformed
export fails loudly rather than producing an unloadable timeline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from .tracer import Tracer, summarize_ns, warning_counts

__all__ = [
    "TRACE_SCHEMA",
    "summarize",
    "chrome_events",
    "trace_document",
    "write_trace",
    "load_trace",
    "validate_trace",
    "text_report",
]

#: Schema tag stamped into every trace document.
TRACE_SCHEMA = "repro-trace-v2"

#: Schemas :func:`validate_trace` accepts: current plus still-readable
#: predecessors (v1 lacks counter tracks and ``summary.metrics``).
_READABLE_SCHEMAS = ("repro-trace-v2", "repro-trace-v1")

#: Keys every span-summary entry must carry.
_SPAN_STAT_KEYS = (
    "count", "total_ms", "mean_ms", "p50_ms", "p95_ms", "min_ms", "max_ms",
)


def summarize(tracer: Tracer) -> dict:
    """Per-span-name statistics plus merged counters and warnings."""
    spans = {
        name: summarize_ns(durs)
        for name, durs in sorted(tracer.span_durations_ns().items())
    }
    n_events = sum(
        1 for _, ev in tracer.events() if ev.is_instant
    )
    return {
        "spans": spans,
        "counters": dict(sorted(tracer.counters().items())),
        "metrics": tracer.metrics.snapshot(),
        "warnings": warning_counts(),
        "n_instant_events": n_events,
        "n_threads": tracer.n_threads_seen(),
    }


def chrome_events(tracer: Tracer) -> list[dict]:
    """Chrome ``trace_event`` list: one complete (``"ph": "X"``) event
    per span, one instant (``"ph": "i"``) per event, a counter track
    (``"ph": "C"``) per unlabeled counter, plus thread-name
    metadata so the timeline shows real thread labels. Timestamps are
    microseconds relative to the tracer's origin."""
    origin = tracer.origin_ns
    out: list[dict] = []
    named: set[int] = set()
    last_ts = 0.0
    for buf, ev in tracer.events():
        tid = buf.ident
        if tid not in named:
            named.add(tid)
            out.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": buf.thread_name},
            })
        record = {
            "name": ev.name,
            "pid": 0,
            "tid": tid,
            "ts": (ev.start_ns - origin) / 1e3,
        }
        if ev.attrs:
            record["args"] = dict(ev.attrs)
        if ev.is_instant:
            record["ph"] = "i"
            record["s"] = "t"
            last_ts = max(last_ts, record["ts"])
        else:
            record["ph"] = "X"
            record["dur"] = ev.dur_ns / 1e3
            last_ts = max(last_ts, record["ts"] + record["dur"])
        out.append(record)
    # Counter tracks: Chrome draws "C" samples as a stacked area chart
    # per name. Counters carry totals, not timestamps, so each track is
    # a ramp — zero at the origin, the merged total at the last event
    # timestamp.
    for name, value in sorted(tracer.counters().items()):
        for ts, v in ((0.0, 0), (last_ts, value)):
            out.append({
                "name": name,
                "ph": "C",
                "pid": 0,
                "tid": 0,
                "ts": ts,
                "args": {"value": v},
            })
    # Stable timeline order (metadata events carry no ts -> sort first).
    out.sort(key=lambda r: r.get("ts", -1.0))
    return out


def trace_document(tracer: Tracer, meta: Optional[dict] = None) -> dict:
    """The complete, self-describing trace export."""
    return {
        "schema": TRACE_SCHEMA,
        "meta": dict(meta or {}),
        "traceEvents": chrome_events(tracer),
        "summary": summarize(tracer),
    }


def write_trace(
    path: Union[str, Path], tracer: Tracer, meta: Optional[dict] = None
) -> Path:
    """Serialize the trace document to ``path`` (Chrome-loadable)."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace_document(tracer, meta), indent=1))
    return path


def load_trace(path: Union[str, Path]) -> dict:
    """Parse a trace file (no validation; see :func:`validate_trace`)."""
    return json.loads(Path(path).read_text())


def validate_trace(doc) -> list[str]:
    """Schema check of a trace document; returns the list of problems
    (empty = valid). Covers exactly what the consumers rely on: the
    Chrome loader needs well-formed ``traceEvents``; the benchmarks and
    CI need the span statistics and counters."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    schema = doc.get("schema")
    if schema not in _READABLE_SCHEMAS:
        problems.append(
            f"schema must be one of {_READABLE_SCHEMAS}, got {schema!r}"
        )
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        problems.append("traceEvents must be a list")
        events = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"traceEvents[{i}] is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                problems.append(f"traceEvents[{i}] missing {key!r}")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "C"):
            problems.append(f"traceEvents[{i}] has unknown ph {ph!r}")
        if ph == "X":
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"traceEvents[{i}] ph=X missing numeric ts")
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"traceEvents[{i}] ph=X needs non-negative dur"
                )
        if ph == "C":
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"traceEvents[{i}] ph=C missing numeric ts")
            args = ev.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(
                    f"traceEvents[{i}] ph=C needs numeric args values"
                )
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        problems.append("summary must be an object")
        return problems
    spans = summary.get("spans")
    if not isinstance(spans, dict):
        problems.append("summary.spans must be an object")
    else:
        for name, stats in spans.items():
            if not isinstance(stats, dict):
                problems.append(f"summary.spans[{name!r}] is not an object")
                continue
            for key in _SPAN_STAT_KEYS:
                if not isinstance(stats.get(key), (int, float)):
                    problems.append(
                        f"summary.spans[{name!r}] missing numeric {key!r}"
                    )
    counters = summary.get("counters")
    if not isinstance(counters, dict) or any(
        not isinstance(v, (int, float)) for v in counters.values()
    ):
        problems.append("summary.counters must map names to numbers")
    if schema == TRACE_SCHEMA:
        # v2: the streaming-metrics snapshot is part of the contract.
        metrics = summary.get("metrics")
        if not isinstance(metrics, dict):
            problems.append("summary.metrics must be an object (schema v2)")
        else:
            for section in ("counters", "gauges", "histograms"):
                entries = metrics.get(section)
                if not isinstance(entries, list):
                    problems.append(
                        f"summary.metrics.{section} must be a list"
                    )
                    continue
                for j, entry in enumerate(entries):
                    if not isinstance(entry, dict) or not isinstance(
                        entry.get("name"), str
                    ):
                        problems.append(
                            f"summary.metrics.{section}[{j}] needs a name"
                        )
    return problems


def text_report(
    source: Union[Tracer, dict], title: str = "trace report"
) -> str:
    """Human-readable phase table from a tracer or a trace document."""
    summary = (
        summarize(source) if isinstance(source, Tracer)
        else source.get("summary", {})
    )
    spans: dict = summary.get("spans", {})
    lines = [title, "=" * len(title), ""]
    if spans:
        grand_total = sum(s["total_ms"] for s in spans.values())
        lines.append(
            f"{'span':<24} {'count':>7} {'total ms':>10} {'p50 ms':>9} "
            f"{'p95 ms':>9} {'share':>7}"
        )
        for name, s in spans.items():
            share = s["total_ms"] / grand_total if grand_total else 0.0
            lines.append(
                f"{name:<24} {s['count']:>7} {s['total_ms']:>10.3f} "
                f"{s['p50_ms']:>9.4f} {s['p95_ms']:>9.4f} {share:>6.1%}"
            )
    else:
        lines.append("(no spans recorded)")
    counters = summary.get("counters", {})
    if counters:
        lines += ["", "counters:"]
        for name, value in counters.items():
            lines.append(f"  {name:<38} {value:>16,.0f}")
    warnings_ = summary.get("warnings", {})
    if warnings_:
        lines += ["", "warnings:"]
        for name, value in warnings_.items():
            lines.append(f"  {name:<38} {value:>16,d}")
    return "\n".join(lines)
