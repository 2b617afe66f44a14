"""Streaming metrics: counters, gauges, mergeable log-scale histograms.

The tracer (:mod:`repro.obs.tracer`) records *what happened* — spans
a post-hoc exporter summarizes. This module is the one counter store
(the tracer's ``count()`` lands here) and records *distributions as
they stream*: an operator applied a million times must answer "what
is the p99 latency right now" without retaining a million samples.
Three metric kinds cover that:

* :class:`Counter` — monotone accumulator (requests, bytes, errors).
* :class:`Gauge` — last-written value with a timestamp (the current
  residual of a solver, the depth of a queue).
* :class:`LogHistogram` — fixed-bucket log-scale histogram (HDR-style):
  percentiles are exact to within one bucket (default resolution
  ``10^(1/16) ≈ 1.155``, i.e. ≤ 15.5 % relative error), memory is a
  fixed few hundred integers regardless of sample count, and
  :meth:`LogHistogram.merge` is associative and commutative — so
  per-thread shards and per-run snapshots all aggregate into one
  distribution without coordination.

:class:`MetricsRegistry` applies the tracer's per-thread-shard pattern
to these metrics: every recording thread writes its own shard (reached
through ``threading.local``; the registry lock is taken only when a
thread's shard is first created), and :meth:`MetricsRegistry.snapshot`
merges the shards on the cold path. Snapshots are plain JSON-able
dicts.

On top sit the consumers: :class:`SLO` (target percentile + threshold
+ error-budget accounting over a sliding window of evaluations),
:func:`openmetrics_text` (Prometheus/OpenMetrics exposition text) and
:func:`write_metrics_jsonl` (append-one-line-per-snapshot series).

Zero dependencies, pure stdlib — importable from the lowest layers,
like the tracer it rides on.
"""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path
from typing import Iterable, Optional, Union

__all__ = [
    "LogHistogram",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "SLO",
    "SLOEvaluator",
    "SLOReport",
    "openmetrics_text",
    "metrics_report",
    "write_metrics_jsonl",
]

#: Default histogram range: 1 ns .. 1e12 ns (~17 minutes) — wide enough
#: for every latency this library measures; out-of-range values clamp
#: into the edge buckets (exact min/max are tracked separately).
DEFAULT_MIN_VALUE = 1.0
DEFAULT_MAX_VALUE = 1e12

#: Default bucket resolution: 16 buckets per decade — a relative width
#: of ``10^(1/16) ≈ 1.155``, so any percentile estimate is within
#: ~15.5 % of an exact order statistic.
DEFAULT_BUCKETS_PER_DECADE = 16


def _check_value(value: float) -> float:
    """Histograms measure magnitudes (durations, byte counts): NaN is a
    recording bug, negative has no bucket."""
    value = float(value)
    if value != value:
        raise ValueError("cannot record NaN into a histogram")
    if value < 0:
        raise ValueError(f"histogram values must be >= 0, got {value}")
    return value


class LogHistogram:
    """Fixed-bucket log-scale histogram with associative merge.

    Bucket ``i`` (for ``i >= 1``) covers the half-open interval
    ``[min_value·10^(i/b), min_value·10^((i+1)/b))`` with ``b =
    buckets_per_decade``; bucket 0 additionally absorbs everything in
    ``[0, min_value]`` and the last bucket everything above
    ``max_value``. Exact ``count``/``sum``/``min``/``max`` are tracked
    alongside the bucket counts, so the mean is exact and percentile
    estimates clamp into the observed range.
    """

    __slots__ = (
        "min_value", "max_value", "buckets_per_decade", "n_buckets",
        "counts", "count", "sum", "min_seen", "max_seen",
    )

    def __init__(
        self,
        min_value: float = DEFAULT_MIN_VALUE,
        max_value: float = DEFAULT_MAX_VALUE,
        buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
    ):
        if not 0 < min_value < max_value:
            raise ValueError(
                f"need 0 < min_value < max_value, got "
                f"{min_value!r} / {max_value!r}"
            )
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.max_value / self.min_value)
        self.n_buckets = int(math.ceil(decades * buckets_per_decade)) + 1
        self.counts: list[int] = [0] * self.n_buckets
        self.count = 0
        self.sum = 0.0
        self.min_seen = math.inf
        self.max_seen = -math.inf

    # -- recording (hot path) -------------------------------------------
    def bucket_index(self, value: float) -> int:
        """Bucket holding ``value`` (validates NaN/negative)."""
        value = _check_value(value)
        if value <= self.min_value:
            return 0
        i = int(
            math.log10(value / self.min_value) * self.buckets_per_decade
        )
        return min(i, self.n_buckets - 1)

    def record(self, value: float) -> None:
        self.counts[self.bucket_index(value)] += 1
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value

    def record_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.record(v)

    # -- estimation (cold path) -----------------------------------------
    def bucket_edges(self, i: int) -> tuple[float, float]:
        """``[lo, hi)`` bounds of bucket ``i`` (bucket 0's lo is 0.0)."""
        if not 0 <= i < self.n_buckets:
            raise IndexError(f"bucket {i} of {self.n_buckets}")
        b = self.buckets_per_decade
        lo = 0.0 if i == 0 else self.min_value * 10.0 ** (i / b)
        hi = self.min_value * 10.0 ** ((i + 1) / b)
        return lo, hi

    def _representative(self, i: int) -> float:
        """Point estimate for bucket ``i`` — the geometric midpoint,
        clamped into the exactly-tracked observed range."""
        lo, hi = self.bucket_edges(i)
        if i == 0:
            # [0, min_value] has no geometric midpoint; sit just below
            # the resolution floor and let the clamp take over.
            rep = self.min_value * 10.0 ** (-0.5 / self.buckets_per_decade)
        else:
            rep = math.sqrt(lo * hi)
        return min(max(rep, self.min_seen), self.max_seen)

    def percentile(self, q: float) -> float:
        """Rank-selected percentile, exact to within one bucket.

        Uses the nearest-rank definition (``numpy.percentile(...,
        method="nearest")``): the returned value is the representative
        of the bucket containing the sample at rank
        ``round(q/100·(count-1))``.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            raise ValueError("percentile of an empty histogram")
        rank = round(q / 100.0 * (self.count - 1))
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum > rank:
                return self._representative(i)
        return self._representative(self.n_buckets - 1)  # pragma: no cover

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def count_above(self, threshold: float) -> int:
        """Samples strictly above ``threshold``, to bucket resolution:
        the threshold's own bucket is counted as *not* above (samples
        are only ever under-counted, never over-counted — an SLO gate
        on this is conservative toward passing by at most one bucket).
        Exact ``min``/``max`` sharpen the edges."""
        threshold = _check_value(threshold)
        if self.count == 0 or threshold >= self.max_seen:
            return 0
        if threshold < self.min_seen:
            return self.count
        i = self.bucket_index(threshold)
        return sum(self.counts[i + 1:])

    def fraction_above(self, threshold: float) -> float:
        return self.count_above(threshold) / self.count if self.count else 0.0

    def summary(self) -> dict:
        """Fixed-shape statistics block used by the exporters."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min_seen,
            "max": self.max_seen,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    # -- aggregation -----------------------------------------------------
    def compatible(self, other: "LogHistogram") -> bool:
        return (
            self.min_value == other.min_value
            and self.max_value == other.max_value
            and self.buckets_per_decade == other.buckets_per_decade
        )

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """In-place merge of ``other``'s distribution; associative and
        commutative over the bucket counts, count, min and max (the sum
        is float-accumulated and commutes to rounding)."""
        if not self.compatible(other):
            raise ValueError(
                "cannot merge histograms with different bucket layouts"
            )
        for i, c in enumerate(other.counts):
            if c:
                self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.min_seen < self.min_seen:
            self.min_seen = other.min_seen
        if other.max_seen > self.max_seen:
            self.max_seen = other.max_seen
        return self

    def copy(self) -> "LogHistogram":
        new = LogHistogram(
            self.min_value, self.max_value, self.buckets_per_decade
        )
        return new.merge(self)

    # -- wire format (cross-process deltas, JSONL snapshots) -------------
    def to_dict(self) -> dict:
        """JSON-able state: bucket counts as a sparse ``[index, count]``
        list (most of the few hundred buckets are empty)."""
        return {
            "min_value": self.min_value,
            "max_value": self.max_value,
            "buckets_per_decade": self.buckets_per_decade,
            "buckets": [
                [i, c] for i, c in enumerate(self.counts) if c
            ],
            "count": self.count,
            "sum": self.sum,
            "min": self.min_seen if self.count else None,
            "max": self.max_seen if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogHistogram":
        h = cls(
            data["min_value"], data["max_value"],
            data["buckets_per_decade"],
        )
        for i, c in data["buckets"]:
            h.counts[int(i)] += int(c)
        h.count = int(data["count"])
        h.sum = float(data["sum"])
        if data.get("min") is not None:
            h.min_seen = float(data["min"])
        if data.get("max") is not None:
            h.max_seen = float(data["max"])
        return h

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<LogHistogram n={self.count}>"


class Counter:
    """Monotone accumulator (per-shard; merged by summing)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, value: float = 1.0) -> None:
        value = float(value)
        if value != value:
            raise ValueError("cannot add NaN to a counter")
        if value < 0:
            raise ValueError(f"counters only go up, got {value}")
        self.value += value


class Gauge:
    """Last-written value; merged across shards by freshest timestamp."""

    __slots__ = ("value", "ts_ns")

    def __init__(self):
        self.value = float("nan")
        self.ts_ns = -1

    def set(self, value: float) -> None:
        self.value = float(value)
        self.ts_ns = time.monotonic_ns()


def _label_key(labels: dict) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Shard:
    """One thread's private metric store; only its owner writes."""

    __slots__ = ("metrics",)

    def __init__(self):
        # (kind, name, label_key) -> metric instance
        self.metrics: dict[tuple, object] = {}


class MetricsRegistry:
    """Per-thread-sharded metric store with merge-on-read snapshots.

    The hot path (``registry.histogram(name, **labels).record(v)``) is
    a ``threading.local`` attribute read plus one dict lookup — no lock
    is ever taken after a thread's shard exists. Aggregation happens in
    :meth:`snapshot` / :meth:`merged_histogram`, which merge shard
    state without disturbing the writers (the worst race is missing a
    concurrent increment).
    """

    def __init__(self):
        self._local = threading.local()
        self._shards: list[_Shard] = []
        self._lock = threading.Lock()

    # -- recording (hot path) -------------------------------------------
    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = _Shard()
            self._local.shard = shard
            with self._lock:
                self._shards.append(shard)
        return shard

    def _metric(self, kind: str, factory, name: str, labels: dict):
        key = (kind, name, _label_key(labels))
        metrics = self._shard().metrics
        metric = metrics.get(key)
        if metric is None:
            metric = metrics[key] = factory()
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._metric("counter", Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._metric("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels) -> LogHistogram:
        return self._metric("histogram", LogHistogram, name, labels)

    # -- aggregation (cold path) ----------------------------------------
    def _merged(self) -> dict[tuple, object]:
        with self._lock:
            shards = list(self._shards)
        merged: dict[tuple, object] = {}
        for shard in shards:
            for key, metric in list(shard.metrics.items()):
                kind = key[0]
                have = merged.get(key)
                if have is None:
                    if kind == "histogram":
                        merged[key] = metric.copy()
                    elif kind == "counter":
                        c = Counter()
                        c.value = metric.value
                        merged[key] = c
                    else:
                        g = Gauge()
                        g.value, g.ts_ns = metric.value, metric.ts_ns
                        merged[key] = g
                elif kind == "histogram":
                    have.merge(metric)
                elif kind == "counter":
                    have.value += metric.value
                elif metric.ts_ns > have.ts_ns:
                    have.value, have.ts_ns = metric.value, metric.ts_ns
        return merged

    def snapshot(self) -> dict:
        """Merged JSON-able view of every metric: the one wire format
        shared by the exporters, the JSONL series and the cross-process
        worker deltas."""
        merged = self._merged()
        out = {"counters": [], "gauges": [], "histograms": []}
        for key in sorted(merged):
            kind, name, labels = key
            metric = merged[key]
            entry = {"name": name, "labels": dict(labels)}
            if kind == "counter":
                entry["value"] = metric.value
                out["counters"].append(entry)
            elif kind == "gauge":
                entry["value"] = metric.value
                out["gauges"].append(entry)
            else:
                entry["data"] = metric.to_dict()
                entry["summary"] = metric.summary()
                out["histograms"].append(entry)
        return out

    def merged_histogram(
        self, name: str, **labels
    ) -> Optional[LogHistogram]:
        """Cross-shard merge of one histogram (``None`` if never
        recorded)."""
        key = ("histogram", name, _label_key(labels))
        return self._merged().get(key)

    def merged_matching(
        self, name: str, **labels
    ) -> Optional[LogHistogram]:
        """Merge of every histogram series named ``name`` whose label
        set is a *superset* of ``labels`` (``None`` if no series
        matches). ``merged_matching("request_ns")`` folds all
        per-``kind`` series into one distribution — what an aggregate
        latency SLO evaluates against."""
        want = set(_label_key(labels))
        merged: Optional[LogHistogram] = None
        for key, metric in self._merged().items():
            if key[0] != "histogram" or key[1] != name:
                continue
            if not want <= set(key[2]):
                continue
            if merged is None:
                merged = metric.copy()
            else:
                merged.merge(metric)
        return merged

    def counter_value(self, name: str, **labels) -> float:
        key = ("counter", name, _label_key(labels))
        metric = self._merged().get(key)
        return metric.value if metric is not None else 0.0

    def gauge_value(self, name: str, **labels) -> float:
        key = ("gauge", name, _label_key(labels))
        metric = self._merged().get(key)
        return metric.value if metric is not None else float("nan")

    def metric_names(self) -> list[str]:
        return sorted({key[1] for key in self._merged()})

    def clear(self) -> None:
        with self._lock:
            for shard in self._shards:
                shard.metrics.clear()


# ----------------------------------------------------------------------
# SLO evaluation: target percentile + threshold + error budget
# ----------------------------------------------------------------------
class SLOReport:
    """One :meth:`SLO.observe` outcome."""

    __slots__ = (
        "name", "percentile", "threshold", "observed", "met",
        "window_count", "window_violations", "budget_fraction",
        "budget_consumed", "healthy",
    )

    def __init__(self, **kw):
        for slot in self.__slots__:
            setattr(self, slot, kw[slot])

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def render(self) -> str:
        state = "OK" if self.healthy else "VIOLATED"
        observed = (
            f"{self.observed:,.0f}" if self.observed == self.observed
            else "n/a"
        )
        return (
            f"SLO {self.name}: p{self.percentile:g} = {observed} "
            f"(threshold {self.threshold:,.0f}) -> "
            f"{'met' if self.met else 'MISSED'}; error budget "
            f"{100 * self.budget_consumed:.1f}% consumed over "
            f"{self.window_count} samples "
            f"({self.window_violations} above threshold) -> {state}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SLOReport {self.name} healthy={self.healthy}>"


class SLO:
    """A latency objective: "p``percentile`` of samples stay under
    ``threshold``", with error-budget accounting over a sliding window
    of evaluations.

    The error budget is the tolerated violation mass: a p99 objective
    tolerates 1 % of samples above the threshold. Each
    :meth:`observe` call diffs the histogram against the previous
    observation (histograms are cumulative), pushes the delta into the
    window, and reports the budget consumed across the window —
    ``healthy`` goes False when the window's violation fraction
    exceeds the budget, which is a steadier signal than the
    instantaneous percentile alone.
    """

    def __init__(
        self,
        name: str,
        threshold: float,
        percentile: float = 99.0,
        window: int = 60,
    ):
        if not 0 < percentile < 100:
            raise ValueError(
                f"percentile must be in (0, 100), got {percentile}"
            )
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.name = name
        self.threshold = float(threshold)
        self.percentile = float(percentile)
        self.window = int(window)
        self._deltas: list[tuple[int, int]] = []
        self._last_count = 0
        self._last_violations = 0

    @property
    def budget_fraction(self) -> float:
        return 1.0 - self.percentile / 100.0

    def observe(self, hist: LogHistogram) -> SLOReport:
        """Evaluate against the current state of ``hist``; streaming —
        pass the same (growing) histogram repeatedly."""
        count = hist.count
        violations = hist.count_above(self.threshold)
        if count < self._last_count:
            # The histogram was cleared/replaced; restart the diff.
            self._last_count = 0
            self._last_violations = 0
        self._deltas.append(
            (count - self._last_count, violations - self._last_violations)
        )
        self._last_count = count
        self._last_violations = violations
        if len(self._deltas) > self.window:
            del self._deltas[: len(self._deltas) - self.window]
        window_count = sum(d for d, _ in self._deltas)
        window_violations = sum(v for _, v in self._deltas)
        budget = self.budget_fraction
        consumed = (
            (window_violations / window_count) / budget
            if window_count
            else 0.0
        )
        observed = (
            hist.percentile(self.percentile) if count else float("nan")
        )
        met = bool(count) and observed <= self.threshold
        return SLOReport(
            name=self.name,
            percentile=self.percentile,
            threshold=self.threshold,
            observed=observed,
            met=met,
            window_count=window_count,
            window_violations=window_violations,
            budget_fraction=budget,
            budget_consumed=consumed,
            healthy=consumed <= 1.0,
        )


class SLOEvaluator:
    """A set of :class:`SLO` objectives bound to one registry's
    histograms, evaluated together.

    Each objective targets a histogram by name plus an optional label
    *subset* — ``add(SLO(...), "serve.request_ns")`` evaluates against
    the merge of every ``serve.request_ns`` series regardless of its
    ``kind`` label, while ``add(..., kind="cg")`` pins one series.
    :meth:`evaluate` observes every objective against the current
    histogram state (streaming: call it repeatedly as the registry
    grows) and returns the reports; an objective whose histogram has
    recorded nothing yet reports ``met=False`` with ``observed=nan``
    but stays ``healthy`` (an empty window has consumed no budget).
    """

    def __init__(self, registry: "MetricsRegistry"):
        self.registry = registry
        self._objectives: list[tuple[SLO, str, dict]] = []

    def add(self, slo: SLO, metric: str, **labels) -> SLO:
        """Attach ``slo`` to the histogram ``metric`` (label subset
        match; see class docstring). Returns the SLO for chaining."""
        self._objectives.append((slo, metric, dict(labels)))
        return slo

    def __len__(self) -> int:
        return len(self._objectives)

    def evaluate(self) -> list[SLOReport]:
        """One :class:`SLOReport` per objective, in ``add`` order."""
        reports = []
        for slo, metric, labels in self._objectives:
            hist = self.registry.merged_matching(metric, **labels)
            if hist is None:
                hist = LogHistogram()
            reports.append(slo.observe(hist))
        return reports

    @staticmethod
    def all_healthy(reports: Iterable[SLOReport]) -> bool:
        return all(r.healthy for r in reports)

    @staticmethod
    def render(reports: Iterable[SLOReport]) -> str:
        return "\n".join(r.render() for r in reports)


# ----------------------------------------------------------------------
# Exporters: OpenMetrics text, JSONL series, human-readable table
# ----------------------------------------------------------------------
def _om_name(name: str, namespace: str) -> str:
    safe = "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )
    return f"{namespace}_{safe}" if namespace else safe


def _om_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = []
    for k, v in sorted(merged.items()):
        val = (
            str(v)
            .replace("\\", r"\\")
            .replace('"', r"\"")
            .replace("\n", r"\n")
        )
        parts.append(f'{k}="{val}"')
    return "{" + ",".join(parts) + "}"


def openmetrics_text(snapshot: dict, namespace: str = "repro") -> str:
    """OpenMetrics/Prometheus exposition text of a registry snapshot.

    Counters become ``<ns>_<name>_total``, gauges plain samples, and
    histograms the cumulative ``_bucket{le=...}`` / ``_sum`` /
    ``_count`` triple (bucket lines only at boundaries where the
    cumulative count changes, plus the mandatory ``le="+Inf"``).
    Terminated with the OpenMetrics ``# EOF`` marker.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        name = _om_name(entry["name"], namespace)
        header(name, "counter")
        lines.append(
            f"{name}_total{_om_labels(entry['labels'])} {entry['value']:g}"
        )
    for entry in snapshot.get("gauges", ()):
        name = _om_name(entry["name"], namespace)
        header(name, "gauge")
        lines.append(
            f"{name}{_om_labels(entry['labels'])} {entry['value']:g}"
        )
    for entry in snapshot.get("histograms", ()):
        name = _om_name(entry["name"], namespace)
        header(name, "histogram")
        labels = entry["labels"]
        hist = LogHistogram.from_dict(entry["data"])
        cum = 0
        for i, c in enumerate(hist.counts):
            if not c:
                continue
            cum += c
            _, hi = hist.bucket_edges(i)
            lines.append(
                f"{name}_bucket{_om_labels(labels, {'le': f'{hi:g}'})} "
                f"{cum}"
            )
        lines.append(
            f"{name}_bucket{_om_labels(labels, {'le': '+Inf'})} "
            f"{hist.count}"
        )
        lines.append(f"{name}_sum{_om_labels(labels)} {hist.sum:g}")
        lines.append(f"{name}_count{_om_labels(labels)} {hist.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_metrics_jsonl(
    path: Union[str, Path], snapshot: dict, meta: Optional[dict] = None
) -> Path:
    """Append one snapshot as a single JSON line — repeated calls build
    the time series the regression tooling diffs."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "ts": time.time(),
        "meta": dict(meta or {}),
        "metrics": snapshot,
    }
    with path.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    return path


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def metrics_report(snapshot: dict, title: str = "metrics") -> str:
    """Human-readable summary table of a registry snapshot (the
    ``repro metrics`` default output)."""
    lines = [title, "=" * len(title)]
    hists = snapshot.get("histograms", ())
    if hists:
        lines += [
            "",
            f"{'histogram':<44} {'count':>7} {'p50':>12} {'p95':>12} "
            f"{'p99':>12} {'max':>12}",
        ]
        for entry in hists:
            s = entry.get("summary") or {}
            label = f"{entry['name']}{_fmt_labels(entry['labels'])}"
            if s.get("count"):
                lines.append(
                    f"{label:<44} {s['count']:>7} {s['p50']:>12,.0f} "
                    f"{s['p95']:>12,.0f} {s['p99']:>12,.0f} "
                    f"{s['max']:>12,.0f}"
                )
            else:
                lines.append(f"{label:<44} {0:>7}")
    counters = snapshot.get("counters", ())
    if counters:
        lines += ["", "counters:"]
        for entry in counters:
            label = f"{entry['name']}{_fmt_labels(entry['labels'])}"
            lines.append(f"  {label:<50} {entry['value']:>16,.0f}")
    gauges = snapshot.get("gauges", ())
    if gauges:
        lines += ["", "gauges:"]
        for entry in gauges:
            label = f"{entry['name']}{_fmt_labels(entry['labels'])}"
            lines.append(f"  {label:<50} {entry['value']:>16.6g}")
    if not (hists or counters or gauges):
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
