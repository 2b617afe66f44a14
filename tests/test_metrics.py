"""Unit and property tests of the streaming-metrics subsystem.

The load-bearing guarantees:

* histogram percentiles are exact to within one *bucket* of the true
  nearest-rank order statistic (``np.percentile(..., method="nearest")``)
  for any data — the property hypothesis drives;
* :meth:`LogHistogram.merge` is associative and commutative over the
  discrete state (bucket counts, count, min, max), so per-thread shards
  and per-run snapshots aggregate in any order;
* the wire format round-trips exactly;
* NaN/negative rejection everywhere a magnitude is recorded;
* SLO error-budget accounting, including histogram-reset detection;
* the OpenMetrics exposition is well-formed (cumulative buckets,
  ``+Inf`` bound, ``# EOF`` terminator).
"""

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    SLO,
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    metrics_report,
    openmetrics_text,
    write_metrics_jsonl,
)

# Strictly positive magnitudes inside the default histogram range.
sample_values = st.floats(
    min_value=1e-3, max_value=1e13, allow_nan=False, allow_infinity=False,
).map(abs)

sample_lists = st.lists(sample_values, min_size=1, max_size=200)


# ----------------------------------------------------------------------
# LogHistogram: recording, percentiles, edges
# ----------------------------------------------------------------------
class TestLogHistogram:
    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError, match="empty"):
            LogHistogram().percentile(50)

    def test_single_sample_every_percentile_is_the_sample(self):
        h = LogHistogram()
        h.record(1234.5)
        for q in (0, 1, 50, 95, 99, 100):
            assert h.percentile(q) == pytest.approx(1234.5, rel=0.16)
        # The clamp to the exact min/max makes a singleton exact.
        assert h.percentile(0) == 1234.5
        assert h.percentile(100) == 1234.5

    def test_nan_rejected(self):
        h = LogHistogram()
        with pytest.raises(ValueError, match="NaN"):
            h.record(float("nan"))
        assert h.count == 0

    def test_negative_rejected(self):
        h = LogHistogram()
        with pytest.raises(ValueError, match=">= 0"):
            h.record(-1.0)

    def test_percentile_out_of_range_rejected(self):
        h = LogHistogram()
        h.record(1.0)
        with pytest.raises(ValueError, match="0, 100"):
            h.percentile(101)

    def test_zero_and_subrange_values_land_in_bucket_zero(self):
        h = LogHistogram(min_value=10.0)
        h.record(0.0)
        h.record(3.0)
        assert h.counts[0] == 2
        assert h.percentile(50) == pytest.approx(3.0, abs=10.0)

    def test_overflow_clamps_into_last_bucket(self):
        h = LogHistogram(min_value=1.0, max_value=100.0,
                         buckets_per_decade=2)
        h.record(1e9)
        assert h.counts[-1] == 1
        assert h.max_seen == 1e9
        assert h.percentile(100) == 1e9  # clamped to exact max

    def test_mean_exact(self):
        h = LogHistogram()
        values = [3.0, 7.5, 1000.0, 2.25]
        h.record_many(values)
        assert h.mean == pytest.approx(np.mean(values))
        assert h.sum == pytest.approx(np.sum(values))
        assert h.min_seen == min(values)
        assert h.max_seen == max(values)

    def test_bucket_edges_cover_contiguously(self):
        h = LogHistogram()
        prev_hi = None
        for i in range(h.n_buckets):
            lo, hi = h.bucket_edges(i)
            assert lo < hi
            if prev_hi is not None:
                assert lo == pytest.approx(prev_hi)
            prev_hi = hi
        with pytest.raises(IndexError):
            h.bucket_edges(h.n_buckets)

    def test_count_above_never_overcounts(self):
        h = LogHistogram()
        values = [10.0, 20.0, 30.0, 1000.0, 5000.0]
        h.record_many(values)
        for thr in (5.0, 10.0, 25.0, 999.0, 5000.0, 1e6):
            exact = sum(1 for v in values if v > thr)
            assert h.count_above(thr) <= exact
        # Exact min/max sharpen the edges to exactness.
        assert h.count_above(5.0) == len(values)
        assert h.count_above(5000.0) == 0
        assert h.fraction_above(5.0) == 1.0

    def test_incompatible_merge_rejected(self):
        with pytest.raises(ValueError, match="bucket layouts"):
            LogHistogram().merge(LogHistogram(buckets_per_decade=8))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LogHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            LogHistogram(min_value=10.0, max_value=1.0)
        with pytest.raises(ValueError):
            LogHistogram(buckets_per_decade=0)


# ----------------------------------------------------------------------
# Properties (hypothesis)
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(data=sample_lists, q=st.floats(0, 100))
def test_percentile_within_one_bucket_of_numpy(data, q):
    """The histogram's percentile lands in the same or an adjacent
    bucket as ``np.percentile(..., method="nearest")`` — the bucket
    index distance is at most 1 for any data and any q."""
    h = LogHistogram()
    h.record_many(data)
    exact = float(np.percentile(data, q, method="nearest"))
    approx = h.percentile(q)
    assert abs(h.bucket_index(approx) - h.bucket_index(exact)) <= 1


@settings(max_examples=100, deadline=None)
@given(a=sample_lists, b=sample_lists, c=sample_lists)
def test_merge_associative_and_commutative(a, b, c):
    def hist(*datasets):
        h = LogHistogram()
        for d in datasets:
            h.record_many(d)
        return h

    def state(h):
        return (tuple(h.counts), h.count, h.min_seen, h.max_seen)

    ha, hb, hc = hist(a), hist(b), hist(c)
    left = hist(a).merge(hb).merge(hc)          # (a+b)+c
    right = hist(b).merge(hc).merge(ha)         # (b+c)+a
    direct = hist(a, b, c)                      # recorded in one pass
    assert state(left) == state(right) == state(direct)
    assert left.sum == pytest.approx(direct.sum)


@settings(max_examples=100, deadline=None)
@given(data=sample_lists)
def test_dict_round_trip_exact(data):
    h = LogHistogram()
    h.record_many(data)
    wire = json.loads(json.dumps(h.to_dict()))  # through real JSON
    back = LogHistogram.from_dict(wire)
    assert back.counts == h.counts
    assert back.count == h.count
    assert back.min_seen == h.min_seen
    assert back.max_seen == h.max_seen
    assert back.sum == pytest.approx(h.sum)
    assert back.percentile(95) == h.percentile(95)


def test_empty_dict_round_trip():
    back = LogHistogram.from_dict(LogHistogram().to_dict())
    assert back.count == 0
    assert back.min_seen == math.inf


# ----------------------------------------------------------------------
# Counter / Gauge
# ----------------------------------------------------------------------
def test_counter_monotone():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError, match="only go up"):
        c.inc(-1)
    with pytest.raises(ValueError, match="NaN"):
        c.inc(float("nan"))


def test_gauge_keeps_freshest():
    g = Gauge()
    assert g.value != g.value  # NaN until first set
    g.set(4.0)
    assert g.value == 4.0 and g.ts_ns > 0


# ----------------------------------------------------------------------
# MetricsRegistry: sharding, snapshots
# ----------------------------------------------------------------------
class TestRegistry:
    def test_same_identity_same_shard(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("lat", backend="serial")
        h2 = reg.histogram("lat", backend="serial")
        assert h1 is h2
        # Different labels (or order-insensitive equality) split/join.
        assert reg.histogram("lat", backend="threads") is not h1
        assert reg.counter("n", a=1, b=2) is reg.counter("n", b=2, a=1)

    def test_cross_thread_shards_merge(self):
        reg = MetricsRegistry()

        def work(offset):
            for i in range(50):
                reg.histogram("lat").record(100.0 + offset + i)
                reg.counter("n").inc()

        threads = [
            threading.Thread(target=work, args=(j * 1000,))
            for j in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = reg.merged_histogram("lat")
        assert merged.count == 200
        assert reg.counter_value("n") == 200

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("ops", kind="x").inc(5)
        reg.gauge("residual").set(1e-9)
        reg.histogram("lat").record_many([10.0, 200.0, 3000.0])
        snap = reg.snapshot()
        assert sorted(snap) == ["counters", "gauges", "histograms"]
        assert snap["counters"][0] == {
            "name": "ops", "labels": {"kind": "x"}, "value": 5.0,
        }
        assert snap["histograms"][0]["summary"]["count"] == 3
        assert json.loads(json.dumps(snap)) == snap

    def test_unknown_lookups(self):
        reg = MetricsRegistry()
        assert reg.merged_histogram("nope") is None
        assert reg.counter_value("nope") == 0.0
        assert reg.gauge_value("nope") != reg.gauge_value("nope")

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.clear()
        assert reg.metric_names() == []


# ----------------------------------------------------------------------
# SLO
# ----------------------------------------------------------------------
class TestSLO:
    def test_healthy_within_budget(self):
        h = LogHistogram()
        h.record_many([100.0] * 99 + [1e9])
        report = SLO("lat", threshold=1e6, percentile=95).observe(h)
        assert report.met            # p95 is ~100
        assert report.window_count == 100
        assert report.window_violations <= 1
        assert report.healthy        # 1% violations vs 5% budget
        assert "OK" in report.render()

    def test_violated_when_budget_exhausted(self):
        h = LogHistogram()
        h.record_many([100.0] * 80 + [1e9] * 20)  # 20% above
        report = SLO("lat", threshold=1e6, percentile=99).observe(h)
        assert not report.met
        assert not report.healthy
        assert report.budget_consumed > 1.0
        assert "VIOLATED" in report.render()

    def test_streaming_diffs_and_window(self):
        h = LogHistogram()
        slo = SLO("lat", threshold=1e6, percentile=95, window=2)
        h.record_many([100.0] * 10)
        assert slo.observe(h).window_count == 10
        h.record_many([100.0] * 5)
        r = slo.observe(h)
        assert r.window_count == 15  # 10 + 5, both inside window=2
        h.record(100.0)
        r = slo.observe(h)
        assert r.window_count == 6   # the first delta aged out

    def test_reset_detection(self):
        h = LogHistogram()
        h.record_many([100.0] * 10)
        slo = SLO("lat", threshold=1e6, window=5)
        slo.observe(h)
        fresh = LogHistogram()      # cleared/replaced histogram
        fresh.record_many([100.0] * 3)
        r = slo.observe(fresh)
        assert r.window_count == 13  # old 10 + restarted 3, no negatives

    def test_empty_histogram_observation(self):
        r = SLO("lat", threshold=1e6).observe(LogHistogram())
        assert not r.met
        assert r.observed != r.observed
        assert r.healthy  # no data consumes no budget

    def test_validation(self):
        with pytest.raises(ValueError):
            SLO("x", threshold=0.0)
        with pytest.raises(ValueError):
            SLO("x", threshold=1.0, percentile=100.0)
        with pytest.raises(ValueError):
            SLO("x", threshold=1.0, window=0)

    def test_to_dict_is_jsonable(self):
        h = LogHistogram()
        h.record(5.0)
        json.dumps(SLO("lat", threshold=10.0).observe(h).to_dict())


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_snapshot():
    reg = MetricsRegistry()
    reg.counter("traffic.bytes", fmt="sss").inc(1024)
    reg.gauge("solver.residual", solver="cg").set(1e-10)
    reg.histogram("op.apply_ns", backend="serial").record_many(
        [100.0, 2000.0, 2000.0, 5e7]
    )
    return reg.snapshot()


def test_openmetrics_exposition():
    text = openmetrics_text(_sample_snapshot())
    assert text.endswith("# EOF\n")
    assert "# TYPE repro_traffic_bytes counter" in text
    assert 'repro_traffic_bytes_total{fmt="sss"} 1024' in text
    assert 'repro_solver_residual{solver="cg"} 1e-10' in text
    # Histogram: cumulative buckets ending at +Inf, sum and count.
    lines = text.splitlines()
    buckets = [
        ln for ln in lines if ln.startswith("repro_op_apply_ns_bucket")
    ]
    counts = [int(ln.rsplit(" ", 1)[1]) for ln in buckets]
    assert counts == sorted(counts) and counts[-1] == 4
    assert 'le="+Inf"' in buckets[-1]
    assert any(ln.startswith("repro_op_apply_ns_count") for ln in lines)
    # Sanitization: dots became underscores, names stay parseable.
    assert "op.apply" not in text


def test_metrics_report_renders_everything():
    out = metrics_report(_sample_snapshot(), title="t")
    assert "op.apply_ns{backend=serial}" in out
    assert "traffic.bytes{fmt=sss}" in out
    assert "solver.residual{solver=cg}" in out
    assert "(no metrics recorded)" in metrics_report(
        MetricsRegistry().snapshot()
    )


def test_write_metrics_jsonl_appends(tmp_path):
    path = tmp_path / "series" / "metrics.jsonl"
    write_metrics_jsonl(path, _sample_snapshot(), meta={"run": 1})
    write_metrics_jsonl(path, _sample_snapshot(), meta={"run": 2})
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    records = [json.loads(ln) for ln in lines]
    assert [r["meta"]["run"] for r in records] == [1, 2]
    assert records[0]["metrics"]["histograms"][0]["summary"]["count"] == 4
