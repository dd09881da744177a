"""Unit tests for the metrics sink: quantile edge cases and the
Prometheus text exposition."""

from __future__ import annotations

import pytest

from repro.service.metrics import LatencyHistogram, Metrics


# -- quantile edge cases ------------------------------------------------------

def test_quantile_of_empty_histogram_is_zero():
    histogram = LatencyHistogram()
    for q in (0.0, 0.5, 0.99, 1.0):
        assert histogram.quantile(q) == 0.0
    summary = histogram.summary()
    assert summary["count"] == 0
    assert summary["mean_ms"] == 0.0
    assert summary["p99_ms"] == 0.0


def test_quantile_single_observation_interpolates_within_bucket():
    histogram = LatencyHistogram()
    histogram.observe(0.003)  # lands in the (0.0025, 0.005] bucket
    # Interpolated quantiles travel through the bucket instead of pinning
    # to its upper bound (the old behavior read every quantile as 5 ms).
    assert histogram.quantile(0.5) == pytest.approx(0.00375)
    assert histogram.quantile(1.0) == pytest.approx(0.005)
    assert 0.0025 < histogram.quantile(0.01) < 0.005


def test_quantile_monotone_in_q():
    histogram = LatencyHistogram()
    for value in (0.0001, 0.003, 0.003, 0.04, 1.7):
        histogram.observe(value)
    quantiles = [histogram.quantile(q / 20) for q in range(21)]
    assert quantiles == sorted(quantiles)


def test_quantile_overflow_bucket_clamps_to_highest_bound():
    histogram = LatencyHistogram(buckets=(0.1,))
    histogram.observe(5.0)
    # Observations beyond the last finite bucket have no upper bound to
    # interpolate toward; report the highest finite bound, not infinity.
    assert histogram.quantile(0.5) == 0.1


def test_quantile_without_buckets_is_infinite():
    histogram = LatencyHistogram(buckets=())
    histogram.observe(5.0)
    assert histogram.quantile(0.5) == float("inf")


def test_quantile_two_buckets_split():
    histogram = LatencyHistogram(buckets=(0.001, 1.0))
    for _ in range(9):
        histogram.observe(0.0001)
    histogram.observe(0.5)
    # q=0.5 -> 5th of 9 observations in (0, 0.001]: 0.001 * 5/9.
    assert histogram.quantile(0.5) == pytest.approx(0.001 * 5 / 9)
    # q=0.99 -> rank 9.9 of 10, 0.9 into the (0.001, 1.0] bucket.
    assert histogram.quantile(0.99) == pytest.approx(0.001 + 0.999 * 0.9)


def test_quantile_skips_empty_buckets():
    histogram = LatencyHistogram(buckets=(0.001, 0.01, 0.1, 1.0))
    histogram.observe(0.5)  # only the (0.1, 1.0] bucket is occupied
    assert 0.1 < histogram.quantile(0.01) <= 1.0
    assert histogram.quantile(1.0) == pytest.approx(1.0)


# -- Prometheus text exposition -----------------------------------------------

@pytest.fixture()
def populated_metrics() -> Metrics:
    metrics = Metrics()
    metrics.increment("query.cache_hits", 3)
    metrics.increment("sat.requests")
    metrics.observe("query", 0.0001)
    metrics.observe("query", 0.0001)
    metrics.observe("query", 2.0)
    return metrics


def test_prometheus_counters_sanitized(populated_metrics):
    text = populated_metrics.render_prometheus()
    assert "pxdb_query_cache_hits_total 3" in text
    assert "pxdb_sat_requests_total 1" in text
    assert "# TYPE pxdb_query_cache_hits_total counter" in text
    assert "pxdb_uptime_seconds" in text


def test_prometheus_histogram_buckets_are_cumulative(populated_metrics):
    lines = populated_metrics.render_prometheus().splitlines()
    buckets = [
        line for line in lines
        if line.startswith('pxdb_request_duration_seconds_bucket{op="query"')
    ]
    counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
    assert counts == sorted(counts)  # cumulative by construction
    assert counts[-1] == 3  # +Inf bucket holds the total count
    assert buckets[-1].endswith('le="+Inf"} 3')
    labels = 'op="query",route="/query"'
    assert f"pxdb_request_duration_seconds_count{{{labels}}} 3" in lines
    total = next(
        line for line in lines
        if line.startswith(f"pxdb_request_duration_seconds_sum{{{labels}}}")
    )
    assert float(total.rsplit(" ", 1)[1]) == pytest.approx(2.0002)


def test_prometheus_empty_metrics_render():
    text = Metrics().render_prometheus()
    assert "pxdb_uptime_seconds" in text
    assert "pxdb_request_duration_seconds" not in text
    assert text.endswith("\n")


def test_prometheus_extra_gauges_with_labels():
    text = Metrics().render_prometheus(
        [
            ("pxdb_store_loads", {}, 4),
            ("pxdb_circuit_rebinds_total", {"db": 'uni"1'}, 2),
        ]
    )
    assert "pxdb_store_loads 4" in text
    assert 'pxdb_circuit_rebinds_total{db="uni\\"1"} 2' in text
    assert "# TYPE pxdb_store_loads gauge" in text
