"""Service observability: request counters and latency histograms.

Everything here is stdlib-only and thread-safe; the server surfaces one
:class:`Metrics` snapshot at ``/metrics`` (request counts and error counts
per endpoint, latency histograms with estimated quantiles, store and
engine cache statistics merged in by the service).

Counters are deliberately coarse-grained — the point is to answer "is the
warm path actually warm" (engine hit rates, result cache hits, pool
dispatches and fallbacks) and "where does request time go", not to
replace a real APM.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left
from typing import Iterable

# Bucket upper bounds in seconds (the last bucket is +inf).  Spans the
# range from a cache-hit response (~100 µs) to a cold multi-second pass.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Bucket upper bounds for raw-value histograms.  Chosen for confidence
# interval widths (the approx tier's bound-width distribution): 2ε at the
# default ε=0.05 is 0.1, the tight E15 setting (ε=0.02) lands at 0.04.
VALUE_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.02, 0.04, 0.06, 0.1, 0.2, 0.5, 1.0,
)


class LatencyHistogram:
    """A fixed-bucket latency histogram (cumulative-style, Prometheus-like).

    ``observe`` is O(log buckets); ``summary`` reports count, total and
    mean alongside quantile estimates interpolated from the buckets —
    coarse by construction, but plenty to see a warm/cold split.
    """

    __slots__ = ("buckets", "counts", "count", "total", "exemplars")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last slot: > buckets[-1]
        self.count = 0
        self.total = 0.0
        # Per-bucket exemplar: the trace id of the most recent traced
        # observation that landed in the bucket — the jumping-off point
        # from "p99 is slow" to "here is a slow trace to look at".
        self.exemplars: list[str | None] = [None] * (len(buckets) + 1)

    def observe(self, seconds: float, trace_id: str | None = None) -> None:
        index = bisect_left(self.buckets, seconds)
        self.counts[index] += 1
        self.count += 1
        self.total += seconds
        if trace_id is not None:
            self.exemplars[index] = trace_id

    def exemplar_map(self) -> dict[str, str]:
        """{bucket upper bound (str) → trace id} for populated exemplars."""
        bounds = [str(b) for b in self.buckets] + ["+Inf"]
        return {
            bound: trace_id
            for bound, trace_id in zip(bounds, self.exemplars)
            if trace_id is not None
        }

    def quantile(self, q: float) -> float:
        """The q-quantile estimate in seconds, linearly interpolated
        inside the containing bucket (``histogram_quantile`` semantics —
        observations are assumed uniform within their bucket).

        Reporting the bucket's *upper bound* instead would systematically
        overstate every quantile — a lone 0.3 s observation in the
        (0.25, 0.5] bucket would read as a 500 ms p99.  Edge cases: an
        empty histogram reports 0; a quantile landing in the +Inf
        overflow bucket is clamped to the largest finite bound (that
        bucket has no upper edge to interpolate toward, and Prometheus
        clamps the same way).
        """
        if self.count == 0:
            return 0.0
        if not self.buckets:
            return float("inf")
        q = min(max(q, 0.0), 1.0)
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            reached = cumulative + bucket_count
            if reached >= target:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index else 0.0
                upper = self.buckets[index]
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative = reached
        return self.buckets[-1]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total_ms": round(self.total * 1000, 3),
            "mean_ms": round(self.total / self.count * 1000, 3) if self.count else 0.0,
            "p50_ms": round(self.quantile(0.5) * 1000, 3),
            "p90_ms": round(self.quantile(0.9) * 1000, 3),
            "p99_ms": round(self.quantile(0.99) * 1000, 3),
        }


class ValueHistogram(LatencyHistogram):
    """A unitless histogram over raw values (confidence-interval widths):
    the same bucket/quantile machinery as :class:`LatencyHistogram`, with
    a summary that does *not* scale to milliseconds."""

    __slots__ = ()

    def __init__(self, buckets: tuple[float, ...] = VALUE_BUCKETS):
        super().__init__(buckets)

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": round(self.total / self.count, 6) if self.count else 0.0,
            "p50": round(self.quantile(0.5), 6),
            "p90": round(self.quantile(0.9), 6),
            "p99": round(self.quantile(0.99), 6),
        }


class Metrics:
    """Named counters plus per-key latency histograms, behind one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._values: dict[str, ValueHistogram] = {}
        self.started_at = time.time()

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(
        self, name: str, seconds: float, trace_id: str | None = None
    ) -> None:
        """Fold one request latency into the ``name`` histogram; a traced
        request's ``trace_id`` becomes its bucket's exemplar."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            histogram.observe(seconds, trace_id)

    def observe_value(self, name: str, value: float) -> None:
        """Fold a raw (unitless) value into the named value histogram —
        the approx tier records every confidence-interval width here."""
        with self._lock:
            histogram = self._values.get(name)
            if histogram is None:
                histogram = self._values[name] = ValueHistogram()
            histogram.observe(value)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        with self._lock:
            latency = {}
            for name, histogram in sorted(self._histograms.items()):
                summary = histogram.summary()
                exemplars = histogram.exemplar_map()
                if exemplars:
                    summary["exemplars"] = exemplars
                latency[name] = summary
            payload = {
                "uptime_s": round(time.time() - self.started_at, 3),
                "counters": dict(sorted(self._counters.items())),
                "latency": latency,
            }
            if self._values:
                payload["values"] = {
                    name: histogram.summary()
                    for name, histogram in sorted(self._values.items())
                }
            return payload

    def render_prometheus(
        self, extra: Iterable[tuple] = ()
    ) -> str:
        """The Prometheus text exposition (format 0.0.4) of this sink.

        Counters become ``pxdb_<name>_total``; each latency histogram
        becomes a classic ``pxdb_request_duration_seconds`` series labelled
        ``op="<name>",route="/<name>"`` (with *cumulative* ``le`` buckets,
        as the format requires — the internal buckets are disjoint).
        ``extra`` rows are (metric name, label dict, value) triples
        rendered as gauges, or (name, labels, value, type) 4-tuples for
        explicitly typed series (the cost observatory emits counters this
        way).  Every metric gets exactly one ``# HELP`` and one ``# TYPE``
        line, before its first sample.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            histograms = [
                (name, histogram.buckets, list(histogram.counts),
                 histogram.count, histogram.total)
                for name, histogram in sorted(self._histograms.items())
            ]
            values = [
                (name, histogram.buckets, list(histogram.counts),
                 histogram.count, histogram.total)
                for name, histogram in sorted(self._values.items())
            ]
            uptime = time.time() - self.started_at
        lines: list[str] = []
        described: set[str] = set()

        def header(metric: str, kind: str) -> None:
            # One HELP + TYPE pair per metric, before its first sample —
            # repeated headers are illegal in the exposition format.
            if metric in described:
                return
            described.add(metric)
            lines.append(f"# HELP {metric} {_help_text(metric, kind)}")
            lines.append(f"# TYPE {metric} {kind}")

        header("pxdb_uptime_seconds", "gauge")
        lines.append(f"pxdb_uptime_seconds {_format_value(uptime)}")
        for name, value in counters:
            metric = f"pxdb_{_sanitize(name)}_total"
            header(metric, "counter")
            lines.append(f"{metric} {value}")
        if histograms:
            metric = "pxdb_request_duration_seconds"
            header(metric, "histogram")
            for name, buckets, counts, count, total in histograms:
                label = f'op="{_sanitize(name)}",route="{_escape_label("/" + name)}"'
                cumulative = 0
                for bound, bucket_count in zip(buckets, counts):
                    cumulative += bucket_count
                    lines.append(
                        f'{metric}_bucket{{{label},le="{_format_value(bound)}"}}'
                        f" {cumulative}"
                    )
                lines.append(f'{metric}_bucket{{{label},le="+Inf"}} {count}')
                lines.append(f"{metric}_sum{{{label}}} {_format_value(total)}")
                lines.append(f"{metric}_count{{{label}}} {count}")
        for name, buckets, counts, count, total in values:
            metric = f"pxdb_{_sanitize(name)}"
            header(metric, "histogram")
            cumulative = 0
            for bound, bucket_count in zip(buckets, counts):
                cumulative += bucket_count
                lines.append(
                    f'{metric}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{metric}_sum {_format_value(total)}")
            lines.append(f"{metric}_count {count}")
        # Extras must be grouped by metric: a metric's samples have to be
        # contiguous under a single header, and callers interleave
        # per-label rows (e.g. per-worker gauges).
        grouped: dict[str, tuple[str, list]] = {}
        for row in extra:
            name, labels, value = row[0], row[1], row[2]
            kind = row[3] if len(row) > 3 else "gauge"
            metric = _sanitize(name)
            grouped.setdefault(metric, (kind, []))[1].append((labels, value))
        for metric, (kind, samples) in grouped.items():
            header(metric, kind)
            for labels, value in samples:
                rendered = ",".join(
                    f'{key}="{_escape_label(item)}"'
                    for key, item in sorted(labels.items())
                )
                lines.append(
                    f"{metric}{{{rendered}}} {_format_value(value)}"
                    if rendered else f"{metric} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"


# Curated HELP strings for the families a dashboard actually reads;
# everything else falls back to a generated one-liner so the exposition
# is always complete (every series carries # HELP and # TYPE).
_HELP = {
    "pxdb_uptime_seconds": "Seconds since this metrics sink was created.",
    "pxdb_request_duration_seconds":
        "Request latency in seconds, by op and HTTP route.",
    "pxdb_cost_requests_total":
        "Requests attributed per route and PXDB entry.",
    "pxdb_cost_units_total":
        "Structural work units (DP nodes + gates + edges + samples) attributed.",
    "pxdb_cost_nodes_computed_total":
        "DP subtree signature distributions computed, attributed per route/db.",
    "pxdb_cost_max_sig_width":
        "Widest signature distribution seen for this route/db.",
    "pxdb_cost_max_root_width":
        "Widest root signature distribution seen for this route/db.",
}


def _help_text(metric: str, kind: str) -> str:
    text = _HELP.get(metric)
    if text is not None:
        return text
    stem = metric[5:] if metric.startswith("pxdb_") else metric
    if kind == "counter":
        stem = stem[:-6] if stem.endswith("_total") else stem
        return f"Monotonic count of {stem.replace('_', ' ')}."
    if kind == "histogram":
        return f"Distribution of {stem.replace('_', ' ')}."
    return f"Current {stem.replace('_', ' ')}."


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric-name fragment ("query.cache_hits" →
    "query_cache_hits")."""
    return re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _escape_label(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value) -> str:
    """Shortest faithful rendering (integral floats print as integers)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)

