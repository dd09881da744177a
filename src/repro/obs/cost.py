"""Per-request cost attribution: from span trees to ``CostRecord`` rows.

Latency tells you a request was slow; the paper's complexity model
(Theorem 5.3) tells you *why*: DP nodes visited × signature widths, plus
circuit gates swept, sampler edges walked and Monte-Carlo draws burned.
All of those quantities are already on the spans the engine emits
(``dp.run``, ``circuit.*``, ``sample.draw``, ``approx.estimate``, …), so
cost attribution is a pure fold over a finished trace — no new
instrumentation in the hot path.

:func:`fold_trace` turns one finished trace (one request) into a
:data:`CostRecord` dict.  :class:`CostObservatory` subscribes to the
tracer's trace-finish hook, aggregates records per ``(route, db,
shard)``, keeps top-N rings of the most expensive entries and individual
requests, and renders everything as the ``/costs`` payload and
``pxdb_cost_*`` Prometheus series.

Because harvesting happens at root-span finish — *before* tail sampling
decides whether the ring keeps the trace — cost totals stay exact even
when trace retention is sampled down.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

#: Additive structural counters carried by every cost record; summed in
#: the per-(route, db, shard) aggregates.  ``root_pairs`` is the
#: signature products the ``dp.run`` root steps computed (their
#: convolutions, outside rows and dot-product terms); it has no
#: Prometheus series and does not enter ``cost_units``.
ADDITIVE_COUNTERS = (
    "dp_runs",
    "nodes_computed",
    "root_pairs",
    "cache_hits",
    "cache_misses",
    "engine_passes",
    "circuit_sweeps",
    "gates",
    "sampler_draws",
    "sample_edges",
    "approx_samples",
    "pool_dispatches",
    "spans",
)

#: Widest-seen counters: record key → the ``dp.run`` attribute folded by
#: max (per trace, then per aggregate).  ``max_sig_width`` is the widest
#: signature distribution below the root, ``max_root_width`` the widest
#: root distribution — the factor the root analysis is linear in.
MAX_COUNTERS = {"max_sig_width": "max_sig_width", "max_root_width": "root_width"}

#: Cost-units weights: one abstract unit per DP node computed / circuit
#: gate swept / distributional edge walked / Monte-Carlo sample drawn —
#: the structural quantities the run-time bound is linear in.  Rankings
#: use these instead of wall time so "most expensive" is deterministic
#: under scheduler jitter.
_COST_UNIT_KEYS = ("nodes_computed", "gates", "sample_edges", "approx_samples")


def _num(value, default=0):
    return value if isinstance(value, (int, float)) else default


def _fold_counters(spans: Iterable[dict]) -> dict:
    """One pass over a trace's spans → the additive counter totals."""
    c = dict.fromkeys(ADDITIVE_COUNTERS, 0)
    c.update(dict.fromkeys(MAX_COUNTERS, 0))
    for span in spans:
        name = span["name"]
        attrs = span["attributes"]
        c["spans"] += 1
        if name == "dp.run":
            c["dp_runs"] += 1
            c["nodes_computed"] += _num(attrs.get("nodes_computed"))
            c["root_pairs"] += _num(attrs.get("root_pairs"))
            c["cache_hits"] += _num(attrs.get("cache_hits"))
            c["cache_misses"] += _num(attrs.get("cache_misses"))
            for key, attr in MAX_COUNTERS.items():
                width = _num(attrs.get(attr))
                if width > c[key]:
                    c[key] = width
        elif name == "engine.pass":
            c["engine_passes"] += 1
        elif name.startswith("circuit."):
            c["circuit_sweeps"] += 1
            c["gates"] += _num(attrs.get("gates"))
        elif name == "sample.draw":
            c["sampler_draws"] += 1
            c["sample_edges"] += _num(attrs.get("edges"))
        elif name == "approx.estimate":
            c["approx_samples"] += _num(attrs.get("n"))
        elif name == "pool.dispatch":
            c["pool_dispatches"] += 1
    return c


def cost_units(counters: dict) -> float:
    """The scalar work score used for top-N ranking (structural units,
    not wall time — deterministic for identical traffic)."""
    return float(sum(_num(counters.get(key)) for key in _COST_UNIT_KEYS))


def fold_trace(
    root: dict,
    spans: list[dict],
    shard_resolver: Callable[[str], int | None] | None = None,
) -> dict:
    """Fold one finished trace into its cost record: route ``<op>`` for a
    ``request.<op>`` root, the root's name for any other root
    (``pxdb.sweep``, bare engine runs, …).
    """
    attrs = root["attributes"]
    counters = _fold_counters(spans)
    name = root["name"]
    db = attrs.get("db")
    shard = shard_resolver(db) if (shard_resolver is not None and db) else None
    row = {
        "trace_id": root["trace_id"],
        "route": name[len("request."):] if name.startswith("request.") else name,
        "db": db,
        "shard": shard,
        "status": root["status"],
        "start": root["start"],
        "duration_ms": root["duration_ms"],
        "requests": 1,
        **counters,
    }
    row["cost_units"] = cost_units(row)
    return row


class CostObservatory:
    """Aggregated per-request resource attribution for one service.

    Subscribed to :meth:`repro.obs.spans.Tracer.on_trace_finish` (via the
    service's harvest hook); keeps, behind one lock:

    * cumulative totals per ``(route, db, shard)``;
    * a top-N ring of the most expensive *entries* (aggregate keys,
      ranked by cumulative cost units);
    * a top-N ring of the most expensive individual *requests*.
    """

    def __init__(
        self,
        top_n: int = 10,
        shard_resolver: Callable[[str], int | None] | None = None,
    ):
        self.top_n = top_n
        self.shard_resolver = shard_resolver
        self._lock = threading.Lock()
        self._totals: dict[tuple, dict] = {}
        self._top_requests: list[dict] = []
        self.records_harvested = 0

    # -- ingestion ------------------------------------------------------------
    def harvest(self, root: dict, spans: list[dict]) -> None:
        """Tracer trace-finish observer: fold and aggregate one trace."""
        self.add(fold_trace(root, spans, self.shard_resolver))

    def add(self, row: dict) -> None:
        key = (row["route"], row["db"] or "-",
               "-" if row["shard"] is None else row["shard"])
        with self._lock:
            self.records_harvested += 1
            total = self._totals.get(key)
            if total is None:
                total = self._totals[key] = dict.fromkeys(ADDITIVE_COUNTERS, 0)
                total.update(
                    route=key[0], db=key[1], shard=key[2],
                    requests=0, errors=0, duration_ms=0.0, cost_units=0.0,
                )
                total.update(dict.fromkeys(MAX_COUNTERS, 0))
            total["requests"] += row["requests"]
            if row["status"] != "ok":
                total["errors"] += 1
            total["duration_ms"] += row["duration_ms"]
            total["cost_units"] += row["cost_units"]
            for key in MAX_COUNTERS:
                if row[key] > total[key]:
                    total[key] = row[key]
            for counter in ADDITIVE_COUNTERS:
                total[counter] += row[counter]
            self._push_top_locked(row)

    def _push_top_locked(self, row: dict) -> None:
        top = self._top_requests
        top.append(row)
        top.sort(key=lambda r: (-r["cost_units"], -r["duration_ms"]))
        del top[self.top_n:]

    # -- exposition -----------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``/costs`` payload: aggregate rows plus both top-N rings."""
        with self._lock:
            totals = [dict(total) for total in self._totals.values()]
            top_requests = [dict(row) for row in self._top_requests]
            harvested = self.records_harvested
        totals.sort(key=lambda t: (-t["cost_units"], -t["duration_ms"]))
        for rows in (totals, top_requests):
            for row in rows:
                row["duration_ms"] = round(row["duration_ms"], 3)
        return {
            "records": harvested,
            "top_n": self.top_n,
            "entries": totals,
            "top_requests": top_requests,
        }

    def prometheus_rows(self) -> list[tuple]:
        """``pxdb_cost_*`` rows for the metrics exposition — 4-tuples
        (name, labels, value, type) fed to ``render_prometheus(extra=…)``."""
        rows: list[tuple] = []
        with self._lock:
            totals = sorted(self._totals.items())
        for (route, db, shard), total in totals:
            labels = {"route": route, "db": db, "shard": shard}
            rows.append(("pxdb_cost_requests_total", labels,
                         total["requests"], "counter"))
            rows.append(("pxdb_cost_errors_total", labels,
                         total["errors"], "counter"))
            rows.append(("pxdb_cost_duration_ms_total", labels,
                         total["duration_ms"], "counter"))
            rows.append(("pxdb_cost_units_total", labels,
                         total["cost_units"], "counter"))
            rows.append(("pxdb_cost_nodes_computed_total", labels,
                         total["nodes_computed"], "counter"))
            rows.append(("pxdb_cost_cache_hits_total", labels,
                         total["cache_hits"], "counter"))
            rows.append(("pxdb_cost_gates_total", labels,
                         total["gates"], "counter"))
            rows.append(("pxdb_cost_sampler_draws_total", labels,
                         total["sampler_draws"], "counter"))
            rows.append(("pxdb_cost_approx_samples_total", labels,
                         total["approx_samples"], "counter"))
            for key in MAX_COUNTERS:
                rows.append((f"pxdb_cost_{key}", labels, total[key], "gauge"))
        return rows
