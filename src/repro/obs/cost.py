"""Per-request cost attribution and the span-folded profile, from one fold
of each finished trace.

Latency tells you a request was slow; the paper's complexity model
(Theorem 5.3) tells you *why*: DP nodes visited × signature widths, plus
circuit gates swept, sampler edges walked and Monte-Carlo draws burned.
All of those quantities are already on the spans the engine emits
(``dp.run``, ``circuit.*``, ``sample.draw``, ``approx.estimate``, …), so
cost attribution is a pure fold over a finished trace — no new
instrumentation in the hot path.

A finished trace is also a call tree — each span knows its parent, its
wall time and how much of it the children cover — so the same fold
yields a flamegraph-compatible profile: cumulative ``root;child;…``
span paths with their self time.

:class:`CostObservatory` subscribes to the tracer's trace-finish hook
and walks each trace once.  Under one lock it updates the per-``(route,
db)`` totals, a top-N ring of the most expensive requests and the
span-path profile, and renders them as the ``/costs`` and ``/profile``
payloads and the ``pxdb_cost_*`` Prometheus series.  :func:`fold_trace`
turns one trace into its cost record.
"""

from __future__ import annotations

import heapq
import threading
from typing import Iterable

from .spans import build_tree

#: Additive structural counters carried by every cost record; summed in
#: the per-(route, db) aggregates.  ``root_pairs`` is the
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

#: Upper bound on distinct span paths in the profile: a path first seen
#: once the table is full is not recorded, so pathological traces cannot
#: grow it without limit.
PROFILE_PATH_CAP = 4096


def _num(value, default=0):
    return value if isinstance(value, (int, float)) else default


def cost_units(counters: dict) -> float:
    """The scalar work score used for top-N ranking (structural units,
    not wall time — deterministic for identical traffic)."""
    return float(sum(_num(counters.get(key)) for key in _COST_UNIT_KEYS))


#: Span names that carry counters (besides the ``circuit.*`` family).
_COUNTED = frozenset(
    ("dp.run", "engine.pass", "sample.draw", "approx.estimate", "pool.dispatch")
)


def _count(spans) -> tuple[dict, tuple, float]:
    """The counter fold over a trace's counter-carrying spans → (the
    additive counters of each family the trace has a span of, the max
    counters in :data:`MAX_COUNTERS` order, cost units).  A family
    without a span only has zeros, so it is left out."""
    dp_runs = nodes = pairs = hits = misses = sig_width = root_width = 0
    passes = sweeps = gates = draws = edges = estimates = samples = 0
    dispatches = 0
    for span in spans:
        name = span["name"]
        attrs = span["attributes"]
        if name == "dp.run":
            dp_runs += 1
            nodes += _num(attrs.get("nodes_computed"))
            pairs += _num(attrs.get("root_pairs"))
            hits += _num(attrs.get("cache_hits"))
            misses += _num(attrs.get("cache_misses"))
            width = _num(attrs.get("max_sig_width"))
            if width > sig_width:
                sig_width = width
            width = _num(attrs.get("root_width"))
            if width > root_width:
                root_width = width
        elif name == "engine.pass":
            passes += 1
        elif name == "sample.draw":
            draws += 1
            edges += _num(attrs.get("edges"))
        elif name == "approx.estimate":
            estimates += 1
            samples += _num(attrs.get("n"))
        elif name == "pool.dispatch":
            dispatches += 1
        else:  # circuit.*
            sweeps += 1
            gates += _num(attrs.get("gates"))
    counters = {}
    if dp_runs:
        counters.update(dp_runs=dp_runs, nodes_computed=nodes,
                        root_pairs=pairs, cache_hits=hits, cache_misses=misses)
    if passes:
        counters["engine_passes"] = passes
    if sweeps:
        counters.update(circuit_sweeps=sweeps, gates=gates)
    if draws:
        counters.update(sampler_draws=draws, sample_edges=edges)
    if estimates:
        counters["approx_samples"] = samples
    if dispatches:
        counters["pool_dispatches"] = dispatches
    units = float(nodes + gates + edges + samples)  # _COST_UNIT_KEYS
    return counters, (sig_width, root_width), units


def _fold(spans: list[dict]) -> tuple[dict, tuple, float, Iterable]:
    """One reverse pass over a trace's spans → (counters, widths, cost
    units), the :func:`_count` of its counter-carrying spans, plus one
    ``[path, duration_ms, covered_ms]`` row per span.

    A row's duration is clamped at 0, and ``covered_ms`` is the sum of
    its children's clamped durations, so its self time is the
    difference, clamped at 0.

    Ring order puts every span after its children (a span finishes
    before its parent, and a worker's spans are ingested while its
    ``pool.dispatch`` is still open), so walking it backwards meets each
    parent before its children: a span's path is its parent's path plus
    its own name, and its duration adds to its parent's covered time.  A
    span whose parent is not in the trace starts its own path.  Any
    other order (a parent recorded before its child) takes the rows from
    :func:`build_tree` instead.
    """
    counted = []
    row_of: dict = {}  # span id → its row, in reverse ring order
    ordered = True
    ids = None
    for span in reversed(spans):
        name = span["name"]
        if name in _COUNTED or name.startswith("circuit."):
            counted.append(span)
        if not ordered:
            continue
        duration = span["duration_ms"]
        if duration < 0.0:
            duration = 0.0
        parent = span["parent_id"]
        above = row_of.get(parent)
        if above is not None:
            above[2] += duration
            row = [f"{above[0]};{name}", duration, 0.0]
        elif parent is None:
            row = [name, duration, 0.0]
        else:
            if ids is None:
                ids = {item["span_id"] for item in spans}
            if parent in ids:  # the parent comes earlier in the ring
                ordered = False
                continue
            row = [name, duration, 0.0]
        row_of[span["span_id"]] = row
    if counted:
        counters, widths, units = _count(reversed(counted))
    else:
        counters, widths, units = {}, (0, 0), 0.0
    rows = row_of.values() if ordered else _tree_rows(build_tree(spans), "", [])
    return counters, widths, units, rows


def _tree_rows(nodes: list[dict], prefix: str, into: list) -> list:
    """The rows of a :func:`build_tree` forest, depth first with children
    in start order (the order a new path enters the profile)."""
    for node in nodes:
        path = f"{prefix};{node['name']}" if prefix else node["name"]
        children = node["children"]
        into.append([
            path,
            max(node["duration_ms"], 0.0),
            sum(max(child["duration_ms"], 0.0) for child in children),
        ])
        _tree_rows(children, path, into)
    return into


def _route(root: dict) -> str:
    """``<op>`` for a ``request.<op>`` root, the root's name for any other
    root (``pxdb.sweep``, bare engine runs, …)."""
    name = root["name"]
    return name[8:] if name.startswith("request.") else name


_NO_COUNTS = dict.fromkeys(ADDITIVE_COUNTERS, 0)


def _record(root: dict, route: str, spans: int, counters: dict,
            widths: tuple, units: float) -> dict:
    """One trace's cost record (the ``/costs`` ``top_requests`` row)."""
    return {
        "trace_id": root["trace_id"],
        "route": route,
        "db": root["attributes"].get("db"),
        "status": root["status"],
        "start": root["start"],
        "duration_ms": root["duration_ms"],
        "requests": 1,
        **_NO_COUNTS,
        **counters,
        "spans": spans,
        "max_sig_width": widths[0],
        "max_root_width": widths[1],
        "cost_units": units,
    }


def fold_trace(root: dict, spans: list[dict]) -> dict:
    """Fold one finished trace into its cost record."""
    spans = spans or [root]
    counters, widths, units, _rows = _fold(spans)
    return _record(root, _route(root), len(spans), counters, widths, units)


class CostObservatory:
    """Aggregated per-request resource attribution for one service.

    Subscribed to :meth:`repro.obs.spans.Tracer.on_trace_finish`; keeps,
    behind one lock:

    * cumulative totals per ``(route, db)``;
    * a top-N ring of the most expensive individual *requests*, a
      bounded heap on (cost units, duration) in which an earlier trace
      wins a tie;
    * the cumulative span-path profile (count / self-ms / total-ms per
      path), at most :data:`PROFILE_PATH_CAP` paths.
    """

    def __init__(self, top_n: int = 10):
        self.top_n = top_n
        self._lock = threading.Lock()
        self._totals: dict[tuple, dict] = {}
        # (cost_units, duration_ms, -arrival, record): the heap's head is
        # the ring's cheapest, latest member.
        self._top: list[tuple] = []
        self._paths: dict[str, list] = {}
        self.records_harvested = 0

    # -- ingestion ------------------------------------------------------------
    def harvest(self, root: dict, spans: list[dict]) -> None:
        """Tracer trace-finish observer: fold one trace into the totals,
        the top-N ring and the profile."""
        if not spans:
            spans = [root]
        counters, widths, units, rows = _fold(spans)
        route = _route(root)
        duration = root["duration_ms"]
        key = (route, root["attributes"].get("db") or "-")
        with self._lock:
            self.records_harvested += 1
            total = self._totals.get(key)
            if total is None:
                total = self._totals[key] = {
                    **_NO_COUNTS, "route": route, "db": key[1], "requests": 0,
                    "errors": 0, "duration_ms": 0.0, "cost_units": 0.0,
                    **dict.fromkeys(MAX_COUNTERS, 0),
                }
            total["requests"] += 1
            if root["status"] != "ok":
                total["errors"] += 1
            total["duration_ms"] += duration
            total["cost_units"] += units
            total["spans"] += len(spans)
            for counter, value in counters.items():
                total[counter] += value
            if "dp_runs" in counters:  # the widths are dp.run attributes
                if widths[0] > total["max_sig_width"]:
                    total["max_sig_width"] = widths[0]
                if widths[1] > total["max_root_width"]:
                    total["max_root_width"] = widths[1]
            top = self._top
            if len(top) < self.top_n:
                heapq.heappush(top, (units, duration, -self.records_harvested,
                                     _record(root, route, len(spans), counters,
                                             widths, units)))
            elif top and (units > top[0][0]
                          or units == top[0][0] and duration > top[0][1]):
                heapq.heapreplace(top, (units, duration, -self.records_harvested,
                                        _record(root, route, len(spans), counters,
                                                widths, units)))
            table = self._paths
            fresh = False
            for path, span_ms, covered in rows:
                stats = table.get(path)
                if stats is None:
                    if fresh or len(table) >= PROFILE_PATH_CAP:
                        continue
                    # New paths enter in depth-first order, children by
                    # start, while the table has room.
                    fresh = True
                    for new, _, _ in _tree_rows(build_tree(spans), "", []):
                        if new not in table and len(table) < PROFILE_PATH_CAP:
                            table[new] = [0, 0.0, 0.0]
                    stats = table.get(path)
                    if stats is None:
                        continue
                self_ms = span_ms - covered
                stats[0] += 1
                stats[1] += self_ms if self_ms > 0.0 else 0.0
                stats[2] += span_ms

    # -- exposition -----------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``/costs`` payload: aggregate rows plus the top-N ring."""
        with self._lock:
            totals = [dict(total) for total in self._totals.values()]
            top_requests = [dict(item[3]) for item in sorted(self._top, reverse=True)]
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

    def profile(self) -> dict:
        """The ``/profile`` JSON payload: span paths sorted by self time,
        heaviest first."""
        with self._lock:
            rows = [
                {
                    "path": path,
                    "count": count,
                    "self_ms": round(self_ms, 3),
                    "total_ms": round(total_ms, 3),
                }
                for path, (count, self_ms, total_ms) in self._paths.items()
            ]
            folded = self.records_harvested
        rows.sort(key=lambda row: -row["self_ms"])
        return {"source": "spans", "traces_folded": folded, "paths": rows}

    def collapsed(self) -> str:
        """The flamegraph collapsed format: one ``path value`` line per
        span path, value in integer microseconds of cumulative self time
        (zero-self paths are kept at their fold count so pure-dispatch
        frames still appear)."""
        with self._lock:
            items = sorted(self._paths.items())
        lines = []
        for path, (count, self_ms, _total) in items:
            value = int(self_ms * 1000)
            lines.append(f"{path} {value if value > 0 else count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def prometheus_rows(self) -> list[tuple]:
        """``pxdb_cost_*`` rows for the metrics exposition — 4-tuples
        (name, labels, value, type) fed to ``render_prometheus(extra=…)``."""
        rows: list[tuple] = []
        with self._lock:
            totals = sorted(self._totals.items())
        for (route, db), total in totals:
            labels = {"route": route, "db": db}
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
