"""Tests for the cost observatory: per-request cost attribution,
span-folded profiling, SLO burn-rate monitoring, the live dashboard, and
the tracer features they ride on (per-trace index, tail-based retention,
JSONL rotation, trace-finish observers)."""

from __future__ import annotations

import gc
import json
import re
import urllib.request
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.evaluator import Evaluation
from repro.obs import benchrec
from repro.obs.cost import CostObservatory, cost_units, fold_trace
from repro.obs.dashboard import render_dashboard
from repro.obs.profile import SpanProfiler, StackSampler
from repro.obs.slo import (
    PAGE_BURN,
    SLOMonitor,
    WARN_BURN,
    default_slos,
    parse_slo,
)
from repro.obs.spans import TRACER
from repro.pdoc.pdocument import PNode, pdocument
from repro.pdoc.serialize import pdocument_to_xml
from repro.service import (
    DocumentStore,
    Metrics,
    PXDBService,
    ServiceClient,
    build_service,
    start_async_server,
)
from repro.service.server import dispatch_route, query_payload, text_content_type

CONSTRAINTS = "forall catalog/$shelf : count(*/$book) >= 1\n"
QUERY = "catalog/shelf/book/title/$*"


def make_catalog():
    pd, root = pdocument("catalog")
    shelf = root.ordinary("shelf")
    books = shelf.ind()
    b1 = PNode("ord", "book")
    b1.ordinary("title").ordinary("Dune")
    books.add_edge(b1, Fraction(1, 2))
    b2 = PNode("ord", "book")
    b2.ordinary("title").ordinary("Solaris")
    books.add_edge(b2, Fraction(1, 4))
    pd.validate()
    return pd


@pytest.fixture()
def catalog_files(tmp_path: Path) -> tuple[Path, Path]:
    pdoc_path = tmp_path / "catalog.pxml"
    pdoc_path.write_text(pdocument_to_xml(make_catalog()))
    constraints_path = tmp_path / "constraints.txt"
    constraints_path.write_text(CONSTRAINTS)
    return pdoc_path, constraints_path


# -- per-trace index ----------------------------------------------------------

def test_trace_index_returns_exactly_one_trace(tracing):
    for index in range(5):
        with TRACER.span(f"root{index}"):
            with TRACER.span("child"):
                pass
    summaries = TRACER.traces()
    assert len(summaries) == 5
    for row in summaries:
        spans = TRACER.trace(row["trace_id"])
        assert len(spans) == 2
        assert {s["trace_id"] for s in spans} == {row["trace_id"]}
    assert TRACER.trace("missing") == []
    assert TRACER.stats()["traces_indexed"] == 5


def test_trace_index_survives_ring_eviction(tracing):
    TRACER.configure(ring_size=4)
    for index in range(6):
        with TRACER.span(f"r{index}"):
            pass
    # Ring holds the last 4 roots; evicted traces vanish from the index.
    summaries = TRACER.traces()
    assert {row["name"] for row in summaries} == {"r2", "r3", "r4", "r5"}
    assert TRACER.stats()["traces_indexed"] == 4
    # Shrinking the ring evicts (and unindexes) the dropped-left spans.
    TRACER.configure(ring_size=2)
    assert {row["name"] for row in TRACER.traces()} == {"r4", "r5"}


# -- tail-based retention -----------------------------------------------------

def test_tail_sampling_drops_fast_ok_traces(tracing):
    TRACER.configure(tail_sample=True, tail_slow_ms=10_000.0, tail_rate=0.0)
    with TRACER.span("fast"):
        with TRACER.span("inner"):
            pass
    assert TRACER.spans() == []
    stats = TRACER.stats()
    assert stats["traces_dropped"] == 1
    assert stats["spans_dropped"] == 2
    assert stats["traces_kept"] == 0


def test_tail_sampling_always_keeps_errors(tracing):
    TRACER.configure(tail_sample=True, tail_slow_ms=10_000.0, tail_rate=0.0)
    with pytest.raises(RuntimeError):
        with TRACER.span("failing"):
            with TRACER.span("inner"):
                raise RuntimeError("boom")
    spans = TRACER.spans()
    assert {s["name"] for s in spans} == {"failing", "inner"}
    assert TRACER.stats()["traces_kept"] == 1


def test_tail_sampling_rate_one_keeps_everything(tracing):
    TRACER.configure(tail_sample=True, tail_slow_ms=10_000.0, tail_rate=1.0)
    with TRACER.span("fast"):
        pass
    assert len(TRACER.spans()) == 1
    assert TRACER.stats()["traces_kept"] == 1


def test_tail_sampling_observers_see_dropped_traces(tracing):
    """Cost/profile harvest runs before the keep/drop decision, so the
    fold sees every trace even when the ring records none of them."""
    TRACER.configure(tail_sample=True, tail_slow_ms=10_000.0, tail_rate=0.0)
    seen: list[tuple[str, int]] = []

    def observer(root, spans):
        seen.append((root["name"], len(spans)))

    TRACER.on_trace_finish(observer)
    try:
        with TRACER.span("dropped"):
            with TRACER.span("inner"):
                pass
        assert TRACER.spans() == []  # the ring dropped it...
        assert seen == [("dropped", 2)]  # ...the observer saw it whole
    finally:
        TRACER.remove_trace_observer(observer)


def test_trace_observers_are_weakly_held(tracing):
    class Sink:
        def __init__(self):
            self.calls = 0

        def observe(self, root, spans):
            self.calls += 1

    sink = Sink()
    TRACER.on_trace_finish(sink.observe)
    with TRACER.span("one"):
        pass
    assert sink.calls == 1
    del sink
    gc.collect()
    with TRACER.span("two"):  # must not raise on the dead observer
        pass
    assert len(TRACER.spans()) == 2


# -- JSONL rotation -----------------------------------------------------------

def test_jsonl_rotation_never_drops_inflight_spans(tracing, tmp_path):
    path = tmp_path / "trace.jsonl"
    TRACER.configure(jsonl_path=path, jsonl_max_bytes=600)
    span_ids = []
    for index in range(6):
        with TRACER.span(f"span{index}") as span:
            span_ids.append(span.span_id)
    assert TRACER.stats()["jsonl_rotations"] >= 1
    rotated = tmp_path / "trace.jsonl.1"
    assert rotated.exists()
    lines = []
    for source in (rotated, path):
        lines.extend(source.read_text().splitlines())
    # Every line is a complete JSON record: rotation happens before the
    # write, so no span is ever torn across the boundary or dropped.
    records = [json.loads(line) for line in lines]
    recent = {record["span_id"] for record in records}
    # The span being written during each rotation survived, and the most
    # recent spans are all in the current file + its predecessor.
    assert set(span_ids[-len(records):]) <= recent
    assert span_ids[-1] in {
        json.loads(line)["span_id"] for line in path.read_text().splitlines()
    }


# -- cost attribution: the fold ----------------------------------------------

def _span(name, trace_id="t1", parent=None, attrs=None, duration=1.0,
          status="ok"):
    return {
        "trace_id": trace_id,
        "span_id": f"s-{name}-{id(attrs)}",
        "parent_id": parent,
        "name": name,
        "start": 0.0,
        "duration_ms": duration,
        "status": status,
        "pid": 1,
        "attributes": attrs or {},
    }


def test_fold_trace_request_root_counts_everything():
    root = _span("request.query", attrs={"db": "cat"}, duration=10.0)
    spans = [
        _span("dp.run", attrs={
            "nodes_computed": 40, "cache_hits": 7, "cache_misses": 33,
            "max_sig_width": 5,
        }),
        _span("engine.pass"),
        _span("circuit.forward", attrs={"gates": 12}),
        _span("sample.draw", attrs={"edges": 9}),
        _span("approx.estimate", attrs={"n": 100}),
        _span("pool.dispatch"),
        root,
    ]
    record = fold_trace(root, spans, shard_resolver=lambda db: 3)
    assert record["route"] == "query"
    assert record["db"] == "cat"
    assert record["shard"] == 3
    assert record["requests"] == 1
    # Counters are the spans' own integers, never laundered through floats.
    assert record["nodes_computed"] == 40 and isinstance(record["nodes_computed"], int)
    assert record["cache_hits"] == 7
    assert record["cache_misses"] == 33
    assert record["max_sig_width"] == 5
    assert record["dp_runs"] == 1
    assert record["gates"] == 12
    assert record["sample_edges"] == 9
    assert record["approx_samples"] == 100
    assert record["pool_dispatches"] == 1
    assert record["cost_units"] == 40 + 12 + 9 + 100
    assert record["cost_units"] == cost_units(record)


def test_root_width_folds_by_max_into_records_and_aggregates():
    obs = CostObservatory()
    for index, widths in enumerate(((161, 47), (9191,))):
        root = _span("request.query", trace_id=f"t{index}",
                     attrs={"db": "uni"})
        runs = [
            _span("dp.run", trace_id=f"t{index}",
                  attrs={"nodes_computed": 1, "root_width": width})
            for width in widths
        ]
        record = fold_trace(root, runs + [root])
        assert record["max_root_width"] == max(widths)
        obs.harvest(root, runs + [root])
    (entry,) = obs.snapshot()["entries"]
    assert entry["max_root_width"] == 9191
    rows = {name: value for name, _labels, value, _kind in obs.prometheus_rows()}
    assert rows["pxdb_cost_max_root_width"] == 9191


def test_root_pairs_sum_into_records_and_aggregates_only():
    """``root_pairs`` is additive over a trace's ``dp.run`` spans and over
    an entry's records; it adds no Prometheus series and no cost units."""
    obs = CostObservatory()
    for index, pairs in enumerate(((1944, 81), (24,))):
        root = _span("request.sample", trace_id=f"t{index}", attrs={"db": "uni"})
        runs = [
            _span("dp.run", trace_id=f"t{index}",
                  attrs={"nodes_computed": 2, "root_pairs": count})
            for count in pairs
        ]
        record = fold_trace(root, runs + [root])
        assert record["root_pairs"] == sum(pairs)
        assert record["cost_units"] == 2 * len(pairs)
        obs.harvest(root, runs + [root])
    (entry,) = obs.snapshot()["entries"]
    assert entry["root_pairs"] == 1944 + 81 + 24
    assert not any("root_pairs" in name for name, *_ in obs.prometheus_rows())


def test_cost_observatory_aggregates_and_ranks(tracing):
    obs = CostObservatory(top_n=2)
    for index, nodes in enumerate((10, 30, 20)):
        root = _span(f"request.query", trace_id=f"t{index}",
                     attrs={"db": "cat"})
        dp = _span("dp.run", trace_id=f"t{index}",
                   attrs={"nodes_computed": nodes, "cache_hits": 0,
                          "cache_misses": nodes, "max_sig_width": 2})
        obs.harvest(root, [dp, root])
    snap = obs.snapshot()
    assert snap["records"] == 3
    (entry,) = snap["entries"]
    assert entry["route"] == "query" and entry["db"] == "cat"
    assert entry["requests"] == 3
    assert entry["nodes_computed"] == 60
    assert entry["cost_units"] == 60.0
    # Top-requests ring is bounded and ranked by cost units, descending.
    assert [row["nodes_computed"] for row in snap["top_requests"]] == [30, 20]
    rows = obs.prometheus_rows()
    by_name = {name for name, _labels, _value, _kind in rows}
    assert "pxdb_cost_requests_total" in by_name
    assert "pxdb_cost_units_total" in by_name
    assert "pxdb_cost_max_sig_width" in by_name


# -- cost attribution: end to end against real front ends --------------------

def _wait_for(predicate, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_pooled_async_request_cost_matches_evaluator_counters(
    catalog_files, tracing, monkeypatch
):
    """The acceptance bar: a pooled async query's CostRecord carries the
    evaluator's own per-run DP counters, exactly."""
    # Reference run: the identical store, the identical DP passes, with
    # the evaluator's per-run counters captured straight off the object.
    captured: list[tuple[int, int, int, int]] = []
    real_run = Evaluation.run

    def capturing_run(self):
        out = real_run(self)
        captured.append((
            self.nodes_computed, self.cache_hits, self.cache_misses,
            self.max_sig_width,
        ))
        return out

    # The pool worker registers its store entry lazily inside the first
    # traced request, so that request is (correctly) charged for the
    # register-time warm-up pass too — the reference run mirrors that by
    # capturing from registration through the query's passes.
    monkeypatch.setattr(Evaluation, "run", capturing_run)
    reference_store = DocumentStore()
    reference_store.register("cat", *catalog_files)
    assert query_payload(reference_store.get("cat"), QUERY)["answers"]
    assert captured, "the reference passes must run the evaluator"
    nodes = sum(c[0] for c in captured)
    hits = sum(c[1] for c in captured)
    misses = sum(c[2] for c in captured)
    width = max(c[3] for c in captured)
    monkeypatch.setattr(Evaluation, "run", real_run)

    # Live run: the same single query through the front end backed by a
    # worker pool (evaluated in a worker process, spans ingested back,
    # harvested into a CostRecord at root finish).
    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.reset()
    service = build_service(store, pool=1)
    handle = start_async_server(service)
    try:
        client = ServiceClient(
            f"http://{handle.address[0]}:{handle.address[1]}"
        )
        assert client.query("cat", QUERY)

        def query_rows():
            return [
                r for r in service.costs.snapshot()["top_requests"]
                if r["route"] == "query"
            ]

        assert _wait_for(lambda: bool(query_rows()))
        rows = query_rows()
        snap = service.costs.snapshot()
        record = rows[0]
        assert record["db"] == "cat"
        assert record["dp_runs"] >= 1
        assert record["nodes_computed"] == nodes
        assert record["cache_hits"] == hits
        assert record["cache_misses"] == misses
        assert record["max_sig_width"] == width
        # The aggregate entry carries the same exact integers.
        entry = next(
            e for e in snap["entries"]
            if e["route"] == "query" and e["db"] == "cat"
        )
        assert entry["nodes_computed"] == nodes
        assert entry["cache_hits"] == hits
    finally:
        handle.stop()
        service.close()


# -- span-folded profiling ----------------------------------------------------

def test_span_profiler_folds_self_time():
    profiler = SpanProfiler()
    root = _span("request.query", duration=10.0)
    child = _span("dp.run", parent=root["span_id"], duration=6.0)
    child["parent_id"] = root["span_id"]
    profiler.add_trace(root, [child, root])
    snap = profiler.snapshot()
    assert snap["source"] == "spans"
    assert snap["traces_folded"] == 1
    rows = {row["path"]: row for row in snap["paths"]}
    assert rows["request.query"]["self_ms"] == pytest.approx(4.0)
    assert rows["request.query"]["total_ms"] == pytest.approx(10.0)
    assert rows["request.query;dp.run"]["self_ms"] == pytest.approx(6.0)
    collapsed = profiler.collapsed()
    assert "request.query;dp.run 6000" in collapsed
    assert collapsed.endswith("\n")


def test_span_profiler_accumulates_across_traces():
    profiler = SpanProfiler()
    for _ in range(3):
        root = _span("request.sat", duration=2.0)
        profiler.add_trace(root, [root])
    rows = {row["path"]: row for row in profiler.snapshot()["paths"]}
    assert rows["request.sat"]["count"] == 3
    assert rows["request.sat"]["total_ms"] == pytest.approx(6.0)


def test_stack_sampler_sample_once():
    sampler = StackSampler(interval=0.5)
    folded = sampler.sample_once()
    assert folded >= 1  # at least this thread
    snap = sampler.snapshot()
    assert snap["source"] == "stacks"
    assert snap["samples"] == 1
    assert any("sample_once" in row["path"] or "test_" in row["path"]
               for row in snap["paths"])
    collapsed = sampler.collapsed()
    assert collapsed and all(
        line.rsplit(" ", 1)[1].isdigit()
        for line in collapsed.strip().splitlines()
    )
    assert not sampler.running


def test_profile_endpoint_sources(catalog_files, tracing):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.reset()
    service = PXDBService(store)
    try:
        service.query("cat", QUERY)
        assert _wait_for(lambda: service.profiler.traces_folded >= 1)
        collapsed = service.profile_payload(fmt="collapsed")
        assert "request.query" in collapsed
        payload = service.profile_payload()
        assert payload["source"] == "spans"
        assert payload["traces_folded"] >= 1
        # Forcing the stack source starts the sampler lazily.
        stacks = service.profile_payload(source="stacks")
        assert stacks["source"] == "stacks"
        assert service.stack_sampler.running
        with pytest.raises(ValueError):
            service.profile_payload(fmt="svg")
    finally:
        service.stack_sampler.stop()


# -- SLO engine ---------------------------------------------------------------

def test_parse_slo_grammar():
    slo = parse_slo("query=p99:50ms:0.1%")
    assert slo["route"] == "query"
    assert slo["quantile"] == 0.99
    assert slo["threshold_ms"] == 50.0
    assert slo["latency_budget"] == pytest.approx(0.01)
    assert slo["error_budget"] == pytest.approx(0.001)
    assert parse_slo("sat=p95:2s:5%")["threshold_ms"] == 2000.0
    for bad in ("nope", "query=p99:50ms", "query=p0:50ms:1%",
                "query=p99:50ms:0%", "query=p99:50ms:100%",
                "query=q99:50ms:1%"):
        with pytest.raises(ValueError):
            parse_slo(bad)


def test_default_slos_cover_stock_routes():
    slos = default_slos()
    assert set(slos) == {"sat", "query", "topk", "sample", "approx"}
    assert all(s["threshold_ms"] == 1000.0 for s in slos.values())


class _FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now


def test_slo_burn_rates_trip_page_on_sustained_errors():
    metrics = Metrics()
    clock = _FakeClock()
    monitor = SLOMonitor(
        metrics,
        {"query": parse_slo("query=p99:1000ms:1%")},
        clock=clock,
        min_requests=10,
        min_tick_s=0.0,
    )
    # Healthy hour of history first.
    for _ in range(200):
        metrics.observe("query", 0.001)
    monitor.tick()
    clock.now += 3600.0
    monitor.tick()
    # Then a sustained error storm: 50% errors >> 14.4 × the 1% budget.
    for _ in range(100):
        metrics.observe("query", 0.001)
        metrics.observe("query", 0.001)
        metrics.increment("query.errors")
    # Walk snapshots across both windows so 5m AND 1h burn.
    for step in range(13):
        clock.now += 300.0
        for _ in range(20):
            metrics.observe("query", 0.001)
            metrics.increment("query.errors")
        monitor.tick()
    report = {
        (row["route"], row["objective"]): row for row in monitor.evaluate()
    }
    errors = report[("query", "errors")]
    assert errors["state"] == "page"
    assert all(burn >= PAGE_BURN for burn in errors["burn"].values())
    assert monitor.state() == "page"
    payload = monitor.payload()
    assert payload["state"] == "page"
    assert payload["page_burn"] == PAGE_BURN and payload["warn_burn"] == WARN_BURN
    rows = monitor.prometheus_rows()
    states = {
        (labels["route"], labels["objective"]): value
        for name, labels, value, kind in rows
        if name == "pxdb_slo_state"
    }
    assert states[("query", "errors")] == 2


def test_slo_low_traffic_never_pages():
    metrics = Metrics()
    clock = _FakeClock()
    monitor = SLOMonitor(
        metrics,
        {"query": parse_slo("query=p99:1000ms:1%")},
        clock=clock,
        min_requests=10,
        min_tick_s=0.0,
    )
    monitor.tick()
    # Three requests, all errors — a 300x burn, but under min_requests.
    for _ in range(3):
        metrics.observe("query", 0.001)
        metrics.increment("query.errors")
    clock.now += 3700.0
    monitor.tick()
    report = {
        (row["route"], row["objective"]): row for row in monitor.evaluate()
    }
    assert report[("query", "errors")]["state"] == "ok"
    assert monitor.state() == "ok"


def test_slo_all_windows_must_burn():
    """A short error blip trips the 5m window but not the 1h window —
    the multi-window rule keeps the state at ok."""
    metrics = Metrics()
    clock = _FakeClock()
    monitor = SLOMonitor(
        metrics,
        {"query": parse_slo("query=p99:1000ms:1%")},
        clock=clock,
        min_requests=10,
        min_tick_s=0.0,
    )
    # 55 minutes of perfectly healthy traffic...
    for step in range(11):
        for _ in range(100):
            metrics.observe("query", 0.001)
        monitor.tick()
        clock.now += 300.0
    # ...then one bad 5-minute window.
    for _ in range(50):
        metrics.observe("query", 0.001)
        metrics.increment("query.errors")
    monitor.tick()
    report = {
        (row["route"], row["objective"]): row for row in monitor.evaluate()
    }
    errors = report[("query", "errors")]
    assert errors["burn"]["5m"] >= PAGE_BURN
    assert errors["burn"]["1h"] < WARN_BURN
    assert errors["state"] == "ok"


# -- dashboard ----------------------------------------------------------------

def test_dashboard_renders_self_contained_html(catalog_files, tracing):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.reset()
    service = PXDBService(store)
    service.query("cat", QUERY)
    assert _wait_for(lambda: service.costs.records_harvested >= 1)
    html = service.dashboard_html()
    assert html.lstrip().startswith("<!doctype html>")
    for needle in ("SLO", "cost", "cat", "/metrics", "/costs", "/slo"):
        assert needle in html, f"dashboard missing {needle!r}"
    # Self-contained: no external scripts, stylesheets or images.
    assert "src=\"http" not in html and "href=\"http" not in html
    # XSS hygiene: markup-significant characters in names are escaped.
    evil = render_dashboard(
        {"counters": {"<script>": 1}, "latency": {}, "uptime_s": 1},
        {"state": "ok", "slos": []},
        {"entries": [], "top_requests": [], "records": 0},
        [],
    )
    assert "&lt;script&gt;" in evil
    assert "<script>" not in evil


def test_dashboard_route_and_content_types(catalog_files, tracing):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = PXDBService(store)
    status, html = dispatch_route(service, "/debug/dashboard", {})
    assert status == 200 and isinstance(html, str)
    assert text_content_type("/debug/dashboard").startswith("text/html")
    assert text_content_type("/metrics").startswith("text/plain; version=")
    assert text_content_type("/profile") == "text/plain; charset=utf-8"
    status, collapsed = dispatch_route(
        service, "/profile", {"format": "collapsed"}
    )
    assert status == 200 and isinstance(collapsed, str)
    status, costs = dispatch_route(service, "/costs", {})
    assert status == 200 and costs["records"] == 0
    status, slo = dispatch_route(service, "/slo", {})
    assert status == 200 and slo["state"] == "ok"


def test_frontend_content_types_match(catalog_files, tracing):
    """/profile, /costs, /slo and the dashboard answer over HTTP with the
    content types :func:`text_content_type` names (JSON otherwise)."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = build_service(store)
    handle = start_async_server(service)
    base_url = f"http://{handle.address[0]}:{handle.address[1]}"
    types = {}
    try:
        for route in ("/debug/dashboard", "/profile?format=collapsed",
                      "/costs", "/slo"):
            with urllib.request.urlopen(base_url + route, timeout=30) as resp:
                types[route] = resp.headers.get("Content-Type")
    finally:
        handle.stop()
        service.close()
    assert types == {
        "/debug/dashboard": text_content_type("/debug/dashboard"),
        "/profile?format=collapsed": text_content_type("/profile"),
        "/costs": "application/json",
        "/slo": "application/json",
    }
    assert types["/debug/dashboard"].startswith("text/html")
    assert types["/profile?format=collapsed"].startswith("text/plain")


# -- Prometheus exposition completeness ---------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[0-9.eE+\-]+|NaN|[+\-]Inf)$"
)
_LABELS_RE = re.compile(
    r'^\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\}$'
)


def _validate_prometheus(text: str) -> None:
    """Line-level validation of the 0.0.4 exposition: every sample
    parses, and every series has exactly one HELP and one TYPE, both
    before its first sample."""
    described: dict[str, set] = {}
    sampled_first: set[str] = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            kind = line[2:6]
            parts = line.split(" ", 3)
            assert len(parts) >= 4, f"malformed comment: {line!r}"
            metric = parts[2]
            assert metric not in sampled_first, (
                f"{kind} for {metric} after its first sample"
            )
            kinds = described.setdefault(metric, set())
            assert kind not in kinds, f"duplicate {kind} for {metric}"
            kinds.add(kind)
            if kind == "TYPE":
                assert parts[3] in {
                    "counter", "gauge", "histogram", "summary", "untyped",
                }, f"bad type in {line!r}"
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        if match["labels"]:
            assert _LABELS_RE.match(match["labels"]), (
                f"malformed labels: {line!r}"
            )
        name = match["name"]
        base = re.sub(r"_(bucket|count|sum)$", "", name)
        metric = base if base in described else name
        assert metric in described, f"sample {name} has no HELP/TYPE"
        assert described[metric] == {"HELP", "TYPE"}, (
            f"{metric} missing HELP or TYPE"
        )
        sampled_first.add(metric)
        float(match["value"])  # parseable


def test_prometheus_exposition_is_complete(catalog_files, tracing):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.reset()
    service = PXDBService(store)
    service.query("cat", QUERY)
    service.sat("cat")
    assert _wait_for(lambda: service.costs.records_harvested >= 1)
    text = service.metrics_prometheus()
    _validate_prometheus(text)
    assert "pxdb_cost_requests_total" in text
    assert "pxdb_cost_units_total" in text
    assert "pxdb_slo_burn_rate" in text
    assert "pxdb_slo_state" in text


def test_prometheus_validator_catches_missing_help():
    with pytest.raises(AssertionError):
        _validate_prometheus("pxdb_orphan_total 1\n")
    with pytest.raises(AssertionError):
        _validate_prometheus(
            "# HELP pxdb_x_total X.\n# TYPE pxdb_x_total counter\n"
            "pxdb_x_total 1\n# HELP pxdb_x_total X again.\n"
            "# TYPE pxdb_x_total counter\n"
        )
    _validate_prometheus(
        "# HELP pxdb_x_total X.\n# TYPE pxdb_x_total counter\n"
        'pxdb_x_total{route="query"} 1\npxdb_x_total{route="sat"} 2\n'
    )


# -- metrics payload wiring ---------------------------------------------------

def test_metrics_payload_carries_slo_and_costs(catalog_files, tracing):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = PXDBService(store)
    payload = service.metrics_payload()
    assert payload["slo"]["state"] == "ok"
    assert payload["costs"]["records"] == 0
    status, health = dispatch_route(service, "/health", {})
    assert status == 200 and health["slo"] == "ok"


# -- benchrec: the min-wall floor --------------------------------------------

def _bench_payload(wall, speedup=None):
    return {
        "schema": benchrec.SCHEMA, "area": "x",
        "generated_at": "now", "python": "3",
        "rows": [{
            "test": "t", "workload": "w", "wall_s": wall,
            "counters": {}, "speedup": speedup, "extra": {},
        }],
    }


def test_benchrec_min_wall_floor_suppresses_noise():
    # A 3x "regression" on a 0.5ms row is jitter: not flagged.
    assert benchrec.compare(
        _bench_payload(0.0005), _bench_payload(0.0015)
    ) == []
    # The same ratio above the floor is flagged.
    flagged = benchrec.compare(_bench_payload(0.05), _bench_payload(0.15))
    assert [f["kind"] for f in flagged] == ["wall_s"]
    # The floor is configurable; zero disables it.
    assert benchrec.compare(
        _bench_payload(0.0005), _bench_payload(0.0015), min_wall=0.0
    )
    # Crossing the floor (old below, new above) still flags.
    assert benchrec.compare(_bench_payload(0.004), _bench_payload(0.04))


def test_benchrec_cli_reports_floor(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(_bench_payload(0.001)))
    new.write_text(json.dumps(_bench_payload(0.003)))
    # Sub-floor rows: clean diff, floor reported.
    assert benchrec.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "no regressions" in out and "min wall" in out
    # Lowering the floor via --min-wall flags the same rows.
    assert benchrec.main([str(old), str(new), "--min-wall", "0.0001"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "exempt" in out


# -- CLI: repro obs -----------------------------------------------------------

def test_cli_obs_against_live_server(catalog_files, tracing, capsys):
    from repro.cli import main as cli_main

    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.reset()
    service = build_service(store)
    handle = start_async_server(service)
    try:
        url = f"http://{handle.address[0]}:{handle.address[1]}"
        client = ServiceClient(url)
        assert client.query("cat", QUERY)
        assert _wait_for(lambda: service.profiler.traces_folded >= 1)

        assert cli_main(["obs", "profile", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "request.query" in out

        assert cli_main(["obs", "costs", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "query" in out and "cat" in out

        assert cli_main(["obs", "slo", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "overall state: ok" in out

        assert cli_main(["obs", "costs", "--url", url, "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["entries"]
    finally:
        handle.stop()
        service.close()


def test_cli_obs_unreachable_server(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["obs", "profile", "--url", "http://127.0.0.1:1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_client_profile_and_costs_roundtrip(catalog_files, tracing):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.reset()
    service = build_service(store)
    handle = start_async_server(service)
    try:
        client = ServiceClient(f"http://{handle.address[0]}:{handle.address[1]}")
        assert client.query("cat", QUERY)
        assert _wait_for(lambda: service.profiler.traces_folded >= 1)
        collapsed = client.profile()
        assert "request.query" in collapsed
        payload = client.profile(fmt="json")
        assert payload["source"] == "spans"
        costs = client.costs()
        assert costs["entries"][0]["db"] == "cat"
        slo = client.slo()
        assert slo["state"] == "ok"
    finally:
        handle.stop()
        service.close()
