"""Tests for the cost observatory: per-request cost attribution,
span-folded profiling, and the tracer features they ride on (per-trace
index, JSONL rotation, trace-finish observers)."""

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
from repro.obs.spans import TRACER
from repro.pdoc.pdocument import PNode, pdocument
from repro.pdoc.serialize import pdocument_to_xml
from repro.service import (
    DocumentStore,
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


# -- trace-finish observers ---------------------------------------------------

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
    record = fold_trace(root, spans)
    assert record["route"] == "query"
    assert record["db"] == "cat"
    assert "shard" not in record
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
    observatory = CostObservatory()
    root = _span("request.query", duration=10.0)
    child = _span("dp.run", parent=root["span_id"], duration=6.0)
    child["parent_id"] = root["span_id"]
    observatory.harvest(root, [child, root])
    snap = observatory.profile()
    assert snap["source"] == "spans"
    assert snap["traces_folded"] == 1
    rows = {row["path"]: row for row in snap["paths"]}
    assert rows["request.query"]["self_ms"] == pytest.approx(4.0)
    assert rows["request.query"]["total_ms"] == pytest.approx(10.0)
    assert rows["request.query;dp.run"]["self_ms"] == pytest.approx(6.0)
    collapsed = observatory.collapsed()
    assert "request.query;dp.run 6000" in collapsed
    assert collapsed.endswith("\n")


def test_span_profiler_accumulates_across_traces():
    observatory = CostObservatory()
    for _ in range(3):
        root = _span("request.sat", duration=2.0)
        observatory.harvest(root, [root])
    rows = {row["path"]: row for row in observatory.profile()["paths"]}
    assert rows["request.sat"]["count"] == 3
    assert rows["request.sat"]["total_ms"] == pytest.approx(6.0)


def test_profile_fold_does_not_depend_on_ring_order():
    """Ring order meets every parent after its children.  The same trace
    in any other order (here: parents first) folds to the same profile,
    totals and record; a span whose parent is missing starts its own
    path either way."""
    root = _span("request.query", attrs={"db": "cat"}, duration=10.0)
    events = _span("pxdb.events", parent=root["span_id"], attrs={"events": 2},
                   duration=7.0)
    runs = [
        _span("dp.run", parent=events["span_id"], attrs={"nodes_computed": n},
              duration=duration)
        for n, duration in ((3, 2.5), (4, 3.0))
    ]
    orphan = _span("query.decode", parent="evicted", attrs={}, duration=0.5)
    in_ring = CostObservatory()
    in_ring.harvest(root, [*runs, events, orphan, root])
    parents_first = CostObservatory()
    parents_first.harvest(root, [root, events, orphan, *runs])
    assert parents_first.profile() == in_ring.profile()
    assert parents_first.collapsed() == in_ring.collapsed()
    assert parents_first.snapshot() == in_ring.snapshot()
    rows = {row["path"]: row for row in in_ring.profile()["paths"]}
    assert rows["request.query"]["self_ms"] == 3.0
    assert rows["request.query;pxdb.events"]["self_ms"] == 1.5
    assert rows["request.query;pxdb.events;dp.run"]["count"] == 2
    assert rows["query.decode"]["total_ms"] == 0.5
    assert in_ring.snapshot()["top_requests"][0]["nodes_computed"] == 7


def test_stats_requests_are_traced_and_attributed(catalog_files, tracing):
    """/stats runs in the request envelope like every other route: it is
    counted, timed and, under tracing, attributed as route ``stats``."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = PXDBService(store)
    service.stats()
    (entry,) = [
        row for row in service.costs.snapshot()["entries"]
        if row["route"] == "stats"
    ]
    assert entry["requests"] == 1 and entry["db"] == "-"
    assert service.metrics.counter("stats.requests") == 1
    assert service.metrics.snapshot()["latency"]["stats"]["count"] == 1


def test_tracer_stats_keys(tracing):
    assert set(TRACER.stats()) == {
        "enabled", "spans_recorded", "spans_buffered", "ring_size",
        "traces_indexed", "jsonl_path", "jsonl_rotations",
    }


def test_profile_endpoint_sources(catalog_files, tracing):
    """/profile always serves the span-folded profile: empty while nothing
    has been folded (tracing off), the folded request paths after a
    traced request."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.configure(enabled=False)
    TRACER.reset()
    service = PXDBService(store)
    service.query("cat", QUERY)
    assert service.profile_payload() == {
        "source": "spans", "traces_folded": 0, "paths": [],
    }
    assert service.profile_payload(fmt="collapsed") == ""
    TRACER.configure(enabled=True)
    service.sat("cat")
    assert _wait_for(lambda: service.costs.records_harvested >= 1)
    collapsed = service.profile_payload(fmt="collapsed")
    assert "request.sat" in collapsed
    payload = service.profile_payload()
    assert payload["source"] == "spans"
    assert payload["traces_folded"] >= 1
    with pytest.raises(ValueError):
        service.profile_payload(fmt="svg")


# -- text routes --------------------------------------------------------------

def test_text_routes_and_content_types(catalog_files, tracing):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = PXDBService(store)
    assert text_content_type("/metrics").startswith("text/plain; version=")
    assert text_content_type("/profile") == "text/plain; charset=utf-8"
    status, collapsed = dispatch_route(
        service, "/profile", {"format": "collapsed"}
    )
    assert status == 200 and isinstance(collapsed, str)
    status, costs = dispatch_route(service, "/costs", {})
    assert status == 200 and costs["records"] == 0
    # The SLO monitor and the HTML dashboard are gone: their routes are
    # unknown routes.
    for route in ("/slo", "/debug/dashboard"):
        assert dispatch_route(service, route, {}) == (
            404, {"ok": False, "error": f"no such endpoint: {route}"}
        )


def test_frontend_content_types_match(catalog_files, tracing):
    """/profile and /costs answer over HTTP with the content types
    :func:`text_content_type` names (JSON otherwise)."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = build_service(store)
    handle = start_async_server(service)
    base_url = f"http://{handle.address[0]}:{handle.address[1]}"
    types = {}
    try:
        for route in ("/profile?format=collapsed", "/costs"):
            with urllib.request.urlopen(base_url + route, timeout=30) as resp:
                types[route] = resp.headers.get("Content-Type")
    finally:
        handle.stop()
        service.close()
    assert types == {
        "/profile?format=collapsed": text_content_type("/profile"),
        "/costs": "application/json",
    }
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
    assert 'shard="' not in text


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

def test_metrics_payload_carries_costs(catalog_files, tracing):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = PXDBService(store)
    payload = service.metrics_payload()
    assert payload["costs"]["records"] == 0
    assert "slo" not in payload
    status, health = dispatch_route(service, "/health", {})
    assert status == 200
    assert set(health) == {"ok", "status", "version", "tracing"}


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
        assert _wait_for(lambda: service.costs.records_harvested >= 1)

        assert cli_main(["obs", "profile", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "request.query" in out

        assert cli_main(["obs", "costs", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "query" in out and "cat" in out
        assert "shard" not in out

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
        assert _wait_for(lambda: service.costs.records_harvested >= 1)
        collapsed = client.profile()
        assert "request.query" in collapsed
        payload = client.profile(fmt="json")
        assert payload["source"] == "spans"
        costs = client.costs()
        assert costs["entries"][0]["db"] == "cat"
        assert "shard" not in costs["entries"][0]
    finally:
        handle.stop()
        service.close()
