"""The cost observatory's payloads, pinned over a hand-built trace corpus.

``/costs``, ``prometheus_rows()`` and ``/profile`` (JSON and collapsed)
are rendered from one fold of every finished trace.  The expected bodies
in ``tests/golden/cost_payloads.json`` were computed once, by the
two-fold implementation this one replaced (a separate cost fold and span
profiler), and are compared as rendered text: key order, row order and
every float must stay as they are.  There is deliberately no update
switch for this file.

The corpus covers every counter-carrying span kind, a pooled trace in
ingest order, a span whose parent is missing, a negative duration, an
error-status root, a non-request root and enough tied traces to overflow
the top-N ring.  Durations are dyadic, so every sum is exact whatever
order it is taken in.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.spans import TRACER
from repro.service import DocumentStore, PXDBService
from repro.service.server import dispatch_route

PINNED = Path(__file__).parent / "golden" / "cost_payloads.json"


def _span(trace, sid, parent, name, start, duration, status="ok", pid=100,
          **attrs):
    return {
        "trace_id": trace,
        "span_id": sid,
        "parent_id": parent,
        "name": name,
        "start": start,
        "duration_ms": duration,
        "status": status,
        "pid": pid,
        "attributes": attrs,
    }


def _corpus() -> list[list[dict]]:
    """Each trace lists its spans in ring order (finish order, ingested
    worker spans where the pool splices them in), root last."""
    dp = dict(nodes_computed=40, root_pairs=96, cache_hits=7,
              cache_misses=33, max_sig_width=5, root_width=12)
    query = [
        _span("q1", "q1.get", "q1.r", "store.get", 10.001, 1.5, db="cat"),
        _span("q1", "q1.match", "q1.r", "query.match", 10.002, 2.25,
              candidates=2),
        _span("q1", "q1.dp1", "q1.ev", "dp.run", 10.004, 8.5, **dp),
        _span("q1", "q1.dp2", "q1.ev", "dp.run", 10.013, 10.75,
              **{**dp, "nodes_computed": 24, "max_sig_width": 9,
                 "root_width": 3}),
        _span("q1", "q1.ev", "q1.r", "pxdb.events", 10.003, 21.0,
              via="dp", events=2),
        _span("q1", "q1.fwd", "q1.r", "circuit.forward", 10.025, 3.125,
              gates=57),
        _span("q1", "q1.r", None, "request.query", 10.0, 40.0, db="cat",
              query="catalog/$book"),
    ]
    sample = [
        _span("s1", "s1.pass", "s1.draw", "engine.pass", 20.002, 12.0),
        _span("s1", "s1.draw", "s1.r", "sample.draw", 20.001, 20.5,
              edges=17),
        _span("s1", "s1.r", None, "request.sample", 20.0, 25.0, db="cat",
              count=1),
    ]
    approx = [
        _span("a1", "a1.est", "a1.r", "approx.estimate", 30.001, 28.5,
              n=400),
        _span("a1", "a1.r", None, "request.approx", 30.0, 30.0, db="uni",
              event="sum(*/$x) > 3"),
    ]
    pooled = [
        _span("p1", "p1.get", "p1.r", "store.get", 40.001, 0.25, db="uni"),
        # Drained from the worker (its own pid) and ingested while
        # pool.dispatch is still open: child first, as it finished.
        _span("p1", "p1.wdp", "p1.w", "dp.run", 40.004, 6.5, pid=200,
              nodes_computed=11, cache_misses=11, max_sig_width=2,
              root_width=4, root_pairs=8),
        _span("p1", "p1.w", "p1.d", "pool.worker", 40.003, 7.75, pid=200),
        _span("p1", "p1.d", "p1.r", "pool.dispatch", 40.002, 9.0),
        _span("p1", "p1.r", None, "request.query", 40.0, 11.5, db="uni"),
    ]
    orphaned = [
        # Its parent was evicted from the ring: it starts its own path.
        _span("o1", "o1.dec", "o1.gone", "query.decode", 50.003, 1.25),
        # A clock step backwards: the duration is clamped at 0.
        _span("o1", "o1.get", "o1.r", "store.get", 50.001, -0.5, db="cat"),
        _span("o1", "o1.r", None, "request.topk", 50.0, 3.0, db="cat", k=2),
    ]
    failed = [
        _span("e1", "e1.get", "e1.r", "store.get", 60.001, 0.75,
              status="error:KeyError", db="ghost"),
        _span("e1", "e1.r", None, "request.sat", 60.0, 1.0,
              status="error:KeyError", db="ghost"),
    ]
    sweep = [
        _span("w1", "w1.batch", "w1.r", "circuit.batch", 70.001, 4.5,
              gates=128),
        _span("w1", "w1.r", None, "pxdb.sweep", 70.0, 5.0, bindings=16),
    ]
    # Fifteen traces tie on cost units and duration.  They arrive before,
    # between and after costlier ones, so the top-N ring fills with ties,
    # evicts the latest of them for each costlier arrival, and keeps the
    # earliest where ties compete for the last slots.
    ties = [
        [
            _span(trace, f"{trace}.dp", f"{trace}.r", "dp.run",
                  80.0 + index + 0.001, 3.5, nodes_computed=5),
            _span(trace, f"{trace}.r", None, route, 80.0 + index, 4.0,
                  db="cat"),
        ]
        for index, (trace, route) in enumerate(
            [(f"k{i}", "request.topk") for i in range(3)]
            + [(f"t{i:02d}", "request.sat") for i in range(12)]
        )
    ]
    return [
        query, *ties[:3], sample, *ties[3:9], approx, pooled, *ties[9:],
        orphaned, failed, sweep,
    ]


def _payloads() -> dict:
    service = PXDBService(DocumentStore())
    for spans in _corpus():
        # Record the trace as the tracer would: every span but the root
        # is spliced into the ring, then the root's finish runs the
        # trace-finish observers over the whole trace.
        TRACER.ingest(spans[:-1])
        TRACER._finish(spans[-1])
    status, profile = dispatch_route(service, "/profile", {})
    assert status == 200
    status, collapsed = dispatch_route(
        service, "/profile", {"format": "collapsed"}
    )
    assert status == 200
    status, costs = dispatch_route(service, "/costs", {})
    assert status == 200
    return {
        "costs": costs,
        "prometheus_rows": [list(row) for row in service.costs.prometheus_rows()],
        "profile": profile,
        "collapsed": collapsed,
    }


def test_cost_and_profile_payloads_are_pinned(tracing):
    rendered = json.dumps(_payloads(), indent=1) + "\n"
    assert rendered == PINNED.read_text()
