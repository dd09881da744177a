"""E13 — observability overhead: tracing must be (near) free when off.

The span instrumentation (repro.obs.spans) rides inside the DP hot path
— ``Evaluation.run``, ``IncrementalEngine.probabilities``, ``sample`` —
so its *disabled* cost budget is strict: every site pays one attribute
load and a branch, and :meth:`Tracer.span` hands back a shared no-op
singleton without allocating.  Claims regenerated:

* **zero allocation when off** — a full sampler workload with tracing
  disabled records no spans and returns the no-op singleton from every
  ``span()`` call;
* **≤ 5% disabled overhead** — the measured per-call cost of a disabled
  hook, multiplied by the number of hook crossings a sampler draw
  actually performs (counted by running the same draw with tracing on),
  stays under 5% of the draw's wall time;
* **bounded enabled overhead** — the tracing-on/off wall-time ratio is
  reported (not asserted: enabled tracing is allowed to cost, it only
  has to be *worth* it);
* **≤ 5% cost-observatory overhead** — on an E16-style mixed
  sat/query/top-k workload, the per-request price of cost attribution
  (the trace-finish fold into :class:`CostObservatory` +
  :class:`SpanProfiler`) stays under 5% of the request's own latency.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from repro.core.constraints import constraints_formula
from repro.core.evaluator import IncrementalEngine
from repro.core.sampler import sample
from repro.obs.cost import CostObservatory
from repro.obs.profile import SpanProfiler
from repro.obs.spans import NOOP_SPAN, TRACER
from repro.pdoc.serialize import pdocument_to_xml
from repro.workloads.university import figure1_constraints, figure1_pdocument

CONDITION = constraints_formula(figure1_constraints())
DRAWS = 8


def _draw_batch(pdoc, seed: int) -> float:
    """Wall time of DRAWS conditioned samples on a fresh warm engine."""
    engine = IncrementalEngine.for_formula(CONDITION)
    rng = random.Random(seed)
    start = time.perf_counter()
    for _ in range(DRAWS):
        sample(pdoc, CONDITION, rng, engine=engine)
    return time.perf_counter() - start


def test_disabled_path_allocates_no_spans(report):
    TRACER.configure(enabled=False)
    TRACER.reset()
    assert TRACER.span("probe", attr=1) is NOOP_SPAN, (
        "disabled span() must return the shared no-op singleton"
    )
    pdoc = figure1_pdocument()
    _draw_batch(pdoc, seed=1)
    stats = TRACER.stats()
    assert stats["spans_recorded"] == 0 and stats["spans_buffered"] == 0, (
        f"disabled tracing recorded spans: {stats}"
    )
    report("E13 obs  tracing off: 0 spans allocated across a sampler batch")


def test_bench_disabled_overhead_within_budget(report, record):
    pdoc = figure1_pdocument()

    # Warm-up, then the baseline: sampler batches with tracing off.
    TRACER.configure(enabled=False)
    _draw_batch(pdoc, seed=2)
    off_times = [_draw_batch(pdoc, seed=3 + i) for i in range(3)]
    t_off = min(off_times) / DRAWS

    # Hook crossings per draw: with tracing on, every crossing records
    # exactly one span, so the recorded-span count *is* the crossing count.
    TRACER.configure(enabled=True)
    TRACER.reset()
    on_times = [_draw_batch(pdoc, seed=3 + i) for i in range(3)]
    t_on = min(on_times) / DRAWS
    hooks_per_draw = TRACER.stats()["spans_recorded"] / (3 * DRAWS)
    TRACER.configure(enabled=False)
    TRACER.reset()

    # Per-call cost of a *disabled* hook (attribute load + branch +
    # singleton return), measured over enough calls to dominate timer noise.
    calls = 200_000
    span = TRACER.span
    start = time.perf_counter()
    for _ in range(calls):
        span("probe")
    per_call = (time.perf_counter() - start) / calls

    disabled_cost = hooks_per_draw * per_call
    overhead = disabled_cost / t_off
    report(
        f"E13 obs  disabled overhead: {hooks_per_draw:.1f} hooks/draw × "
        f"{per_call * 1e9:.0f} ns = {overhead:.3%} of a {t_off * 1000:.2f} ms draw "
        f"(budget 5%); tracing-on ratio {t_on / t_off:.2f}x"
    )
    record(
        f"figure1 sampler, {DRAWS} draws/batch",
        wall_s=t_off,
        counters={"hooks_per_draw": round(hooks_per_draw, 1)},
        disabled_hook_ns=per_call * 1e9,
        disabled_overhead_fraction=overhead,
        enabled_ratio=t_on / t_off,
    )
    assert overhead <= 0.05, (
        f"disabled tracing costs {overhead:.2%} of a sampler draw "
        f"(budget 5%): {hooks_per_draw:.1f} hooks x {per_call * 1e9:.0f} ns "
        f"vs {t_off * 1000:.3f} ms"
    )


MIXED_QUERIES = ["*//'ph.d. st.'/$name", "university/$department"]
MIXED_CONSTRAINTS = (
    "forall university/$department : "
    "count(*//$member[position/~'professor'][position/chair]) <= 1\n"
    "forall university/$department : "
    "count(*//$member[//~'professor']) >= 3 -> "
    "count(*//$member[position/~'professor'][position/chair]) >= 1\n"
)
CONNECTIONS = 16
ROUNDS = 3


def _mixed_requests(connection: int, round_index: int) -> list[tuple[str, dict]]:
    """One E16-style round: sat + both queries + a top-k with a unique
    ``k``.  A top-k shares its text's ``/query`` result-cache key, so
    after the warm-up round every request here is a cache hit."""
    return (
        [("/sat", {"db": "uni"})]
        + [("/query", {"db": "uni", "query": q}) for q in MIXED_QUERIES]
        + [
            (
                "/topk",
                {
                    "db": "uni",
                    "query": MIXED_QUERIES[0],
                    "k": 1 + connection * 100 + round_index,
                },
            )
        ]
    )


def test_bench_cost_attribution_overhead(tmp_path: Path, report, record):
    """Cost attribution must cost < 5% of a request.

    The mixed workload runs in-process through ``dispatch_route`` so the
    measured per-request latency is the service's own (no socket noise);
    harvesting already happens inside it via the trace-finish observer.
    The observability price is then measured directly: re-folding the
    captured traces into a fresh observatory + profiler gives the
    per-request attribution cost."""
    from repro.service import DocumentStore, Metrics, PXDBService
    from repro.service.server import dispatch_route
    from repro.workloads.university import scaled_university

    pdoc_path = tmp_path / "uni.pxml"
    pdoc_path.write_text(
        pdocument_to_xml(scaled_university(departments=3, members=3, students=1))
    )
    cons_path = tmp_path / "uni.cons"
    cons_path.write_text(MIXED_CONSTRAINTS)

    TRACER.configure(enabled=True, ring_size=4096)
    TRACER.reset()
    try:
        store = DocumentStore()
        store.register("uni", pdoc_path, cons_path)
        service = PXDBService(store, metrics=Metrics())

        # Warm-up round, then the measured E16-style mixed load.
        for route, params in _mixed_requests(connection=99, round_index=0):
            status, _ = dispatch_route(service, route, dict(params))
            assert status == 200
        latencies: list[float] = []
        for connection in range(CONNECTIONS):
            for round_index in range(ROUNDS):
                for route, params in _mixed_requests(connection, round_index):
                    start = time.perf_counter()
                    status, _ = dispatch_route(service, route, dict(params))
                    latencies.append(time.perf_counter() - start)
                    assert status == 200
        mean_latency = sum(latencies) / len(latencies)
        assert service.costs.records_harvested >= len(latencies), (
            "every dispatched request must be harvested into a CostRecord"
        )

        # Representative traces: the requests' own span trees, replayed
        # against a fresh observatory + profiler to isolate the fold cost.
        traces = []
        for summary in TRACER.traces(limit=256):
            spans = TRACER.trace(summary["trace_id"])
            roots = [s for s in spans if s["parent_id"] is None]
            if roots and roots[0]["name"].startswith("request."):
                traces.append((roots[0], spans))
        assert len(traces) >= 32, f"expected a trace corpus, got {len(traces)}"
        repeats = 20
        observatory = CostObservatory(top_n=10)
        profiler = SpanProfiler()
        start = time.perf_counter()
        for _ in range(repeats):
            for root, spans in traces:
                observatory.harvest(root, spans)
                profiler.add_trace(root, spans)
        fold_cost = (time.perf_counter() - start) / (repeats * len(traces))

        overhead = fold_cost / mean_latency
        report(
            f"E13 obs  cost observatory: fold {fold_cost * 1e6:.0f} µs = "
            f"{overhead:.3%} of a {mean_latency * 1000:.2f} ms mixed request "
            f"(budget 5%)"
        )
        record(
            f"scaled university mixed sat/query/topk, {CONNECTIONS}x{ROUNDS} rounds",
            wall_s=mean_latency,
            counters={
                "requests": len(latencies),
                "traces_folded": len(traces),
            },
            fold_cost_s=fold_cost,
            observatory_overhead_fraction=overhead,
        )
        assert overhead <= 0.05, (
            f"cost attribution cost {overhead:.2%} of a mixed request "
            f"(budget 5%): fold {fold_cost * 1e6:.1f} µs vs "
            f"{mean_latency * 1000:.3f} ms"
        )
    finally:
        TRACER.configure(enabled=False, ring_size=4096)
        TRACER.reset()
