"""The traced run: the served requests again, in-process, layer by layer.

The replay mirrors what the threaded front end does for each request,
calling every layer's public functions itself and timing each call:
``DocumentStore.get``, ``Query.parse``, ``candidate_tuples``,
``bound_formula`` plus ``conjunction``, ``minmax.rewrite`` plus
``Registry``, ``Evaluation.run``, division by the cached denominator (or
the retained circuit's rebind and forward), ``decode_answers`` plus sort,
``PXDB.sample`` plus ``document_to_xml``, and ``json.dumps``.  The store
reload path has no public seam, so its two inner calls (p-document parse
and parameter application) are timed by wrapping the store module's names
for the duration of the replay.

Before ``Evaluation.run`` the replay runs one deliberately extra
forest-only pass (``children_dist(root)`` on a fresh ``Evaluation``): its
time splits the run into forest DP and root analysis, and it is left out
of every wall time, coverage and overhead figure.

Each replayed response must be byte-identical to the served one, so the
layer table describes the computation the server actually did.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import repro.service.store as store_module
from repro.aggregates.minmax import rewrite
from repro.core.compiler import Registry
from repro.core.evaluator import Evaluation
from repro.core.formulas import conjunction
from repro.core.query import Query
from repro.core.query_eval import bound_formula, candidate_tuples, decode_answers
from repro.numeric import GUARD, maybe_positive, value_fields
from repro.service.server import PXDBService, dispatch_route, sat_payload
from repro.service.store import DocumentStore
from repro.xmltree.serialize import document_to_xml

from harness import write_file, write_inputs
from plans import Write, Workload

#: Which end-to-end (metric, workload) each per-layer metric should move.
MOVES = {
    "server.rtt_ms": [("secondary_p50_ms", "eval-point")],
    "service.overhead_ms": [("primary_p50_ms", "eval-point"), ("primary_p50_ms", "sample-mix")],
    "store.get_ms": [("secondary_p50_ms", "eval-point")],
    "store.reload_pct": [("secondary_p50_ms", "edit-requery")],
    "pdoc.parse_ms": [("secondary_p50_ms", "edit-requery"), ("setup_s", "eval-point")],
    "pdoc.apply_params_pct": [("secondary_p50_ms", "edit-requery")],
    "json.encode_ms": [("primary_p50_ms", "eval-fanout")],
    "query.parse_pct": [("primary_p50_ms", "eval-point")],
    "query.match_pct": [("primary_p50_ms", "eval-point")],
    "query.candidates": [("primary_p50_ms", "eval-point")],
    "query.bind_pct": [("primary_p50_ms", "eval-fanout")],
    "query.decode_pct": [("primary_p50_ms", "eval-fanout")],
    "compile.registry_pct": [("primary_p50_ms", "eval-point")],
    "compile.formulas": [("primary_p50_ms", "eval-point")],
    "dp.forest_pct": [("primary_p50_ms", "eval-point")],
    "dp.root_pct": [("primary_p50_ms", "eval-fanout")],
    "dp.root_width": [("primary_p50_ms", "eval-fanout")],
    "dp.nodes_computed": [("primary_p50_ms", "eval-point")],
    "dp.max_sig_width": [("primary_p50_ms", "eval-point")],
    "dp.cache_hits": [("primary_p50_ms", "eval-point")],
    "sampler.draw_exact_pct": [("primary_p50_ms", "sample-mix")],
    "sampler.draw_auto_pct": [("secondary_p50_ms", "sample-mix")],
    "sampler.nodes_per_draw": [("primary_p50_ms", "sample-mix"), ("secondary_p50_ms", "sample-mix")],
    "sampler.hit_rate": [("primary_p50_ms", "sample-mix"), ("secondary_p50_ms", "sample-mix")],
    "numeric.fallbacks_per_draw": [("secondary_p50_ms", "sample-mix")],
    "xml.serialize_pct": [("primary_p50_ms", "sample-mix")],
    "circuit.compile_pct": [("primary_p50_ms", "edit-requery")],
    "circuit.rebind_pct": [("primary_p50_ms", "edit-requery")],
    "circuit.forward_pct": [("primary_p50_ms", "edit-requery")],
    "circuit.gates": [("primary_p50_ms", "edit-requery")],
    "layers.coverage": [],
    "trace.overhead_pct": [],
}

#: Share-of-replay metrics and the layer timer each one reads.
SHARES = {
    "store.reload_pct": "store.reload",
    "pdoc.apply_params_pct": "pdoc.apply_params",
    "query.parse_pct": "query.parse",
    "query.match_pct": "query.match",
    "query.bind_pct": "query.bind",
    "query.decode_pct": "query.decode",
    "compile.registry_pct": "compile.registry",
    "dp.forest_pct": "dp.forest",
    "dp.root_pct": "dp.root",
    "sampler.draw_exact_pct": "sampler.draw_exact",
    "sampler.draw_auto_pct": "sampler.draw_auto",
    "xml.serialize_pct": "xml.serialize",
    "circuit.compile_pct": "circuit.compile",
    "circuit.rebind_pct": "circuit.rebind",
    "circuit.forward_pct": "circuit.forward",
}

#: Layer timers charged to the extra forest-only pass, not to the request.
EXTRA = "dp.forest"


class Layers:
    """Self time per layer: time spent in a nested span is charged to the
    nested layer, not to the enclosing one."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._open: list[list] = []

    @contextmanager
    def span(self, name: str):
        """Time one call; the caller may rename the span (``frame[0]``)
        before it closes."""
        frame = [name, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield frame
        finally:
            elapsed = time.perf_counter() - start
            self._open.pop()
            self.seconds[frame[0]] += elapsed - frame[1]
            self.calls[frame[0]] += 1
            if self._open:
                self._open[-1][1] += elapsed


class Replay:
    """In-process, layer-timed execution of one workload's requests."""

    def __init__(self, workload: Workload, inputs: Path):
        self.layers = Layers()
        self.counts: dict[str, float] = defaultdict(float)
        self.store = DocumentStore()
        self.walls: list[float] = []
        self.gets: list[float] = []
        self.extra = 0.0
        with self._store_wrapped():
            for name, pdocument, constraints in workload.dbs:
                self.store.register(name, inputs / pdocument, inputs / constraints)
        # Registration parses count toward pdoc.parse_ms only.
        self.setup_parses = (self.layers.seconds.pop("pdoc.parse", 0.0),
                             self.layers.calls.pop("pdoc.parse", 0))
        self.layers = Layers()

    @contextmanager
    def _store_wrapped(self):
        originals = {
            "read_pdocument": store_module.read_pdocument,
            "apply_parameters": store_module.apply_parameters,
        }

        def timed(function, layer):
            def call(*args, **kwargs):
                with self.layers.span(layer):
                    return function(*args, **kwargs)
            return call

        store_module.read_pdocument = timed(originals["read_pdocument"], "pdoc.parse")
        store_module.apply_parameters = timed(originals["apply_parameters"], "pdoc.apply_params")
        try:
            yield
        finally:
            for name, function in originals.items():
                setattr(store_module, name, function)

    def play(self, executed, inputs: Path) -> list[str]:
        """Replay the executed steps; returns the requests whose replayed
        bytes differ from the served ones.  ``self.walls[i]`` is then the
        replay time of the i-th request."""
        diverged = []
        with self._store_wrapped():
            for step, outcome in executed:
                if isinstance(step, Write):
                    write_file(inputs / step.name, step.content)
                    continue
                if self.request(step) != outcome.body:
                    diverged.append(f"{step.path()}: replayed bytes differ from served")
        return diverged

    def request(self, request) -> bytes:
        extra_before = self.extra
        start = time.perf_counter()
        params = dict(request.params)
        if request.route == "/query":
            payload = self._query(params["db"], params["query"])
        elif request.route == "/sat":
            entry = self._get(params["db"])
            with self.layers.span("service.sat"):
                payload = sat_payload(entry)
        else:
            payload = self._sample(params)
        with self.layers.span("json.encode"):
            body = json.dumps({"ok": True, **payload}).encode("utf-8")
        self.walls.append(time.perf_counter() - start - (self.extra - extra_before))
        return body

    def _get(self, db: str):
        store = self.store
        before = (store.loads, store.reloads, store.param_reloads)
        start = time.perf_counter()
        with self.layers.span("store.get") as frame:
            entry = store.get(db)
            if (store.loads, store.reloads, store.param_reloads) != before:
                frame[0] = "store.reload"
        self.gets.append(time.perf_counter() - start)
        return entry

    def _query(self, db: str, text: str) -> dict:
        # PXDBService.query gets the entry, checks the result cache, then
        # dispatches, which gets the entry again.
        cached = self._get(db).cached_query(text)
        if cached is not None:
            return cached
        entry = self._get(db)
        pdoc = entry.pxdb.pdoc
        known = entry.cached_events(text)
        if known is not None:
            answers, events = known
            values = self._circuit(entry, events)
            entry.circuit_hits += 1
        else:
            layers = self.layers
            with layers.span("query.parse"):
                query = Query.parse(text)
            with layers.span("query.match"):
                answers = candidate_tuples(query, pdoc)
            with layers.span("query.bind"):
                events = [bound_formula(query, answer) for answer in answers]
                joints = [conjunction([entry.pxdb.condition, event]) for event in events]
            with layers.span("compile.registry"):
                registry = Registry([rewrite(joint) for joint in joints])
            joint_values = self._dp(registry, pdoc)
            with layers.span("query.divide"):
                denominator = entry.pxdb.constraint_probability()
                values = [joint / denominator for joint in joint_values]
            entry.cache_events(text, tuple(answers), tuple(events))
            self.counts["query.evaluations"] += 1
            self.counts["query.candidates"] += len(answers)
            self.counts["compile.formulas"] += len(registry.top)
        with self.layers.span("query.decode"):
            table = {a: v for a, v in zip(answers, values) if maybe_positive(v)}
            rows = []
            for labels, value in sorted(
                decode_answers(table, pdoc).items(), key=lambda kv: (-kv[1], str(kv[0]))
            ):
                probability, approx = value_fields(value)
                rows.append({"answer": [str(label) for label in labels],
                             "probability": probability, "probability_float": approx})
        payload = {"db": entry.name, "query": text, "backend": "exact", "answers": rows}
        entry.cache_query(text, payload)
        return payload

    def _dp(self, registry: Registry, pdoc) -> list:
        forest = Evaluation(registry, pdoc)
        start = time.perf_counter()
        with self.layers.span(EXTRA):
            width = len(forest.children_dist(pdoc.root))
        self.extra += time.perf_counter() - start
        evaluation = Evaluation(registry, pdoc)
        with self.layers.span("dp.run"):
            finalize = evaluation.backend.finalize
            values = [finalize(value) for value in evaluation.run()]
        counts = self.counts
        counts["dp.root_width"] = max(counts["dp.root_width"], width)
        counts["dp.max_sig_width"] = max(counts["dp.max_sig_width"], evaluation.max_sig_width)
        counts["dp.nodes_computed"] += evaluation.nodes_computed
        counts["dp.cache_hits"] += evaluation.cache_hits
        return values

    def _circuit(self, entry, events) -> list:
        pxdb = entry.pxdb
        with self.layers.span("circuit.compile"):
            circuit = pxdb.circuit_for(events)  # compiled on first use only
        with self.layers.span("circuit.rebind"):
            circuit.rebind(pxdb.pdoc)
        with self.layers.span("circuit.forward"):
            values = circuit.forward()
        with self.layers.span("query.divide"):
            denominator = values[-1]
            pxdb.prime_constraint_probability(denominator)
            result = [joint / denominator for joint in values[:-1]]
        self.counts["circuit.requests"] += 1
        self.counts["circuit.gates"] += len(circuit)
        return result

    def _sample(self, params: dict) -> dict:
        entry = self._get(params["db"])
        pxdb = entry.pxdb
        backend = params["backend"]
        layer = f"sampler.draw_{backend}"
        # The auto sampler evaluates on its interval engine and falls back
        # to the exact sample engine; count the work of both.
        engines = [pxdb.sample_engine]
        if backend == "auto":
            engines.append(pxdb._engine_for("interval"))
        before = [(e.nodes_computed, e.hits, e.misses) for e in engines]
        fallbacks = GUARD.snapshot()["fallbacks"]
        rng = random.Random(params["seed"])
        documents = []
        with entry.sample_lock:
            for _ in range(params["count"]):
                with self.layers.span(layer):
                    document = pxdb.sample(rng, backend=None if backend == "exact" else backend)
                with self.layers.span("xml.serialize"):
                    documents.append(document_to_xml(document, style="tags"))
        counts = self.counts
        counts[f"sampler.draws_{backend}"] += params["count"]
        for engine, (nodes, hits, misses) in zip(engines, before):
            counts["sampler.nodes"] += engine.nodes_computed - nodes
            counts["sampler.hits"] += engine.hits - hits
            counts["sampler.misses"] += engine.misses - misses
        counts["numeric.fallbacks"] += GUARD.snapshot()["fallbacks"] - fallbacks
        return {"db": entry.name, "backend": backend, "count": params["count"],
                "seed": params["seed"], "documents": documents}

    # -- the numbers -----------------------------------------------------------
    def layer_table(self) -> dict:
        """Milliseconds per request and share of the replay per layer."""
        seconds = dict(self.layers.seconds)
        seconds["dp.root"] = seconds.get("dp.run", 0.0) - seconds.get(EXTRA, 0.0)
        wall = sum(self.walls)
        return {
            name: {
                "ms_per_request": 1000.0 * value / len(self.walls),
                "share_pct": 100.0 * value / wall,
                "calls": self.layers.calls.get(name, 0),
            }
            for name, value in sorted(seconds.items())
        }

    def metrics(self, served_seconds: list[float], rtt: list[float],
                service_seconds: float) -> dict:
        """Every per-layer metric of BENCHMARK.json for this replay."""
        seconds = self.layers.seconds
        calls = self.layers.calls
        counts = self.counts
        wall = sum(self.walls)
        table = self.layer_table()
        covered = sum(v for name, v in seconds.items() if name != EXTRA)
        parse_seconds = self.setup_parses[0] + seconds.get("pdoc.parse", 0.0)
        parse_calls = self.setup_parses[1] + calls.get("pdoc.parse", 0)
        evaluations = counts["query.evaluations"]
        draws = counts["sampler.draws_exact"] + counts["sampler.draws_auto"]
        lookups = counts["sampler.hits"] + counts["sampler.misses"]

        def per(total: float, n: float) -> float:
            return total / n if n else 0.0

        values = {
            "server.rtt_ms": 1000.0 * statistics.median(rtt),
            "service.overhead_ms": 1000.0 * statistics.median(
                served - replayed for served, replayed in zip(served_seconds, self.walls)
            ),
            "store.get_ms": 1000.0 * statistics.fmean(self.gets),
            "pdoc.parse_ms": 1000.0 * per(parse_seconds, parse_calls),
            "json.encode_ms": 1000.0 * per(seconds["json.encode"], calls["json.encode"]),
            "query.candidates": per(counts["query.candidates"], evaluations),
            "compile.formulas": per(counts["compile.formulas"], evaluations),
            "dp.root_width": counts["dp.root_width"],
            "dp.nodes_computed": per(counts["dp.nodes_computed"], evaluations),
            "dp.max_sig_width": counts["dp.max_sig_width"],
            "dp.cache_hits": per(counts["dp.cache_hits"], evaluations),
            "sampler.nodes_per_draw": per(counts["sampler.nodes"], draws),
            "sampler.hit_rate": per(counts["sampler.hits"], lookups),
            "numeric.fallbacks_per_draw": per(counts["numeric.fallbacks"],
                                              counts["sampler.draws_auto"]),
            "circuit.gates": per(counts["circuit.gates"], counts["circuit.requests"]),
            "layers.coverage": covered / wall,
            "trace.overhead_pct": 100.0 * (wall - service_seconds) / service_seconds,
        }
        for metric, layer in SHARES.items():
            values[metric] = table[layer]["share_pct"] if layer in table else 0.0
        return values


def replay_service(workload: Workload, executed, inputs: Path) -> float:
    """Seconds the same requests take through untimed in-process
    ``PXDBService`` calls and the shared route dispatch (the server's
    path without HTTP; coalescing window 0, since nothing runs
    concurrently)."""
    write_inputs(workload, inputs)
    service = PXDBService(DocumentStore(coalesce_window=0.0))
    for name, pdocument, constraints in workload.dbs:
        service.store.register(name, inputs / pdocument, inputs / constraints)
    total = 0.0
    for step, _ in executed:
        if isinstance(step, Write):
            write_file(inputs / step.name, step.content)
            continue
        params = {key: str(value) for key, value in step.params}
        start = time.perf_counter()
        _, payload = dispatch_route(service, step.route, params)
        json.dumps(payload).encode("utf-8")
        total += time.perf_counter() - start
    return total
