"""The PXDB query/sample service: JSON route semantics, stdlib only.

:class:`PXDBService` is the transport-independent request surface.  Every
public method takes plain values and returns a JSON-ready ``dict``, so
tests (and the process-pool workers) exercise exactly the code the HTTP
front end (:mod:`repro.service.frontend.aserver`) serves.  The service
owns a :class:`~repro.service.store.DocumentStore` (warm engines, cached
denominators), a :class:`~repro.service.metrics.Metrics` sink, and
optionally an :class:`~repro.service.pool.EvaluationPool` for CPU-bound
dispatch.  :func:`dispatch_route` maps one parsed request to (status,
body): ``KeyError`` → 404, ``ValueError`` → 400, a pool timeout → 503,
anything else → 500.

``/sat`` answers from the cached Pr(P ⊨ C); repeated ``/query`` texts
answer from the entry's LRU result cache, concurrent asks of one
uncached text share one evaluation, and ``/topk`` truncates its text's
``/query`` payload under the same cache key.  A text whose result was
dropped (a parameter-only reload) is answered by circuit re-bind plus
one forward sweep; ``/sample`` runs on the entry's warm incremental
engine under a per-entry lock (the engine's cache is not
concurrency-safe, and sampling is the only operation that mutates it).

Pool mode: when a pool is attached, ``/sat``, ``/query`` (and so
``/topk``), ``/sample`` and ``/approx`` are dispatched to a worker
process with its own warm store; on a full queue, a broken pool or a
name the workers do not hold the request silently degrades to
in-process execution (counted under ``pool.fallbacks`` in
``/metrics``).  A pool timeout is a refusal (503), not a second run.
"""

from __future__ import annotations

import random
import time
import xml.etree.ElementTree as ET
from collections import deque
from contextlib import contextmanager

from ..core.constraints import Constraint
from ..core.explain import explain_violations
from ..core.query import Query
from ..core.query_eval import bound_formula, candidate_tuples, decode_answers
from ..numeric import BACKEND_NAMES, GUARD, maybe_positive
from ..numeric import value_fields as _value_fields
from ..numeric.backends import Interval
from ..obs import package_version
from ..obs.cost import CostObservatory
from ..obs.logs import get_logger
from ..obs.profile import SpanProfiler
from ..obs.spans import TRACER, build_tree
from ..xmltree.serialize import document_from_xml, document_to_xml
from .metrics import Metrics
from .pool import EvaluationPool, PoolTimeout, PoolUnavailable
from .store import DocumentStore, StoreEntry

_log = get_logger("service.server")
_slow_log = get_logger("service.slow")


# -- payload builders ---------------------------------------------------------
# Module-level so the pool workers (repro.service.pool._worker_run) execute
# the very same code against their own warm store — pooled and in-process
# responses are byte-identical (the arithmetic is exact everywhere; the
# guard counters of non-exact backends are the one per-process exception).

def _resolve_backend(backend: str | None, allow_approx: bool = False) -> str:
    """Request/default backend name → validated canonical name.

    ``"approx"`` is not a numeric arithmetic but the Monte-Carlo serving
    tier (:mod:`repro.approx`); it is legal only on the surfaces that
    implement it (``/sat``, ``/query`` and ``/approx``), never as the
    service-wide default."""
    if backend is None:
        return "exact"
    if backend == "approx" and allow_approx:
        return backend
    if backend not in BACKEND_NAMES:
        choices = ", ".join(BACKEND_NAMES) + (", approx" if allow_approx else "")
        raise ValueError(f"unknown backend {backend!r} (choose from {choices})")
    return backend


def _approx_options(params: dict) -> dict:
    """Validated estimator keywords from request fields (absent fields
    fall to the estimator defaults; range errors surface as the
    estimator's ``ValueError`` → HTTP 400)."""
    options: dict = {}
    if params.get("epsilon") is not None:
        options["epsilon"] = float(params["epsilon"])
    if params.get("delta") is not None:
        options["delta"] = float(params["delta"])
    if params.get("max_samples") is not None:
        options["max_samples"] = int(params["max_samples"])
    if params.get("seed") is not None:
        options["seed"] = int(params["seed"])
    if params.get("rule") is not None:
        options["rule"] = str(params["rule"])
    return options


def _sort_value(value) -> float:
    return value.mid if isinstance(value, Interval) else value


def _guarded_event_values(pxdb, events, via: str = "dp") -> list:
    """``auto``-backend event probabilities, safe for *ranking*.

    Interval arithmetic bounds every conditional probability (one pass
    per event on the DP route, one sweep on the circuit route).  An output
    is ambiguous when its sign is unproven (the enclosure straddles 0) or
    its rank is unproven (its enclosure overlaps an adjacent enclosure in
    midpoint order — by transitivity, non-adjacent enclosures cannot
    overlap unless some adjacent pair does).  Ambiguous outputs are
    re-evaluated exactly on the same route; certified outputs keep their
    midpoints.  The resulting keep/drop and sort decisions are exactly the
    exact backend's (mixed ``Fraction``/``float`` comparisons are exact in
    Python)."""
    intervals = pxdb.event_probabilities(events, via=via, backend="interval")
    n = len(intervals)
    ambiguous = {
        i for i, iv in enumerate(intervals) if iv.lo <= 0.0 < iv.hi
    }
    order = sorted(range(n), key=lambda i: -intervals[i].mid)
    for above, below in zip(order, order[1:]):
        if intervals[below].hi >= intervals[above].lo:
            ambiguous.add(above)
            ambiguous.add(below)
    GUARD.decided(n - len(ambiguous))
    values = [iv.mid for iv in intervals]
    if ambiguous:
        GUARD.fell_back(len(ambiguous))
        resolved = sorted(ambiguous)
        exact = pxdb.event_probabilities([events[i] for i in resolved], via=via)
        for index, value in zip(resolved, exact):
            values[index] = value
    return values


def sat_payload(
    entry: StoreEntry, backend: str | None = None, approx: dict | None = None
) -> dict:
    """CONSTRAINT-SAT⟨C⟩ — answered from the cached denominator (the store
    primed it from the warm engine's load-time pass, so this is O(1) for
    the exact backend; other backends re-evaluate in their arithmetic).

    ``backend="approx"`` estimates Pr(P ⊨ C) by *unconditioned* sampling
    instead (the denominator is what conditioning divides by, so the
    conditioned sampler cannot estimate it) and reports the confidence
    interval.  ``well_defined`` stays exact either way: the store proved
    Pr(P ⊨ C) > 0 with the load-time DP pass."""
    name = _resolve_backend(backend, allow_approx=True)
    if name == "approx":
        estimator = entry.pxdb.approx_estimator()
        with entry.sample_lock:
            result = estimator.estimate(
                entry.pxdb.condition, conditioned=False, **(approx or {})
            )
        return {
            "db": entry.name,
            "backend": name,
            "constraint_probability": repr(result.estimate),
            "constraint_probability_float": result.estimate,
            "well_defined": True,
            **result.as_dict(),
        }
    if name == "exact":
        value = entry.pxdb.constraint_probability()
    else:
        value = entry.pxdb.constraint_probability(backend=name)
    text, approx = _value_fields(value)
    return {
        "db": entry.name,
        "backend": name,
        "constraint_probability": text,
        "constraint_probability_float": approx,
        "well_defined": maybe_positive(value),
    }


def approx_query_payload(
    entry: StoreEntry, query_text: str, options: dict | None = None
) -> dict:
    """Approximate EVAL⟨Q, C⟩: one stopping rule per candidate answer,
    all fed by the same conditioned draws (``PXDB.approx_query``), under
    the entry's sample lock (draws mutate the warm engine caches).  Rows
    are sorted by estimate; every row carries its own interval and
    per-answer ``n`` (an answer that certifies early stops observing)."""
    options = options or {}
    with TRACER.span("query.bind"):
        query = Query.parse(query_text)
    with entry.sample_lock:
        table = entry.pxdb.approx_query(query, **options)
    results = list(table.values())
    decoded = decode_answers(table, entry.pxdb.pdoc)
    rows = [
        {
            "answer": [str(label) for label in labels],
            "probability": repr(result.estimate),
            "probability_float": result.estimate,
            "interval": [result.lo, result.hi],
            "n_samples": result.n,
            "stopped": result.stopped,
        }
        for labels, result in sorted(
            decoded.items(), key=lambda kv: (-kv[1].estimate, str(kv[0]))
        )
    ]
    payload = {
        "db": entry.name,
        "query": query_text,
        "backend": "approx",
        "answers": rows,
    }
    if results:
        first = results[0]
        payload.update(
            {
                "epsilon": first.epsilon,
                "delta": first.delta,
                "rule": first.rule,
                "seed": first.seed,
                "n_samples": max(result.n for result in results),
            }
        )
    return payload


def _answer_rows(
    entry: StoreEntry, answers, values, backend_name: str
) -> list[dict]:
    """Decode (answer, value) pairs into sorted JSON rows — the shared
    tail of ``/query`` and ``/topk``, so both render identical rows for
    identical values."""
    with TRACER.span("query.decode", candidates=len(answers), backend=backend_name):
        table = {
            answer: value
            for answer, value in zip(answers, values)
            if maybe_positive(value)
        }
        rows = []
        for labels, value in sorted(
            decode_answers(table, entry.pxdb.pdoc).items(),
            key=lambda kv: (-_sort_value(kv[1]), str(kv[0])),
        ):
            text, approx = _value_fields(value)
            rows.append(
                {
                    "answer": [str(label) for label in labels],
                    "probability": text,
                    "probability_float": approx,
                }
            )
    return rows


def _bind_query(
    entry: StoreEntry, query_text: str, backend: str
) -> tuple[tuple, tuple, str]:
    """(answers, events, route) for a query text against an entry.

    A text seen before keeps its candidate tuples and bound event formulas
    on the entry (they survive parameter-only reloads, and they key the
    PXDB's compiled-circuit cache), so it is answered by one parameter
    re-bind plus one forward sweep — route ``"circuit"``, no fresh DP, no
    re-matching.  A new text is parsed, matched and bound here; the exact
    backend then takes a DP pass — route ``"dp"`` — with identical exact
    ``Fraction``s either way.  The other backends take the circuit route
    for a new text too: their rounding differs between the routes, and a
    body must not depend on whether the answering process has bound the
    text before (a pooled request may land on any worker)."""
    known = entry.cached_events(query_text)
    if known is not None:
        entry.circuit_hits += 1
        return known[0], known[1], "circuit"
    with TRACER.span("query.bind"):
        query = Query.parse(query_text)
        answers = tuple(candidate_tuples(query, entry.pxdb.pdoc))
        events = tuple(bound_formula(query, answer) for answer in answers)
    entry.cache_events(query_text, answers, events)
    return answers, events, "dp" if backend == "exact" else "circuit"


def _event_values(entry: StoreEntry, events, backend: str, via: str) -> list:
    """The conditional probabilities of ``events`` on route ``via``;
    ``auto`` ranks through :func:`_guarded_event_values`, so its answer
    set and order are provably the exact backend's."""
    if backend == "auto":
        return _guarded_event_values(entry.pxdb, list(events), via=via)
    return entry.pxdb.event_probabilities(
        events, via=via, backend=None if backend == "exact" else backend
    )


def _result_key(query_text: str, backend: str) -> str:
    """An entry result-cache key.  The backend is part of it: the same
    text answered in another arithmetic is a different payload.  ``/topk``
    shares its text's key, since it truncates the ``/query`` payload."""
    return query_text if backend == "exact" else f"{backend}\x00{query_text}"


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")


def _topk_body(payload: dict, k: int) -> dict:
    """A ``/query`` payload truncated to its ``k`` most probable rows."""
    return {
        "db": payload["db"],
        "query": payload["query"],
        "k": k,
        "backend": payload["backend"],
        "candidates": len(payload["answers"]),
        "answers": payload["answers"][:k],
    }


def query_payload(
    entry: StoreEntry,
    query_text: str,
    *,
    backend: str | None = None,
    approx: dict | None = None,
) -> dict:
    """EVAL⟨Q, C⟩ — one DP pass per candidate tuple, or the entry's
    compiled circuit (see :func:`_bind_query` for which).
    ``backend="approx"`` routes to :func:`approx_query_payload` — the
    Monte-Carlo tier with per-answer confidence intervals.
    """
    name = _resolve_backend(backend, allow_approx=True)
    if name == "approx":
        return approx_query_payload(entry, query_text, approx)
    answers, events, via = _bind_query(entry, query_text, name)
    values = _event_values(entry, events, name, via)
    rows = _answer_rows(entry, answers, values, name)
    return {"db": entry.name, "query": query_text, "backend": name, "answers": rows}


def topk_payload(
    entry: StoreEntry,
    query_text: str,
    k: int,
    *,
    backend: str | None = None,
) -> dict:
    """TOP-K⟨Q, C⟩ — the ``k`` most probable answers of a query.

    Evaluation is exactly ``/query`` (same candidate events, same pass,
    same sort), truncated to the top ``k`` rows."""
    _check_k(k)
    return _topk_body(query_payload(entry, query_text, backend=backend), k)


def sample_payload(
    entry: StoreEntry,
    count: int = 1,
    seed: int | None = None,
    backend: str | None = None,
) -> dict:
    """SAMPLE⟨C⟩ — ``count`` draws on the entry's warm incremental engine.
    The per-entry lock serializes samplers (the engine cache is shared
    mutable state); a ``seed`` makes the draw sequence deterministic and
    identical to ``PXDB.sample`` with the same ``random.Random(seed)``.
    Non-exact backends draw on the entry's lazily warmed per-backend
    engines (``PXDB.sample`` dispatch); ``auto`` consumes the seed's
    random stream identically to exact, so seeded draws agree."""
    name = _resolve_backend(backend)
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = random.Random(seed)
    with entry.sample_lock:
        documents = [
            document_to_xml(
                entry.pxdb.sample(rng, backend=None if name == "exact" else name),
                style="tags",
            )
            for _ in range(count)
        ]
    return {
        "db": entry.name,
        "backend": name,
        "count": count,
        "seed": seed,
        "documents": documents,
    }


def check_payload(entry: StoreEntry, document_xml: str) -> dict:
    """Explain a concrete document's violations of the stored constraints
    (Definition 2.2 constraints only — c-formula constraints have no
    per-violation witness to describe)."""
    try:
        document = document_from_xml(document_xml)
    except ET.ParseError as error:
        raise ValueError(f"malformed XML document: {error}") from error
    constraints = [c for c in entry.constraints if isinstance(c, Constraint)]
    violations = explain_violations(document, constraints)
    return {
        "db": entry.name,
        "satisfies": not violations,
        "violations": [violation.describe() for violation in violations],
        "checked_constraints": len(constraints),
    }


def sweep_payload(
    entry: StoreEntry, bindings, pattern: str | None = None
) -> dict:
    """A vectorized parameter sweep over the entry's compiled circuit.

    ``bindings`` is a list of parameter vectors (canonical slot order —
    :func:`repro.pdoc.parameters.parameter_slots`; values may be numbers
    or exact fraction strings like ``"1/3"``).  Each binding is evaluated
    by the batched numpy circuit backend in **one** sweep: Pr(P ⊨ C) per
    binding, plus Pr(D ⊨ pattern) when a Boolean pattern is given (keyed
    by pattern text, so equal texts share one compiled circuit).  Sweeps
    against one entry run one at a time.
    """
    from fractions import Fraction

    from ..core.formulas import exists
    from ..xmltree.parser import parse_boolean_pattern

    if not isinstance(bindings, (list, tuple)) or not bindings:
        raise ValueError("bindings must be a non-empty list of parameter vectors")
    rows = []
    for i, row in enumerate(bindings):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"binding {i} is not a list of parameter values")
        try:
            values = [Fraction(value) for value in row]
        except (ValueError, TypeError, ZeroDivisionError) as error:
            raise ValueError(f"binding {i} is not numeric: {error}") from error
        for value in values:
            if not 0 <= value <= 1:
                raise ValueError(
                    f"binding {i} has a parameter {value} outside [0, 1]"
                )
        rows.append(values)
    if pattern is not None:
        key = f"sweep\x00{pattern}"
        known = entry.cached_events(key)
        if known is not None:
            events = known[1]
            entry.circuit_hits += 1
        else:
            events = (exists(parse_boolean_pattern(pattern)),)
            entry.cache_events(key, (), events)
    else:
        events = ()
    with entry.sweep_lock:
        conditionals, denominators = entry.pxdb.sweep_probabilities(events, rows)
    payload = {
        "db": entry.name,
        "backend": "batch",
        "bindings": len(rows),
        "constraint_probability": [float(v) for v in denominators],
    }
    if pattern is not None:
        payload["pattern"] = pattern
        payload["event_probability"] = [float(v) for v in conditionals[0]]
    return payload


def approx_payload(
    entry: StoreEntry, event_text: str, options: dict | None = None
) -> dict:
    """The ``/approx`` route: a certified Monte-Carlo estimate of an
    arbitrary aggregate event (``repro.approx.events`` grammar — SUM and
    AVG atoms included, which the exact routes must reject by
    Proposition 7.2).  The seed is echoed back in the payload, so any
    reported answer is reproducible from its own JSON."""
    from ..approx.events import parse_event

    event = parse_event(event_text)
    estimator = entry.pxdb.approx_estimator()
    with entry.sample_lock:
        result = estimator.estimate(event, **(options or {}))
    return {
        "db": entry.name,
        "backend": "approx",
        "event": event_text,
        **result.as_dict(),
    }


# -- the service --------------------------------------------------------------

class PXDBService:
    """The transport-independent request surface over a document store."""

    def __init__(
        self,
        store: DocumentStore | None = None,
        *,
        metrics: Metrics | None = None,
        pool: EvaluationPool | None = None,
        slow_ms: float | None = None,
        default_backend: str = "exact",
    ):
        self.store = store if store is not None else DocumentStore()
        self.metrics = metrics if metrics is not None else Metrics()
        self.pool = pool
        # Numeric backend used when a request does not name one; every
        # sat/query/sample request may override it with a "backend" field.
        self.default_backend = _resolve_backend(default_backend)
        # Slow-query log: requests at least this many milliseconds long are
        # logged (repro.service.slow) and kept in a bounded recent list
        # surfaced by /metrics.  None disables the log.
        self.slow_ms = slow_ms
        self._slow_requests: deque[dict] = deque(maxlen=64)
        self.version = package_version()
        # Cost observatory: every finished trace is folded into per-(route,
        # db) resource attribution and a cumulative span profile via the
        # tracer's trace-finish hook.  The hook holds the bound method
        # weakly, so a dropped service deregisters itself.
        self.costs = CostObservatory()
        self.profiler = SpanProfiler()
        TRACER.on_trace_finish(self._harvest_trace)

    def _harvest_trace(self, root: dict, spans: list[dict]) -> None:
        """Tracer trace-finish observer: one fold feeds both the cost
        observatory and the span profiler."""
        self.costs.harvest(root, spans)
        self.profiler.add_trace(root, spans)

    @contextmanager
    def _request(self, op: str, **attrs):
        """Request envelope: root span (one trace per request) + slow-query
        detection.  The wall clock is measured independently of tracing, so
        the slow log works with tracing off (trace_id is then null)."""
        span = TRACER.span(f"request.{op}", **attrs)
        start = time.perf_counter()
        try:
            with span:
                yield span
        finally:
            self._note_slow(op, attrs.get("db"), start, span.trace_id)

    def _note_slow(self, op: str, db, start: float, trace_id) -> None:
        """Log and keep the request started at ``start`` if it was slow."""
        duration_ms = (time.perf_counter() - start) * 1000.0
        if self.slow_ms is None or duration_ms < self.slow_ms:
            return
        record = {
            "op": op,
            "db": db,
            "duration_ms": round(duration_ms, 3),
            "trace_id": trace_id,
            "time": time.time(),
        }
        self._slow_requests.append(record)
        self.metrics.increment("slow_requests")
        _slow_log.warning(
            "slow request",
            extra={k: v for k, v in record.items() if k != "time"},
        )

    # -- problem endpoints ----------------------------------------------------
    def _backend(self, backend: str | None, allow_approx: bool = False) -> str:
        return _resolve_backend(backend, allow_approx) if backend is not None \
            else self.default_backend

    def _record_approx(self, payload: dict) -> None:
        """Fold one approx payload into the sample counter and the
        bound-width histogram (one width per reported interval)."""
        rows = payload.get("answers")
        intervals = (
            [row.get("interval") for row in rows]
            if rows is not None
            else [payload.get("interval")]
        )
        for interval in intervals:
            if interval:
                self.metrics.observe_value(
                    "approx.bound_width", interval[1] - interval[0]
                )
        if payload.get("n_samples"):
            self.metrics.increment("approx.samples", payload["n_samples"])

    def sat(
        self, db: str, backend: str | None = None, approx: dict | None = None
    ) -> dict:
        name = self._backend(backend, allow_approx=True)
        with self._request("sat", db=db, backend=name), \
                self.metrics.timed("sat", route="/sat"):
            payload = self._dispatch("sat", db, {"backend": name, "approx": approx})
            if name == "approx":
                self._record_approx(payload)
            return payload

    def query(
        self,
        db: str,
        query_text: str,
        backend: str | None = None,
        approx: dict | None = None,
    ) -> dict:
        name = self._backend(backend, allow_approx=True)
        with self._request("query", db=db, query=query_text, backend=name) as span, \
                self.metrics.timed("query", route="/query"):
            entry = self.store.get(db)  # also refreshes mtime-stale entries
            if name == "approx":
                # Never cached: a Monte-Carlo payload is a fresh draw
                # unless seeded, and even seeded runs advance the
                # estimator's counters — repeatability is the *seed's*
                # contract, not the cache's.
                payload = self._dispatch(
                    "query", db,
                    {"query_text": query_text, "backend": name, "approx": approx},
                    entry,
                )
                self._record_approx(payload)
                return payload
            return self._cached_query(entry, query_text, name, span)

    def topk(
        self,
        db: str,
        query_text: str,
        k: int = 10,
        backend: str | None = None,
    ) -> dict:
        """The ``k`` most probable answers of a query (``/topk``) — its
        text's ``/query`` payload, cached under the same key, truncated
        after the sort."""
        name = self._backend(backend)
        with self._request("topk", db=db, query=query_text, k=k, backend=name) as span, \
                self.metrics.timed("topk", route="/topk"):
            entry = self.store.get(db)
            _check_k(k)
            payload = self._cached_query(entry, query_text, name, span)
            return _topk_body(payload, k)

    def _cached_query(self, entry: StoreEntry, query_text: str,
                      backend: str, span) -> dict:
        """The text's ``/query`` payload through the entry's single-flight
        result cache; an asker that did not run the evaluation (cached, or
        joined one in flight) counts as ``query.cache_hits``."""
        payload, shared = entry.cached_or_compute(
            _result_key(query_text, backend),
            lambda: self._dispatch(
                "query", entry.name, {"query_text": query_text, "backend": backend},
                entry,
            ),
        )
        if shared:
            self.metrics.increment("query.cache_hits")
            span.set(cache="hit")
        return payload

    def approx(
        self, db: str, event: str, options: dict | None = None
    ) -> dict:
        """A certified estimate of an arbitrary aggregate event
        (``/approx``); ``options`` are the validated estimator keywords
        (epsilon, delta, max_samples, seed, rule)."""
        with self._request("approx", db=db, event=event), \
                self.metrics.timed("approx", route="/approx"):
            payload = self._dispatch(
                "approx", db, {"event_text": event, "options": options}
            )
            self._record_approx(payload)
            return payload

    def sample(
        self,
        db: str,
        count: int = 1,
        seed: int | None = None,
        backend: str | None = None,
    ) -> dict:
        name = self._backend(backend)
        with self._request("sample", db=db, count=count, backend=name), \
                self.metrics.timed("sample", route="/sample"):
            return self._dispatch(
                "sample", db, {"count": count, "seed": seed, "backend": name}
            )

    def check(self, db: str, document_xml: str) -> dict:
        with self._request("check", db=db), self.metrics.timed("check", route="/check"):
            return check_payload(self.store.get(db), document_xml)

    def sweep(self, db: str, bindings, pattern: str | None = None) -> dict:
        """Batched parameter sweep (always in-process: the vectorized
        sweep is one numpy pass over the entry's compiled circuit)."""
        with self._request(
            "sweep", db=db, bindings=len(bindings) if bindings else 0
        ), self.metrics.timed("sweep", route="/sweep"):
            return sweep_payload(self.store.get(db), bindings, pattern=pattern)

    def close(self) -> None:
        """Shut the worker pool down."""
        if self.pool is not None:
            self.pool.shutdown()

    def drain(self, timeout: float = 5.0) -> None:
        """Graceful-stop drain (the SIGTERM path, after the front end has
        answered its in-flight requests): wait out pool work still running
        for requests that timed out, so no worker is killed mid-task."""
        if self.pool is not None:
            self.pool.quiesce(timeout)

    # -- management endpoints -------------------------------------------------
    def register(
        self, name: str, pdocument_path: str, constraints_path: str | None = None
    ) -> dict:
        with self._request("register", db=name), self.metrics.timed("register", route="/register"):
            entry = self.store.register(name, pdocument_path, constraints_path)
            _log.info("registered database", extra={"db": name})
            return entry.info()

    def stats(self) -> dict:
        with self.metrics.timed("stats", route="/stats"):
            payload = {
                "store": self.store.stats(),
                "databases": {
                    entry.name: entry.info() for entry in self.store.loaded_entries()
                },
                "registered": self.store.names(),
                "version": self.version,
            }
            if self.pool is not None:
                payload["pool"] = self.pool.stats()
                payload["pool_workers"] = self.pool.worker_stats(timeout=1.0)
            return payload

    # -- observability endpoints ----------------------------------------------
    def trace(self, trace_id: str) -> dict:
        """One recorded trace, flat and as a nested tree (/trace/<id>)."""
        spans = TRACER.trace(trace_id)
        if not spans:
            raise KeyError(f"no recorded trace {trace_id!r}")
        return {
            "trace_id": trace_id,
            "spans": spans,
            "tree": build_tree(spans),
        }

    def traces(self, slow_ms: float = 0.0, limit: int = 50) -> dict:
        """Recent root spans, slowest first (/traces?slow_ms=&limit=)."""
        return {
            "traces": TRACER.traces(slow_ms=slow_ms, limit=limit),
            "tracing": TRACER.stats(),
        }

    def costs_payload(self) -> dict:
        """Per-request cost attribution (/costs): aggregate rows per
        (route, db) plus top-N most expensive entries/requests."""
        return {"tracing": TRACER.enabled, **self.costs.snapshot()}

    def profile_payload(self, fmt: str | None = None):
        """The cumulative span-folded profile (/profile[?format=collapsed]);
        empty (``traces_folded: 0``) until a traced request has finished.
        ``format=collapsed`` returns flamegraph-compatible text instead of
        JSON."""
        if fmt == "collapsed":
            return self.profiler.collapsed()
        if fmt not in (None, "json"):
            raise ValueError(f"unknown profile format {fmt!r}")
        return self.profiler.snapshot()

    def metrics_payload(self) -> dict:
        payload = self.metrics.snapshot()
        payload["version"] = self.version
        payload["tracing"] = TRACER.stats()
        # Guard counters of this process's auto-backend evaluations
        # (docs/NUMERIC.md); pool workers keep their own counters.
        payload["numeric"] = {
            "default_backend": self.default_backend,
            **GUARD.snapshot(),
        }
        payload["slow_requests"] = list(self._slow_requests)
        payload["store"] = self.store.stats()
        payload["engines"] = {
            entry.name: entry.engine.stats() for entry in self.store.loaded_entries()
        }
        payload["circuits"] = {
            entry.name: {
                **entry.pxdb.circuit_stats(),
                "hits": entry.circuit_hits,
                "param_reloads": entry.param_reloads,
            }
            for entry in self.store.loaded_entries()
        }
        approx_stats = {
            entry.name: entry.pxdb.approx_stats()
            for entry in self.store.loaded_entries()
            if entry.pxdb.approx_stats()
        }
        if approx_stats:
            payload["approx"] = approx_stats
        if self.pool is not None:
            payload["pool"] = self.pool.stats()
            payload["pool_workers"] = self.pool.worker_stats(timeout=1.0)
        payload["costs"] = {"records": self.costs.records_harvested}
        return payload

    def metrics_prometheus(self) -> str:
        """The /metrics surface in Prometheus text exposition format."""
        extra = [
            ("pxdb_info", {"version": self.version}, 1),
        ]
        guard = GUARD.snapshot()
        extra += [
            ("pxdb_numeric_guard_decisions_total", {}, guard["decisions"]),
            ("pxdb_numeric_guard_fallbacks_total", {}, guard["fallbacks"]),
        ]
        extra += [
            (f"pxdb_store_{key}", {}, value)
            for key, value in self.store.stats().items()
        ]
        for entry in self.store.loaded_entries():
            labels = {"db": entry.name}
            stats = entry.pxdb.circuit_stats()
            extra += [
                ("pxdb_circuit_cached", labels, stats["cached"]),
                ("pxdb_circuit_nodes", labels, stats["nodes"]),
                ("pxdb_circuit_rebinds_total", labels, stats["rebinds"]),
                ("pxdb_circuit_hits_total", labels, entry.circuit_hits),
                ("pxdb_entry_param_reloads_total", labels, entry.param_reloads),
            ]
        if self.pool is not None:
            pool_stats = self.pool.stats()
            extra += [
                (f"pxdb_pool_{key}", {}, value)
                for key, value in pool_stats.items()
                if isinstance(value, (int, float))
            ]
            workers = self.pool.worker_stats(timeout=1.0)
            for pid, info in workers["workers"].items():
                labels = {"pid": pid}
                for key, value in (info.get("store") or {}).items():
                    if isinstance(value, (int, float)):
                        extra.append((f"pxdb_pool_worker_store_{key}", labels, value))
            for key, value in workers["summed"]["store"].items():
                extra.append((f"pxdb_pool_workers_store_{key}", {}, value))
            for key, value in workers["summed"]["engines"].items():
                extra.append((f"pxdb_pool_workers_engine_{key}", {}, value))
        extra += self.costs.prometheus_rows()
        return self.metrics.render_prometheus(extra)

    # -- internals ------------------------------------------------------------
    def _dispatch(
        self, op: str, db: str, kwargs: dict, entry: StoreEntry | None = None
    ) -> dict:
        """Run ``op`` in the pool when one is attached, in-process otherwise.

        ``entry`` is the store entry the route already looked up: the
        in-process path runs on it instead of a second ``store.get`` (and
        its ``os.stat``); the pool path sends only the name.

        Degradation is deliberate and silent: a full queue, a broken pool,
        or a database the workers do not have (in-memory entries have no
        file spec to warm workers from) all fall back to the in-process
        warm path and bump ``pool.fallbacks``.  A :class:`PoolTimeout`
        propagates: the worker is still computing, so a second run here
        would only double the load.
        """
        if self.pool is not None:
            try:
                result = self.pool.run(op, db, kwargs)
                self.metrics.increment("pool.dispatched")
                return result
            except (PoolUnavailable, KeyError):
                self.metrics.increment("pool.fallbacks")
        if entry is None:
            entry = self.store.get(db)
        if op == "sat":
            return sat_payload(entry, **kwargs)
        if op == "query":
            return query_payload(entry, **kwargs)
        if op == "sample":
            return sample_payload(entry, **kwargs)
        if op == "approx":
            return approx_payload(entry, **kwargs)
        raise AssertionError(f"unknown operation {op!r}")


# -- transport-agnostic route dispatch ----------------------------------------
# One table of JSON routes: the HTTP front end (repro.service.frontend.
# aserver) only parses bytes into (route, params) and hands them here.

def route_payload(service: PXDBService, route: str, params: dict,
                  *, prometheus: bool = False):
    """Resolve one parsed request to its payload (no error mapping).

    Returns a JSON-ready ``dict`` for every route except ``/metrics``
    with ``prometheus=True``, which returns the text exposition ``str``.
    Raises ``KeyError`` (unknown route/db), ``ValueError`` (bad input) or
    whatever the evaluation raises — :func:`dispatch_route` maps them.
    """
    if route == "/sat":
        return service.sat(
            _required(params, "db"),
            backend=params.get("backend"),
            approx=_approx_options(params),
        )
    if route == "/query":
        return service.query(
            _required(params, "db"),
            _required(params, "query"),
            backend=params.get("backend"),
            approx=_approx_options(params),
        )
    if route == "/topk":
        return service.topk(
            _required(params, "db"),
            _required(params, "query"),
            k=int(params.get("k", 10)),
            backend=params.get("backend"),
        )
    if route == "/approx":
        return service.approx(
            _required(params, "db"),
            _required(params, "event"),
            options=_approx_options(params),
        )
    if route == "/sample":
        seed = params.get("seed")
        return service.sample(
            _required(params, "db"),
            count=int(params.get("count", 1)),
            seed=int(seed) if seed is not None else None,
            backend=params.get("backend"),
        )
    if route == "/sweep":
        return service.sweep(
            _required(params, "db"),
            params.get("bindings"),
            pattern=params.get("pattern"),
        )
    if route == "/check":
        return service.check(
            _required(params, "db"), _required(params, "document")
        )
    if route == "/register":
        return service.register(
            _required(params, "name"),
            _required(params, "pdocument"),
            params.get("constraints"),
        )
    if route == "/stats":
        return service.stats()
    if route == "/traces":
        return service.traces(
            slow_ms=float(params.get("slow_ms", 0.0)),
            limit=int(params.get("limit", 50)),
        )
    if route.startswith("/trace/"):
        return service.trace(route[len("/trace/"):])
    if route == "/metrics":
        if prometheus:
            return service.metrics_prometheus()
        return service.metrics_payload()
    if route == "/costs":
        return service.costs_payload()
    if route == "/profile":
        return service.profile_payload(fmt=params.get("format"))
    if route == "/health":
        return {
            "status": "ok",
            "version": service.version,
            "tracing": TRACER.enabled,
        }
    raise _NoSuchRoute(route)


class _NoSuchRoute(Exception):
    def __init__(self, route: str):
        super().__init__(route)
        self.route = route


def dispatch_route(service: PXDBService, route: str, params: dict,
                   *, prometheus: bool = False) -> tuple[int, dict | str]:
    """One request, fully handled: (HTTP status, JSON dict or plain text)."""
    try:
        payload = route_payload(service, route, params, prometheus=prometheus)
    except Exception as error:  # noqa: BLE001 — mapped to a status
        return error_response(service, route, error)
    if isinstance(payload, str):
        return 200, payload
    return 200, {"ok": True, **payload}


def error_response(service: PXDBService, route: str,
                   error: Exception) -> tuple[int, dict]:
    """The error contract of every route: unknown route/db → 404, bad
    input → 400, a pool timeout → 503, anything else → 500 with a
    one-line message (call it inside the ``except`` block: the traceback
    goes to the server-side log)."""
    if isinstance(error, _NoSuchRoute):
        return 404, {"ok": False, "error": f"no such endpoint: {error.route}"}
    if isinstance(error, KeyError):
        _log.info("not found", extra={"route": route, "error": _message(error)})
        return 404, {"ok": False, "error": _message(error)}
    if isinstance(error, ValueError):
        _log.info("bad request", extra={"route": route, "error": str(error)})
        return 400, {"ok": False, "error": str(error)}
    if isinstance(error, PoolTimeout):
        _log.warning("pool timeout", extra={"route": route, "error": str(error)})
        return 503, {"ok": False, "error": str(error)}
    service.metrics.increment("http.internal_errors")
    _log.exception("internal error", extra={"route": route})
    return 500, {"ok": False, "error": f"{type(error).__name__}: {error}"}


def wants_prometheus(params: dict, accept: str | None) -> bool:
    """The /metrics content negotiation (query parameter or Accept)."""
    accept = accept or ""
    return params.get("format") == "prometheus" or (
        "text/plain" in accept and "application/json" not in accept
    )


def text_content_type(route: str) -> str:
    """Content type for a route's *text* (non-JSON) payload: /metrics
    scrapes and collapsed profiles."""
    if route == "/metrics":
        return "text/plain; version=0.0.4; charset=utf-8"
    return "text/plain; charset=utf-8"


def _required(params: dict, key: str) -> str:
    value = params.get(key)
    if value is None:
        raise ValueError(f"missing required parameter {key!r}")
    return value


def _message(error: KeyError) -> str:
    return str(error.args[0]) if error.args else str(error)
