"""Contextvar-scoped span tracing for the PXDB engine and service.

One global :class:`Tracer` (module singleton :data:`TRACER`) records
*spans* — named, timed regions with structural attributes — into a
lock-protected in-memory ring buffer, optionally mirroring every finished
span to a JSONL file.  Spans nest through a ``contextvars.ContextVar``:
a span opened while another is active becomes its child, so one request
yields one coherent tree across the server, the process pool, the
document store, the DP evaluator, the sampler and the circuit sweeps.

Design constraints (the reason this module looks the way it does):

* **stdlib only** — no OpenTelemetry; the span model is a strict subset
  (trace id, span id, parent id, name, start, duration, attributes,
  status) so an exporter could map 1:1 later.
* **near-zero cost when disabled** — instrumentation sites guard with
  ``if TRACER.enabled:`` (one attribute load and a branch) or call
  :meth:`Tracer.span`, which returns a shared no-op singleton without
  allocating anything.  The disabled path MUST allocate no spans; the
  test suite and ``benchmarks/bench_obs.py`` assert both properties.
* **cross-process propagation** — a tracer context (trace id + parent
  span id) serializes to a small dict that rides inside a process-pool
  task payload; the worker activates it, records spans against the same
  trace id in its own ring, then *drains* them into the result so the
  parent can :meth:`~Tracer.ingest` them.  One request against a
  pool-backed server therefore still produces a single span tree.
* **fork-safe** — a forked child (a pool worker) keeps the enabled flag
  and the active context, but gets a fresh lock, fresh span ids, empty
  buffers and no JSONL handle: the parent's lock may have been held by
  another thread at fork time, and its ids, spans and export file stay
  the parent's.
* **O(result) retrieval** — a per-trace index (trace id → its spans, in
  ring order) is maintained on every append, ingest and eviction, so
  :meth:`~Tracer.trace` and :meth:`~Tracer.traces` never rescan the
  whole ring.
* **tail-based retention** — when enabled, spans buffer per trace until
  the root finishes; slow and errored traces are always kept whole,
  fast/ok traces are kept at a configurable sample rate.  The keep/drop
  decision happens *after* trace-finish observers run, so cost
  attribution and profiling see every trace even when the ring doesn't.

The attribute vocabulary is documented in ``docs/OBSERVABILITY.md``;
attributes record the *structural* quantities that drive the DP's cost
(nodes computed, cache hits/misses, maximum signature-distribution
width, matcher candidate counts, circuit gate counts) — the run-time
model of Theorem 5.3 — not just wall-clock.
"""

from __future__ import annotations

import contextvars
import json
import os
import random
import threading
import time
import weakref
from collections import deque
from typing import Any, Callable, Iterable

# (trace_id, span_id) of the active span; None outside any span.  Fresh
# threads start with the default (None), so a server handler thread that
# opens a request span starts a new trace.
_CONTEXT: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "pxdb_trace_context", default=None
)

_IDS = random.Random()  # seeded from OS entropy; ids need uniqueness, not crypto


def _new_id() -> str:
    return f"{_IDS.getrandbits(64):016x}"


class Span:
    """One live span; use as a context manager.  Finishing records an
    immutable dict into the tracer's ring buffer."""

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "attributes", "started_at", "_start", "_token", "status")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 parent_id: str | None, attributes: dict):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self.status = "ok"

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        self._token = _CONTEXT.set((self.trace_id, self.span_id))
        self.started_at = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        _CONTEXT.reset(self._token)
        if exc_type is not None:
            self.status = f"error:{exc_type.__name__}"
        self.tracer._finish(
            {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "start": self.started_at,
                "duration_ms": duration * 1000.0,
                "status": self.status,
                "pid": os.getpid(),
                "attributes": self.attributes,
            }
        )


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled.
    A singleton: the disabled path allocates nothing."""

    __slots__ = ()
    trace_id = None
    span_id = None

    def set(self, **attributes) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """The process-wide span sink: ring buffer + optional JSONL export.

    ``enabled`` is read directly by instrumentation sites (plain attribute
    access — the near-zero disabled path); everything that mutates shared
    state takes the lock.  Trace-finish observers run *outside* the lock,
    so they may call back into the tracer freely.
    """

    #: Upper bound on distinct traces buffered while tail sampling waits
    #: for their roots; the oldest pending trace is dropped wholesale
    #: when the bound is hit (a leaked/never-finished root must not pin
    #: memory forever).
    PENDING_TRACE_CAP = 512

    def __init__(self, ring_size: int = 4096):
        self.enabled = False
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=ring_size)
        # Per-trace index over the ring: trace id → its spans in ring
        # (= finish) order.  _roots holds each indexed trace's root span.
        self._index: dict[str, deque[dict]] = {}
        self._roots: dict[str, dict] = {}
        self._jsonl_path: str | None = None
        self._jsonl_file = None
        self._jsonl_max_bytes: int | None = None
        self._jsonl_bytes = 0
        self.jsonl_rotations = 0
        self.spans_recorded = 0
        # Tail-based retention (off by default): buffer spans per trace
        # until the root finishes, then keep (slow/error/sampled-in) or
        # drop the whole trace.
        self._tail = False
        self._tail_slow_ms = 25.0
        self._tail_rate = 0.1
        self._tail_rng = random.Random()
        self._pending: dict[str, list[dict]] = {}
        self.traces_kept = 0
        self.traces_dropped = 0
        self.spans_dropped = 0
        # Trace-finish observers, held weakly (bound methods via
        # WeakMethod) so a forgotten service never leaks through the
        # process-wide singleton.
        self._observers: list = []

    # -- configuration --------------------------------------------------------
    def configure(
        self,
        enabled: bool | None = None,
        ring_size: int | None = None,
        jsonl_path: str | os.PathLike | None = None,
        jsonl_max_bytes: int | None = None,
        tail_sample: bool | None = None,
        tail_slow_ms: float | None = None,
        tail_rate: float | None = None,
        tail_seed: int | None = None,
    ) -> "Tracer":
        """Reconfigure in place (the singleton is shared by everything in
        the process).  ``jsonl_path`` opens an append-mode exporter;
        ``None`` leaves the current exporter untouched — close it with
        :meth:`reset`.  ``jsonl_max_bytes`` caps the export file: when a
        write would push it past the cap the file rotates to
        ``<path>.1`` (replacing any previous ``.1``) first, so no span is
        ever dropped by rotation.  ``tail_sample`` switches on tail-based
        retention: traces at least ``tail_slow_ms`` long or with an error
        status are always kept; the rest survive with probability
        ``tail_rate`` (``tail_seed`` makes the coin deterministic)."""
        with self._lock:
            if ring_size is not None:
                new_ring = deque(self._ring, maxlen=ring_size)
                for span in list(self._ring)[: len(self._ring) - len(new_ring)]:
                    self._unindex_locked(span)
                self._ring = new_ring
            if jsonl_max_bytes is not None:
                self._jsonl_max_bytes = jsonl_max_bytes if jsonl_max_bytes > 0 else None
            if jsonl_path is not None:
                if self._jsonl_file is not None:
                    self._jsonl_file.close()
                self._jsonl_path = str(jsonl_path)
                self._jsonl_file = open(self._jsonl_path, "a", encoding="utf-8")
                self._jsonl_file.seek(0, os.SEEK_END)
                self._jsonl_bytes = self._jsonl_file.tell()
            if tail_slow_ms is not None:
                self._tail_slow_ms = float(tail_slow_ms)
            if tail_rate is not None:
                self._tail_rate = min(max(float(tail_rate), 0.0), 1.0)
            if tail_seed is not None:
                self._tail_rng = random.Random(tail_seed)
            if tail_sample is not None:
                self._tail = bool(tail_sample)
                if not self._tail:
                    self._pending.clear()
            if enabled is not None:
                self.enabled = enabled
        return self

    def _reset_after_fork(self) -> None:
        """Child side of a fork (see :func:`_after_fork_in_child`)."""
        self._lock = threading.Lock()
        self._ring = deque(maxlen=self._ring.maxlen)
        self._index = {}
        self._roots = {}
        self._pending = {}
        # Keep the inherited exporter referenced but unused: closing it, or
        # letting it be collected, would flush a line the parent was
        # writing at fork time into the parent's file a second time.
        self._inherited_jsonl = self._jsonl_file
        self._jsonl_file = None
        self._jsonl_path = None
        self._jsonl_bytes = 0

    def reset(self) -> None:
        """Drop all recorded spans and close the JSONL exporter (the
        enabled flag, ring size, tail-sampling policy and registered
        trace observers are kept)."""
        with self._lock:
            self._ring.clear()
            self._index.clear()
            self._roots.clear()
            self._pending.clear()
            self.spans_recorded = 0
            self.traces_kept = 0
            self.traces_dropped = 0
            self.spans_dropped = 0
            self.jsonl_rotations = 0
            if self._jsonl_file is not None:
                self._jsonl_file.close()
                self._jsonl_file = None
                self._jsonl_path = None
                self._jsonl_bytes = 0

    # -- trace-finish observers -----------------------------------------------
    def on_trace_finish(self, callback: Callable[[dict, list[dict]], None]):
        """Register ``callback(root_span, trace_spans)`` to run whenever a
        root span finishes — *before* the tail-sampling keep/drop
        decision takes effect for observers (they always see the full
        trace) and outside the tracer lock (they may call the tracer).

        Bound methods are held through ``weakref.WeakMethod`` and plain
        callables through ``weakref.ref``: the registration dies with its
        owner, so services built per-test never accumulate.  Keep a
        strong reference to the callback's owner for as long as the
        observation should live.  Returns ``callback`` for symmetric use
        with :meth:`remove_trace_observer`.
        """
        if hasattr(callback, "__self__"):
            ref = weakref.WeakMethod(callback)
        else:
            ref = weakref.ref(callback)
        with self._lock:
            self._observers.append(ref)
        return callback

    def remove_trace_observer(self, callback) -> None:
        with self._lock:
            self._observers = [
                ref for ref in self._observers
                if ref() is not None and ref() != callback
            ]

    def _live_observers_locked(self) -> list:
        live = [ref() for ref in self._observers]
        if any(cb is None for cb in live):
            self._observers = [ref for ref in self._observers if ref() is not None]
        return [cb for cb in live if cb is not None]

    # -- span creation --------------------------------------------------------
    def span(self, name: str, **attributes):
        """A new child span of the current context (a fresh root — new
        trace id — when no span is active).  Returns the no-op singleton
        when tracing is disabled."""
        if not self.enabled:
            return NOOP_SPAN
        context = _CONTEXT.get()
        if context is None:
            return Span(self, name, _new_id(), None, attributes)
        trace_id, parent_id = context
        return Span(self, name, trace_id, parent_id, attributes)

    def current_trace_id(self) -> str | None:
        context = _CONTEXT.get()
        return context[0] if context is not None else None

    # -- cross-process propagation --------------------------------------------
    def context(self) -> dict | None:
        """The active context as a payload-embeddable dict (``None`` when
        tracing is off or no span is active)."""
        if not self.enabled:
            return None
        context = _CONTEXT.get()
        if context is None:
            return None
        return {"trace_id": context[0], "span_id": context[1]}

    def activate(self, context: dict) -> contextvars.Token:
        """Adopt a propagated context (pool workers call this; pair with
        :meth:`deactivate`).  Also enables the tracer, so worker-side
        instrumentation records against the parent's trace id."""
        self.enabled = True
        return _CONTEXT.set((context["trace_id"], context["span_id"]))

    def deactivate(self, token: contextvars.Token) -> None:
        _CONTEXT.reset(token)

    def drain(self, trace_id: str) -> list[dict]:
        """Remove and return every recorded span of ``trace_id`` (workers
        ship them back inside the task result)."""
        with self._lock:
            mine: list[dict] = []
            bucket = self._index.pop(trace_id, None)
            if bucket:
                mine.extend(bucket)
                kept = [s for s in self._ring if s["trace_id"] != trace_id]
                self._ring.clear()
                self._ring.extend(kept)
                self._roots.pop(trace_id, None)
            mine.extend(self._pending.pop(trace_id, ()))
        return mine

    def ingest(self, spans: Iterable[dict]) -> None:
        """Splice foreign (worker-produced) spans into the ring buffer —
        or, under tail sampling, into the trace's pending buffer so they
        share its root's keep/drop fate."""
        with self._lock:
            for span in spans:
                if self._tail:
                    self._buffer_pending_locked(span)
                else:
                    self._record_locked(span)

    # -- recording ------------------------------------------------------------
    def _finish(self, span: dict) -> None:
        is_root = span["parent_id"] is None
        observers: list = []
        trace_spans: list[dict] | None = None
        with self._lock:
            if not is_root:
                if self._tail:
                    self._buffer_pending_locked(span)
                else:
                    self._record_locked(span)
            else:
                if self._tail:
                    trace_spans = self._pending.pop(span["trace_id"], [])
                    trace_spans.append(span)
                    if self._keep_trace_locked(span):
                        for item in trace_spans:
                            self._record_locked(item)
                        self.traces_kept += 1
                    else:
                        self.traces_dropped += 1
                        self.spans_dropped += len(trace_spans)
                else:
                    self._record_locked(span)
                    bucket = self._index.get(span["trace_id"])
                    trace_spans = list(bucket) if bucket else [span]
                observers = self._live_observers_locked()
        if is_root and observers:
            for callback in observers:
                try:
                    callback(span, trace_spans)
                except Exception:  # observers must never break the traced path
                    pass

    def _keep_trace_locked(self, root: dict) -> bool:
        if root["status"] != "ok":
            return True
        if root["duration_ms"] >= self._tail_slow_ms:
            return True
        if self._tail_rate >= 1.0:
            return True
        if self._tail_rate <= 0.0:
            return False
        return self._tail_rng.random() < self._tail_rate

    def _buffer_pending_locked(self, span: dict) -> None:
        bucket = self._pending.get(span["trace_id"])
        if bucket is None:
            if len(self._pending) >= self.PENDING_TRACE_CAP:
                oldest = next(iter(self._pending))
                self.traces_dropped += 1
                self.spans_dropped += len(self._pending.pop(oldest))
            bucket = self._pending[span["trace_id"]] = []
        bucket.append(span)

    def _record_locked(self, span: dict) -> None:
        ring = self._ring
        if ring.maxlen is not None and len(ring) == ring.maxlen and ring:
            self._unindex_locked(ring[0])
        ring.append(span)
        bucket = self._index.get(span["trace_id"])
        if bucket is None:
            bucket = self._index[span["trace_id"]] = deque()
        bucket.append(span)
        if span["parent_id"] is None:
            self._roots[span["trace_id"]] = span
        self.spans_recorded += 1
        if self._jsonl_file is not None:
            self._write_jsonl_locked(span)

    def _unindex_locked(self, span: dict) -> None:
        trace_id = span["trace_id"]
        bucket = self._index.get(trace_id)
        if bucket:
            if bucket[0] is span:
                bucket.popleft()
            else:  # ingest can interleave orders; fall back to a scan
                try:
                    bucket.remove(span)
                except ValueError:
                    pass
            if not bucket:
                del self._index[trace_id]
        if self._roots.get(trace_id) is span:
            del self._roots[trace_id]

    def _write_jsonl_locked(self, span: dict) -> None:
        line = json.dumps(span, default=str) + "\n"
        encoded = len(line.encode("utf-8"))
        if (
            self._jsonl_max_bytes is not None
            and self._jsonl_bytes > 0
            and self._jsonl_bytes + encoded > self._jsonl_max_bytes
        ):
            # Rotate BEFORE writing: the in-flight span lands at the head
            # of the fresh file, never on the floor.
            self._jsonl_file.close()
            os.replace(self._jsonl_path, self._jsonl_path + ".1")
            self._jsonl_file = open(self._jsonl_path, "a", encoding="utf-8")
            self._jsonl_bytes = 0
            self.jsonl_rotations += 1
        self._jsonl_file.write(line)
        self._jsonl_file.flush()
        self._jsonl_bytes += encoded

    # -- retrieval ------------------------------------------------------------
    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._ring)

    def trace(self, trace_id: str) -> list[dict]:
        """All recorded spans of one trace, oldest first — an O(trace)
        index lookup, including spans still pending a tail decision."""
        with self._lock:
            spans = list(self._index.get(trace_id, ()))
            spans.extend(self._pending.get(trace_id, ()))
        return spans

    def traces(self, slow_ms: float = 0.0, limit: int = 50) -> list[dict]:
        """Root-span summaries (spans with no parent), slowest first,
        filtered to those at least ``slow_ms`` long.  O(#roots) via the
        per-trace index, not O(ring)."""
        with self._lock:
            rows = [
                (root, len(self._index.get(trace_id, ())) or 1)
                for trace_id, root in self._roots.items()
                if root["duration_ms"] >= slow_ms
            ]
        summaries = [
            {
                "trace_id": root["trace_id"],
                "name": root["name"],
                "start": root["start"],
                "duration_ms": root["duration_ms"],
                "status": root["status"],
                "spans": span_count,
                "attributes": root["attributes"],
            }
            for root, span_count in rows
        ]
        summaries.sort(key=lambda row: -row["duration_ms"])
        return summaries[:limit]

    def tree(self, trace_id: str) -> list[dict]:
        """The trace as a nested forest (children under ``"children"``,
        ordered by start time).  Spans whose parent was evicted from the
        ring surface as additional roots rather than disappearing."""
        return build_tree(self.trace(trace_id))

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "spans_recorded": self.spans_recorded,
                "spans_buffered": len(self._ring),
                "ring_size": self._ring.maxlen,
                "traces_indexed": len(self._roots),
                "jsonl_path": self._jsonl_path,
                "jsonl_rotations": self.jsonl_rotations,
                "tail_sample": self._tail,
                "tail_slow_ms": self._tail_slow_ms,
                "tail_rate": self._tail_rate,
                "traces_kept": self.traces_kept,
                "traces_dropped": self.traces_dropped,
                "spans_dropped": self.spans_dropped,
                "pending_traces": len(self._pending),
            }


def build_tree(spans: list[dict]) -> list[dict]:
    """Nest a flat span list into a forest by parent_id (shared by the
    tracer, the server's /trace endpoint and the CLI renderer)."""
    nodes = {span["span_id"]: {**span, "children": []} for span in spans}
    roots: list[dict] = []
    for node in nodes.values():
        parent = nodes.get(node["parent_id"])
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child["start"])
    roots.sort(key=lambda root: root["start"])
    return roots


def tree_coverage(root: dict) -> float:
    """Fraction of a root span's wall time covered by its direct
    children (the acceptance metric for "spans cover the request")."""
    if root["duration_ms"] <= 0:
        return 1.0
    covered = sum(child["duration_ms"] for child in root.get("children", ()))
    return min(covered / root["duration_ms"], 1.0)


#: The process-wide tracer every instrumentation site shares.
TRACER = Tracer()


def _after_fork_in_child() -> None:
    _IDS.seed()
    TRACER._reset_after_fork()


os.register_at_fork(after_in_child=_after_fork_in_child)
