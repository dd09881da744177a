"""Process-pool execution for CPU-bound evaluation.

The evaluator is pure Python over exact ``Fraction`` arithmetic, so under
the GIL one process serializes DP passes no matter how many request
threads run.  This module moves the problem operations (``sat``,
``query``, ``sample`` and ``approx``; ``/topk`` truncates a ``query``
payload) into worker *processes*:

* **per-worker warm-up** — each worker builds its own
  :class:`~repro.service.store.DocumentStore` from the file specs (parse
  once, compile once, denominator cached) and checks the files' mtimes on
  every access exactly like the parent's store, so an edited file is
  reloaded in the worker too;
* **bounded queue** — at most ``queue_limit`` requests are in flight;
  further submissions are rejected immediately rather than queued
  without bound;
* **graceful degradation** — a full queue, a broken pool, or a database
  the workers cannot load all raise :class:`PoolUnavailable`, which the
  server translates into silent in-process fallback (the warm store
  answers; ``pool.fallbacks`` counts it);
* **timeouts refuse** — a result that misses its deadline raises
  :class:`PoolTimeout`, which the server answers with 503.  The worker
  cannot be stopped mid-task, so evaluating the same request again
  in-process would run it twice and pin the server as well.

Workers execute the same payload builders as the in-process path
(:mod:`repro.service.server`), and the arithmetic is exact, so pooled
responses are byte-identical to in-process ones.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool

from ..obs.spans import TRACER
from .store import DocumentStore

# Worker-process global, set by the initializer.  Plain module state is
# the supported ProcessPoolExecutor idiom for per-worker caches.
_WORKER_STORE: DocumentStore | None = None


def _init_worker(specs: list[tuple[str, str, str | None]]) -> None:
    """Build this worker's warm store from the server's file specs.

    A spec that fails to load is skipped (not fatal): the name simply
    stays unregistered in this worker, requests for it raise ``KeyError``
    and the parent falls back to its own in-process entry.
    """
    global _WORKER_STORE
    # The worker is forked from a server whose event loop relays SIGTERM
    # through a wakeup fd; undo that, so SIGTERM ends this worker only
    # (the pool then degrades to in-process execution) instead of being
    # relayed to the server as a shutdown request.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    store = DocumentStore(max_entries=max(len(specs), 1))
    store.register_specs(specs)
    _WORKER_STORE = store


def _worker_run(op: str, name: str, payload: dict) -> dict:
    """Execute one operation against the worker's warm store.

    When the payload carries a ``_trace`` context (the parent's trace and
    span ids), the worker adopts it, records its spans against the same
    trace id, and returns them alongside the untouched result payload —
    the parent splices them into its own ring buffer, so the trace tree
    crosses the process boundary seamlessly.
    """
    trace_ctx = payload.pop("_trace", None)
    if trace_ctx is None:
        return _worker_op(op, name, payload)
    token = TRACER.activate(trace_ctx)
    try:
        with TRACER.span("pool.worker", op=op, db=name, worker_pid=os.getpid()):
            result = _worker_op(op, name, payload)
    finally:
        TRACER.deactivate(token)
        TRACER.enabled = False
    return {
        "__pool_payload__": result,
        "__pool_spans__": TRACER.drain(trace_ctx["trace_id"]),
    }


def _worker_op(op: str, name: str, payload: dict) -> dict:
    if op == "sleep":  # test hook: occupy a worker for a controlled time
        time.sleep(float(payload.get("seconds", 0.0)))
        return {"slept": float(payload.get("seconds", 0.0))}
    if op == "worker_stats":
        # Observability probe (see EvaluationPool.worker_stats): a tiny
        # stagger spreads concurrent probes across distinct idle workers.
        time.sleep(float(payload.get("stagger", 0.0)))
        return _worker_stats_payload()
    from .server import PAYLOAD_OPS

    if _WORKER_STORE is None:
        raise KeyError("worker store is not initialized")
    payload_of = PAYLOAD_OPS.get(op)
    if payload_of is None:
        raise ValueError(f"unknown pool operation {op!r}")
    return payload_of(_WORKER_STORE.get(name), **payload)


def _worker_stats_payload() -> dict:
    """This worker's warm-store and per-entry engine counters."""
    store = _WORKER_STORE
    if store is None:
        return {"pid": os.getpid(), "store": None, "engines": {}, "names": []}
    return {
        "pid": os.getpid(),
        "store": store.stats(),
        "engines": {
            entry.name: entry.engine.stats() for entry in store.loaded_entries()
        },
        "names": sorted(name for name, _, _ in store.specs()),
    }


class PoolUnavailable(RuntimeError):
    """The pool cannot serve this request *right now* — callers should
    degrade to in-process execution, not fail the request."""


class PoolTimeout(RuntimeError):
    """A pooled result missed its deadline.  The worker keeps computing
    (a running task cannot be cancelled), so the request is refused
    rather than evaluated a second time in-process."""


class EvaluationPool:
    """A bounded process pool with warm per-worker stores.

    ``specs`` is ``DocumentStore.specs()`` output — the (name, p-document
    path, constraints path) triples every worker loads at startup.  Only
    file-backed entries can be pooled; in-memory entries always execute
    in-process via the fallback path.  ``workers`` is the number of
    worker processes; ``queue_limit`` (default twice that) bounds the
    requests in flight.
    """

    def __init__(
        self,
        specs: list[tuple[str, str, str | None]] = (),
        *,
        workers: int = 2,
        timeout: float = 30.0,
        queue_limit: int | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.timeout = timeout
        self.queue_limit = queue_limit if queue_limit is not None else workers * 2
        self._lock = threading.Lock()
        self._active = 0  # futures submitted but not yet done
        self._quiet = threading.Condition(self._lock)
        self._worker_stats_cache: tuple[float, dict] | None = None
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(list(specs),),
        )
        self._slots = threading.BoundedSemaphore(self.queue_limit)
        self._broken = False
        self._counters = {
            "submitted": 0, "completed": 0, "timeouts": 0, "rejected": 0,
        }

    def run(self, op: str, name: str, payload: dict | None = None,
            timeout: float | None = None) -> dict:
        """One pooled operation; raises :class:`PoolUnavailable` when the
        pool cannot take it, :class:`PoolTimeout` when the result misses
        the deadline (the request may still complete in the worker — the
        result is simply dropped), and re-raises the worker's own
        exception (``KeyError``/``ValueError``) when it fails."""
        if not TRACER.enabled:
            return self._run(op, name, payload or {}, timeout)
        with TRACER.span("pool.dispatch", op=op, db=name) as span:
            task = dict(payload or {})
            context = TRACER.context()
            if context is not None:
                task["_trace"] = context
            result = self._run(op, name, task, timeout)
            if isinstance(result, dict) and "__pool_payload__" in result:
                spans = result["__pool_spans__"]
                TRACER.ingest(spans)
                span.set(worker_spans=len(spans))
                result = result["__pool_payload__"]
        return result

    def _run(self, op: str, name: str, payload: dict,
             timeout: float | None) -> dict:
        if self._broken:
            raise PoolUnavailable("process pool is broken")
        if not self._slots.acquire(blocking=False):
            with self._lock:
                self._counters["rejected"] += 1
            raise PoolUnavailable(
                f"pool queue is full ({self.queue_limit} requests in flight)"
            )
        try:
            future = self._executor.submit(_worker_run, op, name, payload)
        except Exception as error:  # shut down or broken executor
            self._slots.release()
            self._broken = True
            raise PoolUnavailable(f"pool submit failed: {error}") from error
        except BaseException:
            # KeyboardInterrupt/SystemExit must propagate — swallowing them
            # into the in-process fallback would make ^C evaluate the
            # request instead of stopping the server.  Release the slot so
            # a surviving pool stays usable.
            self._slots.release()
            raise
        with self._lock:
            self._counters["submitted"] += 1
            self._active += 1
        future.add_done_callback(self._task_done)
        deadline = self.timeout if timeout is None else timeout
        try:
            result = future.result(deadline)
        except FuturesTimeout:
            future.cancel()
            with self._lock:
                self._counters["timeouts"] += 1
            raise PoolTimeout(f"pool result timed out after {deadline:g}s") from None
        except BrokenProcessPool as error:
            self._broken = True
            raise PoolUnavailable(f"process pool broke: {error}") from error
        with self._lock:
            self._counters["completed"] += 1
        return result

    def _task_done(self, _future) -> None:
        self._slots.release()
        with self._quiet:
            self._active -= 1
            if self._active == 0:
                self._quiet.notify_all()

    def quiesce(self, timeout: float = 5.0) -> bool:
        """Wait until no submitted work is still running in the workers
        (or ``timeout`` expires) — the graceful-stop half of SIGTERM.
        Timed-out requests count: their futures run to completion in the
        worker even after the caller gave up on the result."""
        deadline = time.monotonic() + timeout
        with self._quiet:
            while self._active:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._quiet.wait(remaining)
        return True

    def worker_stats(self, timeout: float = 5.0, max_age: float = 5.0) -> dict:
        """Per-worker warm-store/engine counters, plus a summed view.

        ``ProcessPoolExecutor`` cannot address individual workers, so one
        probe task per worker is submitted with a small stagger (an idle
        worker picks each up; staggering keeps one worker from answering
        them all) and the results are deduplicated by pid.  Best-effort:
        busy workers are simply missing from the report.  Results are
        cached for ``max_age`` seconds so /metrics scrapes do not hammer
        the pool.
        """
        with self._lock:
            cached = self._worker_stats_cache
        if cached is not None and time.monotonic() - cached[0] < max_age:
            return cached[1]
        probes = []
        if not self._broken:
            try:
                for worker in range(self.workers):
                    probes.append(self._executor.submit(
                        _worker_run, "worker_stats", "",
                        {"stagger": 0.02 * worker},
                    ))
            except Exception:  # shut down mid-probe: report what we have
                pass
        workers: dict[str, dict] = {}
        deadline = time.monotonic() + timeout
        for future in probes:
            remaining = max(deadline - time.monotonic(), 0.0)
            try:
                row = future.result(remaining)
            except Exception:  # timeout/broken pool: skip this probe
                continue
            workers[str(row["pid"])] = {
                "store": row["store"],
                "engines": row["engines"],
                "names": row.get("names", []),
            }
        report = {
            "workers": workers,
            "summed": _sum_worker_stats(workers),
            "probed": len(workers),
        }
        with self._lock:
            self._worker_stats_cache = (time.monotonic(), report)
        return report

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
        return {
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "timeout_s": self.timeout,
            **counters,
            "broken": self._broken,
        }

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "EvaluationPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


def _sum_worker_stats(workers: dict[str, dict]) -> dict:
    """Element-wise sums of the numeric per-worker counters (rates and
    gauges like ``hit_rate``/``max_entries`` are deliberately excluded)."""
    summable_store = ("loads", "reloads", "param_reloads", "evictions", "hits",
                      "registered", "loaded")
    summable_engine = ("runs", "cache_hits", "cache_misses", "nodes_computed",
                       "cache_entries")
    store_sum = {key: 0 for key in summable_store}
    engine_sum = {key: 0 for key in summable_engine}
    for info in workers.values():
        store = info.get("store") or {}
        for key in summable_store:
            store_sum[key] += int(store.get(key, 0))
        for engine in (info.get("engines") or {}).values():
            for key in summable_engine:
                engine_sum[key] += int(engine.get(key, 0))
    return {"store": store_sum, "engines": engine_sum}
