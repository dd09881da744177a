"""Per-entry heterogeneous batch scheduling: many requests, one call.

The front end's central packing primitive: pending sat/query/topk
requests against one stored PXDB are drained per window into a single
heterogeneous batch, executed by :func:`repro.service.server.
batch_payloads` — in-process, or inside a worker of the entry's shard
(:meth:`~repro.service.pool.EvaluationPool.run_batch`).  Each distinct
query text of a batch is bound and evaluated once, the way it would be
alone (one DP pass per candidate event, or its retained circuit), so
batched results are identical to sequential execution.

The scheduler is future-first: ``submit`` returns immediately, a single
dispatcher thread watches group deadlines, and batches run on a small
internal thread pool (one slot per shard is enough: a batch mostly
blocks on worker IPC).  That shape is what the asyncio front end needs —
the event loop awaits the future without holding any thread.

Window semantics:

* a group's batch closes ``window`` seconds after its *first* request
  arrived, or immediately at ``max_batch`` pending — whichever is first;
* a *lone* request only waits ``window/8`` (the grace slice): sequential
  clients must not pay the whole window as a latency floor, while truly
  concurrent arrivals still meet inside the window.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from ...obs.logs import get_logger
from ...obs.spans import TRACER
from ..metrics import COUNT_BUCKETS, Metrics

_log = get_logger("service.scheduler")

# Error markers (per-request failures inside a batch) back to exceptions.
_ERROR_TYPES = {"ValueError": ValueError, "KeyError": KeyError}


def error_marker(payload) -> dict | None:
    """The ``__error__`` marker of a batched payload slot, if any."""
    if isinstance(payload, dict):
        return payload.get("__error__")
    return None


def raise_marker(marker: dict) -> None:
    """Re-raise a batched per-request error as its original type."""
    raise _ERROR_TYPES.get(marker.get("type"), RuntimeError)(
        marker.get("message", "batched request failed")
    )


class _Group:
    """Pending requests against one PXDB name."""

    __slots__ = ("pending", "first_at", "deadline")

    def __init__(self):
        self.pending: list[tuple[dict, Future]] = []
        self.first_at = 0.0
        self.deadline = 0.0


class BatchScheduler:
    """Packs pending heterogeneous requests into per-entry batches.

    ``runner(db, requests) -> payloads`` executes one closed batch
    (:func:`~repro.service.frontend.build_service` wires it in-process,
    or to the worker pool with in-process fallback);
    ``window``/``max_batch`` are the packing knobs; ``max_workers``
    bounds concurrently running batches (≈ number of shards).
    """

    def __init__(
        self,
        runner,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        max_workers: int = 4,
        metrics: Metrics | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.runner = runner
        self.window = window
        self.max_batch = max_batch
        self.metrics = metrics
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._groups: dict[str, _Group] = {}
        self._inflight = 0  # batches currently executing
        self._idle = threading.Condition(self._lock)  # drain() waits here
        self._closed = False
        self._thread: threading.Thread | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="pxdb-batch"
        )
        # Counters (read under the lock by stats()).
        self.batches = 0
        self.batched_requests = 0
        self.largest_batch = 0
        self.errors = 0

    # -- the request side -----------------------------------------------------
    def submit(self, db: str, request: dict) -> Future:
        """Enqueue one request dict; the future resolves to its payload
        (or raises its per-request error).  Thread-safe; never blocks on
        evaluation."""
        future: Future = Future()
        now = time.monotonic()
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            group = self._groups.get(db)
            if group is None:
                group = self._groups[db] = _Group()
            group.pending.append((request, future))
            if len(group.pending) == 1:
                group.first_at = now
                # Lone request: close after the grace slice unless a
                # follower arrives and stretches the deadline below.
                group.deadline = now + self.window / 8
            else:
                group.deadline = group.first_at + self.window
            self._ensure_thread()
            self._wake.notify_all()
        return future

    # -- the dispatcher -------------------------------------------------------
    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._loop, name="pxdb-scheduler", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        while True:
            with self._lock:
                if self._closed and not self._groups:
                    return
                now = time.monotonic()
                ready: list[tuple[str, list]] = []
                next_deadline: float | None = None
                for db, group in list(self._groups.items()):
                    due = (
                        self._closed
                        or group.deadline <= now
                        or len(group.pending) >= self.max_batch
                    )
                    if due:
                        ready.append((db, group.pending))
                        del self._groups[db]
                    elif next_deadline is None or group.deadline < next_deadline:
                        next_deadline = group.deadline
                if not ready:
                    timeout = (
                        None if next_deadline is None else max(next_deadline - now, 0.0)
                    )
                    self._wake.wait(timeout)
                    continue
                self._inflight += len(ready)
            for db, batch in ready:
                self._pool.submit(self._run_batch, db, batch)

    def _run_batch(self, db: str, batch: list[tuple[dict, Future]]) -> None:
        requests = [request for request, _ in batch]
        span_attrs = {}
        if TRACER.enabled:
            # Per-op composition of the batch: cost attribution splits the
            # batch's cost across routes proportionally to these counts.
            ops: dict[str, int] = {}
            for request in requests:
                key = str(request.get("op", "?"))
                ops[key] = ops.get(key, 0) + 1
            span_attrs["ops"] = ops
        try:
            with TRACER.span(
                "scheduler.batch", db=db, requests=len(batch), **span_attrs
            ):
                payloads = self.runner(db, requests)
            if len(payloads) != len(batch):
                raise RuntimeError(
                    f"batch runner returned {len(payloads)} payloads "
                    f"for {len(batch)} requests"
                )
        except BaseException as error:  # noqa: BLE001 — fan the failure out
            with self._lock:
                self.errors += 1
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            self._batch_done()
            return
        with self._lock:
            self.batches += 1
            self.batched_requests += len(batch)
            self.largest_batch = max(self.largest_batch, len(batch))
        if self.metrics is not None:
            self.metrics.increment("scheduler.batches")
            self.metrics.observe_value(
                "scheduler.batch_size", len(batch), buckets=COUNT_BUCKETS
            )
        for (_, future), payload in zip(batch, payloads):
            marker = error_marker(payload)
            if marker is None:
                future.set_result(payload)
            else:
                try:
                    raise_marker(marker)
                except Exception as error:  # noqa: BLE001 — per-request error
                    future.set_exception(error)
        self._batch_done()

    def _batch_done(self) -> None:
        with self._lock:
            self._inflight -= 1
            if self._inflight == 0 and not self._groups:
                self._idle.notify_all()

    # -- lifecycle ------------------------------------------------------------
    def drain(self, timeout: float = 5.0) -> bool:
        """Block until every pending request has been batched and every
        running batch finished (or ``timeout`` expired).  Returns True
        when fully drained — the SIGTERM/graceful-stop hook."""
        deadline = time.monotonic() + timeout
        with self._lock:
            # Close out waiting windows immediately: a drain should not
            # sit out the full batching window per pending group.
            for group in self._groups.values():
                group.deadline = 0.0
            self._wake.notify_all()
            while self._groups or self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self, timeout: float = 5.0) -> None:
        """Drain, then stop the dispatcher and the batch thread pool."""
        self.drain(timeout)
        with self._lock:
            self._closed = True
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
        self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> dict:
        with self._lock:
            pending = sum(len(g.pending) for g in self._groups.values())
            return {
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "largest_batch": self.largest_batch,
                "mean_batch_size": (
                    round(self.batched_requests / self.batches, 2)
                    if self.batches
                    else 0.0
                ),
                "errors": self.errors,
                "pending": pending,
                "inflight_batches": self._inflight,
                "window_s": self.window,
                "max_batch": self.max_batch,
            }
