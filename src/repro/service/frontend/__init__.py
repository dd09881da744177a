"""The service front end: event loop + batch scheduler + shard router.

Three cooperating pieces (each documented in its module):

* :mod:`~repro.service.frontend.aserver` — the asyncio HTTP server that
  awaits scheduler futures without holding threads;
* :mod:`~repro.service.frontend.scheduler` — per-entry heterogeneous
  batch scheduling of pending sat/query/topk requests;
* :mod:`~repro.service.frontend.shards` — consistent-hash routing pinning
  each PXDB name to one worker shard, so workers warm only their shard's
  entries.

:func:`build_service` wires them to a store: ``repro serve`` is this
factory plus :func:`~repro.service.frontend.aserver.serve_async`.
"""

from __future__ import annotations

from ..metrics import Metrics
from ..pool import EvaluationPool, PoolUnavailable
from ..server import PXDBService, batch_payloads
from .aserver import AsyncHTTPFrontend, AsyncServerHandle, serve_async, start_async_server
from .scheduler import BatchScheduler
from .shards import ShardRouter

__all__ = [
    "AsyncHTTPFrontend",
    "AsyncServerHandle",
    "BatchScheduler",
    "ShardRouter",
    "build_service",
    "serve_async",
    "start_async_server",
]


def build_service(
    store,
    *,
    pool: int = 0,
    shards: int = 1,
    window: float = 0.002,
    max_batch: int = 64,
    metrics=None,
    slow_ms: float | None = None,
    default_backend: str = "exact",
    pool_timeout: float = 30.0,
    queue_limit: int | None = None,
    slos: dict | None = None,
):
    """A :class:`~repro.service.server.PXDBService` over ``store`` with a
    batch scheduler in front — ``repro serve --pool N --shards S``.

    With ``pool=0`` (the default) there is no worker process: every batch
    runs in-process on the store's warm entries.  With ``pool=N`` each of
    the ``shards`` shards gets N worker processes
    (:class:`~repro.service.pool.EvaluationPool`); a batch runs inside a
    worker of its entry's shard and degrades to the same in-process pass
    when the pool cannot take it (full queue, broken pool, a name the
    workers do not hold), counted in ``scheduler.fallbacks``.
    """
    if pool < 0:
        raise ValueError(f"pool must be at least 0, got {pool}")
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    if shards > 1 and pool == 0:
        raise ValueError("shards partition the worker pool: --shards needs --pool")
    metrics = metrics if metrics is not None else Metrics()
    workers = None
    if pool:
        workers = EvaluationPool(
            store.specs(),
            workers=pool,
            shards=shards,
            timeout=pool_timeout,
            queue_limit=queue_limit,
        )

    def runner(db: str, requests: list[dict]) -> list[dict]:
        if workers is not None:
            try:
                return workers.run_batch(db, requests)
            except (PoolUnavailable, KeyError):
                metrics.increment("scheduler.fallbacks")
        return batch_payloads(store.get(db), requests)

    scheduler = BatchScheduler(
        runner,
        window=window,
        max_batch=max_batch,
        max_workers=shards,
        metrics=metrics,
    )
    return PXDBService(
        store,
        metrics=metrics,
        pool=workers,
        scheduler=scheduler,
        slow_ms=slow_ms,
        default_backend=default_backend,
        slos=slos,
    )
