"""The service front end: event loop + shard router.

Two cooperating pieces (each documented in its module):

* :mod:`~repro.service.frontend.aserver` — the asyncio HTTP server that
  hands every parsed request to :func:`~repro.service.server.
  dispatch_route` on the default executor;
* :mod:`~repro.service.frontend.shards` — consistent-hash routing pinning
  each PXDB name to one worker shard, so workers warm only their shard's
  entries.

:func:`build_service` wires them to a store: ``repro serve`` is this
factory plus :func:`~repro.service.frontend.aserver.serve_async`.
"""

from __future__ import annotations

from ..pool import EvaluationPool
from ..server import PXDBService
from .aserver import AsyncHTTPFrontend, AsyncServerHandle, serve_async, start_async_server
from .shards import ShardRouter

__all__ = [
    "AsyncHTTPFrontend",
    "AsyncServerHandle",
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
    metrics=None,
    slow_ms: float | None = None,
    default_backend: str = "exact",
    pool_timeout: float = 30.0,
    queue_limit: int | None = None,
    slos: dict | None = None,
):
    """A :class:`~repro.service.server.PXDBService` over ``store`` —
    ``repro serve --pool N --shards S``.

    With ``pool=0`` (the default) there is no worker process: every
    request runs in-process on the store's warm entries.  With ``pool=N``
    each of the ``shards`` shards gets N worker processes
    (:class:`~repro.service.pool.EvaluationPool`); a request runs inside a
    worker of its entry's shard and degrades to the same in-process
    evaluation when the pool cannot take it (full queue, broken pool, a
    name the workers do not hold), counted in ``pool.fallbacks``.  A
    request that outlives ``pool_timeout`` is answered 503.
    """
    if pool < 0:
        raise ValueError(f"pool must be at least 0, got {pool}")
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    if shards > 1 and pool == 0:
        raise ValueError("shards partition the worker pool: --shards needs --pool")
    workers = None
    if pool:
        workers = EvaluationPool(
            store.specs(),
            workers=pool,
            shards=shards,
            timeout=pool_timeout,
            queue_limit=queue_limit,
        )
    return PXDBService(
        store,
        metrics=metrics,
        pool=workers,
        slow_ms=slow_ms,
        default_backend=default_backend,
        slos=slos,
    )
