"""The service front end: the asyncio HTTP server and its factory.

:mod:`~repro.service.frontend.aserver` is the asyncio HTTP server that
hands every parsed request to :func:`~repro.service.server.dispatch_route`
on the default executor.  :func:`build_service` wires a store to a
service: ``repro serve`` is this factory plus
:func:`~repro.service.frontend.aserver.serve_async`.
"""

from __future__ import annotations

from ..pool import EvaluationPool
from ..server import PXDBService
from .aserver import AsyncHTTPFrontend, AsyncServerHandle, serve_async, start_async_server

__all__ = [
    "AsyncHTTPFrontend",
    "AsyncServerHandle",
    "build_service",
    "serve_async",
    "start_async_server",
]


def build_service(
    store,
    *,
    pool: int = 0,
    metrics=None,
    slow_ms: float | None = None,
    default_backend: str = "exact",
    pool_timeout: float = 30.0,
):
    """A :class:`~repro.service.server.PXDBService` over ``store`` —
    ``repro serve --pool N``.

    With ``pool=0`` (the default) there is no worker process: every
    request runs in-process on the store's warm entries.  With ``pool=N``
    N worker processes (:class:`~repro.service.pool.EvaluationPool`) each
    warm every file-backed entry; a request runs inside a worker and
    degrades to the same in-process evaluation when the pool cannot take
    it (full queue, broken pool, a name the workers do not hold), counted
    in ``pool.fallbacks``.  A request that outlives ``pool_timeout`` is
    answered 503.
    """
    if pool < 0:
        raise ValueError(f"pool must be at least 0, got {pool}")
    workers = None
    if pool:
        workers = EvaluationPool(store.specs(), workers=pool, timeout=pool_timeout)
    return PXDBService(
        store,
        metrics=metrics,
        pool=workers,
        slow_ms=slow_ms,
        default_backend=default_backend,
    )
