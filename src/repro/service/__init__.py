"""The PXDB service layer: store-and-serve for constrained probabilistic XML.

The paper's three tractable problems — CONSTRAINT-SAT⟨C⟩, EVAL⟨Q, C⟩ and
SAMPLE⟨C⟩ — are all per-request operations over a *fixed* pair (P̃, C),
which makes them the ideal shape for a long-lived service: parse the
p-document once, compile the constraint c-formula once, keep the
incremental engine warm, and answer every subsequent request from hot
state instead of from cold CLI invocations.

Modules
-------

* :mod:`~repro.service.store`    — the named PXDB registry (load-once,
  LRU-bounded, file-mtime invalidated, warm engines + cached Pr(P ⊨ C));
* :mod:`~repro.service.server`   — the JSON routes (``/sat``,
  ``/query``, ``/topk``, ``/approx``, ``/sample``, ``/sweep``,
  ``/check``, ``/stats``, ``/metrics``, ``/register``, …) and the
  transport-independent :class:`~repro.service.server.PXDBService`
  behind them; ``/sat`` and ``/query`` accept ``backend="approx"`` (the
  Monte-Carlo tier of :mod:`repro.approx`, confidence intervals in the
  payload);
* :mod:`~repro.service.frontend` — the one HTTP front end: an asyncio
  server handing every request to the shared route dispatch;
  :func:`~repro.service.frontend.build_service` wires it to a store
  (``repro serve``);
* :mod:`~repro.service.pool`     — optional process-pool execution for
  CPU-bound evaluation, with per-worker warm stores, a bounded queue,
  graceful degradation to in-process execution and timeouts answered
  503;
* :mod:`~repro.service.client`   — the thin Python client (exact
  ``Fraction`` round-trips);
* :mod:`~repro.service.metrics`  — request counters, latency histograms
  (with exemplar trace ids) and engine cache hit-rates surfaced at
  ``/metrics``.

Observability: the server integrates :mod:`repro.obs` — per-request span
traces (``/trace/<id>``, ``/traces``), a slow-query log, structured
logging and pool-worker stat aggregation.  See ``docs/OBSERVABILITY.md``.

Start one with ``python -m repro serve --db name=doc.pxml:constraints.txt``
(see ``docs/SERVICE.md``).
"""

from .client import ServiceClient, ServiceError
from .frontend import build_service, serve_async, start_async_server
from .metrics import LatencyHistogram, Metrics, ValueHistogram
from .pool import EvaluationPool, PoolTimeout, PoolUnavailable
from .server import PXDBService
from .store import (
    DocumentStore,
    StoreEntry,
    load_pxdb,
    read_constraints,
    read_document,
    read_pdocument,
)

__all__ = [
    "DocumentStore",
    "EvaluationPool",
    "LatencyHistogram",
    "Metrics",
    "PXDBService",
    "PoolTimeout",
    "PoolUnavailable",
    "ServiceClient",
    "ServiceError",
    "StoreEntry",
    "ValueHistogram",
    "build_service",
    "load_pxdb",
    "read_constraints",
    "read_document",
    "read_pdocument",
    "serve_async",
    "start_async_server",
]
