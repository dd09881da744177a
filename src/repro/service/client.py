"""The thin Python client for the PXDB service.

Stdlib-only (``urllib``); probabilities round-trip as exact ``Fraction``
strings, so a client-side comparison against a direct
:class:`~repro.core.pxdb.PXDB` call can demand *equality*, not closeness.
Used by the test suite, the service benchmark, and the CI smoke job.

    client = ServiceClient("http://127.0.0.1:8642")
    client.sat("uni")                      # Fraction(5, 8)
    client.query("uni", "*//'ph.d. st.'/$name")
    client.sample("uni", count=3, seed=7)  # three XML documents
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from urllib import error as urlerror
from urllib import request as urlrequest
from urllib.parse import urlencode


class ServiceError(RuntimeError):
    """A failed service call; ``status`` is the HTTP code (None when the
    server was unreachable)."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """One service endpoint, many calls.  Thread-safe (no shared state
    beyond the base URL), so concurrent-client tests share one instance.

    ``retries``/``backoff`` turn on bounded retry for *idempotent* calls
    (sat/query/topk/stats/metrics/…): a connection failure or reset is
    retried up to ``retries`` times with jittered exponential backoff
    (``backoff``, ``2·backoff``, ``4·backoff``, … seconds, each scaled by
    a random factor in [0.5, 1.0) so a thundering herd of clients does
    not re-synchronize).  HTTP *errors* are never retried — the server
    answered; asking again will not change a 400/404/500.  ``sample`` and
    ``approx`` are never retried regardless of the setting: they draw
    from the server's RNG, so a retry after an ambiguous failure could
    consume entropy twice (non-idempotent).
    """

    def __init__(self, base_url: str, timeout: float = 60.0, *,
                 retries: int = 0, backoff: float = 0.05):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff < 0:
            raise ValueError("backoff must be non-negative")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    # -- transport ------------------------------------------------------------
    def _request(self, path: str, payload: dict | None = None,
                 params: dict | None = None, *, idempotent: bool = True) -> dict:
        attempts = self.retries + 1 if idempotent else 1
        for attempt in range(attempts):
            try:
                return self._request_once(path, payload, params)
            except ServiceError as error:
                # status set → an HTTP response arrived: never retry.
                if error.status is not None or attempt == attempts - 1:
                    raise
                delay = self.backoff * (2 ** attempt)
                time.sleep(delay * (0.5 + random.random() / 2))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, path: str, payload: dict | None,
                      params: dict | None) -> dict:
        url = self.base_url + path
        if params:
            url += "?" + urlencode(params)
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urlrequest.Request(url, data=data, headers=headers)
        try:
            with urlrequest.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except urlerror.HTTPError as error:
            try:
                message = json.loads(error.read().decode("utf-8")).get(
                    "error", str(error)
                )
            except (ValueError, OSError):
                message = str(error)
            raise ServiceError(message, status=error.code) from None
        except urlerror.URLError as error:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {error.reason}"
            ) from None
        except (ConnectionResetError, ConnectionRefusedError) as error:
            # A reset mid-response bypasses urllib's URLError wrapping.
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {error}"
            ) from None
        if not body.get("ok", False):
            raise ServiceError(str(body.get("error", "service error")))
        return body

    def _request_text(self, path: str, params: dict | None = None) -> str:
        """GET a text-rendering route (``/profile?format=collapsed``) —
        same retry policy as idempotent JSON calls, but the body is
        returned verbatim."""
        attempts = self.retries + 1
        for attempt in range(attempts):
            try:
                return self._request_text_once(path, params)
            except ServiceError as error:
                if error.status is not None or attempt == attempts - 1:
                    raise
                delay = self.backoff * (2 ** attempt)
                time.sleep(delay * (0.5 + random.random() / 2))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_text_once(self, path: str, params: dict | None) -> str:
        url = self.base_url + path
        if params:
            url += "?" + urlencode(params)
        try:
            with urlrequest.urlopen(url, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urlerror.HTTPError as error:
            try:
                message = json.loads(error.read().decode("utf-8")).get(
                    "error", str(error)
                )
            except (ValueError, OSError):
                message = str(error)
            raise ServiceError(message, status=error.code) from None
        except urlerror.URLError as error:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {error.reason}"
            ) from None
        except (ConnectionResetError, ConnectionRefusedError) as error:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {error}"
            ) from None

    # -- the three problems ---------------------------------------------------
    def sat(self, db: str) -> Fraction:
        """Pr(P ⊨ C) of the stored PXDB, exact."""
        return Fraction(self.sat_info(db)["constraint_probability"])

    def sat_info(self, db: str) -> dict:
        return self._request("/sat", {"db": db})

    def query(self, db: str, query: str) -> dict[tuple, Fraction]:
        """Per-answer probabilities keyed by label tuples, exact — the
        same shape as ``PXDB.query_labels``."""
        return {
            tuple(row["answer"]): Fraction(row["probability"])
            for row in self.query_info(db, query)["answers"]
        }

    def query_info(self, db: str, query: str) -> dict:
        return self._request("/query", {"db": db, "query": query})

    def topk(self, db: str, query: str, k: int = 10) -> dict[tuple, Fraction]:
        """The ``k`` most probable answers of ``query``, exact — same
        shape as :meth:`query`, truncated after the probability sort."""
        return {
            tuple(row["answer"]): Fraction(row["probability"])
            for row in self.topk_info(db, query, k)["answers"]
        }

    def topk_info(self, db: str, query: str, k: int = 10) -> dict:
        return self._request("/topk", {"db": db, "query": query, "k": k})

    def sample(self, db: str, count: int = 1, seed: int | None = None) -> list[str]:
        """``count`` sampled documents as XML strings (deterministic given
        ``seed`` — identical to ``PXDB.sample(random.Random(seed))``)."""
        body = self._request(
            "/sample", {"db": db, "count": count, "seed": seed},
            idempotent=False,
        )
        return body["documents"]

    def approx(
        self,
        db: str,
        event: str,
        *,
        epsilon: float | None = None,
        delta: float | None = None,
        max_samples: int | None = None,
        seed: int | None = None,
        rule: str | None = None,
    ) -> dict:
        """A certified Monte-Carlo estimate of an aggregate event (the
        ``/approx`` route): the payload carries ``estimate``, the
        confidence ``interval`` [lo, hi], ``n_samples`` and the echoed
        ``seed`` — pass the same seed to reproduce the answer exactly."""
        body = {
            "db": db,
            "event": event,
            "epsilon": epsilon,
            "delta": delta,
            "max_samples": max_samples,
            "seed": seed,
            "rule": rule,
        }
        return self._request(
            "/approx",
            {key: value for key, value in body.items() if value is not None},
            idempotent=False,
        )

    def check(self, db: str, document_xml: str) -> dict:
        return self._request("/check", {"db": db, "document": document_xml})

    def sweep(self, db: str, bindings, pattern: str | None = None) -> dict:
        """Batched parameter sweep: ``bindings`` is a list of parameter
        vectors (numbers or fraction strings, canonical slot order); the
        response carries per-binding ``constraint_probability`` (and
        ``event_probability`` when a Boolean ``pattern`` is given)."""
        body: dict = {"db": db, "bindings": [list(map(str, row)) for row in bindings]}
        if pattern is not None:
            body["pattern"] = pattern
        return self._request("/sweep", body)

    # -- management -----------------------------------------------------------
    def register(self, name: str, pdocument_path: str,
                 constraints_path: str | None = None) -> dict:
        return self._request(
            "/register",
            {
                "name": name,
                "pdocument": str(pdocument_path),
                "constraints": (
                    str(constraints_path) if constraints_path is not None else None
                ),
            },
        )

    def stats(self) -> dict:
        return self._request("/stats")

    def metrics(self) -> dict:
        return self._request("/metrics")

    def health(self) -> bool:
        return self._request("/health").get("status") == "ok"

    def health_info(self) -> dict:
        """The full /health payload (status, version, tracing flag)."""
        return self._request("/health")

    # -- cost observatory -----------------------------------------------------
    def costs(self) -> dict:
        """The /costs payload: per-(route, db) aggregates plus the most
        expensive entries and requests."""
        return self._request("/costs")

    def profile(self, fmt: str = "collapsed"):
        """The cumulative span-folded profile — a collapsed-stack string
        when ``fmt`` is ``"collapsed"`` (flamegraph-compatible), the JSON
        payload otherwise."""
        params = {"format": fmt}
        if fmt == "collapsed":
            return self._request_text("/profile", params)
        return self._request("/profile", params)

    # -- tracing --------------------------------------------------------------
    def trace(self, trace_id: str) -> dict:
        """One recorded trace: flat ``spans`` plus the nested ``tree``."""
        return self._request(f"/trace/{trace_id}")

    def traces(self, slow_ms: float = 0.0, limit: int = 50) -> list[dict]:
        """Recent root-span summaries, slowest first."""
        return self._request(
            "/traces", params={"slow_ms": slow_ms, "limit": limit}
        )["traces"]
