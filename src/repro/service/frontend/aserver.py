"""The asyncio HTTP front end: many connections, few threads.

Connections are accepted on a single event loop, which parses HTTP into
(route, params) and runs the transport-agnostic
:func:`repro.service.server.dispatch_route` on the default executor —
one path and one error contract for every route.  Concurrent asks of one
query text share one evaluation through the entry's single-flight
result cache (:meth:`repro.service.store.StoreEntry.cached_or_compute`).

Connections follow the HTTP/1.1 persistence rules: an HTTP/1.1
connection stays open unless the client sends ``Connection: close``, an
HTTP/1.0 one only when it sends ``Connection: keep-alive``.  On stop the
front end answers every request already read before the service drains
the pool, and closes each connection after its response.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from urllib.parse import parse_qs, urlparse

from ...obs.logs import get_logger
from ..server import PXDBService, dispatch_route, text_content_type, wants_prometheus

_log = get_logger("service.aserver")

_MAX_HEAD_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _BadRequest(Exception):
    """Malformed HTTP — answer 400 and drop the connection."""


def _encode_response(
    status: int, body: bytes, content_type: str, keep_alive: bool
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Server: PXDBService/1.0 (async)\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def _read_request(reader: asyncio.StreamReader):
    """One parsed request: (method, target, keep_alive, headers, body) —
    or ``None`` on a clean end-of-stream between keep-alive requests."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise _BadRequest("truncated request head") from error
    except asyncio.LimitOverrunError as error:
        raise _BadRequest("request head too large") from error
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) < 3:
        raise _BadRequest(f"malformed request line: {lines[0]!r}")
    method, target = parts[0], parts[1]
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise _BadRequest(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError as error:
        raise _BadRequest("malformed Content-Length") from error
    if length < 0 or length > _MAX_BODY_BYTES:
        raise _BadRequest("request body too large")
    body = await reader.readexactly(length) if length else b""
    tokens = {token.strip().lower() for token in headers.get("connection", "").split(",")}
    if parts[2] == "HTTP/1.0":
        keep_alive = "keep-alive" in tokens
    else:
        keep_alive = "close" not in tokens
    return method, target, keep_alive, headers, body


class AsyncHTTPFrontend:
    """Connection/request handling over one :class:`PXDBService`."""

    def __init__(self, service: PXDBService, *, verbose: bool = False):
        self.service = service
        self.verbose = verbose
        # One future per request read but not yet answered; stopping
        # waits on them (see drain) and answers with Connection: close.
        self._inflight: set[asyncio.Future] = set()
        self.closing = False

    async def drain(self, timeout: float) -> None:
        """Wait (at most ``timeout`` seconds) until every request read so
        far has been answered."""
        if self._inflight:
            await asyncio.wait(set(self._inflight), timeout=timeout)

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as error:
                    body = json.dumps({"ok": False, "error": str(error)})
                    writer.write(
                        _encode_response(
                            400, body.encode("utf-8"), "application/json", False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, keep_alive, headers, body = request
                answered = asyncio.get_running_loop().create_future()
                self._inflight.add(answered)
                try:
                    status, payload = await self._handle_request(
                        method, target, headers, body
                    )
                    keep_alive = keep_alive and not self.closing
                    if isinstance(payload, str):
                        data = _encode_response(
                            status,
                            payload.encode("utf-8"),
                            text_content_type(urlparse(target).path),
                            keep_alive,
                        )
                    else:
                        data = _encode_response(
                            status,
                            json.dumps(payload).encode("utf-8"),
                            "application/json",
                            keep_alive,
                        )
                    writer.write(data)
                    await writer.drain()
                finally:
                    self._inflight.discard(answered)
                    answered.set_result(None)
                if self.verbose:
                    _log.info(
                        "request", extra={"target": target, "status": status}
                    )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away (or server stopping) mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_request(
        self, method: str, target: str, headers: dict, body: bytes
    ) -> tuple[int, dict | str]:
        parsed = urlparse(target)
        route = parsed.path
        if method == "GET":
            params = {
                key: values[-1] for key, values in parse_qs(parsed.query).items()
            }
        elif method == "POST":
            try:
                params = json.loads(body) if body else {}
                if not isinstance(params, dict):
                    raise ValueError("request body must be a JSON object")
            except json.JSONDecodeError as error:
                return 400, {"ok": False, "error": f"invalid JSON body: {error}"}
            except ValueError as error:
                return 400, {"ok": False, "error": str(error)}
        else:
            return 405, {"ok": False, "error": f"unsupported method: {method}"}

        prometheus = route == "/metrics" and wants_prometheus(
            params, headers.get("accept")
        )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            lambda: dispatch_route(
                self.service, route, params, prometheus=prometheus
            ),
        )


async def _serve(
    service: PXDBService,
    host: str,
    port: int,
    *,
    verbose: bool = False,
    drain_timeout: float = 5.0,
    on_bound=None,
    install_signals: bool = False,
    handle: "AsyncServerHandle | None" = None,
) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    frontend = AsyncHTTPFrontend(service, verbose=verbose)
    server = await asyncio.start_server(
        frontend.handle_connection, host, port, limit=_MAX_HEAD_BYTES
    )
    address = server.sockets[0].getsockname()[:2]
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / platform without loop signals
    if handle is not None:
        handle._bind(loop, stop, address)
    _log.info("serving", extra={"host": address[0], "port": address[1]})
    if on_bound is not None:
        on_bound(address)
    try:
        await stop.wait()
    finally:
        server.close()
        frontend.closing = True
        # wait_closed does not wait for open connections: answer every
        # request already read before the loop shuts down and cancels
        # their handlers.
        await frontend.drain(drain_timeout)
        await server.wait_closed()
        # The pool quiesce blocks: keep it off the loop thread.
        await loop.run_in_executor(None, service.drain, drain_timeout)


def serve_async(
    service: PXDBService,
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    verbose: bool = False,
    drain_timeout: float = 5.0,
    on_bound=None,
) -> None:
    """Blocking serve loop for ``repro serve``.

    SIGTERM and Ctrl-C both stop it cleanly: stop accepting, answer
    every request already read (at most ``drain_timeout`` seconds), then
    quiesce the worker pool, so a rolling restart never abandons
    accepted requests.
    ``on_bound`` (if given) receives the bound (host, port) before
    serving starts.
    """
    try:
        asyncio.run(
            _serve(
                service,
                host,
                port,
                verbose=verbose,
                drain_timeout=drain_timeout,
                on_bound=on_bound,
                install_signals=True,
            )
        )
    except KeyboardInterrupt:
        pass  # loop signal handler unavailable (e.g. Windows): exit quietly


class AsyncServerHandle:
    """A running async front end on a background thread (tests/benches).

    ``start_async_server`` returns one; read the bound ``address`` and
    call :meth:`stop` when done."""

    def __init__(self):
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    def _bind(self, loop, stop, address) -> None:
        self._loop = loop
        self._stop = stop
        self.address = address
        self._ready.set()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "AsyncServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def start_async_server(
    service: PXDBService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
    drain_timeout: float = 5.0,
) -> AsyncServerHandle:
    """Serve on a daemon thread; returns once the port is bound."""
    handle = AsyncServerHandle()

    def _run() -> None:
        try:
            asyncio.run(
                _serve(
                    service,
                    host,
                    port,
                    verbose=verbose,
                    drain_timeout=drain_timeout,
                    handle=handle,
                )
            )
        except BaseException as error:  # noqa: BLE001 — surface via handle
            handle._error = error
            handle._ready.set()

    handle._thread = threading.Thread(
        target=_run, name="pxdb-aserver", daemon=True
    )
    handle._thread.start()
    handle._ready.wait(timeout=10.0)
    if handle._error is not None:
        raise RuntimeError("async front end failed to start") from handle._error
    if handle.address is None:
        raise RuntimeError("async front end did not bind within 10s")
    return handle
