"""The simulation daemon: asyncio + hand-rolled HTTP/1.1, stdlib only.

:class:`ServiceServer` owns one long-lived
:class:`~repro.core.service.ServiceEngine` and serves it over four
routes:

==================  ===================================================
``POST /simulate``  one spec (``{...}``) or a batch
                    (``{"requests": [...]}``); responds ``{"report":
                    ...}`` / ``{"reports": [...]}``
``GET /healthz``    liveness: ``{"ok": true}`` once the engine answers
``GET /metrics``    the engine's cross-request cache counters plus
                    server totals
``POST /shutdown``  graceful stop (drains in-flight work, then exits)
==================  ===================================================

Concurrency model: every connection is one asyncio task; ``/simulate``
specs become ``(request, future)`` pairs on a queue that a single
dispatcher task drains in micro-batches into the engine's
:meth:`~repro.core.engine.Engine.run_many` (one
:meth:`~repro.core.service.ServiceEngine.run` per spec) on a one-thread
executor.  Concurrent clients therefore *batch* while engine access
stays serialized — the cache needs no locks, and responses stay
bit-identical to sequential direct runs.

Degradation contract: a malformed request is a structured 4xx
(:func:`~repro.serve.protocol.error_body` — type + message, never a
traceback); an engine failure is a structured 500; a request that
exceeds ``timeout`` seconds answers 503 with the PR 4 degradation
vocabulary (``pool-error: TimeoutError: ...``) instead of hanging the
connection.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..core.engine import SimRequest
from ..core.service import ServiceEngine
from .protocol import ProtocolError, build_request, encode_report, error_body

__all__ = ["ServiceServer"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _HTTPError(Exception):
    """An HTTP-layer rejection carrying its status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServiceServer:
    """The long-lived daemon around one :class:`ServiceEngine`.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start` — ``__main__`` prints it).
    engine:
        The warm engine to serve; ``None`` constructs a default
        :class:`~repro.core.service.ServiceEngine`.
    max_batch:
        Most specs one dispatcher micro-batch drains into a single
        ``run_many`` call.
    timeout:
        Per-request seconds before the connection gets a structured
        503 degradation response instead of waiting further.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        engine: Optional[ServiceEngine] = None,
        max_batch: int = 16,
        timeout: Optional[float] = None,
    ):
        self.host = host
        self.port = port
        self.engine = engine if engine is not None else ServiceEngine()
        self.max_batch = max(1, int(max_batch))
        self.timeout = timeout
        self.served = 0
        self.batches = 0
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._algorithms: Dict[Any, Any] = {}

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the dispatcher (idempotent)."""
        if self._server is not None:
            return
        self._queue = asyncio.Queue()
        self._shutdown = asyncio.Event()
        # One worker thread: engine access is serialized by design, so
        # the cross-request cache never needs a lock.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` (or :meth:`request_shutdown`)."""
        await self.start()
        assert self._shutdown is not None
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        """Flag the server to stop after in-flight work drains."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def stop(self) -> None:
        """Close the socket, drain the dispatcher, close the engine."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            except Exception:
                pass
            self._dispatcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.engine.close()

    # -- dispatcher -----------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        queue = self._queue
        loop = asyncio.get_event_loop()
        while True:
            first = await queue.get()
            batch: List[Tuple[SimRequest, asyncio.Future]] = [first]
            while len(batch) < self.max_batch:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            requests = [request for request, _ in batch]
            self.batches += 1
            try:
                reports = await loop.run_in_executor(
                    self._executor, self.engine.run_many, requests
                )
            except Exception as exc:  # engine failure -> every waiter
                for _, future in batch:
                    if not future.done():
                        future.set_exception(exc)
                continue
            for (_, future), report in zip(batch, reports):
                if not future.done():
                    future.set_result(report)

    async def _run_one(self, request: SimRequest) -> Any:
        assert self._queue is not None
        loop = asyncio.get_event_loop()
        future: asyncio.Future = loop.create_future()
        await self._queue.put((request, future))
        if self.timeout is None:
            return await future
        return await asyncio.wait_for(future, self.timeout)

    # -- HTTP layer -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                status, payload = await self._route(method, path, body)
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                await self._write_response(
                    writer, status, payload, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionError, _HTTPError) as exc:
            if isinstance(exc, _HTTPError):
                try:
                    await self._write_response(
                        writer, exc.status, error_body(exc), False
                    )
                except ConnectionError:
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _readline(self, reader: asyncio.StreamReader) -> bytes:
        # StreamReader.readline raises ValueError past its own buffer
        # limit (64 KiB by default); surface that as a structured 431
        # instead of killing the connection task.
        try:
            return await reader.readline()
        except ValueError:
            raise _HTTPError(431, "request line or header too long") from None

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        request_line = await self._readline(reader)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HTTPError(400, f"malformed request line {parts!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        total = len(request_line)
        while True:
            line = await self._readline(reader)
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise _HTTPError(431, "request headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise _HTTPError(413, f"request body of {length} bytes too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
        }.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routes ---------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            if path == "/simulate":
                if method != "POST":
                    return 405, error_body(
                        ProtocolError("/simulate requires POST")
                    )
                return await self._route_simulate(body)
            if path == "/healthz":
                return 200, {"ok": True, "engine": self.engine.name}
            if path == "/metrics":
                info = self.engine.service_info()
                info["served"] = self.served
                info["batches"] = self.batches
                return 200, info
            if path == "/shutdown":
                if method != "POST":
                    return 405, error_body(
                        ProtocolError("/shutdown requires POST")
                    )
                self.request_shutdown()
                return 200, {"ok": True, "shutting_down": True}
            return 404, error_body(ProtocolError(f"unknown path {path!r}"))
        except ProtocolError as exc:
            return 400, error_body(exc)
        except asyncio.TimeoutError as exc:
            reason = (
                f"pool-error: TimeoutError: request exceeded "
                f"{self.timeout}s service timeout"
            )
            return 503, error_body(exc, degraded=reason)
        except Exception as exc:  # structured 500, never a traceback
            return 500, error_body(exc)

    async def _route_simulate(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not JSON: {exc}") from None
        if isinstance(payload, dict) and "requests" in payload:
            specs = payload["requests"]
            if not isinstance(specs, list):
                raise ProtocolError("'requests' must be a list of specs")
            requests = [
                build_request(spec, self.engine, self._algorithms)
                for spec in specs
            ]
            reports = await asyncio.gather(
                *(self._run_one(request) for request in requests)
            )
            self.served += len(reports)
            return 200, {"reports": [encode_report(r) for r in reports]}
        request = build_request(payload, self.engine, self._algorithms)
        report = await self._run_one(request)
        self.served += 1
        return 200, {"report": encode_report(report)}
