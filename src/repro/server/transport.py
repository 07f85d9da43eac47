"""The network transport of the HTTP front-end.

``asyncio.start_server`` with a minimal HTTP/1.1 codec (one exchange per
connection), run on a dedicated event-loop thread so :func:`start_server`
works from synchronous callers (tests, the CLI, the load generator).  Every
request goes through :meth:`~repro.server.core.ServerCore.handle`; this
module only moves bytes.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .core import ServerCore

__all__ = ["ServerHandle", "start_server"]

_MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass
class ServerHandle:
    """A running server: address, core (for stats) and a stop switch."""

    core: ServerCore
    host: str
    port: int
    _stop: Callable[[], None] = field(repr=False, default=lambda: None)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        self._stop()


async def _serve_connection(
    core: ServerCore, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """One HTTP/1.1 exchange over the asyncio transport (close after answer)."""
    try:
        request_line = await reader.readline()
        if not request_line:
            return
        try:
            method, path, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            writer.write(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            return
        content_length = 0
        request_headers: dict = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            request_headers[name.strip().lower()] = value.strip()
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if content_length > _MAX_BODY_BYTES:
            writer.write(b"HTTP/1.1 413 Payload Too Large\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            return
        body = await reader.readexactly(content_length) if content_length else b""
        status, extra_headers, payload = await core.handle(
            method, path, body, headers=request_headers
        )
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 429: "Too Many Requests",
                  500: "Internal Server Error",
                  503: "Service Unavailable",
                  504: "Gateway Timeout"}.get(status, "OK")
        # The handler may override Content-Type (/metrics serves Prometheus
        # text); everything else is JSON.
        content_type = extra_headers.pop("Content-Type", "application/json")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        headers.extend(f"{name}: {value}" for name, value in extra_headers.items())
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + payload)
        await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _start_asyncio(core: ServerCore, host: str, port: int):
    """Run ``asyncio.start_server`` on a dedicated event-loop thread."""
    ready = threading.Event()
    bound = {}
    stop_event: dict = {}

    async def main() -> None:
        await core.startup()
        stop_event["event"] = asyncio.Event()
        stop_event["loop"] = asyncio.get_running_loop()
        server = await asyncio.start_server(
            lambda r, w: _serve_connection(core, r, w), host, port
        )
        bound["port"] = server.sockets[0].getsockname()[1]
        ready.set()
        try:
            async with server:
                await stop_event["event"].wait()
        finally:
            await core.shutdown()

    thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("asyncio transport failed to start within 30s")

    def stop() -> None:
        loop = stop_event.get("loop")
        event = stop_event.get("event")
        if loop is not None and event is not None and not loop.is_closed():
            loop.call_soon_threadsafe(event.set)
        thread.join(timeout=10)

    return bound["port"], stop


def start_server(
    service: Optional[Any] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **core_options: Any,
) -> ServerHandle:
    """Start an HTTP front-end; returns a :class:`ServerHandle` (``port=0`` ⇒ ephemeral).

    Every keyword besides ``host`` and ``port`` goes to
    :class:`~repro.server.core.ServerCore`, which owns the defaults.

    The caller owns the handle: ``handle.stop()`` tears the transport and the
    core down.
    """
    core = ServerCore(service, **core_options)
    bound_port, stop = _start_asyncio(core, host, port)
    return ServerHandle(core=core, host=host, port=bound_port, _stop=stop)
