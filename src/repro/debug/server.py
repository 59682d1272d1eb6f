"""The debug-server entry point: ``python -m repro.debug.server``.

Two transports, one wire format (newline-delimited JSON-RPC 2.0):

- **stdio** (default): requests on stdin, responses on stdout — the
  mode an MCP-style tool host or a supervising agent uses, one server
  per conversation;
- **TCP** (``--port N``): a threaded server accepting any number of
  concurrent clients on ``--host`` (default 127.0.0.1).  All clients
  share one :class:`~repro.debug.service.DebugService`, so a session
  created on one connection can be driven from another — and two
  sessions never share simulator state regardless of which connection
  created them.

Malformed input never kills the server: parse errors, bad envelopes,
unknown methods, and method failures all come back as JSON-RPC error
objects on the same line-oriented channel.  Nor does *hostile* input:
request lines are read with a byte bound (``--max-request-bytes``) —
an oversized line is drained and answered with ``-32600`` instead of
being buffered without limit — and batch arrays are capped at
:data:`MAX_BATCH_ITEMS` requests.  ``--session-ttl`` /
``--session-idle`` bound session lifetimes so abandoned clients cannot
leak simulators (see :class:`~repro.debug.service.DebugService`).

``SIGTERM`` drains gracefully on both transports: in-flight work
finishes, every session is closed (detaching its EDB), and the process
exits 0 — the supervisor-friendly sibling of Ctrl-C.

``--port 0`` binds an ephemeral port; the server always announces
``EDB debug server listening on HOST:PORT`` on stderr (and flushes), so
spawning tooling can scrape the bound address.
"""

from __future__ import annotations

import argparse
import signal
import socketserver
import sys
import threading
from typing import Any, Callable, TextIO

from repro.debug import protocol
from repro.debug.errors import InternalError, InvalidRequest, RpcError
from repro.debug.service import DebugService

#: Request-line byte bound.  A line longer than this is not a debugging
#: workload — it is a bug or an attack — and gets ``-32600`` instead of
#: an unbounded buffer.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: Most requests a single batch array may carry.
MAX_BATCH_ITEMS = 64


def handle_decoded(service: DebugService, decoded: Any) -> Any | None:
    """Execute one decoded wire message (request or batch).

    Returns the response object, a batch of responses, or ``None`` when
    nothing must be sent (a lone notification, or an empty batch of
    notifications — note an *empty array* is an invalid request per the
    JSON-RPC spec and gets an error).
    """
    if isinstance(decoded, list):
        if not decoded:
            return protocol.error_response(
                None, protocol.InvalidRequest("empty batch")
            )
        if len(decoded) > MAX_BATCH_ITEMS:
            return protocol.error_response(
                None,
                protocol.InvalidRequest(
                    f"batch of {len(decoded)} requests exceeds the "
                    f"{MAX_BATCH_ITEMS}-request limit"
                ),
            )
        responses = [
            r for r in (_handle_one(service, item) for item in decoded) if r
        ]
        return responses or None
    return _handle_one(service, decoded)


def _handle_one(service: DebugService, obj: Any) -> dict | None:
    try:
        request = protocol.parse_request(obj)
    except RpcError as exc:
        request_id = obj.get("id") if isinstance(obj, dict) else None
        return protocol.error_response(request_id, exc)
    try:
        result = service.dispatch(request.method, dict(request.params))
    except RpcError as exc:
        return (
            None
            if request.is_notification
            else protocol.error_response(request.id, exc)
        )
    except Exception as exc:  # noqa: BLE001 - absolute backstop
        return (
            None
            if request.is_notification
            else protocol.error_response(
                request.id, InternalError(f"{type(exc).__name__}: {exc}")
            )
        )
    if request.is_notification:
        return None
    return protocol.result_response(request.id, result)


def handle_line(service: DebugService, line: str) -> str | None:
    """One wire line in, zero or one wire lines out."""
    line = line.strip()
    if not line:
        return None
    try:
        decoded = protocol.decode_line(line)
    except RpcError as exc:
        return protocol.encode(protocol.error_response(None, exc))
    response = handle_decoded(service, decoded)
    return protocol.encode(response) if response is not None else None


def read_bounded(readline: Callable[[int], Any], limit: int):
    """One newline-delimited record through a byte-bounded ``readline``.

    Returns ``(record, oversized)``: ``record`` is ``None`` at EOF;
    ``oversized`` is True when the record exceeded ``limit`` — the
    over-long record is **drained** (read and discarded up to its
    newline, in ``limit``-sized slices that are never accumulated) so
    the line framing recovers and the connection can keep being served.
    Works for both text and binary streams.
    """
    record = readline(limit)
    if not record:
        return None, False
    newline = "\n" if isinstance(record, str) else b"\n"
    if record.endswith(newline) or len(record) < limit:
        return record, False
    while True:  # drain without buffering
        chunk = readline(limit)
        if not chunk or chunk.endswith(newline):
            return record, True


def oversized_response(limit: int) -> str:
    """The wire line answering a request that blew the byte bound."""
    return protocol.encode(
        protocol.error_response(
            None,
            InvalidRequest(f"request line exceeds {limit} bytes"),
        )
    )


class _GracefulExit(Exception):
    """Raised by the stdio SIGTERM handler to unwind the read loop."""


def _install_sigterm(handler) -> Any:
    """Install a SIGTERM handler if possible; returns the old one.

    Signal handlers only work in the main thread (and not at all on
    some embedders); everywhere else the server simply has no graceful
    SIGTERM path, which is also what it had before.
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    try:
        return signal.signal(signal.SIGTERM, handler)
    except (ValueError, OSError, AttributeError):
        return None


def _restore_sigterm(old) -> None:
    if old is not None:
        try:
            signal.signal(signal.SIGTERM, old)
        except (ValueError, OSError):
            pass


def serve_stdio(
    service: DebugService,
    in_stream: TextIO | None = None,
    out_stream: TextIO | None = None,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
) -> None:
    """Serve newline-delimited JSON-RPC until EOF (or SIGTERM) on stdin."""
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout

    def on_sigterm(signum, frame):
        raise _GracefulExit

    old_handler = _install_sigterm(on_sigterm)
    try:
        while True:
            line, oversized = read_bounded(
                in_stream.readline, max_request_bytes
            )
            if line is None:
                break
            response = (
                oversized_response(max_request_bytes)
                if oversized
                else handle_line(service, line)
            )
            if response is not None:
                out_stream.write(response)
                out_stream.flush()
    except _GracefulExit:
        pass
    finally:
        _restore_sigterm(old_handler)
        service.close_all()


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: DebugService = self.server.service  # type: ignore[attr-defined]
        limit: int = getattr(
            self.server, "max_request_bytes", DEFAULT_MAX_REQUEST_BYTES
        )
        while True:
            raw, oversized = read_bounded(self.rfile.readline, limit)
            if raw is None:
                return  # client hung up
            if oversized:
                response: str | None = oversized_response(limit)
            else:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    line = raw.decode("utf-8", errors="replace")
                response = handle_line(service, line)
            if response is not None:
                try:
                    self.wfile.write(response.encode("utf-8"))
                    self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    return


class DebugTCPServer(socketserver.ThreadingTCPServer):
    """Threaded line-oriented JSON-RPC server over one shared service."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: DebugService,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.max_request_bytes = max_request_bytes


def serve_tcp(
    service: DebugService,
    host: str,
    port: int,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
) -> None:
    """Serve TCP clients until Ctrl-C or SIGTERM (both drain cleanly)."""
    with DebugTCPServer((host, port), service, max_request_bytes) as server:
        bound_host, bound_port = server.server_address[:2]
        print(
            f"EDB debug server listening on {bound_host}:{bound_port}",
            file=sys.stderr,
            flush=True,
        )

        def on_sigterm(signum, frame):
            # shutdown() blocks until the serve loop exits, and the
            # handler runs *in* the serving thread — hand it off.
            threading.Thread(target=server.shutdown, daemon=True).start()

        old_handler = _install_sigterm(on_sigterm)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            _restore_sigterm(old_handler)
            service.close_all()


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.debug.server`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.debug.server",
        description=(
            "JSON-RPC 2.0 debug server over the simulated EDB "
            "(newline-delimited JSON; stdio by default, TCP with --port)"
        ),
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve TCP on this port (0 = ephemeral) instead of stdio",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default loopback)"
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="cap on concurrently open sessions",
    )
    parser.add_argument(
        "--max-request-bytes",
        type=int,
        default=DEFAULT_MAX_REQUEST_BYTES,
        help="byte bound on one request line; longer lines are drained "
        "and answered with -32600 (default: %(default)s)",
    )
    parser.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="reap sessions older than this, however busy (default: never)",
    )
    parser.add_argument(
        "--session-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="reap sessions unused for this long (default: never)",
    )
    return parser


def main(argv: list[str] | None = None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_request_bytes < 2:
        parser.error("--max-request-bytes must be >= 2")
    service = DebugService(
        **(
            {"max_sessions": args.max_sessions}
            if args.max_sessions
            else {}
        ),
        session_ttl_s=args.session_ttl,
        session_idle_s=args.session_idle,
    )
    if args.port is None:
        serve_stdio(service, max_request_bytes=args.max_request_bytes)
    else:
        serve_tcp(
            service,
            args.host,
            args.port,
            max_request_bytes=args.max_request_bytes,
        )


if __name__ == "__main__":
    main()
