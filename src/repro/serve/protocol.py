"""The serving wire protocol: line-delimited JSON over a socket.

One request or response per line; every line is one JSON object.  The
format is deliberately boring — any language with sockets and a JSON
parser is a client — and self-framing (``\\n`` terminates a message, and
JSON strings escape embedded newlines, so no length prefixes).

Addresses come in two spellings:

* a filesystem path (contains ``/`` or no ``:``) — a unix domain socket;
* ``host:port`` — localhost TCP (``port 0`` asks the OS for a free one).

Ops (see :mod:`repro.serve.server` for semantics):

=============  ================================================
``ping``       liveness + protocol version
``stats``      store, queue, pool, and server counters
``submit``     single-run or campaign submission, the only way
               into the server's store; with ``wait`` the
               response streams one line per completed run,
               hits first, then ``done``
``subscribe``  stream server obs-bus events until disconnect
``shutdown``   stop the server
=============  ================================================

Every response carries ``"ok"``; failures (an unknown op included)
carry ``"error"`` instead of tearing the connection down.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Optional, Tuple

from ..errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "ServeError",
    "connect",
    "parse_address",
    "recv_message",
    "send_message",
    "server_socket",
]

#: Bumped when a message shape changes incompatibly; ``ping`` reports it.
PROTOCOL_VERSION = 2


class ServeError(ReproError):
    """A serving-protocol, codec, or transport problem."""


def parse_address(address: str) -> Tuple[str, Any]:
    """``("unix", path)`` or ``("tcp", (host, port))`` for an address.

    ``host:port`` (one colon, integer port, no path separator) means
    TCP; everything else is a unix-socket path.
    """
    if not address:
        raise ServeError("empty serve address")
    if ":" in address and "/" not in address:
        host, _, port_text = address.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ServeError(
                f"bad serve address {address!r}: port {port_text!r} "
                f"is not an integer")
        return ("tcp", (host or "127.0.0.1", port))
    return ("unix", address)


def server_socket(address: str, backlog: int = 64) -> Tuple[socket.socket,
                                                            str]:
    """Bind + listen; returns the socket and its *resolved* address
    (TCP port 0 is replaced by the port the OS granted)."""
    kind, value = parse_address(address)
    if kind == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(value)
        resolved = f"{value[0]}:{sock.getsockname()[1]}"
    else:
        import os
        try:
            os.unlink(value)
        except FileNotFoundError:
            pass
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(value)
        resolved = value
    sock.listen(backlog)
    return sock, resolved


def connect(address: str, timeout: Optional[float] = None) -> socket.socket:
    """Dial a serving address (unix path or ``host:port``)."""
    kind, value = parse_address(address)
    if kind == "tcp":
        sock = socket.create_connection(value, timeout=timeout)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(value)
        except BaseException:
            sock.close()
            raise
    return sock


def send_message(sock: socket.socket, message: dict) -> None:
    """One JSON object, one line, flushed to the wire."""
    line = json.dumps(message, sort_keys=True,
                      separators=(",", ":")) + "\n"
    sock.sendall(line.encode())


def recv_message(reader) -> Optional[dict]:
    """The next line-JSON message from a ``socket.makefile`` reader;
    ``None`` on a clean EOF (peer closed)."""
    line = reader.readline()
    if not line:
        return None
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServeError(f"malformed protocol line: {exc}")
    if not isinstance(message, dict):
        raise ServeError(
            f"protocol message must be a JSON object, "
            f"got {type(message).__name__}")
    return message
