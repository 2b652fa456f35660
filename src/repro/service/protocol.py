"""Wire protocol for the campaign service.

Two channels, two encodings:

* the **worker channel** carries pickled engine objects (work items, task
  results, the shipped campaign context) as length-prefixed frames --
  an 8-byte little-endian payload length followed by the pickle bytes;
* the **control channel** carries newline-delimited JSON: one request
  object per line from the client, one (or, for ``attach``, many)
  response objects per line from the daemon.  JSON keeps the control
  plane inspectable with ``nc``/``socat`` and safe to expose beyond the
  local user.

Addresses are written ``unix:/path/to.sock`` or ``tcp:HOST:PORT``; a
bare path is treated as a Unix-domain socket for convenience.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import socket
import struct
import time
from typing import Any, Optional, Tuple

from ..circuit.errors import EngineError

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "connect",
    "create_listener",
    "encode_frame",
    "format_address",
    "parse_address",
    "read_json_line",
    "recv_frame",
    "send_frame",
    "send_json_line",
]

#: Bumped when the frame or control schema changes incompatibly.  Workers
#: and clients send their version in the hello/request; the server side
#: rejects mismatches instead of mis-parsing them.
PROTOCOL_VERSION = 1

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Frame header: payload length as an unsigned 64-bit little-endian int.
_HEADER = struct.Struct("<Q")

#: Upper bound on a single frame, as a guard against a corrupted or
#: malicious header asking us to allocate petabytes.  1 GiB comfortably
#: fits any shipped campaign context seen in practice.
MAX_FRAME_BYTES = 1 << 30


class ProtocolError(EngineError):
    """A malformed or truncated message on a service socket."""


# ---------------------------------------------------------------------------
# Pickle frames (worker channel)
# ---------------------------------------------------------------------------

def encode_frame(obj: Any) -> bytes:
    """Serialize *obj* into a single length-prefixed frame.

    Raises :class:`ProtocolError` when *obj* cannot be pickled -- the
    same contract the pool backends enforce on shipped payloads, surfaced
    as an engine error instead of a raw pickle exception.
    """

    try:
        payload = pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)
    except Exception as exc:
        raise ProtocolError(
            f"cannot pickle service message {type(obj).__name__}: "
            f"{exc}") from exc
    return _HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Pickle *obj* and write it as one frame.

    Callers that share a socket between threads must serialize sends
    themselves (the backend keeps a per-connection send lock).
    """

    sock.sendall(encode_frame(obj))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly *n* bytes.

    Returns None on EOF *before the first byte* (a clean close at a frame
    boundary); raises :class:`ProtocolError` on EOF mid-buffer, which can
    only mean the peer died with a frame half-written.
    """

    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n and not chunks:
                return None
            raise ProtocolError(
                "socket closed mid-frame (%d of %d bytes missing)"
                % (remaining, n)
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Any:
    """Read one frame and unpickle it.

    Returns None when the peer closed the connection cleanly between
    frames.  (None is never a legal frame payload: every service message
    is a tuple.)  Raises :class:`ProtocolError` for truncated frames or
    absurd lengths.
    """

    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame length %d exceeds the %d-byte cap; stream is corrupt"
            % (length, MAX_FRAME_BYTES)
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("socket closed between frame header and payload")
    return pickle.loads(payload)


# ---------------------------------------------------------------------------
# JSON lines (control channel)
# ---------------------------------------------------------------------------

def send_json_line(sock: socket.socket, obj: Any) -> None:
    """Write *obj* as one newline-terminated JSON document."""

    data = json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"
    sock.sendall(data)


def read_json_line(stream) -> Optional[Any]:
    """Read one JSON document from a file-like line stream.

    *stream* is a ``sock.makefile("rb")`` handle.  Returns None on EOF;
    raises :class:`ProtocolError` on undecodable lines.
    """

    line = stream.readline()
    if not line:
        return None
    try:
        return json.loads(line)
    except ValueError as exc:
        raise ProtocolError("undecodable control line: %r" % line[:200]) from exc


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------

def parse_address(spec: str) -> Tuple[int, Any]:
    """Parse ``unix:PATH`` / ``tcp:HOST:PORT`` / bare path into
    ``(family, sockaddr)``."""

    if not isinstance(spec, str) or not spec.strip():
        raise EngineError("empty socket address")
    spec = spec.strip()
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise EngineError("unix: address needs a path")
        return socket.AF_UNIX, path
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not host:
            raise EngineError(
                "tcp: address must be tcp:HOST:PORT, got %r" % spec
            )
        try:
            return socket.AF_INET, (host, int(port))
        except ValueError:
            raise EngineError("tcp: port must be an integer, got %r" % port)
    # Bare path convenience: "run/workers.sock" == "unix:run/workers.sock".
    return socket.AF_UNIX, spec


def format_address(family: int, sockaddr: Any) -> str:
    """Inverse of :func:`parse_address`, for logs and CLI output."""

    if family == socket.AF_UNIX:
        return "unix:%s" % sockaddr
    host, port = sockaddr[0], sockaddr[1]
    return "tcp:%s:%d" % (host, port)


def create_listener(spec: str, backlog: int = 32) -> Tuple[socket.socket, str]:
    """Bind and listen on *spec*.

    Returns ``(listener, resolved_spec)``.  For Unix sockets a stale
    socket file from a dead process is removed before binding (a live
    listener is detected by a successful connect and refused).  For TCP,
    port 0 is resolved to the kernel-assigned port in the returned spec.
    """

    family, sockaddr = parse_address(spec)
    if family == socket.AF_UNIX:
        if os.path.exists(sockaddr):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(sockaddr)
            except OSError:
                os.unlink(sockaddr)  # stale leftover from a dead process
            else:
                probe.close()
                raise EngineError(
                    "address %s is already in use by a live process" % spec
                )
            finally:
                probe.close()
        parent = os.path.dirname(sockaddr)
        if parent:
            os.makedirs(parent, exist_ok=True)
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        if family != socket.AF_UNIX:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(sockaddr)
        sock.listen(backlog)
    except BaseException:
        sock.close()
        raise
    return sock, format_address(family, sock.getsockname())


def connect(
    spec: str,
    timeout: Optional[float] = None,
    retry_for: float = 0.0,
) -> socket.socket:
    """Connect to *spec*, optionally retrying for *retry_for* seconds.

    Retrying covers the worker-starts-before-the-listener race without
    callers hand-rolling sleep loops.  *timeout* applies to the returned
    socket's subsequent blocking calls (None = block forever).
    """

    family, sockaddr = parse_address(spec)
    deadline = time.monotonic() + retry_for
    while True:
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.connect(sockaddr)
        except OSError as exc:
            sock.close()
            transient = exc.errno in (
                errno.ECONNREFUSED, errno.ENOENT, errno.EAGAIN
            )
            if transient and time.monotonic() < deadline:
                time.sleep(0.05)
                continue
            raise EngineError(
                "cannot connect to %s: %s" % (spec, exc)
            ) from exc
        sock.settimeout(timeout)
        return sock
