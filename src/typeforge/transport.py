"""Two-party message transports and single-repetition ping-pong operations.

Endpoints exchange length-prefixed messages ([u64 little-endian length]
[payload]) over one of two carriers:

* inmem: a pair of queues between two threads of one process.
* tcp: a loopback socket, one process (or thread) on each side.

A ping-pong repetition is strictly sequential, so in-memory payloads are
handed over by reference without copying; the receiving side always copies
into its own region, which is the cost a real receive pays.

A typed message (`Endpoint.send_typed`/`recv_typed`) travels as packed
bytes on tcp.  On inmem, when the sending engine can be copied from
straight across (it has a `copy_key`: an interpreted engine, or a
compiled program of pieces), it is a reference to the sender's
(engine, region): the receiving engine copies the layout's bytes from
that region into its own (`unpack_from`), in one pass when it has the same
key, as an intra-node library's single-copy path reads the sender's buffer
through the sender's datatype.  Any other typed message (a compiled view
or gather) is packed by its sender, as on tcp.
The reference is valid until the sender's next operation on that region.
Ping-pong alternation guarantees the receiver has copied before then: the
sender waits for the reply before it touches the region again, and so it
is when the harness shares one region between cases.  A plain `recv_msg`
that meets a typed message returns the bytes the sender would have packed,
so raw and byte-level receivers see the packed payload.
"""

from __future__ import annotations

import socket
import struct
import time
from queue import SimpleQueue
from typing import NamedTuple

from .packer import _Engine, make_engine
from .typecore import CommittedType, Datatype

_HEADER = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_MAX_REASONABLE = 1 << 40


class TransportUnavailable(OSError):
    """Raised when a carrier cannot be set up (bind/connect failure)."""


class PeerClosed(ConnectionError):
    """Raised when the other party went away mid-conversation."""


class Endpoint:
    """One side of a two-party channel.  `peer_id` names the role this
    side plays ("ping" initiates, "pong" echoes)."""

    kind: str
    peer_id: str

    def send_msg(self, payload) -> None:
        raise NotImplementedError

    def recv_msg(self, limit: int | None = None):
        """The next message.  A frame announcing more than `limit` bytes
        (by default a sanity cap of 1 TiB) raises PeerClosed before any
        buffer is allocated for it."""
        raise NotImplementedError

    def send_typed(self, eng: _Engine, region) -> None:
        """Send the payload `eng` describes in `region`: its packed bytes."""
        self.send_msg(eng.pack_message(region))

    def recv_typed(self, eng: _Engine, region) -> None:
        """Receive a payload of `eng`'s size into `region` through `eng`."""
        eng.unpack_message(self.recv_msg(eng.total_bytes), region)

    def close(self) -> None:
        raise NotImplementedError

    def barrier(self) -> None:
        """1-byte exchange; returns once both sides arrived."""
        self.send_msg(b"\x01")
        self.recv_msg(1)

    def exchange_f64(self, value: float) -> float:
        self.send_msg(_F64.pack(value))
        return _F64.unpack(bytes(self.recv_msg(_F64.size)))[0]


def _check_length(length: int, limit: int | None) -> None:
    cap = _MAX_REASONABLE if limit is None else limit
    if length > cap:
        raise PeerClosed(f"frame announces {length} bytes, at most {cap} expected")


def _recv_bounded(ep, limit: int):
    """`ep.recv_msg(limit)`; a stand-in endpoint that is not an Endpoint (a
    proxy that records calls, say) is asked without a bound, as before
    bounds existed."""
    return ep.recv_msg(limit) if isinstance(ep, Endpoint) else ep.recv_msg()


_CLOSED = object()


class _TypedRef(NamedTuple):
    """An inmem typed message: the sender's engine and region, read by the
    receiver in place of a packed payload."""

    engine: _Engine
    region: object


class InMemEndpoint(Endpoint):
    kind = "inmem"

    def __init__(self, peer_id: str, rx: SimpleQueue, tx: SimpleQueue):
        self.peer_id = peer_id
        self._rx = rx
        self._tx = tx
        self._open = True

    def _put(self, length: int, payload) -> None:
        if not self._open:
            raise PeerClosed("endpoint is closed")
        self._tx.put(_HEADER.pack(length))
        self._tx.put(payload)

    def _get(self, limit: int | None):
        header = self._rx.get()
        if header is _CLOSED:
            raise PeerClosed("peer closed the channel")
        (length,) = _HEADER.unpack(header)
        _check_length(length, limit)
        payload = self._rx.get()
        if payload is _CLOSED:
            raise PeerClosed("peer closed the channel mid-message")
        if not isinstance(payload, _TypedRef) and len(payload) != length:
            raise PeerClosed(f"framing error: announced {length}, got {len(payload)}")
        return payload

    def send_msg(self, payload) -> None:
        self._put(len(payload), payload)

    def recv_msg(self, limit: int | None = None):
        """The next message; a typed one arrives as the bytes its sender
        would have packed."""
        payload = self._get(limit)
        if isinstance(payload, _TypedRef):
            return payload.engine.pack_message(payload.region)
        return payload

    def send_typed(self, eng: _Engine, region) -> None:
        """Queue a reference to (`eng`, `region`), copying nothing, when a
        receiver may copy straight from it; else the packed payload."""
        if eng.copy_key is None:
            super().send_typed(eng, region)
        else:
            self._put(eng.total_bytes, _TypedRef(eng, region))

    def recv_typed(self, eng: _Engine, region) -> None:
        """Copy a typed message straight from the sender's region into
        `region` (`eng.unpack_from`); unpack a packed one."""
        payload = self._get(eng.total_bytes)
        if isinstance(payload, _TypedRef):
            eng.unpack_from(payload.engine, payload.region, region)
        else:
            eng.unpack_message(payload, region)

    def close(self) -> None:
        if self._open:
            self._open = False
            self._tx.put(_CLOSED)


class TcpEndpoint(Endpoint):
    kind = "tcp"

    def __init__(self, peer_id: str, sock: socket.socket):
        self.peer_id = peer_id
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send_msg(self, payload) -> None:
        """Header and payload in one `sendmsg`; a partial send goes on with
        the unsent remainder."""
        header = _HEADER.pack(len(payload))
        try:
            sent = self._sock.sendmsg([header, payload])
            if sent < len(header) + len(payload):
                self._send_rest([memoryview(header), memoryview(payload).cast("B")], sent)
        except OSError as exc:
            raise PeerClosed(f"send failed: {exc}") from exc

    def _send_rest(self, parts: list, sent: int) -> None:
        """Send what is left of `parts` after the first `sent` bytes."""
        while parts:
            while parts and sent >= len(parts[0]):
                sent -= len(parts[0])
                del parts[0]
            if parts:
                parts[0] = parts[0][sent:]
                sent = self._sock.sendmsg(parts)

    def _recv_exact(self, n: int) -> bytearray:
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv_into(view[got:], n - got)
            except (ConnectionResetError, OSError) as exc:
                raise PeerClosed(f"recv failed: {exc}") from exc
            if chunk == 0:
                raise PeerClosed("peer closed the connection")
            got += chunk
        return buf

    def recv_msg(self, limit: int | None = None):
        (length,) = _HEADER.unpack(bytes(self._recv_exact(8)))
        _check_length(length, limit)
        return self._recv_exact(length)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


TRANSPORTS = (InMemEndpoint.kind, TcpEndpoint.kind)


def make_pair(kind: str) -> tuple[Endpoint, Endpoint]:
    """Connected (ping, pong) endpoints within this process."""
    if kind not in TRANSPORTS:
        raise TransportUnavailable(
            f"unknown transport kind {kind!r}; expected one of {TRANSPORTS}")
    if kind == "inmem":
        a_to_b: SimpleQueue = SimpleQueue()
        b_to_a: SimpleQueue = SimpleQueue()
        return (
            InMemEndpoint("ping", rx=b_to_a, tx=a_to_b),
            InMemEndpoint("pong", rx=a_to_b, tx=b_to_a),
        )
    listener, port = tcp_listener()
    try:
        client = tcp_connect(port, peer_id="pong")
        server = tcp_accept(listener, peer_id="ping")
    finally:
        listener.close()
    return server, client


def tcp_listener(host: str = "127.0.0.1") -> tuple[socket.socket, int]:
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind((host, 0))
        sock.listen(1)
    except OSError as exc:
        raise TransportUnavailable(f"cannot listen on {host}: {exc}") from exc
    return sock, sock.getsockname()[1]


def tcp_accept(listener: socket.socket, peer_id: str, timeout: float = 30.0) -> TcpEndpoint:
    listener.settimeout(timeout)
    try:
        conn, _ = listener.accept()
    except (socket.timeout, OSError) as exc:
        raise TransportUnavailable(f"accept failed: {exc}") from exc
    return TcpEndpoint(peer_id, conn)


def tcp_connect(port: int, peer_id: str, host: str = "127.0.0.1", timeout: float = 30.0) -> TcpEndpoint:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
    except OSError as exc:
        raise TransportUnavailable(f"cannot connect to {host}:{port}: {exc}") from exc
    return TcpEndpoint(peer_id, sock)


# --- single-repetition ping-pong operations -----------------------------
#
# Each returns the caller's locally timed wall-clock seconds for one round
# trip.  The harness runs one of these on each side, then takes the
# maximum of the two local times.
#
# A typed round trip leaves the carrier to move the payload
# (`Endpoint.send_typed`/`recv_typed`): over tcp that is still a pack, a
# send of the packed bytes, a receive and an unpack, but over inmem the
# receiver copies from the sender's region in one pass, for the
# interpreted engine (one tree walk per direction) and for compiled
# programs of pieces.  A packed round trip is the explicit
# MPI_Pack path on every carrier: pack into a fresh buffer, send those
# bytes, receive them, unpack.  So G2/G3 compare two different paths on
# inmem for those engines, and the same one elsewhere.  An engine may send
# straight from the region: the compiled engine does so for a contiguous
# layout.


def pingpong_typed(
    ep: Endpoint,
    t: Datatype | CommittedType,
    count: int,
    region,
    engine="interpreted",
    clock=time.perf_counter,
) -> float:
    """One round trip sending `count` instances as the datatype describes.

    Initiator: send typed, receive typed.
    Echoer: receive typed, send typed.
    A stand-in endpoint or engine (a proxy that records calls, say) takes
    the packed round trip, whose calls it knows.
    """
    eng = make_engine(engine, t, count) if isinstance(engine, str) else engine
    if not (isinstance(ep, Endpoint) and isinstance(eng, _Engine)):
        return pingpong_packed(ep, t, count, region, eng, clock)
    start = clock()
    if ep.peer_id == "ping":
        ep.send_typed(eng, region)
        ep.recv_typed(eng, region)
    else:
        ep.recv_typed(eng, region)
        ep.send_typed(eng, region)
    return clock() - start


def pingpong_packed(
    ep: Endpoint,
    t: Datatype | CommittedType,
    count: int,
    region,
    engine="interpreted",
    clock=time.perf_counter,
) -> float:
    """One round trip through explicit pack and unpack calls.

    Initiator: pack, send the packed bytes, receive, unpack.
    Echoer: receive, unpack, pack, send.
    """
    eng = make_engine(engine, t, count) if isinstance(engine, str) else engine
    start = clock()
    if ep.peer_id == "ping":
        ep.send_msg(eng.pack_message(region))
        eng.unpack_message(_recv_bounded(ep, eng.total_bytes), region)
    else:
        eng.unpack_message(_recv_bounded(ep, eng.total_bytes), region)
        ep.send_msg(eng.pack_message(region))
    return clock() - start


def pingpong_raw(ep: Endpoint, region, clock=time.perf_counter) -> float:
    """One round trip of the bare region bytes, no datatype involved.  The
    region travels as bytes, whatever its element type, so the frame
    header, the receive bound and the copy back all count the same bytes."""
    start = clock()
    buf = memoryview(region).cast("B")
    if ep.peer_id == "ping":
        ep.send_msg(buf)
        data = _recv_bounded(ep, buf.nbytes)
        buf[: len(data)] = data
    else:
        data = _recv_bounded(ep, buf.nbytes)
        buf[: len(data)] = data
        ep.send_msg(buf)
    return clock() - start
