"""Two-party message transports and single-repetition ping-pong operations.

Endpoints exchange whole messages over one of two carriers:

* inmem: a pair of queues between two threads of one process, one queue
  item per message, so the queue keeps message boundaries.
* tcp: a loopback socket, one process (or thread) on each side, each
  message framed as [u64 little-endian length][payload].

A ping-pong repetition is strictly sequential, so in-memory payloads are
handed over by reference without copying; the receiving side always copies
into its own region, which is the cost a real receive pays.

A typed message (`Endpoint.send_typed`/`recv_typed`) travels on tcp in
the frame a packed one does, its payload the bytes the engine would pack.
When the engine lists its payload as runs of the region (`_Engine.runs`: a
view is one run, and the engine lists a few runs of any length or more
long ones), the sender gathers the header and the runs into one `sendmsg`
and the receiver scatters the payload straight into them with
`recvmsg_into`, with no payload buffer in between.  The engine keeps the
views of the last region it listed (`_Engine.run_views`), so a message
from or into the region of the one before slices nothing.  Any other typed
message is packed by its sender and received into the endpoint's
receive buffer, which is reused from frame to frame, then unpacked.  Each
tcp receive waits for all the bytes it asks for (MSG_WAITALL), so a payload
that arrives in parts takes one call, not one per part.  A tcp receive
that fails mid-frame may leave part of the payload in the region's
payload bytes, never in its gaps.  On inmem, when the sending
engine can be copied from
straight across (it has a `copy_key`: an interpreted engine, or a
compiled program of pieces), it is a reference to the sender's
(engine, region): the receiving engine copies the layout's bytes from
that region into its own (`unpack_from`), in one pass when it has the same
key, as an intra-node library's single-copy path reads the sender's buffer
through the sender's datatype.  Any other typed message (a compiled view
or gather) is packed by its sender.
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

from .packer import RegionTooSmall, SizeMismatch, _byte_view, _Engine, make_engine
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
        """The next message.  One of more than `limit` bytes (by default a
        sanity cap of 1 TiB) raises PeerClosed; on tcp, before any buffer
        is allocated for it."""
        raise NotImplementedError

    def send_typed(self, eng: _Engine, region) -> None:
        """Send the payload `eng` describes in `region`: its packed bytes."""
        self.send_msg(eng.pack_message(region))

    def recv_typed(self, eng: _Engine, region) -> None:
        """Receive a payload of `eng`'s size into `region` through `eng`."""
        eng.unpack_message(self.recv_msg(eng.total_bytes), region)

    def recv_msg_into(self, buf) -> int:
        """Receive the next message into the start of `buf`, a writable
        byte view, and return its length; a frame longer than `buf` raises
        PeerClosed before anything is received into it."""
        data = self.recv_msg(len(buf))
        buf[: len(data)] = data
        return len(data)

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
        raise PeerClosed(f"message of {length} bytes, at most {cap} expected")


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

    def _put(self, payload) -> None:
        if not self._open:
            raise PeerClosed("endpoint is closed")
        self._tx.put(payload)

    def _get(self, limit: int | None):
        """The next queue item, one whole message: a payload or a
        `_TypedRef`, bounded by its own length."""
        payload = self._rx.get()
        if payload is _CLOSED:
            raise PeerClosed("peer closed the channel")
        _check_length(payload.engine.total_bytes if isinstance(payload, _TypedRef)
                      else len(payload), limit)
        return payload

    def send_msg(self, payload) -> None:
        self._put(payload)

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
            self._put(_TypedRef(eng, region))

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
        self._header = memoryview(bytearray(_HEADER.size))
        # typed messages that do not scatter into their region land here
        # and are unpacked from here; it grows to the longest such frame
        self._rx = bytearray()

    def send_msg(self, payload) -> None:
        """Header and payload in one `sendmsg`."""
        header = _HEADER.pack(len(payload))
        self._send([header, payload], len(header) + len(payload))

    def send_typed(self, eng: _Engine, region) -> None:
        """Header and the region's runs in one `sendmsg` when `eng` lists
        them (`_Engine.runs`); else the packed payload."""
        if eng.runs is not None:
            parts = [_HEADER.pack(eng.total_bytes), *eng.run_views(region)]
        else:
            parts = [_HEADER.pack(eng.total_bytes), eng.pack_message(region)]
        self._send(parts, _HEADER.size + eng.total_bytes)

    def _send(self, parts: list, total: int) -> None:
        """`parts`, `total` bytes, in one `sendmsg`; a partial send goes on
        with the unsent remainder."""
        try:
            sent = self._sock.sendmsg(parts)
            if sent < total:
                self._send_rest([_byte_view(p) for p in parts], sent)
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

    def _fill(self, bufs: list, n: int) -> None:
        """Fill the writable byte views `bufs`, `n` bytes in all, in order
        from the socket, going on across partial receives: `recv_into` the
        last one, `recvmsg_into` any more.  Each call waits for all it is
        given (MSG_WAITALL), so a payload arriving in parts costs one call,
        not one per part; the views never reach past the frame, so it
        never waits for the next."""
        i = 0
        while n:
            try:
                if i == len(bufs) - 1:
                    got = self._sock.recv_into(bufs[i], 0, socket.MSG_WAITALL)
                else:
                    got = self._sock.recvmsg_into(bufs[i:], 0, socket.MSG_WAITALL)[0]
            except OSError as exc:
                raise PeerClosed(f"recv failed: {exc}") from exc
            if got == 0:
                raise PeerClosed("peer closed the connection")
            n -= got
            if n:
                while got >= len(bufs[i]):
                    got -= len(bufs[i])
                    i += 1
                bufs[i] = bufs[i][got:]

    def _recv_exact(self, n: int) -> bytearray:
        buf = bytearray(n)
        self._fill([memoryview(buf)], n)
        return buf

    def _recv_length(self, limit: int | None) -> int:
        """The next frame's payload length, refused above `limit`."""
        self._fill([self._header], _HEADER.size)
        (length,) = _HEADER.unpack(self._header)
        _check_length(length, limit)
        return length

    def recv_msg(self, limit: int | None = None):
        return self._recv_exact(self._recv_length(limit))

    def recv_msg_into(self, buf) -> int:
        view = _byte_view(buf)
        length = self._recv_length(len(view))
        self._fill([view[:length]], length)
        return length

    def recv_typed(self, eng: _Engine, region) -> None:
        """Receive straight into the region's runs when `eng` lists them
        (`_Engine.runs`), else into the endpoint's receive buffer, unpacked
        from there.  A frame of the wrong size, a region short of the
        window or a read-only one raises what the unpack raises, once the
        frame is read, so the next message reads correctly."""
        length = self._recv_length(eng.total_bytes)
        if eng.runs is None:
            if len(self._rx) < length:
                self._rx = bytearray(length)
            data = memoryview(self._rx)[:length]
            self._fill([data], length)
            eng.unpack_message(data, region)
            return
        try:
            views = eng.run_views(region, length)
        except (SizeMismatch, RegionTooSmall, TypeError):
            self._recv_exact(length)
            raise
        self._fill(views, length)

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
# (`Endpoint.send_typed`/`recv_typed`).  Over inmem the receiver copies
# from the sender's region in one pass, for the interpreted engine (one
# tree walk per direction) and for compiled programs of pieces.  Over tcp
# a compiled program of few runs, or of long ones, is gathered from the
# sender's region and scattered into the receiver's, and any other message
# is packed and unpacked through the endpoint's reused receive buffer.  A
# packed round trip is the explicit MPI_Pack path on every carrier: pack
# into a fresh buffer, send those bytes, receive them into a fresh buffer,
# unpack.  So G2/G3 compare two different paths on both carriers, except for a
# compiled view or gather on inmem.  A raw round trip receives straight
# into its region over tcp, so it stays the floor of both.


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
        _recv_raw(ep, buf)
    else:
        _recv_raw(ep, buf)
        ep.send_msg(buf)
    return clock() - start


def _recv_raw(ep: Endpoint, buf: memoryview) -> None:
    """The next message into the start of `buf` (`Endpoint.recv_msg_into`:
    over tcp straight from the socket); a stand-in endpoint is asked for
    the message, which is then copied."""
    if isinstance(ep, Endpoint):
        ep.recv_msg_into(buf)
    else:
        data = ep.recv_msg()
        buf[: len(data)] = data
