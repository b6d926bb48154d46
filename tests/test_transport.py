"""Endpoints, framing and ping-pong message operations."""

import itertools
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegen import datatypes, oracle_walk
from typeforge.packer import (
    CompiledEngine,
    InterpretedEngine,
    RegionTooSmall,
    SizeMismatch,
    make_engine,
    pack,
)
from typeforge.transport import (
    TRANSPORTS,
    PeerClosed,
    TcpEndpoint,
    TransportUnavailable,
    make_pair,
    pingpong_packed,
    pingpong_raw,
    pingpong_typed,
    tcp_accept,
    tcp_connect,
    tcp_listener,
)
from typeforge.typecore import Base, BaseKind, Contiguous, Indexed, Vector, commit

INT = Base(BaseKind.INT)

# one typed message per tcp receive path: a view (one run of 8000 bytes),
# runs long enough to scatter into (8 of 4000 bytes) and runs too short to
# (100 of 4 bytes), which go through the receive buffer and an unpack
TCP_PATHS = {
    "view": (Contiguous(1000, INT), 2),
    "runs": (Vector(4, 1000, 1500, INT), 2),
    "buffer": (Vector(100, 1, 2, INT), 1),
}


def _fill(n: int, salt: int = 0) -> bytearray:
    return bytearray((i * 37 + 11 + salt) % 256 for i in range(n))


def _run_peer(fn, *args, **kwargs):
    """Run the pong side in a thread; return a handle with .result()."""
    box = {}

    def work():
        try:
            box["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # surfaced by result()
            box["error"] = exc

    thread = threading.Thread(target=work, daemon=True)
    thread.start()

    class Handle:
        def result(self, timeout: float = 30.0):
            thread.join(timeout)
            assert not thread.is_alive(), "peer side did not finish"
            if "error" in box:
                raise box["error"]
            return box.get("value")

    return Handle()


# --- framing ------------------------------------------------------------


@pytest.mark.parametrize("kind", ["inmem", "tcp"])
def test_messages_arrive_in_order(kind):
    ping, pong = make_pair(kind)
    try:
        ping.send_msg(b"alpha")
        ping.send_msg(b"")
        ping.send_msg(bytes(range(256)))
        assert bytes(pong.recv_msg()) == b"alpha"
        assert bytes(pong.recv_msg()) == b""
        assert bytes(pong.recv_msg()) == bytes(range(256))
        pong.send_msg(b"reply")
        assert bytes(ping.recv_msg()) == b"reply"
    finally:
        ping.close()
        pong.close()


@pytest.mark.parametrize("kind", ["inmem", "tcp"])
def test_large_message_round_trip(kind):
    ping, pong = make_pair(kind)
    payload = bytes(_fill(2_560_000))
    try:
        handle = _run_peer(lambda: bytes(pong.recv_msg()))
        ping.send_msg(payload)
        assert handle.result() == payload
    finally:
        ping.close()
        pong.close()


@pytest.mark.parametrize("kind", ["inmem", "tcp"])
def test_closed_peer_is_detected(kind):
    ping, pong = make_pair(kind)
    ping.close()
    with pytest.raises(PeerClosed):
        pong.recv_msg()
    pong.close()


def test_send_after_close_is_rejected():
    ping, pong = make_pair("inmem")
    ping.close()
    with pytest.raises(PeerClosed):
        ping.send_msg(b"late")
    pong.close()


def test_pair_roles_and_kinds():
    assert TRANSPORTS == ("inmem", "tcp")
    for kind in TRANSPORTS:
        ping, pong = make_pair(kind)
        assert (ping.peer_id, pong.peer_id) == ("ping", "pong")
        assert ping.kind == pong.kind == kind
        ping.close()
        pong.close()


def test_unknown_transport_is_rejected():
    with pytest.raises(TransportUnavailable):
        make_pair("pigeon")


def test_dead_port_raises_unavailable():
    with pytest.raises(TransportUnavailable):
        tcp_connect(1, peer_id="ping", timeout=2.0)


# --- barrier and scalar exchange ----------------------------------------


@pytest.mark.parametrize("kind", ["inmem", "tcp"])
def test_barrier_meets_in_the_middle(kind):
    ping, pong = make_pair(kind)
    try:
        handle = _run_peer(pong.barrier)
        ping.barrier()
        handle.result()
    finally:
        ping.close()
        pong.close()


def test_exchange_swaps_values():
    ping, pong = make_pair("inmem")
    try:
        handle = _run_peer(pong.exchange_f64, 2.5)
        assert ping.exchange_f64(1.5) == 2.5
        assert handle.result() == 1.5
    finally:
        ping.close()
        pong.close()


# --- ping-pong operations -----------------------------------------------


def test_typed_wire_format_is_the_packed_payload():
    # over tcp, a gathered send and a packed one frame the same bytes
    for kind in TRANSPORTS:
        for t, count in TCP_PATHS.values():
            region = _fill(make_engine("compiled", t, count).span)
            ping, pong = make_pair(kind)
            try:
                handle = _run_peer(
                    pingpong_typed, ping, t, count, region, engine="compiled"
                )
                wire = pong.recv_msg()
                assert bytes(wire) == pack(t, count, region)
                pong.send_msg(wire)
                assert handle.result() >= 0.0
            finally:
                ping.close()
                pong.close()


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
@pytest.mark.parametrize("op", [pingpong_typed, pingpong_packed],
                         ids=["pingpong_typed", "pingpong_packed"])
@given(datatypes(), st.integers(0, 3))
def test_echo_copies_payload_and_skips_gaps(op, engine, t, count):
    _check_echo(op, engine, t, count, "inmem")


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
@pytest.mark.parametrize("op", [pingpong_typed, pingpong_packed],
                         ids=["pingpong_typed", "pingpong_packed"])
@settings(max_examples=12)
@given(datatypes(), st.integers(0, 3))
def test_echo_copies_payload_and_skips_gaps_over_tcp(op, engine, t, count):
    _check_echo(op, engine, t, count, "tcp")


@pytest.mark.parametrize("path", TCP_PATHS)
def test_tcp_typed_echo_takes_each_receive_path(monkeypatch, path):
    # a view and long runs move between the socket and the region with no
    # pack or unpack; short runs are packed, received into the endpoint's
    # buffer and unpacked from there
    t, count = TCP_PATHS[path]
    assert (make_engine("compiled", t, count).runs is not None) == (path != "buffer")
    calls = _count_copies(monkeypatch)
    _check_echo(pingpong_typed, "compiled", t, count, "tcp")
    copies = 0 if path != "buffer" else 2
    assert calls == {"pack_message": copies, "unpack_message": copies, "_move_across": 0}


def _check_echo(op, engine, t, count, kind):
    """One round trip of `op` over `kind`: the initiator's region is
    intact, and the echoer's holds the initiator's payload and its own
    gap bytes."""
    eng = make_engine(engine, t, count)
    ping_region = _fill(eng.span)
    pong_region = _fill(eng.span, salt=100)
    before_ping = bytes(ping_region)
    before_pong = bytes(pong_region)

    addrs, _, _, _ = oracle_walk(t)
    ext = commit(t).extent
    payload = {i * ext + a - eng.origin for i in range(count) for a in addrs}

    ping, pong = make_pair(kind)
    try:
        handle = _run_peer(op, pong, t, count, pong_region, engine=engine)
        elapsed = op(ping, t, count, ping_region, engine=engine)
        assert elapsed >= 0.0
        handle.result()
    finally:
        ping.close()
        pong.close()

    # the echo returns the initiator's own payload, so its region is intact
    assert bytes(ping_region) == before_ping
    for pos in range(eng.span):
        want = before_ping[pos] if pos in payload else before_pong[pos]
        assert pong_region[pos] == want


def test_contiguous_typed_interoperates_with_raw():
    t = Contiguous(1000, INT)
    eng = make_engine("compiled", t, 4)
    assert eng.is_contiguous
    ping_region = _fill(eng.span)
    pong_region = _fill(eng.span, salt=9)
    before_ping = bytes(ping_region)

    ping, pong = make_pair("inmem")
    try:
        handle = _run_peer(pingpong_raw, pong, pong_region)
        pingpong_typed(ping, t, 4, ping_region, engine="compiled")
        handle.result()
    finally:
        ping.close()
        pong.close()
    assert bytes(ping_region) == before_ping
    assert bytes(pong_region) == before_ping


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_raw_round_trip_of_wider_elements_counts_bytes(kind):
    # 16 int32 elements are 64 bytes on the wire; a frame announcing 16
    # leaves the echo unable to copy them back
    ping_region = np.arange(16, dtype=np.int32)
    pong_region = np.full(16, -1, dtype=np.int32)
    ping, pong = make_pair(kind)
    if kind == "tcp":
        for ep in (ping, pong):  # a framing error fails the test, not hangs it
            ep._sock.settimeout(5.0)
    try:
        handle = _run_peer(pingpong_raw, pong, pong_region)
        pingpong_raw(ping, ping_region)
        handle.result()
    finally:
        ping.close()
        pong.close()
    assert ping_region.tolist() == list(range(16))
    assert pong_region.tolist() == list(range(16))


def test_elapsed_uses_the_injected_clock(fake_clock):
    t = Contiguous(4, INT)
    region = _fill(16)
    peer_region = _fill(16, salt=3)
    ping, pong = make_pair("inmem")
    try:
        handle = _run_peer(
            pingpong_typed, pong, t, 1, peer_region, "compiled", fake_clock
        )
        elapsed = pingpong_typed(ping, t, 1, region, "compiled", fake_clock)
        handle.result()
    finally:
        ping.close()
        pong.close()
    # exactly one start and one stop reading per side
    assert elapsed == pytest.approx(fake_clock.step)


def test_oversized_frame_is_refused_before_allocation():
    # a raw socket peer announces 2**40 bytes and sends none of them: a
    # receiver that allocated first would try to reserve 1 TiB
    listener, port = tcp_listener()
    try:
        peer = socket.create_connection(("127.0.0.1", port), timeout=10)
        ep = tcp_accept(listener, peer_id="pong")
    finally:
        listener.close()
    engines = [make_engine("compiled", Vector(4, 1, 2, INT), 1)]
    engines += [make_engine("compiled", *TCP_PATHS[path]) for path in ("view", "runs")]
    try:
        started = time.perf_counter()
        for eng in engines:
            region = bytearray(eng.span)
            peer.sendall(struct.pack("<Q", 1 << 40))
            with pytest.raises(PeerClosed, match="frame announces"):
                pingpong_typed(ep, eng.committed, eng.count, region, eng)
            assert len(ep._rx) == 0
        peer.sendall(struct.pack("<Q", eng.span + 1))
        with pytest.raises(PeerClosed, match="frame announces"):
            pingpong_raw(ep, region)
        assert time.perf_counter() - started < 5
    finally:
        ep.close()
        peer.close()


@pytest.mark.parametrize("kind", ["inmem", "tcp"])
def test_receive_bound_is_the_expected_length(kind):
    ping, pong = make_pair(kind)
    try:
        ping.send_msg(bytes(16))
        assert len(pong.recv_msg(16)) == 16
        ping.send_msg(bytes(17))
        with pytest.raises(PeerClosed, match="frame announces 17 bytes"):
            pong.recv_msg(16)
    finally:
        ping.close()
        pong.close()


@pytest.mark.parametrize("path", TCP_PATHS)
@pytest.mark.parametrize("fault", ["short_frame", "short_region", "read_only_region"])
def test_tcp_typed_receive_errors_leave_the_framing_intact(path, fault):
    # each fault raises what an unpack raises, once the whole frame is
    # read: the next message on the endpoint reads correctly, and a region
    # the fault was found in is left as it was
    eng = make_engine("compiled", *TCP_PATHS[path])
    raises, size, span = {
        "short_frame": (SizeMismatch, eng.total_bytes - 4, eng.span),
        "short_region": (RegionTooSmall, eng.total_bytes, eng.span - 1),
        "read_only_region": (TypeError, eng.total_bytes, eng.span),
    }[fault]
    region = _fill(span) if fault != "read_only_region" else bytes(_fill(span))
    before = bytes(region)
    ping, pong = make_pair("tcp")
    try:
        ping.send_msg(_fill(size, salt=1))
        ping.send_msg(b"next")
        with pytest.raises(raises):
            pong.recv_typed(eng, region)
        assert bytes(pong.recv_msg()) == b"next"
    finally:
        ping.close()
        pong.close()
    assert bytes(region) == before


def test_tcp_raw_round_trip_receives_into_the_buffer(monkeypatch):
    # no message buffer of its own: the frame lands in the region
    def refuse(self, limit=None):
        raise AssertionError("raw receive went through recv_msg")

    monkeypatch.setattr(TcpEndpoint, "recv_msg", refuse)
    ping_region, pong_region = _fill(3000), bytearray(3000)
    ping, pong = make_pair("tcp")
    try:
        handle = _run_peer(pingpong_raw, pong, pong_region)
        pingpong_raw(ping, ping_region)
        handle.result()
    finally:
        ping.close()
        pong.close()
    assert pong_region == ping_region == _fill(3000)


class _TrickleSocket:
    """Takes 1 byte on the first `sendmsg`, then half of what it is
    offered (at least 1 byte); call number `fail_after` (from 0) raises."""

    def __init__(self, fail_after=None):
        self.wire = bytearray()
        self.calls = 0
        self.fail_after = fail_after
        self.first_call_buffers = None

    def setsockopt(self, *args):
        pass

    def sendmsg(self, buffers):
        if self.calls == self.fail_after:
            raise ConnectionResetError("reset by peer")
        offered = b"".join(bytes(b) for b in buffers)
        if self.calls == 0:
            self.first_call_buffers = len(buffers)
        take = 1 if self.calls == 0 else max(1, len(offered) // 2)
        self.calls += 1
        self.wire += offered[:take]
        return take


@pytest.mark.parametrize("payload", [b"", b"x", bytes(range(100)), bytearray(range(7)),
                                     "runs"],
                         ids=["empty", "one", "hundred", "bytearray", "typed_gather"])
def test_partial_sends_complete_the_frame(payload):
    # a typed message of runs is gathered from its region, header first
    sock = _TrickleSocket()
    ep = TcpEndpoint("ping", sock)
    if payload == "runs":
        eng = make_engine("compiled", *TCP_PATHS[payload])
        region = _fill(eng.span)
        ep.send_typed(eng, region)
        payload = pack(eng.committed, eng.count, region)
        assert sock.first_call_buffers == 1 + len(eng.runs)
    else:
        ep.send_msg(payload)
    assert bytes(sock.wire) == struct.pack("<Q", len(payload)) + bytes(payload)
    assert sock.calls > 1


class _TrickleRecvSocket:
    """Serves `wire`: 1 byte on the first receive, then half of what is
    asked (at least 1 byte), spread over the buffers in order; 0 bytes
    once `wire` is used up.  Records how many buffers each receive
    wrote to.  It takes no notice of MSG_WAITALL: a receive that waits for
    all it is given still returns less when a signal or the peer's close
    cuts it short, which is what this serves."""

    def __init__(self, wire: bytes):
        self.wire = memoryview(wire)
        self.written = []
        self.flags = set()

    def setsockopt(self, *args):
        pass

    def recvmsg_into(self, buffers, ancbufsize=0, flags=0):
        self.flags.add(flags)
        asked = sum(len(b) for b in buffers)
        take = min(len(self.wire), 1 if not self.written else max(1, asked // 2))
        got, touched = 0, 0
        for buf in buffers:
            n = min(len(buf), take - got)
            if n == 0:
                break
            buf[:n] = self.wire[got : got + n]
            got += n
            touched += 1
        self.wire = self.wire[got:]
        self.written.append(touched)
        return got, [], 0, None

    def recv_into(self, buf, nbytes=0, flags=0):
        return self.recvmsg_into([buf], 0, flags)[0]


@pytest.mark.parametrize("path", TCP_PATHS)
def test_partial_receives_fill_the_region(path):
    # the scatter goes on across partial receives, from one run into the
    # next, and leaves the gaps alone
    eng = make_engine("compiled", *TCP_PATHS[path])
    src, region = _fill(eng.span), _fill(eng.span, salt=5)
    payload = bytes(eng.pack_message(src))
    sock = _TrickleRecvSocket(struct.pack("<Q", len(payload)) + payload)
    TcpEndpoint("pong", sock).recv_typed(eng, region)
    want = bytearray(_fill(eng.span, salt=5))
    eng.unpack_message(payload, want)
    assert region == want
    assert len(sock.wire) == 0
    if path == "runs":
        assert max(sock.written) > 1


def test_consecutive_scatters_into_one_region_arrive_intact():
    # the engine keeps the region's run views from one message to the
    # next, and each partial receive slices the list it is given in place,
    # so the second message must find the views whole; every receive asks
    # to wait for all it is given
    eng = make_engine("compiled", *TCP_PATHS["runs"])
    payloads = [bytes(eng.pack_message(_fill(eng.span, salt))) for salt in (1, 2)]
    sock = _TrickleRecvSocket(b"".join(struct.pack("<Q", len(p)) + p for p in payloads))
    ep, region = TcpEndpoint("pong", sock), _fill(eng.span, salt=5)
    for payload in payloads:
        ep.recv_typed(eng, region)
        want = _fill(eng.span, salt=5)
        eng.unpack_message(payload, want)
        assert region == want
    assert len(sock.wire) == 0 and max(sock.written) > 1
    assert sock.flags == {socket.MSG_WAITALL}


@pytest.mark.parametrize("path", TCP_PATHS)
def test_end_of_stream_mid_frame_is_peer_closed(path):
    eng = make_engine("compiled", *TCP_PATHS[path])
    payload = bytes(eng.pack_message(_fill(eng.span)))
    sock = _TrickleRecvSocket(struct.pack("<Q", len(payload)) + payload[:-1])
    with pytest.raises(PeerClosed, match="peer closed"):
        TcpEndpoint("pong", sock).recv_typed(eng, _fill(eng.span))


def test_send_failure_after_a_partial_send_is_peer_closed():
    sock = _TrickleSocket(fail_after=3)
    with pytest.raises(PeerClosed, match="send failed"):
        TcpEndpoint("ping", sock).send_msg(bytes(100))
    assert sock.calls == 3


# --- the typed path against the packed path -----------------------------


def _count_copies(monkeypatch) -> dict:
    """Count both engines' pack_message, unpack_message and _move_across
    calls."""
    calls = {"pack_message": 0, "unpack_message": 0, "_move_across": 0}
    for cls in (CompiledEngine, InterpretedEngine):
        for name in calls:
            real = getattr(cls, name)

            def counting(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(cls, name, counting)
    return calls


def _round_trip(op, t, count, kind="inmem", engines=("compiled", "compiled")):
    """One round trip of `op` between a ping and a pong engine, named by
    `engines`; both regions end up holding the same payload."""
    ct = commit(t)
    eng = make_engine(engines[0], ct, count)
    ping_region = _fill(eng.span)
    pong_region = _fill(eng.span, salt=50)
    ping, pong = make_pair(kind)
    try:
        handle = _run_peer(op, pong, ct, count, pong_region, make_engine(engines[1], ct, count))
        op(ping, ct, count, ping_region, eng)
        handle.result()
    finally:
        ping.close()
        pong.close()
    assert bytes(eng.pack_message(pong_region)) == bytes(eng.pack_message(ping_region))


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_inmem_typed_round_trip_copies_region_to_region(monkeypatch, kind):
    # a compiled program of one periodic piece and one of lone pieces, and
    # the interpreted walk: on inmem each receiver copies from the sender's
    # region, one pass per direction, and nothing is packed or unpacked; on
    # tcp the five lone pieces are runs few enough to gather, and the
    # others are packed and unpacked
    calls = _count_copies(monkeypatch)
    for engine, t, count, rows in (("compiled", Vector(100, 1, 2, INT), 1, [100]),
                                   ("compiled", Vector(3, 2, 4, INT), 2, [1] * 5),
                                   ("interpreted", Vector(100, 1, 2, INT), 1, None)):
        eng = make_engine(engine, t, count)
        pieces = getattr(eng, "pieces", None)
        assert rows == (pieces and [p.rows for p in pieces])
        calls.update(dict.fromkeys(calls, 0))
        _round_trip(pingpong_typed, t, count, kind, (engine, engine))
        # the final check packs both regions once
        moved = {"pack_message": 0, "unpack_message": 0, "_move_across": 2} \
            if kind == "inmem" else dict.fromkeys(calls, 0) if eng.runs is not None \
            else {"pack_message": 2, "unpack_message": 2, "_move_across": 0}
        assert calls == {**moved, "pack_message": moved["pack_message"] + 2}, engine


def test_inmem_typed_round_trip_between_engines_packs_and_unpacks(monkeypatch):
    # an interpreted and a compiled engine share no copy key: each receiver
    # packs from the sender's region, then unpacks
    t = Vector(100, 1, 2, INT)
    calls = _count_copies(monkeypatch)
    for engines in (("interpreted", "compiled"), ("compiled", "interpreted")):
        calls.update(dict.fromkeys(calls, 0))
        _round_trip(pingpong_typed, t, 1, "inmem", engines)
        assert calls == {"pack_message": 2 + 2, "unpack_message": 2, "_move_across": 0}


def test_packed_round_trip_packs_and_unpacks_on_both_sides(monkeypatch):
    calls = _count_copies(monkeypatch)
    _round_trip(pingpong_packed, Vector(100, 1, 2, INT), 1)
    assert calls == {"pack_message": 2 + 2, "unpack_message": 2, "_move_across": 0}


def test_typed_and_packed_parties_interoperate():
    # a typed sender and a packed receiver, and the other way round, on
    # both carriers; over tcp, for each receive path of the typed party
    cases = [("inmem", Vector(3, 2, 4, INT), 2)]
    cases += [("tcp", t, count) for t, count in TCP_PATHS.values()]
    for (kind, t, count), (ping_op, pong_op) in itertools.product(
            cases, ((pingpong_typed, pingpong_packed), (pingpong_packed, pingpong_typed))):
        eng = make_engine("compiled", t, count)
        ping_region, pong_region = _fill(eng.span), _fill(eng.span, salt=7)
        before_ping = bytes(ping_region)
        ping, pong = make_pair(kind)
        try:
            handle = _run_peer(pong_op, pong, t, count, pong_region, "compiled")
            ping_op(ping, t, count, ping_region, "compiled")
            handle.result()
        finally:
            ping.close()
            pong.close()
        assert bytes(ping_region) == before_ping
        assert bytes(eng.pack_message(pong_region)) == bytes(eng.pack_message(ping_region))


class _Proxy:
    """A stand-in engine or endpoint: forwards every attribute and records
    the calls made through it."""

    def __init__(self, inner, log: list):
        self._inner = inner
        self._log = log

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if callable(value):
            def call(*args):
                self._log.append(name)
                return value(*args)
            return call
        return value


@pytest.mark.parametrize("engine, t, count", [
    ("compiled", Indexed(tuple((1, i * (i + 3) // 2) for i in range(100)), INT), 1),
], ids=["compiled_gather"])
def test_inmem_typed_send_without_a_copy_key_packs_when_sent(engine, t, count):
    # an engine that no receiver copies straight from is packed by its
    # sender, as on tcp, so the sender's later writes do not reach the
    # message; an engine with a copy key sends a reference instead
    eng = make_engine(engine, t, count)
    assert eng.strategy == "gather"
    assert eng.copy_key is None
    region = _fill(eng.span)
    want = bytes(eng.pack_message(region))
    ping, pong = make_pair("inmem")
    try:
        ping.send_typed(eng, region)
        region[:] = bytes(len(region))
        got = bytearray(eng.span)
        pong.recv_typed(eng, got)
    finally:
        ping.close()
        pong.close()
    assert bytes(eng.pack_message(got)) == want


def test_stand_ins_take_the_packed_round_trip():
    t = Vector(100, 1, 2, INT)
    eng = make_engine("compiled", t, 1)
    ping_region, pong_region = _fill(eng.span), _fill(eng.span, salt=3)
    ping, pong = make_pair("inmem")
    log = []
    try:
        handle = _run_peer(pingpong_typed, pong, t, 1, pong_region, "compiled")
        pingpong_typed(_Proxy(ping, log), t, 1, ping_region, _Proxy(eng, log))
        handle.result()
    finally:
        ping.close()
        pong.close()
    assert log == ["pack_message", "send_msg", "recv_msg", "unpack_message"]
    assert bytes(pong_region) != _fill(eng.span, salt=3)
    assert bytes(eng.pack_message(pong_region)) == bytes(eng.pack_message(ping_region))


def test_typed_references_survive_thread_switches():
    # the receiver reads the sender's region after the send returns; the
    # sender rewrites its region every round trip, so a copy made after
    # the sender moved on would see the next round's bytes.  Six threads
    # on three channels, switching as often as the interpreter allows.
    t = commit(Vector(100, 1, 2, INT))
    rounds = 40

    def payload(k: int) -> bytes:
        return bytes((k * 7 + i) % 251 for i in range(t.size))

    def ping_side(ep, failures):
        eng = make_engine("compiled", t, 1)
        region = bytearray(eng.span)
        for k in range(rounds):
            eng.unpack_message(payload(k), region)
            pingpong_typed(ep, t, 1, region, eng)
            if bytes(eng.pack_message(region)) != payload(k):
                failures.append(("ping", k))

    def pong_side(ep, failures):
        eng = make_engine("compiled", t, 1)
        region = bytearray(eng.span)
        for k in range(rounds):
            ep.recv_typed(eng, region)
            if bytes(eng.pack_message(region)) != payload(k):
                failures.append(("pong", k))
            ep.send_typed(eng, region)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    failures: list = []
    pairs = [make_pair("inmem") for _ in range(3)]
    try:
        threads = [threading.Thread(target=fn, args=(ep, failures), daemon=True)
                   for ping, pong in pairs for fn, ep in ((ping_side, ping), (pong_side, pong))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
        for ping, pong in pairs:
            ping.close()
            pong.close()
    assert failures == []
