"""Endpoints, framing and ping-pong message operations."""

import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treegen import datatypes, oracle_walk
from typeforge.packer import make_engine, pack
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
from typeforge.typecore import Base, BaseKind, Contiguous, Vector, commit

INT = Base(BaseKind.INT)


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
    t = Vector(3, 2, 4, INT)
    count = 2
    region = _fill(make_engine("compiled", t, count).span)
    ping, pong = make_pair("inmem")
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
    eng = make_engine(engine, t, count)
    ping_region = _fill(eng.span)
    pong_region = _fill(eng.span, salt=100)
    before_ping = bytes(ping_region)
    before_pong = bytes(pong_region)

    addrs, _, _, _ = oracle_walk(t)
    ext = commit(t).extent
    payload = {i * ext + a - eng.origin for i in range(count) for a in addrs}

    ping, pong = make_pair("inmem")
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
    eng = make_engine("compiled", Vector(4, 1, 2, INT), 1)
    region = bytearray(eng.span)
    try:
        peer.sendall(struct.pack("<Q", 1 << 40))
        started = time.perf_counter()
        with pytest.raises(PeerClosed, match="frame announces"):
            pingpong_typed(ep, Vector(4, 1, 2, INT), 1, region, eng)
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


class _TrickleSocket:
    """Takes 1 byte on the first `sendmsg`, then half of what it is
    offered (at least 1 byte); call number `fail_after` (from 0) raises."""

    def __init__(self, fail_after=None):
        self.wire = bytearray()
        self.calls = 0
        self.fail_after = fail_after

    def setsockopt(self, *args):
        pass

    def sendmsg(self, buffers):
        if self.calls == self.fail_after:
            raise ConnectionResetError("reset by peer")
        offered = b"".join(bytes(b) for b in buffers)
        take = 1 if self.calls == 0 else max(1, len(offered) // 2)
        self.calls += 1
        self.wire += offered[:take]
        return take


@pytest.mark.parametrize("payload", [b"", b"x", bytes(range(100)), bytearray(range(7))],
                         ids=["empty", "one", "hundred", "bytearray"])
def test_partial_sends_complete_the_frame(payload):
    sock = _TrickleSocket()
    TcpEndpoint("ping", sock).send_msg(payload)
    assert bytes(sock.wire) == struct.pack("<Q", len(payload)) + bytes(payload)
    assert sock.calls > 1


def test_send_failure_after_a_partial_send_is_peer_closed():
    sock = _TrickleSocket(fail_after=3)
    with pytest.raises(PeerClosed, match="send failed"):
        TcpEndpoint("ping", sock).send_msg(bytes(100))
    assert sock.calls == 3
