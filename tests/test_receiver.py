"""Unit tests for the TCP receiver (cumulative ACKs, dup ACKs, reassembly)."""

import pytest

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.transport.flow import Flow, FlowRegistry
from repro.transport.receiver import TcpReceiver, make_listener

from tests.test_tcp import FakeHost


def make_receiver(n_packets=5):
    sim = Simulator()
    host = FakeHost(sim, name="h1")
    flow = Flow(id=1, src="h0", dst="h1", size=n_packets * 1460, start_time=0.0)
    reg = FlowRegistry()
    stats = reg.add(flow)
    rx = TcpReceiver(sim, host, flow, stats, reg)
    return sim, host, rx, stats, reg


def data(seq, *, marked=False, size=1500):
    return Packet(1, "h0", "h1", seq, size, ecn_marked=marked)


def syn():
    return Packet(1, "h0", "h1", 0, 40, syn=True)


def fin(seq=5):
    return Packet(1, "h0", "h1", seq, 40, fin=True)


def test_syn_answered_with_syn_ack():
    sim, host, rx, stats, _ = make_receiver()
    rx.handle(syn())
    assert len(host.sent) == 1
    sa = host.sent[0]
    assert sa.is_ack and sa.syn
    assert sa.src == "h1" and sa.dst == "h0"


def test_in_order_delivery_acks_cumulatively():
    sim, host, rx, stats, _ = make_receiver()
    for seq in range(3):
        rx.handle(data(seq))
    acks = [p.seq for p in host.sent]
    assert acks == [1, 2, 3]
    assert stats.packets_received == 3
    assert stats.dup_acks_sent == 0
    assert stats.out_of_order == 0


def test_gap_generates_dup_acks():
    sim, host, rx, stats, _ = make_receiver()
    rx.handle(data(0))
    rx.handle(data(2))  # hole at 1
    rx.handle(data(3))
    acks = [p.seq for p in host.sent]
    assert acks == [1, 1, 1]
    assert stats.dup_acks_sent == 2
    assert stats.out_of_order == 2


def test_hole_fill_delivers_buffered():
    sim, host, rx, stats, reg = make_receiver()
    deliveries = []
    reg.subscribe_delivery(lambda f, t, n: deliveries.append(n))
    rx.handle(data(0))
    rx.handle(data(2))
    rx.handle(data(1))  # fills the hole: 1 and 2 delivered together
    assert host.sent[-1].seq == 3
    assert deliveries == [1460, 2920]


def test_completion_recorded_once():
    sim, host, rx, stats, reg = make_receiver(n_packets=2)
    completions = []
    reg.subscribe_completion(lambda s: completions.append(s.flow.id))
    rx.handle(data(0))
    sim.run(until=0.5)  # advance the idle clock
    rx.handle(data(1))
    assert stats.completed == 0.5
    rx.handle(data(1))  # spurious retransmit after completion
    assert completions == [1]


def test_fin_after_all_data_gets_fin_ack():
    sim, host, rx, stats, _ = make_receiver(n_packets=2)
    rx.handle(data(0))
    rx.handle(data(1))
    rx.handle(fin(2))
    assert host.sent[-1].fin and host.sent[-1].is_ack


def test_fin_before_all_data_reasserts_hole():
    sim, host, rx, stats, _ = make_receiver(n_packets=3)
    rx.handle(data(0))
    rx.handle(fin(3))  # data 1,2 still missing
    last = host.sent[-1]
    assert not last.fin
    assert last.seq == 1


def test_ecn_echo_mirrors_mark():
    sim, host, rx, stats, _ = make_receiver()
    rx.handle(data(0, marked=True))
    rx.handle(data(1, marked=False))
    assert host.sent[0].ecn_echo is True
    assert host.sent[1].ecn_echo is False
    assert stats.ecn_marks == 1


def test_spurious_retransmit_counts_dup_ack():
    sim, host, rx, stats, _ = make_receiver()
    rx.handle(data(0))
    rx.handle(data(0))  # already delivered
    assert [p.seq for p in host.sent] == [1, 1]
    assert stats.dup_acks_sent == 1
    # but it is NOT an out-of-order arrival
    assert stats.out_of_order == 0


def test_dupack_notification():
    sim, host, rx, stats, reg = make_receiver()
    dups = []
    reg.subscribe_dupack(lambda f, t: dups.append(f.id))
    rx.handle(data(0))
    rx.handle(data(2))
    assert dups == [1]


def test_bytes_delivered_counts_payload_only():
    sim, host, rx, stats, _ = make_receiver(n_packets=2)
    rx.handle(data(0))
    rx.handle(data(1))
    assert stats.bytes_delivered == 2 * 1460


def test_make_listener_builds_receiver_from_registry():
    sim = Simulator()
    host = FakeHost(sim, name="h1")
    reg = FlowRegistry()
    flow = Flow(id=9, src="h0", dst="h1", size=1460, start_time=0.0)
    reg.add(flow)
    listener = make_listener(sim, reg)
    pkt = Packet(9, "h0", "h1", 0, 40, syn=True)
    rx = listener(host, pkt)
    assert isinstance(rx, TcpReceiver)
    assert rx.flow is flow
