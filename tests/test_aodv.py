"""AODV: install rule, discovery, cache-reply gate, error handling."""

import pytest

from manetsim.protocols.aodv import (ACTIVE_ROUTE_TIMEOUT_US, RREQ, RREQ_BYTES,
                                     UNKNOWN, AodvRouter, Rreq)
from manetsim.protocols.base import MAX_HOPS
from manetsim.radio import Frame

from conftest import Net

US = 1_000_000


def one_router(**kw):
    return Net([(0, 0)], **kw).routers[0]


def control_log(net):
    log = []
    net.radio.on_transmit = lambda fr: log.append((fr.src, fr.kind, fr.size))
    return log


def delivery_log(net):
    """The (flow_id, seq) of every packet delivered, in delivery order."""
    log = []
    record = net.trace.record_received

    def logged(flow_id, seq, t_us, hops):
        log.append((flow_id, seq))
        record(flow_id, seq, t_us, hops)

    net.trace.record_received = logged
    return log


# -- freshness and installation ----------------------------------------

def test_install_prefers_fresher_sequence():
    r = one_router()
    assert r._install(5, 1, 3, 10)
    assert not r._install(5, 2, 1, 9)       # staler: rejected despite fewer hops
    assert r._install(5, 2, 9, 11)          # fresher: accepted despite more hops
    e = r.table[5]
    assert (e.next_hop, e.hops, e.dest_seq) == (2, 9, 11)


def test_install_equal_sequence_needs_fewer_hops():
    r = one_router()
    r._install(5, 1, 3, 10)
    assert not r._install(5, 2, 3, 10)
    assert not r._install(5, 2, 4, 10)
    assert r._install(5, 2, 2, 10)
    assert r.table[5].next_hop == 2


def test_install_refreshes_expiry():
    net = Net([(0, 0)])
    r = net.routers[0]
    r._install(5, 1, 3, 10)
    first = r.table[5].expires_at
    net.sim.run_until(2 * US)
    r._install(5, 1, 3, 11)
    assert r.table[5].expires_at == first + 2 * US


def test_route_lookup_refresh_on_use_and_expiry():
    net = Net([(0, 0)])
    r = net.routers[0]
    r._install(5, 1, 3, 10)
    net.sim.run_until(ACTIVE_ROUTE_TIMEOUT_US - 1)
    assert r.route_lookup(5) == 1           # used just in time: refreshed
    net.sim.run_until(2 * ACTIVE_ROUTE_TIMEOUT_US - 2)
    assert r.route_lookup(5) == 1
    net.sim.run_until(3 * ACTIVE_ROUTE_TIMEOUT_US)
    assert r.route_lookup(5) is None        # idle past the timeout


def test_broken_route_not_resurrected_by_stale_reply():
    r = one_router()
    r._install(5, 1, 3, 10)
    r.table[5].valid = False
    r.table[5].dest_seq = 12                # invalidation bumped freshness
    assert not r._install(5, 2, 1, 10)      # stale RREP must not revive it
    assert r._install(5, 2, 1, 12)
    assert r.table[5].valid


# -- discovery ----------------------------------------------------------

def test_originate_rreq_bumps_own_seq_and_asks_for_the_known_seq():
    net = Net([(0, 0), (100, 0)])
    log = control_log(net)
    r = net.routers[0]
    rreq = r.originate_rreq(5)
    assert (rreq.origin_seq, rreq.dest_seq_known) == (1, UNKNOWN)
    r._install(5, 1, 3, 0)
    r.table[5].valid = False
    rreq = r.originate_rreq(5)
    assert (rreq.origin_seq, rreq.dest_seq_known) == (2, 0)
    assert log == [(0, "aodv-rreq", RREQ_BYTES)] * 2


def test_rreq_is_never_rebroadcast_twice():
    net = Net([(0, 0), (100, 0), (200, 0)])
    log = control_log(net)
    rreq = Rreq(origin=0, dest=9, dest_seq_known=UNKNOWN, origin_seq=3)
    frame = Frame(0, RREQ_BYTES, RREQ, rreq)
    AodvRouter.deliver_broadcast(net.routers, 0b010, frame)
    AodvRouter.deliver_broadcast(net.routers, 0b010, frame)  # duplicate: dropped
    forwards = [entry for entry in log if entry[1] == RREQ]
    assert forwards == [(1, RREQ, RREQ_BYTES)]
    assert rreq.flood.seen == 0b011


def test_rreq_installs_reverse_route_to_origin():
    net = Net([(0, 0), (100, 0)])
    r = net.routers[1]
    r.handle_rreq(Rreq(0, 9, UNKNOWN, origin_seq=4, hop_count=2), prev_hop=0)
    e = r.table[0]
    assert (e.next_hop, e.hops, e.dest_seq) == (0, 3, 4)


def test_destination_replies_with_max_of_own_and_requested_seq():
    net = Net([(0, 0), (100, 0)])
    replies = []
    net.radio.on_transmit = lambda fr: fr.kind == "aodv-rrep" and replies.append(fr.payload)
    r = net.routers[1]
    r.own_seq = 3
    r.handle_rreq(Rreq(0, dest=1, dest_seq_known=8, origin_seq=1), prev_hop=0)
    assert replies[0].dest_seq == 8 and r.own_seq == 8
    r.handle_rreq(Rreq(0, dest=1, dest_seq_known=2, origin_seq=2), prev_hop=0)
    assert replies[1].dest_seq == 8  # own seq already fresher


def test_cache_reply_gate_stored_seq_at_least_requested():
    net = Net([(0, 0), (100, 0), (200, 0)])
    log = control_log(net)
    r = net.routers[1]
    r._install(9, 2, 1, dest_seq=5)
    r.handle_rreq(Rreq(0, dest=9, dest_seq_known=6, origin_seq=1), prev_hop=0)
    assert log[-1][1] == "aodv-rreq"        # cache too stale: must forward
    r.handle_rreq(Rreq(0, dest=9, dest_seq_known=5, origin_seq=2), prev_hop=0)
    assert log[-1][1] == "aodv-rrep"        # equal is fresh enough
    r.handle_rreq(Rreq(0, dest=9, dest_seq_known=UNKNOWN, origin_seq=3),
                  prev_hop=0)
    assert log[-1][1] == "aodv-rrep"        # unknown is below anything stored


def test_discovery_retries_then_gives_up():
    net = Net([(0, 0), (10_000, 0)])
    log = control_log(net)
    key = net.send(0, 1)
    net.run(10)
    rreqs = [entry for entry in log if entry[1] == "aodv-rreq"]
    assert len(rreqs) == 3                  # initial + 2 retries
    assert not net.delivered(key)
    assert net.trace.drops["aodv:no_route_ever"] == 1


@pytest.mark.parametrize("protocol", ["AODV", "DSR"])
def test_buffered_packets_flush_after_discovery(chain3, protocol):
    net = chain3(protocol=protocol)
    log = control_log(net)
    delivered = delivery_log(net)
    keys = [net.send(0, 2) for _ in range(3)]
    src = net.routers[0]
    net.run(0.5)                            # replied; the retry is not due yet
    assert delivered == keys                # first in, first out
    assert src.buffers == {} and src.pending == {}
    net.run(5)                              # past every retry there could be
    assert [e for e in log if e[:2] == (0, src.rreq_kind)] == [log[0]]
    assert net.hops(keys[0]) == 2


def test_buffered_packets_leave_when_their_destinations_request_arrives(chain3):
    """Node 2, holding a packet for node 0, sends it over the reverse route
    that 0's own request installs, and ends its discovery for 0."""
    net = chain3()
    log = control_log(net)
    net.routers[1]._install(0, 0, 1, 1)     # 0's request came through 1
    key = net.send(2, 0)
    r2 = net.routers[2]
    assert r2.buffers and 0 in r2.pending
    r2.handle_rreq(Rreq(0, dest=2, dest_seq_known=UNKNOWN, origin_seq=1,
                        hop_count=1), prev_hop=1)
    assert (2, "data", 512) in log
    assert r2.buffers == {} and r2.pending == {}
    net.run(5)
    assert net.delivered(key) and net.hops(key) == 2
    assert [e for e in log if e[:2] == (2, "aodv-rreq")] == [log[0]]


def test_stale_reply_at_the_origin_leaves_the_discovery_running():
    """A reply older than the broken entry it would replace installs nothing,
    so the packets keep waiting and the discovery keeps its timer; its retry
    asks for the newer number and gets a route."""
    net = Net([(0, 0), (100, 0)])
    log = control_log(net)
    src = net.routers[0]
    src._install(1, 1, 1, 10)
    src.table[1].valid = False
    key = net.send(0, 1)                    # the request asks for seq 10
    timer = src.pending[1]
    src.table[1].dest_seq = 11              # broken again, higher, meanwhile
    net.run(0.5)
    assert not net.delivered(key)           # node 1 replied with seq 10
    assert src.table[1].dest_seq == 11 and not src.table[1].valid
    assert src.pending[1] is timer and 1 in src.buffers
    net.run(5)
    assert net.delivered(key)
    assert src.table[1].dest_seq == 11 and src.table[1].valid
    assert src.pending == {} and src.buffers == {}
    assert [e for e in log if e[:2] == (0, RREQ)] == [(0, RREQ, RREQ_BYTES)] * 2


def test_buffer_overflow_drops_oldest():
    net = Net([(0, 0), (10_000, 0)])
    for _ in range(70):
        net.send(0, 1)
    assert net.trace.drops["aodv:buffer_overflow"] == 70 - 64


def test_hop_limit_drops_a_packet_on_its_last_allowed_link(chain3):
    """Node 1 forwards a packet that reached it over its MAX_HOPS - 1st
    link, and drops one that reached it over its MAX_HOPS-th."""
    net = chain3()
    net.send(0, 2)
    net.run(5)
    late = net.arrive(1, 2, MAX_HOPS - 1)
    in_time = net.arrive(1, 2, MAX_HOPS - 2)
    net.run(6)
    assert not net.delivered(late)
    assert net.trace.drops["aodv:hop_limit"] == 1
    assert net.delivered(in_time) and net.hops(in_time) == MAX_HOPS


def test_established_route_skips_rediscovery(chain3):
    net = chain3()
    net.send(0, 2)
    net.run(5)
    log = control_log(net)
    key = net.send(0, 2)
    net.run(6)
    assert net.delivered(key)
    assert all(kind == "data" for _, kind, _ in log)


# -- link failure -------------------------------------------------------

def test_link_break_invalidates_and_raises_seq(chain3):
    net = chain3(ideal=False)
    net.send(0, 2)
    net.run(5)
    r1 = net.routers[1]
    assert r1.table[2].valid
    seq_before = r1.table[2].dest_seq
    net.mobility.move(2, (5000, 0))        # next hop walks off
    key = net.send(0, 2)
    net.run(8)
    assert not net.delivered(key)
    assert not r1.table[2].valid
    assert r1.table[2].dest_seq == seq_before + 1
    assert net.trace.drops["aodv:link_break"] == 1


def test_rerr_propagates_to_upstream(chain4):
    net = chain4(ideal=False)
    net.send(0, 3)
    net.run(5)
    r0, r1 = net.routers[0], net.routers[1]
    assert r0.table[3].valid and r1.table[3].valid
    net.mobility.move(3, (5000, 0))
    net.send(0, 3)
    net.run(8)
    assert not r1.table[3].valid           # detector's upstream neighbor
    assert not r0.table[3].valid           # and the source via the RERR chain
