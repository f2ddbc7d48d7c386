"""Route-request floods of AODV and DSR: delivery drops the copies for nodes
in the flood's seen mask and marks the rest before any router handles them.
Rebroadcasts are jittered only under the realistic MAC."""

import pytest

from manetsim.protocols import PROTOCOLS
from manetsim.protocols.base import FLOOD_JITTER_US, Flood
from manetsim.protocols.dsr import RERR, RREQ, _Rreq
from manetsim.radio import Frame
from manetsim.scenario import ScenarioConfig, run_scenario

from conftest import Net

# 0 reaches 1 and 2, which both reach 3; 0 and 3 are out of range of each
# other, so 3 hears every request of 0 twice.  4 is out of everyone's range.
DIAMOND = [(0, 0), (150, 100), (150, -100), (300, 0), (10_000, 0)]


def watch(net):
    """Log the RREQ copies reaching node 3, the requests node 3 handles and
    every RREQ transmission."""
    rreq_kind = net.routers[0].rreq_kind
    arrivals, handled, sent = [], [], []
    deliver = net.radio.on_broadcast

    def on_broadcast(mask, frame):
        if frame.kind == rreq_kind and mask >> 3 & 1:
            arrivals.append(frame.payload)
        deliver(mask, frame)

    net.radio.on_broadcast = on_broadcast
    router = net.routers[3]
    handle_rreq = router.handle_rreq
    router.handle_rreq = lambda rreq, *args: (handled.append(rreq),
                                              handle_rreq(rreq, *args))
    net.radio.on_transmit = lambda fr: fr.kind == rreq_kind and sent.append(fr.src)
    return arrivals, handled, sent


@pytest.mark.parametrize("protocol", ["DSDV", "AODV", "DSR"])
def test_flood_jitter_follows_the_mac(protocol):
    # Collisions exist only under the realistic MAC, so only there do
    # rebroadcasts need desynchronizing.
    ideal = Net(DIAMOND, protocol=protocol, ideal=True)
    realistic = Net(DIAMOND, protocol=protocol, ideal=False)
    assert [r.flood_jitter_us for r in ideal.routers] == [0] * len(DIAMOND)
    assert [r.flood_jitter_us for r in realistic.routers] == \
        [FLOOD_JITTER_US] * len(DIAMOND)


@pytest.mark.parametrize("protocol", ["AODV", "DSR"])
def test_second_copy_of_a_request_is_neither_handled_nor_rebroadcast(protocol):
    net = Net(DIAMOND, protocol=protocol)
    arrivals, handled, sent = watch(net)
    net.routers[0].originate_rreq(4)
    net.run(0.5)
    assert len(arrivals) == 2
    first, second = arrivals
    assert first is not second and first.flood is second.flood
    assert handled == [first]
    assert sent.count(3) == 1
    assert sorted(sent) == [0, 1, 2, 3]        # every node rebroadcasts once
    assert first.flood.seen == 0b1111


@pytest.mark.parametrize("protocol", ["AODV", "DSR"])
def test_retry_is_a_new_flood_and_is_handled_afresh(protocol):
    net = Net(DIAMOND, protocol=protocol)
    arrivals, handled, sent = watch(net)
    net.routers[0].originate_rreq(4)
    net.run(0.5)
    net.routers[0].originate_rreq(4)
    net.run(1.0)
    assert len(arrivals) == 4 and len(handled) == 2
    old, new = handled
    assert new.flood is not old.flood
    assert sent.count(3) == 2


def test_deliver_broadcast_skips_seen_nodes_of_a_request_only():
    net = Net(DIAMOND, protocol="DSR")
    got = []
    for router in net.routers:
        router.handle_frame = lambda frame, node=router.node_id: got.append(node)
    flood = Flood(0)
    flood.seen |= 1 << 2
    rreq = Frame(0, 16, RREQ, _Rreq(4, (0,), flood))
    net.routers[0].deliver_broadcast(net.routers, 0b11111, rreq)
    assert got == [1, 3, 4]
    assert flood.seen == 0b11111
    got.clear()
    rerr = Frame(0, 16, RERR, rreq.payload)
    net.routers[0].deliver_broadcast(net.routers, 0b11111, rerr)
    assert got == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("protocol", ["AODV", "DSR"])
def test_a_run_hands_each_request_once_to_each_node_it_reaches(protocol, monkeypatch):
    """In a mobile run under the realistic MAC, a router handles a request
    only when a delivery's receiver mask holds it, and each flood at most
    once."""
    cls = PROTOCOLS[protocol]
    delivered = [0]             # receiver mask of the delivery under way
    # id(flood) -> (flood, nodes that handled it); holding the flood keeps
    # its id from being reused.
    handled = {}
    deliver_broadcast = cls.deliver_broadcast.__func__
    handle_rreq = cls.handle_rreq

    def delivering(cls, routers, mask, frame):
        delivered[0] = mask
        deliver_broadcast(cls, routers, mask, frame)
        delivered[0] = 0

    def handling(self, rreq, *args):
        # Checked at once: without duplicate suppression a flood never ends.
        nodes = handled.setdefault(id(rreq.flood), (rreq.flood, set()))[1]
        assert self.node_id not in nodes
        assert delivered[0] >> self.node_id & 1
        nodes.add(self.node_id)
        handle_rreq(self, rreq, *args)

    monkeypatch.setattr(cls, "deliver_broadcast", classmethod(delivering))
    monkeypatch.setattr(cls, "handle_rreq", handling)
    run_scenario(ScenarioConfig(protocol=protocol, node_count=20, n_flows=10,
                                sim_time=30.0, warmup=5.0, seed=1, pause_time=0.0))
    assert handled


def per_node_state(router):
    """Entries in every container a router holds."""
    return sum(len(v) for v in vars(router).values()
               if isinstance(v, (dict, set, list)))


@pytest.mark.parametrize("protocol", ["AODV", "DSR"])
def test_no_router_keeps_state_per_request(protocol):
    # Each send to the unreachable node 4 floods three requests (the first
    # and two retries) and then gives up; more floods leave no more state.
    net = Net(DIAMOND, protocol=protocol)
    net.send(0, 4)
    net.run(5)
    after_one = [per_node_state(r) for r in net.routers]
    for k in range(4):
        net.send(0, 4)
        net.run(10 + 5 * k)
    assert net.trace.drops[f"{protocol.lower()}:no_route_ever"] == 5
    assert [per_node_state(r) for r in net.routers] == after_one
