"""Shared fixtures: hand-wired mini networks with scripted node placement."""

import pytest

from manetsim.engine import RngStream, Simulator, to_us
from manetsim.metrics import PacketTrace
from manetsim.mobility import FixedPositions
from manetsim.protocols import connect, make_router
from manetsim.protocols.base import DATA
from manetsim.radio import Frame, Radio
from manetsim.scenario import ScenarioConfig
from manetsim.traffic import AppPacket

DEFAULTS = ScenarioConfig()


def radio_for(sim, mobility, ideal=False, range_m=DEFAULTS.radio_range,
              retry_limit=DEFAULTS.retry_limit):
    """A Radio with the scenario defaults, unless told otherwise."""
    return Radio(sim, mobility, range_m=range_m, bandwidth_bps=DEFAULTS.bandwidth,
                 latency_us=to_us(DEFAULTS.per_hop_latency),
                 retry_limit=retry_limit, ideal=ideal)


class Net:
    """A Simulator + Radio + one router per node over fixed positions."""

    def __init__(self, positions, protocol="AODV", ideal=True, seed=1):
        self.sim = Simulator()
        self.mobility = FixedPositions(positions)
        self.trace = PacketTrace()
        self.radio = radio_for(self.sim, self.mobility, ideal=ideal)
        self.routers = [
            make_router(protocol, i, self.sim, self.radio, self.trace,
                        RngStream(seed, f"protocol:{i}"))
            for i in range(self.mobility.node_count)
        ]
        connect(self.radio, self.routers)
        for r in self.routers:
            r.start()

    def _generate(self, dst, flow_id, seq, size):
        """One app packet for dst, traced as generated at the current sim time."""
        if seq is None:
            seq = self._next_seq = getattr(self, "_next_seq", -1) + 1
        self.trace.record_generated(flow_id, seq, self.sim.now, size)
        return AppPacket(flow_id, seq, size, dst)

    def send(self, src, dst, flow_id=0, seq=None, size=512):
        """Generate one app packet at the current sim time and hand it to src."""
        pkt = self._generate(dst, flow_id, seq, size)
        self.routers[src].send_app_packet(pkt)
        return (flow_id, pkt.seq)

    def arrive(self, node, dst, hops, flow_id=0, size=512):
        """Generate one app packet at the current sim time that has crossed
        hops links, and hand it to node as a data frame."""
        pkt = self._generate(dst, flow_id, None, size)
        pkt.hops = hops
        self.routers[node].handle_frame(Frame(node, size, DATA, pkt))
        return (flow_id, pkt.seq)

    def run(self, until_s):
        self.sim.run_until(int(until_s * 1_000_000))

    def delivered(self, key):
        rec = self.trace.records[key]
        return rec[1] is not None

    def hops(self, key):
        return self.trace.records[key][2]


@pytest.fixture
def chain3():
    """0 -- 1 -- 2 in a line; 0 and 2 are out of range of each other."""
    return lambda **kw: Net([(0, 0), (200, 0), (400, 0)], **kw)


@pytest.fixture
def chain4():
    return lambda **kw: Net([(0, 0), (200, 0), (400, 0), (600, 0)], **kw)
