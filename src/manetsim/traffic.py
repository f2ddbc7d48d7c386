"""Constant-bit-rate application traffic over seeded source-sink pairs."""

from itertools import count

from .engine import US_PER_S, to_us

START_STAGGER_S = 5.0   # flow starts spread uniformly to avoid synchronized bursts


class Flow:
    __slots__ = ("flow_id", "src", "dst", "rate", "packet_size", "start_us", "stop_us")

    def __init__(self, flow_id, src, dst, rate, packet_size, start_us, stop_us):
        assert src != dst and rate > 0
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.rate = rate
        self.packet_size = packet_size
        self.start_us = start_us
        self.stop_us = stop_us


class AppPacket:
    """One application packet, as the routers forward it: ``hops`` counts
    the links it has crossed; DSR also sets ``route``, its source route, and
    ``idx``, the position in it of the node it is sent to."""

    __slots__ = ("flow_id", "seq", "size", "dst", "hops", "route", "idx")

    def __init__(self, flow_id, seq, size, dst):
        self.flow_id = flow_id
        self.seq = seq
        self.size = size
        self.dst = dst
        self.hops = 0
        self.route = None
        self.idx = 0


def setup_flows(n_flows, nodes, rng, *, rate, packet_size, stop_s):
    """Draw n_flows disjoint src/dst pairs without replacement."""
    endpoints = rng.sample(list(nodes), 2 * n_flows)
    stop_us = to_us(stop_s)
    flows = []
    for i in range(n_flows):
        start_us = to_us(rng.uniform(0.0, START_STAGGER_S))
        flows.append(Flow(i, endpoints[2 * i], endpoints[2 * i + 1],
                          rate, packet_size, start_us, stop_us))
    return flows


class TrafficGenerator:
    """Schedules periodic packet generation and hands packets to routing."""

    def __init__(self, sim, flows, trace, send_fn):
        self.sim = sim
        self.flows = flows
        self.trace = trace
        self.send_fn = send_fn   # fn(src_node, AppPacket)

    def start(self):
        for flow in self.flows:
            self.sim.at(flow.start_us, self._tick, flow,
                        int(round(US_PER_S / flow.rate)), count())

    def _tick(self, flow, period_us, seqs):
        """Generate flow's next packet, numbered from seqs, and schedule the
        one after it period_us later."""
        now = self.sim.now
        if now >= flow.stop_us:
            return
        seq = next(seqs)
        self.trace.record_generated(flow.flow_id, seq, now, flow.packet_size)
        self.send_fn(flow.src, AppPacket(flow.flow_id, seq, flow.packet_size, flow.dst))
        if now + period_us < flow.stop_us:
            self.sim.at(now + period_us, self._tick, flow, period_us, seqs)
