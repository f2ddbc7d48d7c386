"""Constant-bit-rate application traffic over seeded source-sink pairs."""

from .engine import US_PER_S, to_us

START_STAGGER_S = 5.0   # flow starts spread uniformly to avoid synchronized bursts


class TooManyFlows(Exception):
    pass


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
    __slots__ = ("flow_id", "seq", "generated_at", "size", "src", "dst")

    def __init__(self, flow_id, seq, generated_at, size, src, dst):
        self.flow_id = flow_id
        self.seq = seq
        self.generated_at = generated_at
        self.size = size
        self.src = src
        self.dst = dst


def setup_flows(n_flows, nodes, rng, *, rate, packet_size, stop_s):
    """Draw n_flows disjoint src/dst pairs without replacement."""
    nodes = list(nodes)
    if n_flows < 1 or n_flows > len(nodes) // 2:
        raise TooManyFlows(
            f"n_flows {n_flows} needs {2 * n_flows} distinct endpoints, "
            f"only {len(nodes)} nodes available"
        )
    endpoints = rng.sample(nodes, 2 * n_flows)
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
        self._seq = {f.flow_id: 0 for f in flows}

    def start(self):
        for flow in self.flows:
            self.sim.at(flow.start_us, self._make_tick(flow))

    def _make_tick(self, flow):
        period_us = int(round(US_PER_S / flow.rate))

        def tick():
            now = self.sim.now
            if now >= flow.stop_us:
                return
            seq = self._seq[flow.flow_id]
            self._seq[flow.flow_id] = seq + 1
            pkt = AppPacket(flow.flow_id, seq, now, flow.packet_size,
                            flow.src, flow.dst)
            self.trace.record_generated(flow.flow_id, seq, now, flow.packet_size)
            self.send_fn(flow.src, pkt)
            if now + period_us < flow.stop_us:
                self.sim.at(now + period_us, tick)

        return tick
