"""Per-packet trace collection and the three comparison metrics.

All metrics are pure functions of the trace: recomputing from a trace
serialized to CSV reproduces the same numbers bit-exactly (timestamps are
integer microseconds, which survive the 6-decimal CSV round trip).
"""

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .engine import US_PER_S


class NoTraffic(Exception):
    pass


class NothingReceived(Exception):
    pass


class PacketTrace:
    """One record per generated application packet, plus control-byte
    counters keyed by protocol message kind."""

    def __init__(self):
        self.records = {}  # (flow_id, seq) -> [generated_us, received_us | None, hops]
        self.control_bytes = Counter()
        self.drops = Counter()

    def record_generated(self, flow_id, seq, t_us, size):
        key = (flow_id, seq)
        assert key not in self.records, "duplicate generation record"
        self.records[key] = [t_us, None, 0, size]

    def record_received(self, flow_id, seq, t_us, hops):
        rec = self.records[(flow_id, seq)]
        if rec[1] is not None:
            return  # duplicate delivery; first one wins
        assert t_us >= rec[0]
        rec[1] = t_us
        rec[2] = hops

    def record_control(self, kind, size):
        self.control_bytes[kind] += size

    def record_drop(self, reason):
        self.drops[reason] += 1

    @property
    def packets_sent(self):
        return len(self.records)

    @property
    def packets_received(self):
        return sum(1 for rec in self.records.values() if rec[1] is not None)

    def window(self, start_us, end_us):
        """Sub-trace of packets generated in [start_us, end_us)."""
        out = PacketTrace()
        out.records = {k: list(rec) for k, rec in self.records.items()
                       if start_us <= rec[0] < end_us}
        out.control_bytes = Counter(self.control_bytes)
        out.drops = Counter(self.drops)
        return out


def compute_pdr(trace):
    """Packet delivery ratio in percent: 100 * received / sent."""
    sent = trace.packets_sent
    if sent == 0:
        raise NoTraffic("no packets generated")
    return 100.0 * trace.packets_received / sent


def compute_throughput(trace):
    """Delivered bits over the span from first generation to last reception."""
    received = [rec for rec in trace.records.values() if rec[1] is not None]
    if not received:
        raise NothingReceived("no packet was delivered")
    first_gen = min(rec[0] for rec in trace.records.values())
    last_recv = max(rec[1] for rec in received)
    span_s = (last_recv - first_gen) / US_PER_S
    total_bits = sum(rec[3] for rec in received) * 8
    return total_bits / span_s


def compute_avg_delay(trace):
    """Mean end-to-end delay in seconds over delivered packets only."""
    delays = [rec[1] - rec[0] for rec in trace.records.values() if rec[1] is not None]
    if not delays:
        raise NothingReceived("no packet was delivered")
    return sum(delays) / len(delays) / US_PER_S


@dataclass(slots=True)
class MetricsRecord:
    """Scenario-level result row."""

    throughput: float
    pdr: float
    avg_e2e_delay: Optional[float]
    control_bytes: int
    packets_sent: int
    packets_received: int


def summarize(trace):
    """Build a MetricsRecord; a trace with zero deliveries yields
    throughput 0 and delay None rather than raising."""
    sent = trace.packets_sent
    pdr = compute_pdr(trace) if sent else 0.0
    control = sum(trace.control_bytes.values())
    try:
        tput = compute_throughput(trace)
        delay = compute_avg_delay(trace)
    except NothingReceived:
        tput = 0.0
        delay = None
    return MetricsRecord(tput, pdr, delay, control, sent, trace.packets_received)


def write_trace_csv(trace, path):
    """Serialize per-packet records: received_at is empty for losses."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flow", "seq", "generated_at", "received_at", "hops"])
        for (flow, seq) in sorted(trace.records):
            gen, recv, hops, _size = trace.records[(flow, seq)]
            writer.writerow([
                flow, seq, f"{gen / US_PER_S:.6f}",
                "" if recv is None else f"{recv / US_PER_S:.6f}",
                hops,
            ])


def read_trace_csv(path, packet_size):
    trace = PacketTrace()
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            flow = int(row["flow"])
            seq = int(row["seq"])
            gen = int(round(float(row["generated_at"]) * US_PER_S))
            trace.record_generated(flow, seq, gen, packet_size)
            if row["received_at"]:
                recv = int(round(float(row["received_at"]) * US_PER_S))
                trace.record_received(flow, seq, recv, int(row["hops"]))
    return trace
