"""Per-packet trace collection and the three comparison metrics.

``summarize`` is the one definition of throughput, packet delivery ratio
and average end-to-end delay, a pure function of a trace's records.
Timestamps are integer microseconds, so the 6-decimal times of trace.csv
give them back exactly.  trace.csv has no size column: a reader that
recomputes throughput from it takes the packet size from the run's config.
"""

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .engine import US_PER_S


class PacketTrace:
    """One record per generated application packet, plus control-byte
    counters keyed by protocol message kind."""

    def __init__(self):
        # (flow_id, seq) -> [generated_us, received_us | None, hops, size]
        self.records = {}
        self.control_bytes = Counter()
        self.drops = Counter()

    def record_generated(self, flow_id, seq, t_us, size):
        key = (flow_id, seq)
        assert key not in self.records, "duplicate generation record"
        self.records[key] = [t_us, None, 0, size]

    def record_received(self, flow_id, seq, t_us, hops):
        rec = self.records[(flow_id, seq)]
        assert rec[1] is None, "duplicate delivery"
        assert t_us >= rec[0]
        rec[1] = t_us
        rec[2] = hops

    def record_control(self, kind, size):
        self.control_bytes[kind] += size

    def record_drop(self, reason):
        self.drops[reason] += 1

    def window(self, start_us, end_us):
        """Sub-trace of packets generated in [start_us, end_us)."""
        out = PacketTrace()
        out.records = {k: list(rec) for k, rec in self.records.items()
                       if start_us <= rec[0] < end_us}
        out.control_bytes = Counter(self.control_bytes)
        out.drops = Counter(self.drops)
        return out


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
    """The MetricsRecord of a trace: PDR in percent (0 without traffic);
    throughput, delivered bits over the span from the first generation to
    the last reception (0 without a delivery); mean delay in seconds of the
    delivered packets (None without one).  control_bytes is the whole
    run's, also for a window, which copies the run's counter."""
    records = trace.records.values()
    delivered = [rec for rec in records if rec[1] is not None]
    sent = len(records)
    received = len(delivered)
    pdr = 100.0 * received / sent if sent else 0.0
    control = sum(trace.control_bytes.values())
    if not delivered:
        return MetricsRecord(0.0, pdr, None, control, sent, received)
    first_gen = min(rec[0] for rec in records)
    last_recv = max(rec[1] for rec in delivered)
    bits = sum(rec[3] for rec in delivered) * 8
    throughput = bits / ((last_recv - first_gen) / US_PER_S)
    delay = sum(rec[1] - rec[0] for rec in delivered) / received / US_PER_S
    return MetricsRecord(throughput, pdr, delay, control, sent, received)


def write_trace_csv(trace, path):
    """Serialize per-packet records: received_at is empty for losses."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flow", "seq", "generated_at", "received_at", "hops"])
        for (flow, seq), (gen, recv, hops, _size) in sorted(trace.records.items()):
            writer.writerow([flow, seq, f"{gen / US_PER_S:.6f}",
                             "" if recv is None else f"{recv / US_PER_S:.6f}", hops])
