"""Correctness checks on one simulated cell, computed apart from the simulator.

A cell is given as plain data: its configuration, its flows, its per-packet
records ``{(flow, seq): (generated_us, received_us or None, hops)}``, the
metrics row the simulator reported, and for static cells the node positions.
Each check returns a list of problems; an empty list means the cell passed.
"""

import math

from inputs import adjacency, bfs_hops

US_PER_S = 1_000_000
REL_TOL = 1e-9


def _us(seconds):
    return int(round(seconds * US_PER_S))


def cbr_count(start_us, period_us, stop_us, lo_us, hi_us):
    """How many generation times start + k*period (k >= 0, before stop)
    fall in [lo, hi)."""
    end = min(stop_us, hi_us)
    first = max(0, -(-(lo_us - start_us) // period_us))
    last = -(-(end - start_us) // period_us) - 1
    return max(0, last - first + 1)


def recompute(records, packet_size):
    """PDR, throughput and mean delay of a windowed trace, with the sent and
    received counts.

    PDR is 100 * received / sent; throughput is the delivered bits over the
    span from the first generation to the last reception; the delay is the
    mean over delivered packets, in seconds.
    """
    sent = len(records)
    got = [(gen, recv) for gen, recv, _hops in records.values() if recv is not None]
    pdr = 100.0 * len(got) / sent if sent else 0.0
    if not got:
        return pdr, 0.0, None, sent, 0
    first_gen = min(gen for gen, _recv, _hops in records.values())
    last_recv = max(recv for _gen, recv in got)
    throughput = len(got) * packet_size * 8 / ((last_recv - first_gen) / US_PER_S)
    delay = sum(recv - gen for gen, recv in got) / len(got) / US_PER_S
    return pdr, throughput, delay, sent, len(got)


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_cell(cfg, flows, records, row, positions=None):
    """All checks of one cell.

    cfg: ScenarioConfig fields as a dict.  flows: (flow_id, src, dst,
    start_us, stop_us) tuples.  row: throughput, pdr, delay, packets_sent,
    packets_received as the simulator reported them.
    """
    problems = []
    warm, end = _us(cfg["warmup"]), _us(cfg["sim_time"])
    period = int(round(US_PER_S / cfg["rate"]))
    by_id = {f[0]: f for f in flows}

    # The CBR schedule: seq k of a flow is generated at start + k * period.
    for (flow, seq), (gen, _recv, _hops) in records.items():
        f = by_id.get(flow)
        if f is None or gen != f[3] + seq * period or gen >= f[4]:
            problems.append(f"packet {flow}/{seq} off the CBR schedule at {gen} us")
            break
    windowed = {k: r for k, r in records.items() if warm <= r[0] < end}
    want_sent = sum(cbr_count(f[3], period, f[4], warm, end) for f in flows)
    if row["packets_sent"] != want_sent:
        problems.append(f"packets_sent {row['packets_sent']} != CBR count {want_sent}")
    if row["packets_received"] > row["packets_sent"]:
        problems.append("packets_received > packets_sent")

    pdr, tput, delay, sent, received = recompute(windowed, cfg["packet_size"])
    if (sent, received) != (row["packets_sent"], row["packets_received"]):
        problems.append(f"trace counts {sent}/{received} != reported "
                        f"{row['packets_sent']}/{row['packets_received']}")
    for name, mine in (("pdr", pdr), ("throughput", tput), ("delay", delay)):
        if not _close(mine, row[name]):
            problems.append(f"{name} {row[name]!r} != recomputed {mine!r}")

    # No hop is faster than one airtime of a data packet plus the link latency.
    airtime = math.ceil(cfg["packet_size"] * 8 * US_PER_S / cfg["bandwidth"])
    per_hop = airtime + _us(cfg["per_hop_latency"])
    for (flow, seq), (gen, recv, hops) in records.items():
        if recv is None:
            continue
        if hops < 1 or recv - gen < hops * per_hop:
            problems.append(f"packet {flow}/{seq}: {hops} hops in {recv - gen} us")
            break

    if positions is not None:
        problems.extend(check_static_oracle(cfg, by_id, windowed, positions))
    return problems


def check_static_oracle(cfg, flows_by_id, windowed, positions):
    """On a static network with the ideal MAC every windowed packet arrives,
    over a shortest path of the unit-disk graph."""
    adj = adjacency(positions, cfg["radio_range"])
    dist = {}
    for (flow, seq), (_gen, recv, hops) in sorted(windowed.items()):
        src, dst = flows_by_id[flow][1], flows_by_id[flow][2]
        if src not in dist:
            dist[src] = bfs_hops(adj, src)
        if recv is None:
            return [f"packet {flow}/{seq} not delivered"]
        if hops != dist[src].get(dst):
            return [f"packet {flow}/{seq}: {hops} hops, BFS says {dist[src].get(dst)}"]
    return []
