"""Acceptance gate: oracle equivalence, conformance fuzzing, directional
comparison results, determinism and metric definitions.

Each test prints a single PASS/FAIL line so the gate can be read off the
terminal.  The sweep-backed criteria share one full grid run (module-scoped
fixture); expect the whole file to take several minutes.
"""

import math
import random
import time
from collections import deque

import numpy as np
import pytest

from manetsim.engine import RngStream, to_us
from manetsim.metrics import (NoTraffic, PacketTrace, compute_avg_delay,
                              compute_pdr, compute_throughput, summarize)
from manetsim.mobility import STATIC, FixedPositions
from manetsim.protocols import aodv, dsr, make_router
from manetsim.protocols.aodv import AodvEntry, Rreq
from manetsim.protocols.base import Flood
from manetsim.protocols.dsdv import UPDATE, DsdvRouter, _decode, _rank
from manetsim.radio import Frame
from manetsim.scenario import ScenarioConfig, build_simulation
from manetsim.sweep import SweepSpec, cell_mean, run_sweep

from conftest import Net

US = 1_000_000
RANGE_M = 250.0


def report(capsys, label, ok, detail=""):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"{label}: {detail}"


# -- graph oracle (independent of the routing code) ---------------------

def _adjacency(positions):
    n = len(positions)
    adj = [[] for _ in range(n)]
    for i in range(n):
        xi, yi = positions[i]
        for j in range(i + 1, n):
            xj, yj = positions[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= RANGE_M ** 2:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def _bfs_dist(adj, src):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _random_connected_topology(rng):
    n = rng.randint(10, 25)
    while True:
        positions = [(rng.uniform(0, 500), rng.uniform(0, 500))
                     for _ in range(n)]
        if len(_bfs_dist(_adjacency(positions), 0)) == n:
            return positions


# -- criterion 1: static-network delivery oracle ------------------------

def _run_static(protocol, positions, seed):
    config = ScenarioConfig(protocol=protocol, node_count=len(positions),
                            mac_mode="ideal", pause_time=STATIC,
                            sim_time=30.0, warmup=10.0, n_flows=4, seed=seed)
    sim, radio, routers, trace, flows, generator = build_simulation(
        config, mobility=FixedPositions(positions))
    for router in routers:
        router.start()
    generator.start()
    sim.run_until(to_us(config.sim_time + config.drain))
    return trace.window(to_us(config.warmup), to_us(config.sim_time)), flows


def test_criterion_1_static_network_oracle(capsys):
    started = time.perf_counter()
    problems = []
    for topo in range(20):
        rng = random.Random(1000 + topo)
        positions = _random_connected_topology(rng)
        adj = _adjacency(positions)
        dist = {src: _bfs_dist(adj, src) for src in range(len(positions))}
        for protocol in ("DSDV", "AODV", "DSR"):
            windowed, flows = _run_static(protocol, positions, seed=topo + 1)
            pdr = compute_pdr(windowed)
            if pdr != 100.0:
                problems.append(f"{protocol} topo {topo}: pdr {pdr:.2f}")
                continue
            by_id = {f.flow_id: f for f in flows}
            for (flow_id, _seq), rec in windowed.records.items():
                flow = by_id[flow_id]
                want = dist[flow.src][flow.dst]
                if rec[2] != want:
                    problems.append(f"{protocol} topo {topo}: "
                                    f"hops {rec[2]} != bfs {want}")
                    break
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s (budget 30s)")
    report(capsys, "criterion 1: static-network delivery/hop oracle",
           not problems,
           f" ({elapsed:.1f}s)" if not problems else f" {problems[:3]}")


# -- criterion 2: DSDV update-acceptance conformance --------------------

def test_criterion_2_dsdv_acceptance_rule(capsys):
    """Each triple on a fresh network: receiver 0 learns a route to 3 from
    origin 1, then hears origin 2 advertise another, each as a one-row
    update through deliver_broadcast."""
    rng = random.Random(42)
    mismatches = 0
    for trial in range(1000):
        net = Net([(0, 0), (100, 0), (200, 0), (300, 0)], protocol="DSDV")
        router = net.routers[0]

        def advertise(origin, seq, adv_hops):
            update = (origin, np.array([3]), np.array([_rank(seq, adv_hops + 1)]))
            DsdvRouter.deliver_broadcast(net.routers, 1, Frame(origin, 0, UPDATE, update))

        def route():
            seq, hops = _decode(router._ranks.item(3))
            return seq, hops, router._next_hops.item(3)

        seq_stored = rng.randrange(2, 21)
        hops_stored = rng.randrange(1, 9)
        advertise(1, seq_stored, hops_stored - 1)
        assert route() == (seq_stored, hops_stored, 1)
        seq_new = rng.randrange(0, 23)
        adv_hops = rng.randrange(0, 9)
        # direct restatement of the acceptance conditions
        expected = (seq_new > seq_stored
                    or (seq_new == seq_stored and adv_hops + 1 < hops_stored))
        advertise(2, seq_new, adv_hops)
        if route() != ((seq_new, adv_hops + 1, 2) if expected
                       else (seq_stored, hops_stored, 1)):
            mismatches += 1
    report(capsys, "criterion 2: DSDV update-acceptance rule (1000 triples)",
           mismatches == 0, f" mismatches={mismatches}")


# -- criterion 3: AODV cached-reply gate and flood dedup ----------------

def test_criterion_3_aodv_gate(capsys):
    rng = random.Random(7)
    net = Net([(0, 0), (100, 0), (200, 0)])
    log = []
    net.radio.on_transmit = lambda fr: log.append((fr.kind, fr.payload))
    mismatches = 0
    rebroadcasts = 0
    for trial in range(1000):
        router = make_router("AODV", 1, net.sim, net.radio, net.trace,
                             RngStream(trial, "protocol:1"))
        entry = None
        if rng.random() < 0.8:
            dest_seq = rng.randrange(0, 11)
            expires = net.sim.now + US if rng.random() < 0.8 else net.sim.now
            entry = AodvEntry(9, 2, rng.randrange(1, 5), dest_seq, expires)
            entry.valid = rng.random() < 0.8
            router.table[9] = entry
        known = aodv.UNKNOWN if rng.random() < 0.3 else rng.randrange(0, 11)
        rreq = Rreq(origin=0, dest=9, dest_seq_known=known, origin_seq=1)
        usable = (entry is not None and entry.valid
                  and net.sim.now < entry.expires_at
                  and (known == aodv.UNKNOWN or entry.dest_seq >= known))
        net.routers[1] = router
        frame = Frame(0, aodv.RREQ_BYTES, aodv.RREQ, rreq)
        before = len(log)
        aodv.AodvRouter.deliver_broadcast(net.routers, 0b010, frame)
        aodv.AodvRouter.deliver_broadcast(net.routers, 0b010, frame)  # duplicate
        emitted = log[before:]
        kinds = [k for k, _ in emitted]
        if usable:
            if kinds != ["aodv-rrep"]:
                mismatches += 1
        else:
            if kinds != ["aodv-rreq"]:
                mismatches += 1
        rebroadcasts += kinds.count("aodv-rreq") > 1
    report(capsys, "criterion 3: AODV cache-reply gate + dedup (1000 RREQs)",
           mismatches == 0 and rebroadcasts == 0,
           f" mismatches={mismatches} double-rebroadcasts={rebroadcasts}")


# -- criterion 4: DSR cache purge and source-route integrity ------------

def test_criterion_4_dsr_purge_and_routes(capsys):
    # Scripted route error over a 4-node chain: break the last link while
    # traffic flows and confirm every cache on the return path drops it.
    net = Net([(0, 0), (200, 0), (400, 0), (600, 0)], protocol="DSR",
              ideal=False)
    net.send(0, 3)
    net.run(5)
    net.mobility.move(3, (5000, 0))
    net.send(0, 3)
    net.run(9)
    stale = 0
    for node in (0, 1, 2):
        for path in net.routers[node].cache.paths:
            for a, b in zip(path, path[1:]):
                stale += {a, b} == {2, 3}

    # A request whose record and flood come from random draws reaches a
    # fresh router at the head of a cached path: the router is skipped if
    # the request has seen it, replies with record + cached if that path is
    # loop-free, and rebroadcasts otherwise.
    rng = random.Random(99)
    pool = list(range(20))
    net = Net([(10 * node, 0) for node in pool], protocol="DSR")
    log = []
    net.radio.on_transmit = lambda fr: log.append(
        (fr.kind, fr.payload.record if fr.kind == dsr.RREQ else fr.payload))
    bad = 0
    for _ in range(100_000):
        record = tuple(rng.sample(pool, rng.randrange(1, 7)))
        cached = tuple(rng.sample(pool, rng.randrange(2, 7)))
        node = cached[0]
        router = make_router("DSR", node, net.sim, net.radio, net.trace,
                             net.routers[node].rng)
        router.cache.insert(cached)
        net.routers[node] = router
        flood = Flood(record[0])
        flood.seen = sum(1 << hop for hop in record)
        rreq = dsr._Rreq(cached[-1], record, flood)
        log.clear()
        dsr.DsrRouter.deliver_broadcast(net.routers, 1 << node,
                                        Frame(record[-1], 0, dsr.RREQ, rreq))
        net.sim.clear()     # the reply or rebroadcast goes no further
        path = record + cached
        if node in record:
            expected = []
        elif len(set(path)) == len(path):
            expected = [(dsr.RREP, path)]
        else:
            expected = [(dsr.RREQ, record + (node,))]
        bad += log != expected
    report(capsys, "criterion 4: DSR cache purge + route integrity",
           stale == 0 and bad == 0, f" stale-links={stale} bad-routes={bad}")


# -- criteria 5-7: the full comparison sweep ----------------------------

@pytest.fixture(scope="module")
def full_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_sweep")
    spec = SweepSpec(protocols=["DSDV", "AODV", "DSR"],
                     node_counts=[50, 75, 100],
                     pause_times=[20.0, 40.0, 60.0, 80.0, 100.0],
                     seeds_per_cell=5)
    base = ScenarioConfig()     # realistic MAC, 100 s, seeds 1..5 per cell
    started = time.perf_counter()
    rows, failures = run_sweep(spec, base, str(out))
    elapsed = time.perf_counter() - started
    assert failures == []
    return spec, rows, elapsed


def test_criterion_5_delay_ordering(capsys, full_sweep):
    spec, rows, elapsed = full_sweep
    wins = 0
    for nodes in spec.node_counts:
        for pause in spec.pause_times:
            dsdv = cell_mean(rows, "DSDV", nodes, pause, "delay")
            aodv = cell_mean(rows, "AODV", nodes, pause, "delay")
            wins += dsdv is not None and aodv is not None and dsdv < aodv
    ok = wins >= 12 and elapsed < 600.0
    report(capsys, "criterion 5: mean delay DSDV < AODV in >= 12/15 cells",
           ok, f" wins={wins}/15 sweep={elapsed:.0f}s")


def test_criterion_6_pdr_ordering(capsys, full_sweep):
    _, rows, _ = full_sweep
    dsdv = cell_mean(rows, "DSDV", 100, 20.0, "pdr")
    aodv = cell_mean(rows, "AODV", 100, 20.0, "pdr")
    dsr = cell_mean(rows, "DSR", 100, 20.0, "pdr")
    ok = aodv >= dsdv + 5.0 and dsr >= dsdv + 5.0
    report(capsys, "criterion 6: on-demand PDR >= DSDV + 5pp at 100n/p20",
           ok, f" dsdv={dsdv:.1f} aodv={aodv:.1f} dsr={dsr:.1f}")


def test_criterion_7_dsdv_throughput_collapse(capsys, full_sweep):
    _, rows, _ = full_sweep
    small = cell_mean(rows, "DSDV", 50, 20.0, "throughput")
    large = cell_mean(rows, "DSDV", 100, 20.0, "throughput")
    ok = large < 0.5 * small
    report(capsys, "criterion 7: DSDV throughput at 100n < 50% of 50n",
           ok, f" 50n={small:.0f} 100n={large:.0f} bit/s")


# -- criterion 8: determinism -------------------------------------------

def test_criterion_8_bytewise_determinism(capsys, tmp_path):
    spec = SweepSpec(protocols=["AODV"], node_counts=[30],
                     pause_times=[20.0], seeds_per_cell=1)
    base = ScenarioConfig(node_count=30, n_flows=5, sim_time=20.0, warmup=5.0)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        _rows, failures = run_sweep(spec, base, str(out), trace_cells=True)
        assert failures == []
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    same = outputs[0] == outputs[1]
    traced = any(name.startswith("trace_") for name in outputs[0])
    report(capsys, "criterion 8: identical config+seed -> identical bytes",
           same and traced, f" files={sorted(outputs[0])}")


# -- criterion 9: metric definitions ------------------------------------

def test_criterion_9_metric_examples(capsys):
    problems = []

    t = PacketTrace()
    for seq in range(5):
        t.record_generated(0, seq, 0, 512)
    for seq in range(4):
        t.record_received(0, seq, 1000, 1)
    if compute_pdr(t) != 80.0:
        problems.append("pdr 4/5")
    with pytest.raises(NoTraffic):
        compute_pdr(PacketTrace())

    t = PacketTrace()
    t.record_generated(0, 0, 0, 512)
    t.record_received(0, 0, US, 1)
    if compute_throughput(t) != 4096.0:
        problems.append("throughput 512B/1s")

    t = PacketTrace()
    t.record_generated(0, 0, 0, 512)
    t.record_received(0, 0, 3048, 1)
    if compute_avg_delay(t) != 0.003048:
        problems.append("delay from constants")

    # the same figure from an actual 1-hop ideal-MAC exchange, once the
    # route exists (the first packet pays for discovery)
    net = Net([(0, 0), (100, 0)])
    net.send(0, 1)
    net.run(1)
    net.send(0, 1)
    net.run(2)
    settled = net.trace.window(1 * US, 2 * US)
    if compute_avg_delay(settled) != 0.003048:
        problems.append("delay end-to-end")

    empty = PacketTrace()
    empty.record_generated(0, 0, 0, 512)
    rec = summarize(empty)
    if (rec.throughput, rec.avg_e2e_delay, rec.pdr) != (0.0, None, 0.0):
        problems.append("summarize zero deliveries")

    report(capsys, "criterion 9: metric definitions exact", not problems,
           f" {problems}")
