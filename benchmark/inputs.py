"""Workload inputs: which simulator calls one round of each workload makes.

Pure Python, with no import of manetsim, so that the set-up probe can build
its inputs before it starts the clock.  Inputs derive from the benchmark's
``--seed`` or are fixed; the same seed always gives the same round.
"""

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

PROTOCOLS = ("DSDV", "AODV", "DSR")
WORKLOADS = ("mobile", "static-ideal", "heavy-load")

RANGE_M = 250.0          # ScenarioConfig.radio_range default; the BFS oracle uses it

# static-ideal: 100 nodes on a 1000 m square give shortest routes of up to
# about 6 hops at 250 m range.  AODV runs on topologies drawn from the
# benchmark seed, many of them, so that one unusual topology moves its time
# little.  DSDV and DSR run on a fixed set that no seed changes: both
# sometimes deliver over a route longer than the shortest (DSDV for about a
# second after each sequence-number wave, DSR through cached replies), so
# on some topologies the hop oracle fails.  On a fixed set those cells fail
# on every run, and the failed share is the same whatever the seed.
STATIC_NODES = 100
STATIC_SIDE_M = 1000.0
STATIC_TOPOLOGIES = 40
STATIC_FIXED_TOPOLOGIES = 10
STATIC_FLOWS = 20
STATIC_SIM_S = 30.0

# heavy-load: 50 nodes, offered load raised by flow count to node_count/2.
# DSDV cells cost a tenth of AODV and DSR cells here, so DSDV runs more
# seeds to keep its time long enough to measure.
HEAVY_NODES = 50
HEAVY_FLOWS = (15, 25)
HEAVY_SEEDS = {"DSDV": 6, "AODV": 2, "DSR": 2}
HEAVY_SIM_S = 30.0


@dataclass(frozen=True)
class Call:
    """One call into the simulator's public entry points.

    ``entry`` is "sweep" (``run_sweep`` of ``config`` at each of
    ``node_counts``) or "scenario" (``run_scenario`` on ``config``, with
    ``positions`` as FixedPositions).
    """
    protocol: str
    entry: str
    config: dict
    node_counts: Tuple[int, ...] = ()
    positions: Optional[Tuple[Tuple[float, float], ...]] = None

    def cell_configs(self):
        """ScenarioConfig keyword sets of the cells this call runs, in the
        order ``SweepSpec.cells`` yields them."""
        if self.entry == "scenario":
            return [dict(self.config)]
        return [dict(self.config, node_count=n) for n in self.node_counts]


def adjacency(positions, range_m=RANGE_M):
    n = len(positions)
    adj = [[] for _ in range(n)]
    rsq = range_m * range_m
    for i in range(n):
        xi, yi = positions[i]
        for j in range(i + 1, n):
            xj, yj = positions[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= rsq:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def bfs_hops(adj, src):
    """Shortest hop count from src to every reachable node."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def connected_topology(rng, nodes, side):
    while True:
        positions = tuple((rng.uniform(0.0, side), rng.uniform(0.0, side))
                          for _ in range(nodes))
        if len(bfs_hops(adjacency(positions), 0)) == nodes:
            return positions


def _mobile(seed):
    # The fixed ROADMAP panel at scenario seed 1, so that its figures compare
    # with the published per-cell baseline; --seed does not change it.
    return [Call(p, "sweep", dict(protocol=p, pause_time=20.0, seed=1,
                                  sim_time=100.0, n_flows=10, rate=4.0,
                                  packet_size=512, mac_mode="realistic"),
                 node_counts=(50, 100))
            for p in PROTOCOLS]


def _static_cells(protocols, stream, count):
    """Connected topologies, each with its own scenario seed, drawn from
    the named random stream."""
    rng = random.Random(stream)
    topologies = [(connected_topology(rng, STATIC_NODES, STATIC_SIDE_M),
                   rng.randrange(1, 2 ** 31))
                  for _ in range(count)]
    return [Call(p, "scenario",
                 dict(protocol=p, node_count=STATIC_NODES,
                      area_width=STATIC_SIDE_M, area_height=STATIC_SIDE_M,
                      pause_time=math.inf, mac_mode="ideal",
                      sim_time=STATIC_SIM_S, n_flows=STATIC_FLOWS, seed=s),
                 positions=positions)
            for p in protocols for positions, s in topologies]


def _interleave(*lists):
    """Merge lists evenly, so that a slow spell of the host is shared by
    every protocol instead of landing on one."""
    keyed = [((i + 0.5) / len(items), j, item)
             for j, items in enumerate(lists) for i, item in enumerate(items)]
    return [item for _pos, _j, item in sorted(keyed, key=lambda k: k[:2])]


def _static_ideal(seed):
    fixed = "static-ideal/fixed"
    return _interleave(_static_cells(("DSDV",), fixed, STATIC_FIXED_TOPOLOGIES),
                       _static_cells(("AODV",), f"static-ideal/{seed}", STATIC_TOPOLOGIES),
                       _static_cells(("DSR",), fixed, STATIC_FIXED_TOPOLOGIES))


def _heavy_load(seed):
    # One cell per call, so that the protocols' cells interleave.
    first = random.Random(f"heavy-load/{seed}").randrange(1, 2 ** 31)
    per_protocol = [[Call(p, "sweep", dict(protocol=p, pause_time=20.0,
                                           seed=first + k, sim_time=HEAVY_SIM_S,
                                           n_flows=flows, mac_mode="realistic"),
                          node_counts=(HEAVY_NODES,))
                     for flows in HEAVY_FLOWS for k in range(HEAVY_SEEDS[p])]
                    for p in PROTOCOLS]
    return _interleave(*per_protocol)


def make_round(workload, seed) -> List[Call]:
    """The calls of one round of ``workload`` for benchmark seed ``seed``."""
    return {"mobile": _mobile, "static-ideal": _static_ideal,
            "heavy-load": _heavy_load}[workload](seed)


def digest_key(workload, seed):
    """Name of the reference digest for this round's inputs."""
    return "mobile" if workload == "mobile" else f"{workload}/seed{seed}"
