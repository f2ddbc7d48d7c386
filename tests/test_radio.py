"""Link model: range and reach masks, airtime, serialization, collisions,
retries."""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import manetsim.mobility as mobility
from manetsim.engine import Simulator
from manetsim.mobility import FixedPositions, RandomWaypoint
from manetsim.radio import Frame

from conftest import radio_for

US = 1_000_000


def nodes(mask):
    """The set bits of a receiver mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def make_radio(positions, ideal=False, retry_limit=3):
    sim = Simulator()
    radio = radio_for(sim, FixedPositions(positions), ideal=ideal,
                      retry_limit=retry_limit)
    inbox = []
    radio.on_receive = lambda node, frame: inbox.append((sim.now, node, frame))
    radio.on_broadcast = lambda mask, frame: inbox.extend(
        (sim.now, node, frame) for node in nodes(mask))
    return sim, radio, inbox


def frame(src, size=512, kind="data", payload=None):
    return Frame(src, size, kind, payload)


def test_airtime_is_ceiled_bits_over_bandwidth():
    _, radio, _ = make_radio([(0, 0), (1, 1)])
    assert radio.airtime_us(512) == 2048   # 512*8 / 2e6 s
    assert radio.airtime_us(1) == 4
    assert radio.airtime_us(250) == 1000


def test_in_range_is_symmetric_boundary_inclusive():
    _, radio, _ = make_radio([(0, 0), (250, 0), (250.1, 0)])
    assert radio._reach(0, 0) >> 1 & 1 and radio._reach(1, 0) >> 0 & 1
    assert not radio._reach(0, 0) >> 2 & 1


def test_neighbors_matches_brute_force_oracle():
    positions = [(37 * i % 500, 91 * i % 500) for i in range(40)]
    _, radio, _ = make_radio(positions)
    for node in range(40):
        oracle = {
            j for j in range(40) if j != node
            and math.dist(positions[node], positions[j]) <= 250.0
        }
        assert set(nodes(radio._reach(node, 0))) == oracle


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 500), st.floats(0, 500)),
                min_size=2, max_size=25))
def test_neighbors_oracle_random_layouts(positions):
    _, radio, _ = make_radio(positions)
    n = len(positions)
    for node in range(n):
        oracle = {j for j in range(n) if j != node
                  and math.dist(positions[node], positions[j]) <= 250.0}
        assert set(nodes(radio._reach(node, 0))) == oracle


# -- reach masks against brute force ---------------------------------------

def brute_force_reach(mob, range_m, node, t_us):
    """The definition of reach: the nodes within distance range_m of node at
    t_us, node excluded, as a bit mask, evaluated from all positions."""
    xy = mob.positions_xy(t_us)
    d = xy - xy[:, node, None]
    d *= d
    within = np.flatnonzero(d[0] + d[1] <= range_m * range_m).tolist()
    return sum(1 << k for k in within if k != node)


def assert_masks_match(radio, oracle, range_m, queries):
    """Query the radio at each (t_us, node), in order, and compare every
    node's mask at that time with brute force over the oracle's twin
    mobility model."""
    n = radio.node_count
    for t, node in queries:
        assert radio._reach(node % n, t) == brute_force_reach(oracle, range_m, node % n, t)
        for other in range(n):
            assert radio._reach(other, t) == brute_force_reach(oracle, range_m, other, t), \
                (t, other)


class Script:
    """Stands in for a node's random stream: uniform() returns the scripted
    values in order."""

    def __init__(self, values):
        self._values = iter(values)

    def uniform(self, lo, hi):
        return next(self._values)


def scripted_waypoint(start, legs, pause_time):
    """A RandomWaypoint whose draws are scripted: node i starts at start[i]
    and walks the (x, y, speed) legs of legs[i] in turn, then creeps 1 m at
    1 nm/s, which outlasts any test."""
    streams = {"mobility:init": [c for p in start for c in p]}
    for i, node_legs in enumerate(legs):
        x, y = node_legs[-1][:2] if node_legs else start[i]
        streams[f"mobility:{i}"] = [v for leg in [*node_legs, (x + 1.0, y, 1e-9)]
                                    for v in leg]
    with mock.patch.object(mobility, "RngStream",
                           lambda seed, name: Script(streams[name])):
        return RandomWaypoint(len(start), 2000.0, 2000.0, 10.0, seed=0,
                              min_speed=0.1, pause_time=pause_time)


def waypoint_radio(make_mobility, range_m):
    """(radio, oracle): a radio over one model and a twin model for brute
    force, so that the oracle's queries never advance the radio's model."""
    mob = make_mobility()
    radio = radio_for(Simulator(), mob, range_m=range_m)
    return radio, make_mobility()


query_steps = st.lists(
    st.tuples(st.one_of(st.integers(0, 2_000), st.integers(0, 3 * US)),
              st.integers(0, 63)), min_size=1, max_size=40)


def query_times(steps, start=0):
    t = start
    for step, node in steps:
        t += step
        yield t, node


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12),
       side=st.floats(50.0, 800.0), range_m=st.floats(20.0, 400.0),
       max_speed=st.floats(1.0, 30.0), pause=st.sampled_from([0.0, 20.0]),
       rnd=st.randoms(use_true_random=False))
def test_reach_masks_match_brute_force_random_waypoint(seed, n, side, range_m,
                                                       max_speed, pause, rnd):
    radio, oracle = waypoint_radio(
        lambda: RandomWaypoint(n, side, side, max_speed, seed, min_speed=0.1,
                               pause_time=pause),
        range_m)
    # Steps from a plain random stream: a millisecond or up to 3 s apart.
    steps = [(rnd.choice((rnd.randint(0, 2_000), rnd.randint(0, 3 * US))),
              rnd.randrange(n)) for _ in range(40)]
    assert_masks_match(radio, oracle, range_m, query_times(steps))


def test_reach_masks_match_brute_force_dense_queries():
    """A query every millisecond while links come and go: each link change
    is seen within a millisecond of when it happens."""
    radio, oracle = waypoint_radio(
        lambda: RandomWaypoint(10, 200.0, 200.0, 20.0, seed=5, min_speed=0.1,
                               pause_time=0.0), 100.0)
    for t in range(0, 20 * US, 1000):
        node = t // 1000 % 10
        assert radio._reach(node, t) == brute_force_reach(oracle, 100.0, node, t), t


# Offsets whose length is exactly 250 m in binary floating point.
RANGE_OFFSETS = [(150.0, 200.0), (200.0, -150.0), (-70.0, 240.0), (240.0, 70.0),
                 (0.0, 250.0), (-250.0, 0.0)]


@settings(max_examples=40, deadline=None)
@given(base=st.tuples(st.floats(0.0, 800.0), st.floats(0.0, 800.0)),
       heading=st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)),
       speed=st.floats(0.5, 25.0), steps=query_steps)
@example(base=(300.0, 300.0), heading=(410.3, -77.7), speed=12.5,
         steps=[(997, 0)] * 40)      # the verdicts of node 0 change 33 times
@example(base=(0.0, 0.0), heading=(0.0, 2.2250738585072014e-308), speed=1.0,
         steps=[(0, 0)])             # entry times overflow to inf
def test_reach_masks_match_brute_force_grazing_pairs(base, heading, speed, steps):
    """Parallel legs at distance exactly the range: rounding alone moves
    the pair in and out of range, and every such verdict must agree."""
    bx, by = base
    hx, hy = heading
    start = [(bx, by)] + [(bx + ox, by + oy) for ox, oy in RANGE_OFFSETS]
    legs = [[(x + hx, y + hy, speed)] for x, y in start]
    radio, oracle = waypoint_radio(lambda: scripted_waypoint(start, legs, 0.0), 250.0)
    assert_masks_match(radio, oracle, 250.0, query_times(steps))


@settings(max_examples=40, deadline=None)
@given(offset=st.sampled_from(RANGE_OFFSETS), speed=st.floats(0.5, 25.0),
       approach=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
       steps=query_steps)
def test_reach_masks_match_brute_force_pause_on_boundary(offset, speed, approach,
                                                         steps):
    """Node 0 walks to a point exactly the range from node 1, pauses there
    for 20 s and walks on, while node 1 rests."""
    ox, oy = offset
    stop = (500.0 + ox, 500.0 + oy)
    start = [(stop[0] + approach[0], stop[1] + approach[1]), (500.0, 500.0)]
    legs = [[(*stop, speed), (100.0, 900.0, speed)], []]
    radio, oracle = waypoint_radio(lambda: scripted_waypoint(start, legs, 20.0), 250.0)
    assert_masks_match(radio, oracle, 250.0, query_times(steps))


positions_int = st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
                         min_size=2, max_size=10)


@settings(max_examples=60, deadline=None)
@given(positions=positions_int,
       moves=st.lists(st.tuples(st.integers(0, 9),
                                st.one_of(st.sampled_from(RANGE_OFFSETS),
                                          st.tuples(st.integers(-300, 300),
                                                    st.integers(-300, 300)),
                                          st.tuples(st.floats(-300, 300),
                                                    st.floats(-300, 300))),
                                st.integers(0, 2), st.integers(0, 1_000)),
                      max_size=15))
@example(positions=[(0, 0), (150, 200), (250, 0), (251, 0)], moves=[])
def test_reach_masks_match_brute_force_fixed_positions_and_moves(positions, moves):
    """Integer and float positions and moves between queries, some of them
    to exactly the range from node 0, some at the same instant."""
    fixed = FixedPositions(positions)
    oracle = FixedPositions(positions)
    radio = radio_for(Simulator(), fixed)
    n = fixed.node_count
    t = 0
    assert_masks_match(radio, oracle, 250.0, [(t, 0)])
    for node, xy, from_node_0, step in moves:
        if from_node_0 == 0:
            x0, y0 = oracle.positions_xy(t)[:, 0].tolist()
            xy = (x0 + xy[0], y0 + xy[1])
        for mob in (fixed, oracle):
            mob.move(node % n, xy)
        t += step
        assert_masks_match(radio, oracle, 250.0, [(t, node)])


def test_broadcast_reaches_only_nodes_in_range():
    sim, radio, inbox = make_radio([(0, 0), (100, 0), (600, 0)], ideal=True)
    count = radio.broadcast(0, frame(0))
    sim.run_until(US)
    assert count == 1
    assert [(node) for _, node, _ in inbox] == [1]


def test_delivery_delay_is_airtime_plus_latency():
    sim, radio, inbox = make_radio([(0, 0), (100, 0)], ideal=True)
    radio.broadcast(0, frame(0, size=512))
    sim.run_until(US)
    assert inbox[0][0] == 2048 + 1000


def test_sender_fifo_serializes_back_to_back_transmissions():
    sim, radio, inbox = make_radio([(0, 0), (100, 0)])
    radio.broadcast(0, frame(0))
    radio.broadcast(0, frame(0))   # queued behind the first
    sim.run_until(US)
    assert [t for t, _, _ in inbox] == [3048, 5096]
    assert radio.stats["rx_collision"] == 0


def test_simultaneous_senders_collide_at_common_receiver():
    # 0 and 1 both reach 2; they cannot hear each other's collision there.
    sim, radio, inbox = make_radio([(0, 0), (400, 0), (200, 0)])
    sim.at(0, lambda: radio.broadcast(0, frame(0)))
    sim.at(0, lambda: radio.broadcast(1, frame(1)))
    sim.run_until(US)
    receivers = [node for _, node, _ in inbox]
    assert 2 not in receivers
    assert radio.stats["rx_collision"] == 2
    # 0 and 1 are out of range of each other, nothing else is delivered
    assert receivers == []


def test_ideal_mode_has_no_collisions():
    sim, radio, inbox = make_radio([(0, 0), (400, 0), (200, 0)], ideal=True)
    sim.at(0, lambda: radio.broadcast(0, frame(0)))
    sim.at(0, lambda: radio.broadcast(1, frame(1)))
    sim.run_until(US)
    assert sorted(node for _, node, _ in inbox) == [2, 2]


def test_collision_with_merged_busy_region():
    # A and B overlap and merge; C overlaps only the merged region and must
    # still be flagged.
    _, radio, _ = make_radio([(0, 0), (100, 0)])
    a, b, c, d = (radio._note_signals(start, end, 1 << 1)
                  for start, end in ((0, 1000), (500, 1500), (1400, 2000), (3000, 4000)))
    assert [tx.collided for tx in (a, b, c, d)] == [1 << 1, 1 << 1, 1 << 1, 0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10),
                          st.integers(1, 10), st.sets(st.integers(0, 4), min_size=1)),
                min_size=1, max_size=12))
@example([(0, 0, 5, {1}), (0, 5, 5, {1, 2})])     # back to back: no collision
@example([(0, 4, 5, {1}), (0, 0, 5, {1, 2})])     # overlap, later one first
def test_collision_flags_match_pairwise_overlap(sends):
    """A copy collides exactly when another send heard at the same receiver
    overlaps it in time."""
    sim, radio, _ = make_radio([(0, 0)] * 5)
    noted = []
    for now, delay, air, receivers in sorted(sends, key=lambda send: send[0]):
        sim.now = now                 # sends are noted in time order
        start = now + delay
        tx = radio._note_signals(start, start + air, sum(1 << r for r in receivers))
        noted.append((start, start + air, receivers, tx))
    for i, (start, end, receivers, tx) in enumerate(noted):
        assert tx.collided & ~tx.mask == 0
        for r in receivers:
            expected = any(r in others and s < end and e > start
                           for j, (s, e, others, _) in enumerate(noted) if j != i)
            assert bool(tx.collided >> r & 1) == expected


def test_unicast_delivers_and_counts():
    sim, radio, inbox = make_radio([(0, 0), (100, 0)])
    radio.unicast(0, 1, frame(0))
    sim.run_until(US)
    assert [(t, n) for t, n, _ in inbox] == [(3048, 1)]
    assert radio.stats["tx_unicast"] == 1
    assert radio.stats["link_broken"] == 0


def test_unicast_out_of_range_retries_then_reports_link_break():
    sim, radio, inbox = make_radio([(0, 0), (600, 0)], retry_limit=3)
    broken = []
    radio.register_link_break(0, lambda dst, fr: broken.append(dst))
    radio.unicast(0, 1, frame(0))
    sim.run_until(US)
    assert inbox == []
    assert radio.stats["tx_unicast"] == 4  # initial + 3 retries
    assert radio.stats["mac_retry"] == 3
    assert broken == [1]


def test_unicast_ideal_mode_does_not_retry():
    sim, radio, inbox = make_radio([(0, 0), (600, 0)], ideal=True)
    broken = []
    radio.register_link_break(0, lambda dst, fr: broken.append(dst))
    radio.unicast(0, 1, frame(0))
    sim.run_until(US)
    assert radio.stats["tx_unicast"] == 1
    assert broken == [1]


def test_unicast_interferes_with_other_receivers():
    # 0 unicasts to 1 while 2, also in range of 0, receives from 3.
    positions = [(0, 0), (100, 0), (200, 0), (400, 0)]
    sim, radio, inbox = make_radio(positions, retry_limit=0)
    sim.at(0, lambda: radio.unicast(0, 1, frame(0)))
    sim.at(0, lambda: radio.unicast(3, 2, frame(3)))
    sim.run_until(US)
    got = sorted(node for _, node, _ in inbox)
    assert got == [1]  # 2 lost its copy to 0's concurrent transmission
    assert radio.stats["rx_collision"] >= 1


def test_on_transmit_hook_sees_every_frame():
    sim, radio, _ = make_radio([(0, 0), (100, 0)])
    seen = []
    radio.on_transmit = lambda fr: seen.append((fr.kind, fr.size))
    radio.broadcast(0, frame(0, size=24, kind="aodv-rreq"))
    radio.unicast(0, 1, frame(0, size=512))
    sim.run_until(US)
    assert seen[0] == ("aodv-rreq", 24)
    assert ("data", 512) in seen
