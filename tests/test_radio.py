"""Link model: range, airtime, serialization, collisions, retries."""

import math

from hypothesis import example, given, settings, strategies as st

from manetsim.engine import Simulator
from manetsim.mobility import FixedPositions
from manetsim.radio import BROADCAST, Frame, LinkModel, Radio

US = 1_000_000


def nodes(mask):
    """The set bits of a receiver mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def make_radio(positions, ideal=False, range_m=250.0, retry_limit=3):
    sim = Simulator()
    mob = FixedPositions(positions)
    radio = Radio(sim, mob, mob.node_count, link=LinkModel(range_m=range_m),
                  ideal=ideal, retry_limit=retry_limit)
    inbox = []
    radio.on_receive = lambda node, frame: inbox.append((sim.now, node, frame))
    radio.on_broadcast = lambda mask, frame: inbox.extend(
        (sim.now, node, frame) for node in nodes(mask))
    return sim, radio, inbox


def frame(src, dst=BROADCAST, size=512, kind="data", payload=None):
    return Frame(src, dst, size, kind, payload)


def test_airtime_is_ceiled_bits_over_bandwidth():
    _, radio, _ = make_radio([(0, 0), (1, 1)])
    assert radio.airtime_us(512) == 2048   # 512*8 / 2e6 s
    assert radio.airtime_us(1) == 4
    assert radio.airtime_us(250) == 1000


def test_in_range_is_symmetric_boundary_inclusive():
    _, radio, _ = make_radio([(0, 0), (250, 0), (250.1, 0)])
    assert radio.in_range(0, 1, 0) and radio.in_range(1, 0, 0)
    assert not radio.in_range(0, 2, 0)


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
    radio.unicast(0, 1, frame(0, dst=1))
    sim.run_until(US)
    assert [(t, n) for t, n, _ in inbox] == [(3048, 1)]
    assert radio.stats["tx_unicast"] == 1
    assert radio.stats["link_broken"] == 0


def test_unicast_out_of_range_retries_then_reports_link_break():
    sim, radio, inbox = make_radio([(0, 0), (600, 0)], retry_limit=3)
    broken = []
    radio.register_link_break(0, lambda dst, fr: broken.append(dst))
    radio.unicast(0, 1, frame(0, dst=1))
    sim.run_until(US)
    assert inbox == []
    assert radio.stats["tx_unicast"] == 4  # initial + 3 retries
    assert radio.stats["mac_retry"] == 3
    assert broken == [1]


def test_unicast_ideal_mode_does_not_retry():
    sim, radio, inbox = make_radio([(0, 0), (600, 0)], ideal=True)
    broken = []
    radio.register_link_break(0, lambda dst, fr: broken.append(dst))
    radio.unicast(0, 1, frame(0, dst=1))
    sim.run_until(US)
    assert radio.stats["tx_unicast"] == 1
    assert broken == [1]


def test_unicast_interferes_with_other_receivers():
    # 0 unicasts to 1 while 2, also in range of 0, receives from 3.
    positions = [(0, 0), (100, 0), (200, 0), (400, 0)]
    sim, radio, inbox = make_radio(positions, retry_limit=0)
    sim.at(0, lambda: radio.unicast(0, 1, frame(0, dst=1)))
    sim.at(0, lambda: radio.unicast(3, 2, frame(3, dst=2)))
    sim.run_until(US)
    got = sorted(node for _, node, _ in inbox)
    assert got == [1]  # 2 lost its copy to 0's concurrent transmission
    assert radio.stats["rx_collision"] >= 1


def test_on_transmit_hook_sees_every_frame():
    sim, radio, _ = make_radio([(0, 0), (100, 0)])
    seen = []
    radio.on_transmit = lambda fr: seen.append((fr.kind, fr.size))
    radio.broadcast(0, frame(0, size=24, kind="aodv-rreq"))
    radio.unicast(0, 1, frame(0, dst=1, size=512))
    sim.run_until(US)
    assert seen[0] == ("aodv-rreq", 24)
    assert ("data", 512) in seen


def test_link_model_rejects_bad_parameters():
    import pytest
    with pytest.raises(ValueError):
        LinkModel(range_m=0)
    with pytest.raises(ValueError):
        LinkModel(bandwidth_bps=-1)
