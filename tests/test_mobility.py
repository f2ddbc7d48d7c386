"""Random waypoint behaviour: bounds, determinism, speed limits."""

import math

from hypothesis import given, settings, strategies as st

from manetsim.engine import RngStream
from manetsim.mobility import (STATIC, FixedPositions, RandomWaypoint,
                               init_positions, write_movement_trace)
from manetsim.scenario import ScenarioConfig, build_mobility

US = 1_000_000


def test_init_positions_within_area():
    rng = RngStream(1, "mobility:init")
    pos = init_positions(200, rng, 500.0, 300.0)
    assert len(pos) == 200
    for x, y in pos:
        assert 0.0 <= x <= 500.0
        assert 0.0 <= y <= 300.0


def test_same_seed_same_trajectories():
    a = RandomWaypoint(10, 500, 500, 10.0, seed=9, min_speed=0.1, pause_time=2.0)
    b = RandomWaypoint(10, 500, 500, 10.0, seed=9, min_speed=0.1, pause_time=2.0)
    for t in range(0, 60 * US, 3 * US):
        assert a.positions(t) == b.positions(t)


def test_different_seed_differs():
    a = RandomWaypoint(10, 500, 500, 10.0, seed=9, min_speed=0.1, pause_time=2.0)
    b = RandomWaypoint(10, 500, 500, 10.0, seed=10, min_speed=0.1, pause_time=2.0)
    assert a.positions(30 * US) != b.positions(30 * US)


def test_static_mode_never_moves():
    m = build_mobility(ScenarioConfig(node_count=20, seed=3, pause_time=STATIC))
    start = list(m.positions(0))
    # A static network is placed where a mobile one of the same seed starts.
    assert start == RandomWaypoint(20, 500, 500, 10.0, seed=3, min_speed=0.1,
                                   pause_time=20.0).positions(0)
    assert list(m.positions(90 * US)) == start
    assert m.position(7, 55 * US) == start[7]


def test_positions_stay_in_area_over_time():
    m = RandomWaypoint(15, 400, 250, 15.0, seed=5, min_speed=0.1, pause_time=0.0)
    for t in range(0, 200 * US, US):
        for x, y in m.positions(t):
            assert -1e-9 <= x <= 400 + 1e-9
            assert -1e-9 <= y <= 250 + 1e-9


def test_speed_never_exceeds_max():
    max_speed = 10.0
    m = RandomWaypoint(10, 500, 500, max_speed, seed=11, min_speed=0.1, pause_time=1.0)
    step = US // 10
    prev = m.positions(0)
    for t in range(step, 120 * US, step):
        cur = m.positions(t)
        for (x0, y0), (x1, y1) in zip(prev, cur):
            d = math.hypot(x1 - x0, y1 - y0)
            assert d <= max_speed * (step / US) + 1e-6
        prev = cur


def test_node_pauses_at_waypoint():
    # With an enormous pause every node reaches one waypoint and then sits.
    m = RandomWaypoint(5, 100, 100, 50.0, seed=2, min_speed=0.1, pause_time=1e4)
    late = m.positions(500 * US)
    later = m.positions(600 * US)
    assert late == later


def test_scalar_position_matches_vector_positions():
    m = RandomWaypoint(8, 500, 500, 10.0, seed=4, min_speed=0.1, pause_time=5.0)
    for t in (0, 123456, 17 * US, 90 * US):
        pos = m.positions(t)
        # position() may be queried after positions() at the same instant
        for i in range(8):
            assert m.position(i, t) == pos[i]


def test_fixed_positions_move():
    f = FixedPositions([(0, 0), (10, 10)])
    assert f.position(1, 999) == (10, 10)
    f.move(1, (50, 60))
    assert f.position(1, 0) == (50, 60)
    xs, ys = f.positions_xy(0)
    assert xs[1] == 50 and ys[1] == 60


def test_movement_trace_format(tmp_path):
    m = RandomWaypoint(3, 100, 100, 5.0, seed=1, min_speed=0.1, pause_time=1.0)
    path = tmp_path / "moves.csv"
    write_movement_trace(path, m, end_us=2 * US, interval_us=US)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,node,x,y"
    assert len(lines) == 1 + 3 * 3  # t in {0, 1, 2} x 3 nodes
    t, node, x, y = lines[1].split(",")
    assert t == "0.000000" and node == "0"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), pause=st.sampled_from([0.0, 1.0, 20.0]))
def test_trajectory_is_continuous(seed, pause):
    m = RandomWaypoint(4, 300, 300, 20.0, seed=seed, min_speed=0.1, pause_time=pause)
    step = US // 20
    prev = m.positions(0)
    for t in range(step, 30 * US, step):
        cur = m.positions(t)
        for (x0, y0), (x1, y1) in zip(prev, cur):
            assert math.hypot(x1 - x0, y1 - y0) <= 20.0 * (step / US) + 1e-6
        prev = cur


def test_min_speed_default_avoids_zero():
    assert ScenarioConfig().min_speed > 0
