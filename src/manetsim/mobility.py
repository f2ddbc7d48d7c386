"""Random waypoint mobility with lazily evaluated positions.

Positions are computed on demand from each node's current leg instead of
being advanced on a fixed tick, so queries are exact and the event queue
stays small.  Leg state lives in numpy arrays: only the occasional
waypoint arrival runs per-node Python, while position queries are one
vector expression.  Per-node RNG streams keep node trajectories
independent of query interleaving.

Both models also describe their current legs, so that the radio can tell
when a link may change without asking for positions:

- ``legs``: a counter per node that goes up when its leg changes.  The
  array is replaced, never changed in place, so a holder of the old one can
  tell which nodes changed legs.  ``FixedPositions.move`` counts as a leg
  change.
- ``next_transition``: the earliest time at which a query starts a new leg.
- ``leg_end``: per node, the time at which its current leg ends.
- ``velocity``: the current legs' velocities, m/us, as a (2, node_count)
  array.
- ``extent``: a bound on the magnitude of any coordinate on those legs.
"""

import math

import numpy as np

from .engine import US_PER_S, RngStream

# Pause-time sentinel: nodes never move (static network mode).
STATIC = math.inf


def init_positions(node_count, rng, width, height):
    """Draw node_count positions uniformly over the area rectangle."""
    return [(rng.uniform(0.0, width), rng.uniform(0.0, height)) for _ in range(node_count)]


class RandomWaypoint:
    """Classic random waypoint: uniform destination, uniform speed in
    (min_speed, max_speed], fixed pause at each waypoint.

    Each node is always on a "leg" [t0, t1) from (x0,y0) to (x1,y1); a
    pause is a leg whose endpoints coincide.  Queries must come at
    non-decreasing times.
    """

    def __init__(self, node_count, width, height, max_speed, seed, *,
                 min_speed, pause_time):
        self.node_count = node_count
        self.width = width
        self.height = height
        self.min_speed = min_speed
        self.max_speed = max_speed
        start = init_positions(node_count, RngStream(seed, "mobility:init"),
                               width, height)
        self._memo_t = -1
        self._memo_xy = None
        self._pause_us = int(round(pause_time * US_PER_S))
        self._rngs = [RngStream(seed, f"mobility:{i}") for i in range(node_count)]
        # Leg endpoints as (2, node_count) arrays of x and y rows; _x0 and
        # the rest are views of those rows.
        self._p0 = np.array([[p[0] for p in start], [p[1] for p in start]])
        self._p1 = np.empty((2, node_count))
        self._x0, self._y0 = self._p0
        self._x1, self._y1 = self._p1
        self._t0 = np.zeros(node_count, dtype=np.int64)
        self._t1 = np.zeros(node_count, dtype=np.int64)
        self._pausing = np.zeros(node_count, dtype=bool)
        for i in range(node_count):
            self._new_leg(i, 0)
        self.legs = np.zeros(node_count, dtype=np.int64)
        self.next_transition = int(self._t1.min())
        self.leg_end = self._t1
        self.extent = max(width, height)
        self._leg_deltas()

    def _leg_deltas(self):
        # Per-leg differences, kept between waypoint arrivals so a query
        # does not recompute them.
        self._d = self._p1 - self._p0
        self._dt = self._t1 - self._t0
        self.velocity = self._d / self._dt

    def _new_leg(self, i, depart_us):
        rng = self._rngs[i]
        x1 = rng.uniform(0.0, self.width)
        y1 = rng.uniform(0.0, self.height)
        speed = rng.uniform(self.min_speed, self.max_speed)
        dist = math.hypot(x1 - self._x0[i], y1 - self._y0[i])
        self._x1[i] = x1
        self._y1[i] = y1
        self._t0[i] = depart_us
        self._t1[i] = depart_us + max(1, int(math.ceil(dist / speed * US_PER_S)))
        self._pausing[i] = False

    def _advance(self, i, t_us):
        """Step node i's leg state machine until t_us falls inside a leg."""
        while t_us >= self._t1[i]:
            end = int(self._t1[i])
            if self._pausing[i]:
                self._new_leg(i, end)
            else:
                # Arrived: rest at the waypoint for the configured pause.
                self._x0[i] = self._x1[i]
                self._y0[i] = self._y1[i]
                if self._pause_us > 0:
                    self._t0[i] = end
                    self._t1[i] = end + self._pause_us
                    self._pausing[i] = True
                else:
                    self._new_leg(i, end)

    def _eval(self, t_us):
        if t_us == self._memo_t:
            return
        if t_us >= self.next_transition:
            ended = np.flatnonzero(self._t1 <= t_us)
            for i in ended:
                self._advance(i, t_us)
            self.legs = self.legs.copy()
            self.legs[ended] += 1
            self.next_transition = int(self._t1.min())
            self._leg_deltas()
        frac = (t_us - self._t0) / self._dt
        self._memo_xy = self._p0 + self._d * frac
        self._memo_t = t_us

    def positions_xy(self, t_us):
        """Positions of all nodes at t_us as a (2, node_count) array of x
        and y rows; it unpacks as ``xs, ys``."""
        self._eval(t_us)
        return self._memo_xy

    def position(self, node, t_us):
        self._eval(t_us)
        return tuple(self._memo_xy[:, node].tolist())

    def positions(self, t_us):
        self._eval(t_us)
        return list(zip(*self._memo_xy.tolist()))


class FixedPositions:
    """Fixed placement of a static network, or one scripted by a test;
    positions only change via move()."""

    next_transition = math.inf

    def __init__(self, positions):
        self._xy = np.array(positions, dtype=float).T.copy()
        self.node_count = self._xy.shape[1]
        self.legs = np.zeros(self.node_count, dtype=np.int64)
        self.velocity = np.zeros((2, self.node_count))
        self.leg_end = np.full(self.node_count, math.inf)
        self.extent = float(np.abs(self._xy).max())

    def move(self, node, xy):
        """Put node at xy; to a holder of ``legs`` this is a leg change."""
        self._xy[:, node] = xy
        self.extent = float(np.abs(self._xy).max())
        self.legs = self.legs.copy()
        self.legs[node] += 1

    def position(self, node, t_us):
        return tuple(self._xy[:, node].tolist())

    def positions(self, t_us):
        return list(zip(*self._xy.tolist()))

    def positions_xy(self, t_us):
        return self._xy


def write_movement_trace(path, mobility, end_us, interval_us):
    """Export a CSV movement trace: time,node,x,y at a fixed sampling step."""
    with open(path, "w") as fh:
        fh.write("time,node,x,y\n")
        t = 0
        while t <= end_us:
            for node in range(mobility.node_count):
                x, y = mobility.position(node, t)
                fh.write(f"{t / US_PER_S:.6f},{node},{x:.3f},{y:.3f}\n")
            t += interval_us
