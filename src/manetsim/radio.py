"""Wireless link abstraction: fixed-radius connectivity, frame delivery
with transmission delay, a receiver-centric collision model, and
link-failure feedback for the routing layer.

Two modes exist.  The realistic MAC serializes each node's transmissions,
models collisions as overlapping airtimes at a common receiver, and
retries unicasts before declaring a link broken.  The ideal MAC is
lossless within range with no queueing or collisions; it exists for oracle
tests and also drives the ``static-ideal`` workload and golden ``FIXED`` cells.

Who is in range is one int bit mask per node, kept right at every query
without evaluating positions until a link can change.  Movement is piecewise
linear, so on the current legs a pair's squared distance is a quadratic in
time.  When a node changes legs its row is evaluated exactly, and for each
of its pairs the radio solves when the squared distance next enters a narrow
band around range**2 and queues a review of the pair for then.  A review
evaluates the pair exactly and comes back at the next microsecond while the
pair stays inside the band, where rounding alone can flip its verdict.  The
reviews live in the radio's own heap, off the event queue.
"""

import math
from collections import Counter
from heapq import heappop, heappush

import numpy as np

# Half-width of the band around range**2, relative to (range + extent)**2,
# inside which a pair of nodes is re-evaluated at every query.  Evaluating
# positions and squared distances in float64 is off by a few ulps of
# (range + extent)**2, so a pair that stays outside the band keeps the
# verdict of its last exact evaluation.
BAND = 1e-9


class Frame:
    __slots__ = ("src", "size", "kind", "payload")

    def __init__(self, src, size, kind, payload):
        self.src = src
        self.size = size
        self.kind = kind
        self.payload = payload


class Transmission:
    """One frame's airtime [start, end) as heard at its receivers.

    Bit r of mask is set for every receiver r, and bit r of collided where
    another transmission heard at r overlaps this one.
    """

    __slots__ = ("start", "end", "mask", "collided")

    def __init__(self, start, end, mask):
        self.start = start
        self.end = end
        self.mask = mask
        self.collided = 0


class Radio:
    """Shared medium connecting all nodes of one simulation run."""

    def __init__(self, sim, mobility, *, range_m, bandwidth_bps, latency_us,
                 retry_limit, ideal):
        self.sim = sim
        self.mobility = mobility
        self.node_count = node_count = mobility.node_count
        self.range_m = range_m
        self.bandwidth_bps = bandwidth_bps
        self.latency_us = latency_us
        self.retry_limit = retry_limit
        self.ideal = ideal
        self.handlers = None         # unicast delivery, handlers[node_id](frame)
        self.on_broadcast = None     # broadcast delivery, fn(receiver_mask, frame)
        self.on_transmit = None      # accounting hook, fn(frame)
        self._link_break = {}        # node_id -> fn(dead_neighbor, frame)
        self._busy_until = [0] * node_count
        # Transmissions that may still overlap a new one (end > now).
        self._on_air = []
        self.stats = Counter()
        self._airtimes = {}          # frame size -> airtime_us, a handful per run
        # Reach masks, exact for any query before _due, and the heap of pair
        # reviews that keeps them so: (due, j, k, leg of j, leg of k).
        self._masks = [0] * node_count
        self._legs = np.full(node_count, -1)   # mobility.legs the masks follow
        self._stamps = None                    # the same, as a list
        self._reviews = []
        self._due = 0
        self._band = 0.0

    # -- connectivity -------------------------------------------------

    def airtime_us(self, size):
        airtime = self._airtimes.get(size)
        if airtime is None:
            airtime = self._airtimes[size] = int(
                math.ceil(size * 8 * 1_000_000 / self.bandwidth_bps))
        return airtime

    def _reach(self, node, t_us):
        """Nodes within Euclidean distance <= range of node at t_us, node
        itself excluded, as an int bit mask."""
        if t_us >= self._due or self.mobility.legs is not self._legs:
            self._review(t_us)
        return self._masks[node]

    def _review(self, t_us):
        """Bring every mask up to t_us: evaluate exactly the row of each node
        whose leg changed and each pair whose review is due.  The verdict is
        dx*dx + dy*dy <= range**2 over the positions at t_us."""
        mob = self.mobility
        xy = mob.positions_xy(t_us)
        rr = self.range_m * self.range_m
        masks = self._masks
        if mob.legs is not self._legs:
            self._new_legs(t_us, xy, rr)
        reviews = self._reviews
        stamps = self._stamps
        due = set()
        while reviews and reviews[0][0] <= t_us:
            _, j, k, leg_j, leg_k = heappop(reviews)
            if stamps[j] == leg_j and stamps[k] == leg_k:
                due.add((j, k))
        xs, ys = xy
        for j, k in due:
            dx = xs[k] - xs[j]
            dy = ys[k] - ys[j]
            sq = dx * dx + dy * dy
            if sq <= rr:
                masks[j] |= 1 << k
                masks[k] |= 1 << j
            else:
                masks[j] &= ~(1 << k)
                masks[k] &= ~(1 << j)
            if abs(sq - rr) <= self._band:
                heappush(reviews, (t_us + 1, j, k, stamps[j], stamps[k]))
        # A stale review at the head, which only FixedPositions.move leaves,
        # brings the next review early; the loop above then drops it.
        self._due = min(reviews[0][0] if reviews else math.inf, mob.next_transition)

    def _new_legs(self, t_us, xy, rr):
        """Redo the rows of the nodes whose leg changed, and queue a review
        of each of their pairs for every time that pair's squared distance,
        a quadratic in time on the current legs, enters the band around
        range**2 before either leg ends; at t_us + 1 for a pair inside it
        now.  Past a leg's end the leg change itself redoes the row."""
        mob = self.mobility
        legs = mob.legs
        moved = np.flatnonzero(legs != self._legs)
        self._legs = legs
        stamps = self._stamps = legs.tolist()
        band = self._band = BAND * (self.range_m + mob.extent) ** 2
        masks = self._masks
        d = xy[:, None, :] - xy[:, moved, None]   # row i: xy - xy[:, moved[i]]
        sq = d[0] * d[0] + d[1] * d[1]
        within = sq <= rr
        movers = moved.tolist()
        kept = ~sum(1 << j for j in movers)
        masks[:] = [m & kept for m in masks]
        for j, near in zip(movers, within):
            bit = 1 << j
            for k in np.flatnonzero(near).tolist():
                masks[k] |= bit
        for j, row in zip(movers, np.packbits(within, axis=1, bitorder="little")):
            masks[j] = int.from_bytes(row, "little") & ~(1 << j)

        # One set of reviews per pair; a pair of two movers from the lower.
        still = np.ones(len(masks), dtype=bool)
        still[moved] = False
        i, k = np.nonzero(still | (np.arange(len(masks)) > moved[:, None]))
        j = moved[i]
        d = d[:, i, k]
        sq = sq[i, k]
        w = mob.velocity[:, k] - mob.velocity[:, j]
        qa = w[0] * w[0] + w[1] * w[1]
        qb = 2 * (d[0] * w[0] + d[1] * w[1])
        above = sq - (rr + band)      # > 0: outside the band, above it
        below = sq - (rr - band)      # < 0: inside the band's inner edge
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Entry from above: the first root of q = rr + band, while q falls.
            root = np.sqrt(qb * qb - 4 * qa * above)
            down = np.where((above > 0) & (qb < 0), 2 * above / (root - qb), np.nan)
            # Entry from below: the larger root of q = rr - band, in the
            # form that does not cancel.
            root = np.sqrt(qb * qb - 4 * qa * below)
            up = np.where(qb < 0, (root - qb) / (2 * qa), 2 * below / (-qb - root))
        now = np.where((above <= 0) & (below >= 0), 1.0, np.nan)
        horizon = np.minimum(mob.leg_end[j], mob.leg_end[k]) - t_us
        reviews = self._reviews
        for tau in (now, down, up):
            ahead = (tau > 0) & (tau < horizon)   # NaN: no such entry
            for at, a, b in zip((t_us + np.maximum(tau[ahead], 1.0)).tolist(),
                                j[ahead].tolist(), k[ahead].tolist()):
                heappush(reviews, (at, a, b, stamps[a], stamps[b]))

    def register_link_break(self, node, callback):
        self._link_break[node] = callback

    def disconnect(self):
        """Drop the hooks into the routers, which point back at the radio."""
        self.handlers = self.on_broadcast = None
        self._link_break.clear()

    # -- transmission -------------------------------------------------

    def _transmit(self, src, frame, counter):
        """Put frame on the air from src: its airtime takes the next slot
        on src's FIFO queue (at once under the ideal MAC), the frame is
        accounted for, and stats[counter] counts it.  Returns the airtime
        as (start, end) and the reach mask of src now."""
        now = self.sim.now
        airtime = self._airtimes.get(frame.size) or self.airtime_us(frame.size)
        start = now if self.ideal else max(now, self._busy_until[src])
        end = self._busy_until[src] = start + airtime
        if self.on_transmit is not None:
            self.on_transmit(frame)
        self.stats[counter] += 1
        return start, end, self._reach(src, now)

    def _note_signals(self, start, end, mask):
        """Record an airtime interval heard at each receiver in mask; returns
        it as a Transmission.

        Collisions are flagged eagerly: two transmissions whose airtimes
        overlap flag each other at every receiver that hears both, so the
        later arrival check is a single bit test.  A transmission that
        ended before now can never overlap a future send (whose start is
        >= now), so it is dropped.
        """
        tx = Transmission(start, end, mask)
        now = self.sim.now
        on_air = [tx]
        for other in self._on_air:
            if other.end > now:
                on_air.append(other)
                common = other.mask & mask
                if common and other.start < end and other.end > start:
                    other.collided |= common
                    tx.collided |= common
        self._on_air = on_air
        return tx

    def broadcast(self, src, frame):
        """Send to every current neighbor.

        Broadcast has no acknowledgment and no retry: collided copies are
        simply lost at the affected receivers.
        """
        start, end, mask = self._transmit(src, frame, "tx_broadcast")
        if mask:
            tx = None if self.ideal else self._note_signals(start, end, mask)
            self.sim.at(end + self.latency_us, self._bcast_arrivals, src, mask, tx, frame)

    def _bcast_arrivals(self, src, mask, tx, frame):
        # Every verdict is taken before the delivery: a receive cannot flag
        # another copy of this frame, since whatever it sends starts after
        # the frame ended, and positions do not change within now.
        stats = self.stats
        clean = mask if tx is None else mask & ~tx.collided
        if clean != mask:
            stats["rx_collision"] += mask.bit_count() - clean.bit_count()
            if not clean:
                return
        heard = clean & self._reach(src, self.sim.now)
        if heard != clean:
            stats["rx_out_of_range"] += clean.bit_count() - heard.bit_count()
        if heard:
            stats["rx_delivered"] += heard.bit_count()
            self.on_broadcast(heard, frame)

    def unicast(self, src, dst, frame, tries_left=None):
        """Send to a specific next hop, one attempt per call: by default the
        first of 1 + retry_limit (of 1 under the ideal MAC).

        After the last failed attempt the registered link-failure callback
        on src fires with (dst, frame).  Failure is a modeled outcome, not
        an error.
        """
        if tries_left is None:
            tries_left = 1 if self.ideal else 1 + self.retry_limit
        start, end, mask = self._transmit(src, frame, "tx_unicast")
        in_range = mask >> dst & 1
        # Heard, and interfering, at every node in range.
        tx = self._note_signals(start, end, mask) if in_range and not self.ideal else None
        self.sim.at(end + self.latency_us, self._resolve, src, dst, frame,
                    tries_left, in_range, tx)

    def _resolve(self, src, dst, frame, tries_left, in_range, tx):
        """The verdict of a unicast attempt at its arrival: delivered, or
        retried, or the link reported broken."""
        stats = self.stats
        ok = in_range and self._reach(src, self.sim.now) >> dst & 1
        if ok and tx is not None and tx.collided >> dst & 1:
            ok = False
            stats["rx_collision"] += 1
        if ok:
            stats["rx_delivered"] += 1
            self.handlers[dst](frame)
        elif tries_left > 1:
            stats["mac_retry"] += 1
            self.unicast(src, dst, frame, tries_left - 1)
        else:
            stats["link_broken"] += 1
            cb = self._link_break.get(src)
            if cb is not None:
                cb(dst, frame)
