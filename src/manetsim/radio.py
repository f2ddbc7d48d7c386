"""Wireless link abstraction: fixed-radius connectivity, frame delivery
with transmission delay, a receiver-centric collision model, and
link-failure feedback for the routing layer.

Two modes exist.  The realistic MAC serializes each node's transmissions,
models collisions as overlapping airtimes at a common receiver, and
retries unicasts before declaring a link broken.  The ideal MAC is
lossless within range with no queueing or collisions; it exists for oracle
tests and also drives the ``static-ideal`` workload and golden ``FIXED`` cells.
"""

import math
from collections import Counter

import numpy as np

BROADCAST = -1

DEFAULT_RANGE_M = 250.0        # nominal two-ray-ground range at default power
DEFAULT_BANDWIDTH_BPS = 2_000_000
DEFAULT_LATENCY_US = 1000
DEFAULT_RETRY_LIMIT = 3        # MAC retries before a unicast is declared broken


class LinkModel:
    __slots__ = ("range_m", "bandwidth_bps", "per_hop_latency_us")

    def __init__(self, range_m=DEFAULT_RANGE_M, bandwidth_bps=DEFAULT_BANDWIDTH_BPS,
                 per_hop_latency_us=DEFAULT_LATENCY_US):
        if range_m <= 0 or bandwidth_bps <= 0:
            raise ValueError("range and bandwidth must be positive")
        self.range_m = range_m
        self.bandwidth_bps = bandwidth_bps
        self.per_hop_latency_us = per_hop_latency_us


class Frame:
    __slots__ = ("src", "dst", "size", "kind", "payload", "tx_start")

    def __init__(self, src, dst, size, kind, payload):
        self.src = src
        self.dst = dst
        self.size = size
        self.kind = kind
        self.payload = payload
        self.tx_start = -1


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

    def __init__(self, sim, mobility, node_count, link=None, ideal=False,
                 retry_limit=DEFAULT_RETRY_LIMIT):
        self.sim = sim
        self.mobility = mobility
        self.node_count = node_count
        self.link = link or LinkModel()
        self.ideal = ideal
        self.retry_limit = retry_limit
        self.on_receive = None       # unicast delivery, fn(node_id, frame)
        self.on_broadcast = None     # broadcast delivery, fn(receiver_mask, frame)
        self.on_transmit = None      # accounting hook, fn(frame)
        self._link_break = {}        # node_id -> fn(dead_neighbor, frame)
        self._busy_until = [0] * node_count
        # Transmissions that may still overlap a new one (end > now).
        self._on_air = []
        self.stats = Counter()

    # -- connectivity -------------------------------------------------

    def airtime_us(self, size):
        return int(math.ceil(size * 8 * 1_000_000 / self.link.bandwidth_bps))

    def in_range(self, a, b, t_us):
        ax, ay = self.mobility.position(a, t_us)
        bx, by = self.mobility.position(b, t_us)
        dx, dy = ax - bx, ay - by
        r = self.link.range_m
        return dx * dx + dy * dy <= r * r

    def _reach(self, node, t_us):
        """Nodes within Euclidean distance <= range of node at t_us, node
        itself excluded, as an int bit mask."""
        xy = self.mobility.positions_xy(t_us)
        d = xy - xy[:, node, None]
        d *= d
        r = self.link.range_m
        within = np.packbits(d[0] + d[1] <= r * r, bitorder="little")
        return int.from_bytes(within, "little") & ~(1 << node)

    def register_link_break(self, node, callback):
        self._link_break[node] = callback

    # -- transmission -------------------------------------------------

    def _transmit(self, src, frame, counter):
        """Put frame on the air from src: its airtime takes the next slot
        on src's FIFO queue (at once under the ideal MAC), the frame is
        stamped and accounted for, and stats[counter] counts it.  Returns
        the airtime as (start, end)."""
        now = self.sim.now
        start = now if self.ideal else max(now, self._busy_until[src])
        end = self._busy_until[src] = start + self.airtime_us(frame.size)
        frame.tx_start = start
        if self.on_transmit is not None:
            self.on_transmit(frame)
        self.stats[counter] += 1
        return start, end

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
        """Send to every current neighbor; returns the recipient count.

        Broadcast has no acknowledgment and no retry: collided copies are
        simply lost at the affected receivers.
        """
        sim = self.sim
        start, end = self._transmit(src, frame, "tx_broadcast")
        mask = self._reach(src, sim.now)
        if not mask:
            return 0
        tx = None if self.ideal else self._note_signals(start, end, mask)
        sim.at(end + self.link.per_hop_latency_us,
               lambda: self._bcast_arrivals(src, mask, tx, frame))
        return mask.bit_count()

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

    def unicast(self, src, dst, frame):
        """Send to a specific next hop with MAC retries.

        After retry_limit failed attempts the registered link-failure
        callback on src fires with (dst, frame).  Failure is a modeled
        outcome, not an error.
        """
        tries = 1 if self.ideal else 1 + self.retry_limit
        self._unicast_attempt(src, dst, frame, tries)

    def _unicast_attempt(self, src, dst, frame, tries_left):
        sim = self.sim
        start, end = self._transmit(src, frame, "tx_unicast")
        tx = None
        if self.ideal:
            in_range_at_start = self.in_range(src, dst, sim.now)
        else:
            mask = self._reach(src, sim.now)
            in_range_at_start = mask >> dst & 1
            if in_range_at_start:   # heard (and interfering) at every node in range
                tx = self._note_signals(start, end, mask)
        arrive = end + self.link.per_hop_latency_us

        def resolve():
            ok = in_range_at_start and self.in_range(src, dst, sim.now)
            if ok and tx is not None and tx.collided >> dst & 1:
                ok = False
                self.stats["rx_collision"] += 1
            if ok:
                self.stats["rx_delivered"] += 1
                self.on_receive(dst, frame)
            elif tries_left > 1:
                self.stats["mac_retry"] += 1
                self._unicast_attempt(src, dst, frame, tries_left - 1)
            else:
                self.stats["link_broken"] += 1
                cb = self._link_break.get(src)
                if cb is not None:
                    cb(dst, frame)

        sim.at(arrive, resolve)
