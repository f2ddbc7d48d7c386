"""Proactive destination-sequenced distance-vector routing.

Every node periodically floods a full table dump carrying per-destination
sequence numbers.  An advertised route replaces the stored one when its
sequence number is newer, or when it is equally fresh with a strictly
smaller hop count; otherwise the advertisement is ignored.  Broken links
invalidate routes by making their sequence number odd.
"""

from collections import namedtuple

import numpy as np

from .base import DATA, DataPacket, RoutingProtocol

ADVERTISE_INTERVAL_US = 15_000_000
ADVERTISE_JITTER = 0.2              # +-20% around the nominal interval
FIRST_ADVERTISE_MAX_US = 1_000_000  # startup beacon spread
TRIGGER_SPACING_US = 1_000_000      # triggered updates at most once per second

# Hold-down: when a fresher advertisement worsens the metric, keep
# forwarding over the previous (still valid) route until an equally fresh
# route confirms the worse metric or the hold-down lapses.  Damps the
# route fluctuation that periodic sequence waves cause in stable
# topologies.
SETTLE_US = 2 * ADVERTISE_INTERVAL_US

INFINITY = 1 << 20                  # hop-count sentinel for invalidated routes

UPDATE_HEADER_BYTES = 20
UPDATE_ENTRY_BYTES = 12

UPDATE = "dsdv-update"

# A route's standing under the acceptance rule as one integer: a newer
# sequence number always ranks higher, and at equal sequence numbers fewer
# hops rank higher (hops <= INFINITY < RANK_SEQ).
RANK_SEQ = 2 * INFINITY


def _rank(seq, hops):
    return seq * RANK_SEQ - hops


def _valid(seq, hops):
    """A route forwards while its sequence number is even and its metric
    finite; works on scalars and on arrays alike."""
    return (seq % 2 == 0) & (hops < INFINITY)


# The (seq, hops) of a destination without a route: invalid, a hop count no
# route has, and a rank below every route's.
NO_ROUTE = -1
UNRANKED = _rank(NO_ROUTE, NO_ROUTE)

Route = namedtuple("Route", "next_hop hops seq")


def _update(origin, rows):
    """The update message origin sends for a copy of its (dest, seq, hops)
    rows: (origin, entries, dests, ranks), where entries are those rows
    made, in place, into what a receiver installs (one hop further unless
    unreachable) and ranks are their _rank."""
    hops = rows[:, 2]
    hops += hops < INFINITY
    return origin, rows, rows[:, 0], _rank(rows[:, 1], hops)


class DsdvRouter(RoutingProtocol):
    """The routing table is three arrays indexed by destination: the
    (dest, seq, hops) rows, the next hops, and the _rank of each row
    (UNRANKED where there is no route)."""

    name = "dsdv"

    def __init__(self, node_id, sim, radio, trace, rng, flood_jitter_us=0):
        super().__init__(node_id, sim, radio, trace, rng, flood_jitter_us)
        self.own_seq = 0
        self._settling = {}       # dest -> (prev_next_hop, prev_hops, deadline_us)
        self._rows = np.empty((0, 3), dtype=np.int64)
        self._next_hop = np.empty(0, dtype=np.int64)
        self._grow(max(radio.node_count, node_id + 1))
        self._own_route()
        self._last_dump_us = -TRIGGER_SPACING_US
        self._trigger_pending = False

    def start(self):
        first = self.rng.randrange(FIRST_ADVERTISE_MAX_US + 1)
        self.sim.at(first, self._periodic)

    @property
    def table(self):
        """The routes as {dest: Route}, built from the arrays; writing to it
        changes nothing."""
        dests = (self._ranks != UNRANKED).nonzero()[0]
        return {dest: Route(next_hop, hops, seq) for (dest, seq, hops), next_hop
                in zip(self._rows[dests].tolist(), self._next_hop[dests].tolist())}

    # -- advertising --------------------------------------------------

    def _periodic(self):
        self.periodic_advertise()
        jitter = 1.0 + ADVERTISE_JITTER * (2.0 * self.rng.random() - 1.0)
        self.sim.after(int(ADVERTISE_INTERVAL_US * jitter), self._periodic)

    def periodic_advertise(self):
        """Bump own sequence number by two (stays even) and dump the table."""
        self.own_seq += 2
        self._own_route()
        self._dump()

    def _own_route(self):
        """Store the route to the router itself: own_seq, no hops."""
        me = self.node_id
        self._rows[me] = me, self.own_seq, 0
        self._next_hop[me] = me
        self._ranks[me] = _rank(self.own_seq, 0)

    def _dump(self):
        """Broadcast every route, in destination order, own one included."""
        rows = self._rows[self._ranks != UNRANKED]
        size = UPDATE_HEADER_BYTES + UPDATE_ENTRY_BYTES * len(rows)
        self._last_dump_us = self.sim.now
        self._trigger_pending = False
        self._broadcast(size, UPDATE, _update(self.node_id, rows))

    def _trigger_update(self):
        """Broadcast a (rate-limited) triggered full dump."""
        if self._trigger_pending:
            return
        self._trigger_pending = True
        due = self._last_dump_us + TRIGGER_SPACING_US
        if due <= self.sim.now:
            self._jittered(self._dump_if_pending)
        else:
            self.sim.at(due, self._dump_if_pending)

    def _dump_if_pending(self):
        if self._trigger_pending:
            self._dump()

    # -- update acceptance --------------------------------------------

    def apply_update_entry(self, dest, adv_seq, adv_hops, origin):
        """Process one advertised (dest, seq, hops) triple from a neighbor,
        as a one-row update message.  Returns True when the route is
        installed per the acceptance rule: newer sequence number always
        wins; an equally fresh route wins only with a strictly smaller hop
        count.
        """
        msg = _update(origin, np.array([(dest, adv_seq, adv_hops)]))
        before = self._stored(msg[2])[0]
        self._merge(*msg)
        return bool(self._ranks[dest] != before)

    def handle_update(self, msg):
        """Apply a full-dump update message; returns changed destinations."""
        changed = self._merge(*msg)
        if changed:
            self._trigger_update()
        return changed

    def _merge(self, origin, entries, dests, ranks):
        """Install every advertised row from neighbor origin whose rank
        beats the stored route's, except the router's own; returns the
        destinations whose metric or validity changed.

        A full dump touches every destination, and most rows lose, so the
        rule is one vector compare and only the winners reach the loop,
        which keeps the hold-down in step.
        """
        fresher = (ranks > self._stored(dests)).nonzero()[0]
        if not len(fresher):
            return []
        changed = []
        me = self.node_id
        now = self.sim.now
        settling = self._settling
        rows, next_hops, table_ranks = self._rows, self._next_hop, self._ranks
        for (dest, seq, hops), rank in zip(entries[fresher].tolist(),
                                           ranks[fresher].tolist()):
            if dest == me:
                continue
            prev_seq, prev_hops = rows.item(dest, 1), rows.item(dest, 2)
            prev_next = next_hops.item(dest)
            rows[dest, 1] = seq
            rows[dest, 2] = hops
            next_hops[dest] = origin
            table_ranks[dest] = rank
            was_valid = _valid(prev_seq, prev_hops)
            now_valid = _valid(seq, hops)
            if was_valid and now_valid and hops > prev_hops and origin != prev_next:
                settling[dest] = (prev_next, prev_hops, now + SETTLE_US)
            else:
                sh = settling.get(dest)
                if sh is not None and hops <= sh[1]:
                    del settling[dest]
            if hops != prev_hops or was_valid != now_valid:
                changed.append(dest)
        return changed

    def _stored(self, dests):
        """The ranks of the stored routes to dests."""
        try:
            return self._ranks[dests]
        except IndexError:          # a destination beyond the arrays
            self._grow(2 * int(dests.max()) + 1)
            return self._ranks[dests]

    def _grow(self, size):
        """Extend the table to size destinations, with no route to the new
        ones."""
        old = len(self._rows)
        new = np.full((size - old, 3), NO_ROUTE)
        new[:, 0] = np.arange(old, size)
        self._rows = np.concatenate((self._rows, new))
        self._next_hop = np.concatenate((self._next_hop, np.full(size - old, NO_ROUTE)))
        self._ranks = _rank(self._rows[:, 1], self._rows[:, 2])

    # -- link failure -------------------------------------------------

    def handle_link_break(self, dead_neighbor, frame):
        if frame.kind == DATA:
            self.drop("link_break")
        invalidated = self.invalidate_via(dead_neighbor)
        if invalidated:
            self._trigger_update()

    def invalidate_via(self, dead_neighbor):
        """Mark every valid route through dead_neighbor broken (odd seq,
        infinite hops); returns the invalidated destinations.  The own
        route's next hop is the router itself, never a neighbor."""
        rows = self._rows
        out = ((self._next_hop == dead_neighbor)
               & _valid(rows[:, 1], rows[:, 2])).nonzero()[0]
        rows[out, 1] += 1
        rows[out, 2] = INFINITY
        self._ranks[out] = _rank(rows[out, 1], INFINITY)
        for dest, sh in list(self._settling.items()):
            if sh[0] == dead_neighbor:
                del self._settling[dest]
        return out.tolist()

    # -- forwarding ---------------------------------------------------

    def route_lookup(self, dest):
        """Next hop for dest, or None.  DSDV has no on-demand discovery."""
        if dest == self.node_id:
            return self.node_id
        sh = self._settling.get(dest)
        if sh is not None:
            if self.sim.now < sh[2]:
                return sh[0]
            del self._settling[dest]
        if _valid(self._rows.item(dest, 1), self._rows.item(dest, 2)):
            return self._next_hop.item(dest)
        return None

    def send_app_packet(self, pkt):
        self._forward(DataPacket(pkt))

    def handle_frame(self, frame):
        if frame.kind == UPDATE:
            self.handle_update(frame.payload)
        elif frame.kind == DATA:
            self._receive_data(frame.payload)
