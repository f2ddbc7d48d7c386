"""Proactive destination-sequenced distance-vector routing.

Every node periodically floods a full table dump carrying per-destination
sequence numbers.  An advertised route replaces the stored one when its
sequence number is newer, or when it is equally fresh with a strictly
smaller hop count; otherwise the advertisement is ignored.  Broken links
invalidate routes by making their sequence number odd.  The rule is one
compare of ranks: a dump meets the rows of all its receivers in one rank
array at once, and only the rows that win reach a receiver's install loop.
"""

from collections import namedtuple

import numpy as np

from .base import DATA, RoutingProtocol, receivers

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
    """The update origin sends for a copy of its (dest, seq, hops) rows:
    (origin, entries, dests, ranks), entries those rows made, in place, into
    what a receiver installs (one hop further unless unreachable)."""
    hops = rows[:, 2]
    hops += hops < INFINITY
    return origin, rows, rows[:, 0], _rank(rows[:, 1], hops)


class RankArray:
    """The ranks of the routes of routers: row i is routers[i]._ranks."""

    def __init__(self, routers, size):
        self.routers = routers
        self.grow(size)

    def grow(self, size):
        """Extend every table to size destinations, none routed, and rebuild."""
        for router in self.routers:
            new = np.full((size - len(router._rows), 4), NO_ROUTE)
            new[:, 0] = np.arange(len(router._rows), size)
            router._rows = np.concatenate((router._rows, new))
            router._network = self
        rows = np.stack([router._rows for router in self.routers])
        self.ranks = _rank(rows[..., 1], rows[..., 2])
        for router, ranks in zip(self.routers, self.ranks):
            router._ranks = ranks


class DsdvRouter(RoutingProtocol):
    """The table: (dest, seq, hops, next hop) rows by destination and their
    ranks, a row of its own RankArray until a run's first update joins all."""

    name = "dsdv"

    def __init__(self, node_id, sim, radio, trace, rng):
        super().__init__(node_id, sim, radio, trace, rng)
        self.own_seq = 0
        self._settling = {}       # dest -> (prev_next_hop, prev_hops, deadline_us)
        self._rows = np.empty((0, 4), dtype=np.int64)
        RankArray([self], max(radio.node_count, node_id + 1))
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
        return {dest: Route(next_hop, hops, seq) for dest, seq, hops, next_hop
                in self._rows[self._ranks != UNRANKED].tolist()}

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
        self._rows[me] = me, self.own_seq, 0, me
        self._ranks[me] = _rank(self.own_seq, 0)

    def _dump(self):
        """Broadcast every route, in destination order, own one included."""
        rows = self._rows[self._ranks != UNRANKED, :3]
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

    @classmethod
    def deliver_broadcast(cls, routers, mask, frame):
        """Compare an update (DSDV's only broadcast) with the ranks of all its
        receivers at once, each one's own destination left out; then, in node
        order, each receiver with winning rows installs them."""
        origin, entries, dests, ranks = frame.payload
        network = routers[0]._network
        if network.routers is not routers:      # the run's first update
            network = RankArray(routers, max(len(router._rows) for router in routers))
        nodes = np.array(list(receivers(mask)))
        stored = network.ranks.take(nodes, 0)
        if len(dests) < stored.shape[1]:    # not a dump of every destination
            stored = stored.take(dests, 1)
        wins = ranks > stored
        wins &= dests != nodes[:, None]
        who, won = np.divmod(np.flatnonzero(wins), len(dests))
        if not len(won):
            return
        who = nodes[who].tolist() + [-1]        # -1 closes the last run of rows
        rows, ranks = entries[won].tolist(), ranks[won].tolist()
        first = 0
        for at, node in enumerate(who):
            if node != who[first]:
                routers[who[first]].handle_update(
                    (origin, rows[first:at], ranks[first:at]))
                first = at

    def apply_update_entry(self, dest, adv_seq, adv_hops, origin):
        """Process one advertised (dest, seq, hops) triple from a neighbor
        as a one-row update; True when the acceptance rule installs it."""
        _, rows, _, ranks = _update(origin, np.array([(dest, adv_seq, adv_hops)]))
        if dest >= len(self._ranks):        # a destination beyond the table
            self._network.grow(2 * dest + 1)
        if dest == self.node_id or ranks[0] <= self._ranks[dest]:
            return False
        self._install(origin, rows.tolist(), ranks.tolist())
        return True

    def handle_update(self, msg):
        """Install the winning rows of an update, msg = (origin, rows,
        ranks); returns the destinations whose metric or validity changed."""
        changed = self._install(*msg)
        if changed:
            self._trigger_update()
        return changed

    def _install(self, origin, rows, ranks):
        """Install (dest, seq, hops) rows from neighbor origin that beat
        the stored routes, none the router's own, with their hold-downs."""
        changed = []
        now = self.sim.now
        settling = self._settling
        table_rows, table_ranks = self._rows, self._ranks
        for (dest, seq, hops), rank in zip(rows, ranks):
            _, prev_seq, prev_hops, prev_next = table_rows[dest].tolist()
            table_rows[dest, 1:] = seq, hops, origin
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
        out = ((rows[:, 3] == dead_neighbor)
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
            return self._rows.item(dest, 3)
        return None

    def send_app_packet(self, pkt):
        self._forward(pkt)

    def handle_frame(self, frame):       # data; updates come to deliver_broadcast
        self._receive_data(frame.payload)
