"""Proactive destination-sequenced distance-vector routing.

Every node periodically floods a full table dump carrying per-destination
sequence numbers.  An advertised route replaces the stored one when its
sequence number is newer, or when it is equally fresh with a strictly
smaller hop count; otherwise the advertisement is ignored.  Broken links
invalidate routes by making their sequence number odd.  The rule is one
compare of ranks: a dump meets the rows of all its receivers in one rank
array at once, and all the (receiver, destination) pairs that win install
in one call.
"""

import numpy as np

from .base import DATA, RoutingProtocol

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
# hops rank higher (hops <= INFINITY < RANK_SEQ).  A table keeps a route as
# its rank and its next hop.
RANK_SEQ = 2 * INFINITY


def _rank(seq, hops):
    return seq * RANK_SEQ - hops


def _decode(rank):
    """The (seq, hops) of a rank, scalar or array; exact for hops <= INFINITY."""
    hops = -rank % RANK_SEQ
    return (rank + hops) // RANK_SEQ, hops


def _valid(rank):
    """A route forwards while its sequence number is even and its metric
    finite: while -rank mod 2 * RANK_SEQ, its hop count plus RANK_SEQ if the
    sequence number is odd, is below INFINITY.  Scalar or array."""
    return -rank % (2 * RANK_SEQ) < INFINITY


# A destination without a route: next hop NO_ROUTE, and the rank of (seq,
# hops) = (NO_ROUTE, NO_ROUTE), below every route's and invalid.
NO_ROUTE = -1
UNRANKED = _rank(NO_ROUTE, NO_ROUTE)


class RankArray:
    """The routes of a run's routers as two n×n arrays, the ranks and the
    next hops: row i is routers[i]._ranks and routers[i]._next_hops.  Built
    by stacking the routers' own rows at the run's first update delivery."""

    def __init__(self, routers):
        self.routers = routers
        self.ranks = np.stack([router._ranks for router in routers])
        self.next_hops = np.stack([router._next_hops for router in routers])
        for router, ranks, next_hops in zip(routers, self.ranks, self.next_hops):
            router._ranks, router._next_hops = ranks, next_hops
            router._network = self

    def install(self, origin, dests, ranks, who, now):
        """Write the routes over origin to dests[i] with ranks[i] into rows
        who[i], none a router's own, and keep those routers' hold-downs;
        returns the (row, dest) pairs whose metric or validity changed."""
        prev_next_hops = self.next_hops[who, dests].tolist()
        prev_ranks = self.ranks[who, dests].tolist()
        self.ranks[who, dests] = ranks
        self.next_hops[who, dests] = origin
        routers = self.routers
        changed = []
        for node, dest, rank, prev, prev_next in zip(
                who.tolist(), dests.tolist(), ranks.tolist(), prev_ranks, prev_next_hops):
            hops, prev_hops = -rank % RANK_SEQ, -prev % RANK_SEQ     # as _decode
            now_valid, was_valid = _valid(rank), _valid(prev)
            settling = routers[node]._settling
            if was_valid and now_valid and hops > prev_hops and origin != prev_next:
                settling[dest] = (prev_next, prev_hops, now + SETTLE_US)
            else:
                sh = settling.get(dest)
                if sh is not None and hops <= sh[1]:
                    del settling[dest]
            if hops != prev_hops or was_valid != now_valid:
                changed.append((node, dest))
        return changed


class DsdvRouter(RoutingProtocol):
    """The table: a rank and a next hop per node of the network, two rows
    of its own until a run's first update stacks all routers' rows into
    one RankArray."""

    name = "dsdv"

    def __init__(self, node_id, sim, radio, trace, rng):
        super().__init__(node_id, sim, radio, trace, rng)
        self.own_seq = 0
        self._settling = {}       # dest -> (prev_next_hop, prev_hops, deadline_us)
        self._ranks = np.full(radio.node_count, UNRANKED)
        self._next_hops = np.full(radio.node_count, NO_ROUTE)
        self._network = None
        self._own_route()
        self._last_dump_us = -TRIGGER_SPACING_US
        self._trigger_pending = False

    def start(self):
        first = self.rng.randrange(FIRST_ADVERTISE_MAX_US + 1)
        self.sim.at(first, self._periodic)

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
        self._ranks[me] = _rank(self.own_seq, 0)
        self._next_hops[me] = me

    def _dump(self):
        """Broadcast every route, own one included, as (origin, dests, ranks):
        the ranks a receiver installs, one hop further unless unreachable."""
        dests = (self._ranks != UNRANKED).nonzero()[0]
        ranks = self._ranks[dests]
        ranks -= ranks % RANK_SEQ != INFINITY
        size = UPDATE_HEADER_BYTES + UPDATE_ENTRY_BYTES * len(dests)
        self._last_dump_us = self.sim.now
        self._trigger_pending = False
        self._broadcast(size, UPDATE, (self.node_id, dests, ranks))

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
        receivers at once, each one's own destination left out, and hand
        every winning (receiver, destination) pair to one handle_update."""
        origin, dests, ranks = frame.payload
        network = routers[0]._network or RankArray(routers)
        bits = np.frombuffer(mask.to_bytes((len(routers) + 7) // 8, "little"), np.uint8)
        nodes = np.unpackbits(bits, bitorder="little").nonzero()[0]
        stored = network.ranks.take(nodes, 0)
        if len(dests) < stored.shape[1]:    # not a dump of every destination
            stored = stored.take(dests, 1)
        wins = ranks > stored
        wins &= dests != nodes[:, None]
        who, won = wins.nonzero()
        if len(won):
            routers[origin].handle_update((origin, dests[won], ranks[won], nodes[who]))

    def handle_update(self, msg):
        """Install the winning pairs of an update, msg = (origin, dests,
        ranks, who), then trigger the update of each receiver with a changed
        route, in node order; returns the changed (receiver, dest) pairs."""
        network = self._network
        changed = network.install(*msg, self.sim.now)
        for node in dict.fromkeys(node for node, _dest in changed):
            network.routers[node]._trigger_update()
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
        out = ((self._next_hops == dead_neighbor) & _valid(self._ranks)).nonzero()[0]
        self._ranks[out] = _rank(_decode(self._ranks[out])[0] + 1, INFINITY)
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
        if _valid(self._ranks.item(dest)):
            return self._next_hops.item(dest)
        return None

    def send_app_packet(self, pkt):
        self._forward(pkt)

    def handle_frame(self, frame):       # data; updates come to deliver_broadcast
        self._receive_data(frame.payload)
