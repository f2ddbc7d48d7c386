"""Proactive destination-sequenced distance-vector routing.

Every node periodically floods a full table dump carrying per-destination
sequence numbers.  An advertised route replaces the stored one when its
sequence number is newer, or when it is equally fresh with a strictly
smaller hop count; otherwise the advertisement is ignored.  Broken links
invalidate routes by making their sequence number odd.
"""

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
UNRANKED = np.iinfo(np.int64).min


def _rank(seq, hops):
    return seq * RANK_SEQ - hops


class DsdvEntry:
    __slots__ = ("dest", "next_hop", "hops", "seq", "install_us")

    def __init__(self, dest, next_hop, hops, seq, install_us):
        self.dest = dest
        self.next_hop = next_hop
        self.hops = hops
        self.seq = seq
        self.install_us = install_us

    @property
    def valid(self):
        return self.seq % 2 == 0 and self.hops < INFINITY


class DsdvRouter(RoutingProtocol):
    name = "dsdv"

    def __init__(self, node_id, sim, radio, trace, rng, flood_jitter_us=0):
        super().__init__(node_id, sim, radio, trace, rng, flood_jitter_us)
        self.own_seq = 0
        self.table = {node_id: DsdvEntry(node_id, node_id, 0, 0, 0)}
        self._settling = {}       # dest -> (prev_next_hop, prev_hops, deadline_us)
        # Array copies of the table, indexed by dest: the _rank of the stored
        # entry (UNRANKED where there is none) and its (dest, seq, hops).
        size = max(radio.node_count, node_id + 1)
        self._ranks = np.full(size, UNRANKED)
        self._rows = np.zeros((size, 3), dtype=np.int64)
        self._rerank((node_id,))
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
        self.table[self.node_id].seq = self.own_seq
        self._rerank((self.node_id,))
        self._dump()

    def _dump(self):
        """Broadcast the table.  The message is (origin, entries, dests,
        ranks): the (dest, seq, hops) rows in table order, own entry first,
        plus their destinations and the _rank each would have once
        installed, which let every receiver skip the entries it would
        ignore in one vector compare."""
        dests = np.fromiter(self.table, dtype=np.int64, count=len(self.table))
        entries = self._rows[dests]
        seqs, hops = entries[:, 1], entries[:, 2]
        ranks = _rank(seqs, np.where(hops < INFINITY, hops + 1, INFINITY))
        size = UPDATE_HEADER_BYTES + UPDATE_ENTRY_BYTES * len(entries)
        self._last_dump_us = self.sim.now
        self._trigger_pending = False
        msg = (self.node_id, entries, dests, ranks)
        self.radio.broadcast(self.node_id, self._frame(-1, size, UPDATE, msg))

    def _trigger_update(self):
        """Broadcast a (rate-limited) triggered full dump."""
        if self._trigger_pending:
            return
        due = self._last_dump_us + TRIGGER_SPACING_US
        if due <= self.sim.now:
            self._trigger_pending = True
            self._jittered(self._dump_if_pending)
        else:
            self._trigger_pending = True
            self.sim.at(due, self._dump_if_pending)

    def _dump_if_pending(self):
        if self._trigger_pending:
            self._dump()

    # -- update acceptance --------------------------------------------

    def apply_update_entry(self, dest, adv_seq, adv_hops, origin):
        """Process one advertised (dest, seq, hops) triple from a neighbor.

        Returns True when the route is installed per the acceptance rule:
        newer sequence number always wins; an equally fresh route wins only
        with a strictly smaller hop count.
        """
        cur = self.table.get(dest)
        before = None if cur is None else (cur.seq, cur.hops)
        self._merge(origin, ((dest, adv_seq, adv_hops),))
        cur = self.table.get(dest)
        return cur is not None and (cur.seq, cur.hops) != before

    def handle_update(self, msg):
        """Apply a full-dump update message; returns changed destinations."""
        changed = self._merge(*msg)
        if changed:
            self._trigger_update()
        return changed

    def _merge(self, origin, entries, dests=None, ranks=None):
        """Apply the acceptance rule to each advertised (dest, seq, hops)
        triple from neighbor origin; returns the destinations whose metric
        or validity changed.

        A full dump touches every destination, so this loop dominates
        DSDV's run time.  When the dump carries its destinations and ranks
        (see _dump), the entries whose rank does not beat the stored one,
        which the rule would ignore, are dropped before the loop.
        """
        if ranks is not None:
            try:
                stored = self._ranks[dests]
            except IndexError:          # a destination beyond the arrays
                self._grow(int(dests.max()))
                stored = self._ranks[dests]
            fresher = (ranks > stored).nonzero()[0]
            if not len(fresher):
                return []
            entries = entries[fresher].tolist()
        changed = []
        table = self.table
        me = self.node_id
        now = self.sim.now
        settling = self._settling
        for dest, adv_seq, adv_hops in entries:
            if dest == me:
                continue
            cur = table.get(dest)
            if cur is None:
                hops = adv_hops + 1 if adv_hops < INFINITY else INFINITY
                table[dest] = DsdvEntry(dest, origin, hops, adv_seq, now)
                changed.append(dest)
                continue
            cur_seq = cur.seq
            if adv_seq > cur_seq:
                hops = adv_hops + 1 if adv_hops < INFINITY else INFINITY
                prev_hops = cur.hops
                prev_next = cur.next_hop
                was_valid = cur_seq % 2 == 0 and prev_hops < INFINITY
                now_valid = adv_seq % 2 == 0 and hops < INFINITY
                cur.next_hop = origin
                cur.hops = hops
                cur.seq = adv_seq
                cur.install_us = now
                if was_valid and now_valid and hops > prev_hops \
                        and origin != prev_next:
                    settling[dest] = (prev_next, prev_hops, now + SETTLE_US)
                else:
                    sh = settling.get(dest)
                    if sh is not None and hops <= sh[1]:
                        del settling[dest]
                if hops != prev_hops or was_valid != now_valid:
                    changed.append(dest)
            elif adv_seq == cur_seq:
                hops = adv_hops + 1 if adv_hops < INFINITY else INFINITY
                if hops < cur.hops:
                    cur.next_hop = origin
                    cur.hops = hops
                    cur.install_us = now
                    sh = settling.get(dest)
                    if sh is not None and hops <= sh[1]:
                        del settling[dest]
                    changed.append(dest)
        self._rerank(dest for dest, _seq, _hops in entries)
        return changed

    def _grow(self, dest):
        """Make the table arrays long enough to index dest."""
        size = 2 * dest + 1
        ranks = np.full(size, UNRANKED)
        ranks[:len(self._ranks)] = self._ranks
        rows = np.zeros((size, 3), dtype=np.int64)
        rows[:len(self._rows)] = self._rows
        self._ranks, self._rows = ranks, rows

    def _rerank(self, dests):
        """Bring the table arrays up to date for dests after their entries
        changed."""
        table = self.table
        for dest in dests:
            entry = table.get(dest)
            if entry is None:
                continue
            if dest >= len(self._ranks):
                self._grow(dest)
            self._ranks[dest] = _rank(entry.seq, entry.hops)
            self._rows[dest] = (dest, entry.seq, entry.hops)

    # -- link failure -------------------------------------------------

    def handle_link_break(self, dead_neighbor, frame):
        if frame.kind == DATA:
            self.drop("link_break")
        invalidated = self.invalidate_via(dead_neighbor)
        if invalidated:
            self._trigger_update()

    def invalidate_via(self, dead_neighbor):
        """Mark every route through dead_neighbor broken (odd seq, infinite
        hops); returns the invalidated destinations."""
        out = []
        for entry in self.table.values():
            if entry.next_hop == dead_neighbor and entry.dest != self.node_id \
                    and entry.valid:
                entry.seq += 1
                entry.hops = INFINITY
                out.append(entry.dest)
        for dest, sh in list(self._settling.items()):
            if sh[0] == dead_neighbor:
                del self._settling[dest]
        self._rerank(out)
        return out

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
        entry = self.table.get(dest)
        if entry is not None and entry.valid:
            return entry.next_hop
        return None

    def send_app_packet(self, pkt):
        self._forward(DataPacket(pkt))

    def handle_frame(self, frame):
        if frame.kind == UPDATE:
            self.handle_update(frame.payload)
        elif frame.kind == DATA:
            self._receive_data(frame.payload)
