"""Reactive distance-vector routing with on-demand route discovery.

Routes are discovered by flooding route requests; replies come from the
destination or from an intermediate node whose cached destination
sequence number is at least as fresh as the one the request asks for,
and travel back along the reverse path the request installed.
"""

from .base import DATA, Flood, ReactiveProtocol

ACTIVE_ROUTE_TIMEOUT_US = 10_000_000

RREQ_BYTES = 24
RREP_BYTES = 20
RERR_BASE_BYTES = 12
RERR_PER_DEST_BYTES = 8

RREQ = "aodv-rreq"
RREP = "aodv-rrep"
RERR = "aodv-rerr"

# The dest_seq_known of a request for a destination with no entry (RFC
# 3561's U flag): below every sequence number, and those start at 0.
UNKNOWN = -1


class AodvEntry:
    __slots__ = ("dest", "next_hop", "hops", "dest_seq", "expires_at", "valid")

    def __init__(self, dest, next_hop, hops, dest_seq, expires_at):
        self.dest = dest
        self.next_hop = next_hop
        self.hops = hops
        self.dest_seq = dest_seq
        self.expires_at = expires_at
        self.valid = True

    def usable(self, now):
        """A route forwards and answers requests while valid and unexpired."""
        return self.valid and now < self.expires_at


class Rreq:
    __slots__ = ("origin", "dest", "dest_seq_known", "origin_seq", "hop_count",
                 "flood")

    def __init__(self, origin, dest, dest_seq_known, origin_seq, hop_count=0,
                 flood=None):
        self.origin = origin
        self.dest = dest
        self.dest_seq_known = dest_seq_known
        self.origin_seq = origin_seq
        self.hop_count = hop_count
        self.flood = flood or Flood(origin)


class Rrep:
    __slots__ = ("dest", "dest_seq", "hop_count", "origin")

    def __init__(self, dest, dest_seq, hop_count, origin):
        self.dest = dest
        self.dest_seq = dest_seq
        self.hop_count = hop_count
        self.origin = origin


class AodvRouter(ReactiveProtocol):
    name = "aodv"
    rreq_kind = RREQ

    def __init__(self, node_id, sim, radio, trace, rng):
        super().__init__(node_id, sim, radio, trace, rng)
        self.own_seq = 0
        self.table = {}          # dest -> AodvEntry

    # -- table maintenance --------------------------------------------

    def _install(self, dest, next_hop, hops, dest_seq):
        """Install/refresh a route if it is fresher, or equally fresh with
        fewer hops.  Returns True when the table changed."""
        cur = self.table.get(dest)
        if cur is not None:
            if cur.usable(self.sim.now):
                if not (dest_seq > cur.dest_seq
                        or dest_seq == cur.dest_seq and hops < cur.hops):
                    return False
            elif dest_seq < cur.dest_seq:
                # A broken route is replaced only by one at least as fresh.
                return False
        expires = self.sim.now + ACTIVE_ROUTE_TIMEOUT_US
        if cur is None:
            self.table[dest] = AodvEntry(dest, next_hop, hops, dest_seq, expires)
        else:
            cur.next_hop = next_hop
            cur.hops = hops
            cur.dest_seq = dest_seq
            cur.expires_at = expires
            cur.valid = True
        return True

    def route_lookup(self, dest):
        """Next hop for dest, or None.  Using a route refreshes its expiry."""
        entry = self.table.get(dest)
        if entry is None or not entry.usable(self.sim.now):
            return None
        entry.expires_at = self.sim.now + ACTIVE_ROUTE_TIMEOUT_US
        return entry.next_hop

    def _send(self, pkt, next_hop):
        """Send pkt from its source to next_hop; it goes on hop by hop."""
        self._unicast(next_hop, pkt.size, DATA, pkt)

    # -- discovery ----------------------------------------------------

    def originate_rreq(self, dest):
        self.own_seq += 1
        entry = self.table.get(dest)
        known = entry.dest_seq if entry is not None else UNKNOWN
        rreq = Rreq(self.node_id, dest, known, self.own_seq)
        self._broadcast(RREQ_BYTES, RREQ, rreq)
        return rreq

    def handle_rreq(self, rreq, prev_hop):
        self._install(rreq.origin, prev_hop, rreq.hop_count + 1, rreq.origin_seq)
        self._release(rreq.origin)
        if rreq.dest == self.node_id:
            self.own_seq = max(self.own_seq, rreq.dest_seq_known)
            reply = Rrep(self.node_id, self.own_seq, 0, rreq.origin)
            self._unicast(prev_hop, RREP_BYTES, RREP, reply)
            return
        entry = self.table.get(rreq.dest)
        if entry is not None and entry.usable(self.sim.now) \
                and entry.dest_seq >= rreq.dest_seq_known:
            reply = Rrep(rreq.dest, entry.dest_seq, entry.hops, rreq.origin)
            self._unicast(prev_hop, RREP_BYTES, RREP, reply)
            return
        fwd = Rreq(rreq.origin, rreq.dest, rreq.dest_seq_known, rreq.origin_seq,
                   rreq.hop_count + 1, rreq.flood)
        self._jittered(self._broadcast, RREQ_BYTES, RREQ, fwd)

    def handle_rrep(self, rrep, prev_hop):
        installed = self._install(rrep.dest, prev_hop, rrep.hop_count + 1,
                                  rrep.dest_seq)
        if rrep.origin == self.node_id:
            self._release(rrep.dest)
            return
        if not installed:
            self.drop("redundant_rrep")
            return
        back = self.route_lookup(rrep.origin)
        if back is None:
            self.drop("reverse_path_missing")
            return
        fwd = Rrep(rrep.dest, rrep.dest_seq, rrep.hop_count + 1, rrep.origin)
        self._unicast(back, RREP_BYTES, RREP, fwd)

    # -- link failure -------------------------------------------------

    def handle_link_break(self, dead_neighbor, frame):
        """A unicast, data or a reply, found dead_neighbor gone."""
        if frame.kind == RREP:
            self.drop("rrep_return_broken")
            return
        self.drop("link_break")
        unreachable = []
        for entry in self.table.values():
            if entry.valid and entry.next_hop == dead_neighbor:
                entry.valid = False
                entry.dest_seq += 1
                unreachable.append((entry.dest, entry.dest_seq))
        self._broadcast_rerr(unreachable)

    def handle_rerr(self, unreachable, prev_hop):
        affected = []
        for dest, seq in unreachable:
            entry = self.table.get(dest)
            if entry is not None and entry.valid and entry.next_hop == prev_hop:
                entry.valid = False
                entry.dest_seq = max(entry.dest_seq, seq)
                affected.append((dest, entry.dest_seq))
        self._broadcast_rerr(affected)

    def _broadcast_rerr(self, unreachable):
        """Report (dest, seq) pairs that are no longer reachable, if any."""
        if unreachable:
            self._broadcast(RERR_BASE_BYTES + RERR_PER_DEST_BYTES * len(unreachable),
                            RERR, tuple(unreachable))

    # -- receiving ----------------------------------------------------

    def handle_frame(self, frame):
        kind = frame.kind
        if kind == DATA:
            self._receive_data(frame.payload)
        elif kind == RREQ:
            self.handle_rreq(frame.payload, frame.src)
        elif kind == RREP:
            self.handle_rrep(frame.payload, frame.src)
        elif kind == RERR:
            self.handle_rerr(frame.payload, frame.src)
