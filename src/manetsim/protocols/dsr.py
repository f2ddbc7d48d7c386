"""Reactive source routing with per-node route caches.

Data packets carry the full node-address path in their header.  Route
requests accumulate the traversed addresses; replies come from the
destination or from an intermediate node's cache, and every node on the
return path caches the path and its prefixes.  Route errors purge every
cached path containing the broken link.
"""

from .base import DATA, Flood, ReactiveProtocol

CACHE_CAPACITY = 64              # paths per node, FIFO eviction, no expiry

DATA_HEADER_BASE_BYTES = 16
DATA_HEADER_PER_HOP_BYTES = 4
RREQ_BASE_BYTES = 16
RREQ_PER_HOP_BYTES = 4
RREP_BASE_BYTES = 16
RREP_PER_HOP_BYTES = 4
RERR_BYTES = 16

RREQ = "dsr-rreq"
RREP = "dsr-rrep"
RERR = "dsr-rerr"


def data_header_bytes(route):
    return DATA_HEADER_BASE_BYTES + DATA_HEADER_PER_HOP_BYTES * len(route)


class RouteCache:
    """Bounded per-node store of known source routes, insertion-ordered."""

    def __init__(self):
        self.paths = []

    def insert(self, route):
        """Store a path of 2+ nodes: a suffix of a checked reply path, so loop-free."""
        if route in self.paths:
            return
        if len(self.paths) >= CACHE_CAPACITY:
            self.paths.pop(0)
        self.paths.append(route)

    def find(self, dest):
        """Shortest cached path to dest (ties: oldest).  Every path a router
        caches starts at that router."""
        best = None
        for path in self.paths:
            if path[-1] == dest:
                if best is None or len(path) < len(best):
                    best = path
        return best

    def purge_link(self, a, b):
        """Remove every path using link a-b in either direction."""
        def uses(path):
            for i in range(len(path) - 1):
                if (path[i] == a and path[i + 1] == b) or \
                        (path[i] == b and path[i + 1] == a):
                    return True
            return False
        self.paths = [p for p in self.paths if not uses(p)]


class _Rreq:
    """A route request for dest: the record of the nodes it has traversed,
    whose first node is its origin, and the ``Flood`` its copies share."""

    __slots__ = ("dest", "record", "flood")

    def __init__(self, dest, record, flood):
        self.dest = dest
        self.record = record
        self.flood = flood


class _Rerr:
    __slots__ = ("broken_link", "dest", "return_path")

    def __init__(self, broken_link, dest, return_path):
        self.broken_link = broken_link
        self.dest = dest
        self.return_path = return_path  # reporter back to source, inclusive


class DsrRouter(ReactiveProtocol):
    name = "dsr"
    rreq_kind = RREQ

    def __init__(self, node_id, sim, radio, trace, rng):
        super().__init__(node_id, sim, radio, trace, rng)
        self.cache = RouteCache()

    # -- sending ------------------------------------------------------

    def route_lookup(self, dest):
        """The cached source route to dest, or None."""
        return self.cache.find(dest)

    def _send(self, pkt, route):
        """Send pkt from its source along route."""
        pkt.route = route
        pkt.idx = 1
        self._unicast_data(pkt)

    def _unicast_data(self, pkt):
        """Send pkt to the hop its route names at pkt.idx."""
        route = pkt.route
        self._unicast(route[pkt.idx], pkt.size + data_header_bytes(route),
                      DATA, pkt)

    # -- discovery ----------------------------------------------------

    def originate_rreq(self, dest):
        self._broadcast_rreq(_Rreq(dest, (self.node_id,), Flood(self.node_id)))

    def _broadcast_rreq(self, rreq):
        self._broadcast(RREQ_BASE_BYTES + RREQ_PER_HOP_BYTES * len(rreq.record),
                        RREQ, rreq)

    def handle_rreq(self, rreq):
        """Reply as the destination or from the cache, else rebroadcast.
        The record holds only nodes of the request's flood, and delivery
        hands the request only to nodes outside it, so the destination's
        reply path is loop-free; a reply from the cache needs the one check."""
        if rreq.dest == self.node_id:
            self._send_rrep(rreq.record + (self.node_id,), len(rreq.record))
            return
        cached = self.cache.find(rreq.dest)
        if cached is not None:
            path = rreq.record + cached
            if len(set(path)) == len(path):
                self._send_rrep(path, len(rreq.record))
                return
        record = rreq.record + (self.node_id,)
        self._jittered(self._broadcast_rreq, _Rreq(rreq.dest, record, rreq.flood))

    def _send_rrep(self, path, my_index):
        """Send (or forward) a route reply, the full source route origin ..
        destination, backward along the record.  At the origin, which has
        cached the path, the discovery succeeds."""
        if my_index == 0:
            self._release(path[-1])
            return
        self._unicast(path[my_index - 1],
                      RREP_BASE_BYTES + RREP_PER_HOP_BYTES * len(path),
                      RREP, path)

    def handle_rrep(self, path):
        my_index = path.index(self.node_id)
        self._cache_suffixes(path, my_index)
        self._send_rrep(path, my_index)

    def _cache_suffixes(self, path, my_index):
        for j in range(my_index + 1, len(path)):
            self.cache.insert(path[my_index:j + 1])

    # -- source-routed forwarding -------------------------------------

    def forward_source_routed(self, pkt):
        if self.node_id == pkt.route[-1]:
            self.deliver(pkt)
            return
        pkt.idx += 1
        self._unicast_data(pkt)

    # -- maintenance --------------------------------------------------

    def handle_link_break(self, dead_neighbor, frame):
        if frame.kind == DATA:
            self.drop("link_break")
            self._report_broken_link(dead_neighbor, frame.payload)
        elif frame.kind == RREP:
            self.drop("rrep_return_broken")
        # RERR return failures are dropped silently.

    def _report_broken_link(self, dead_neighbor, pkt):
        """Start a route error here: its return path runs from this node
        (pkt.idx - 1, since idx was advanced to the dead hop) to the source."""
        route = pkt.route
        self.handle_route_error(_Rerr((self.node_id, dead_neighbor), route[-1],
                                      route[pkt.idx - 1::-1]))

    def handle_route_error(self, err):
        """Purge the broken link.  The source re-sends pending data over a
        surviving path or starts exactly one fresh discovery; any other node
        passes the error on toward the source."""
        self.cache.purge_link(*err.broken_link)
        rp = err.return_path
        if self.node_id == rp[-1]:
            if not self._release(err.dest):
                self._start_discovery(err.dest)
        else:
            self._unicast(rp[rp.index(self.node_id) + 1], RERR_BYTES, RERR, err)

    def handle_frame(self, frame):
        kind = frame.kind
        if kind == DATA:
            pkt = frame.payload
            pkt.hops += 1
            self.forward_source_routed(pkt)
        elif kind == RREQ:
            self.handle_rreq(frame.payload)
        elif kind == RREP:
            self.handle_rrep(frame.payload)
        elif kind == RERR:
            self.handle_route_error(frame.payload)
