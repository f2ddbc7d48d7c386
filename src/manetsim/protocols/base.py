"""Shared plumbing for the three routing protocols: the two send helpers,
hop-by-hop forwarding for the distance-vector protocols, and the on-demand
send, discovery and release policy of the reactive ones."""

from collections import deque
from functools import partial

from ..radio import Frame

# Safety valve against transient forwarding loops in the distance-vector
# protocols; DSR routes are loop-free by construction.
MAX_HOPS = 32

# On-demand discovery: AODV and DSR share one retry policy for comparability.
DISCOVERY_TIMEOUT_US = 1_000_000
RREQ_RETRIES = 2                    # retries after the initial attempt
BUFFER_CAPACITY = 64                # per-destination; overflow drops oldest

# Rebroadcast jitter under the realistic MAC; floods need desynchronizing
# once collisions exist.
FLOOD_JITTER_US = 10_000

DATA = "data"


class Flood:
    """The nodes that have handled one route request, as a bit mask that
    every copy of the request carries: duplicate detection (RFC 3561 6.5,
    RFC 4728 3.3.2) without per-node state.  Only the origin and
    ``ReactiveProtocol.deliver_broadcast`` set bits of ``seen``."""

    __slots__ = ("seen",)

    def __init__(self, origin):
        self.seen = 1 << origin


def receivers(mask):
    """The nodes whose bits are set in a receiver mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def connect(radio, routers):
    """Hand the radio's frames to routers: a unicast to its receiver, a
    broadcast to all of its receivers in one call."""
    radio.handlers = [router.handle_frame for router in routers]
    radio.on_broadcast = partial(routers[0].deliver_broadcast, routers)


class RoutingProtocol:
    """Per-node protocol instance, driven entirely by engine events.
    Subclasses supply ``send_app_packet(pkt)``, ``handle_frame(frame)`` and
    ``handle_link_break(dead_neighbor, frame)``, for a unicast that found
    its receiver gone; those that forward hop by hop, ``route_lookup(dest)``,
    the next hop to dest or None."""

    name = "?"

    def __init__(self, node_id, sim, radio, trace, rng):
        self.node_id = node_id
        self.sim = sim
        self.radio = radio
        self.trace = trace
        self.rng = rng
        # Jitter applied before rebroadcasting flooded control packets.
        self.flood_jitter_us = 0 if radio.ideal else FLOOD_JITTER_US
        radio.register_link_break(node_id, self.handle_link_break)

    def start(self):
        """Called once at t=0 before any traffic."""

    @classmethod
    def deliver_broadcast(cls, routers, mask, frame):
        """Hand a broadcast frame to the routers in mask, in node order."""
        for node in receivers(mask):
            routers[node].handle_frame(frame)

    # -- helpers ------------------------------------------------------

    def _broadcast(self, size, kind, payload):
        self.radio.broadcast(self.node_id, Frame(self.node_id, size, kind, payload))

    def _unicast(self, next_hop, size, kind, payload):
        self.radio.unicast(self.node_id, next_hop,
                           Frame(self.node_id, size, kind, payload))

    def deliver(self, pkt):
        self.trace.record_received(pkt.flow_id, pkt.seq, self.sim.now, pkt.hops)

    def drop(self, reason):
        self.trace.record_drop(f"{self.name}:{reason}")

    def _jittered(self, fn, *args):
        """Run fn(*args) now (no jitter) or after a small random delay."""
        delay = self.flood_jitter_us and self.rng.randrange(self.flood_jitter_us)
        if delay:
            self.sim.after(delay, fn, *args)
        else:
            fn(*args)

    # -- hop-by-hop forwarding (DSDV, AODV) ---------------------------

    def _forward(self, pkt):
        """Unicast pkt to the next hop that ``route_lookup`` names."""
        next_hop = self.route_lookup(pkt.dst)
        if next_hop is None:
            self.drop("no_route")
            return
        self._unicast(next_hop, pkt.size, DATA, pkt)

    def _receive_data(self, pkt):
        pkt.hops += 1
        if pkt.dst == self.node_id:
            self.deliver(pkt)
        elif pkt.hops >= MAX_HOPS:
            self.drop("hop_limit")
        else:
            self._forward(pkt)


class ReactiveProtocol(RoutingProtocol):
    """On-demand route discovery shared by AODV and DSR.

    A packet goes out at once over a known route.  Otherwise it waits in a
    bounded buffer while a route request floods; an unanswered request is
    repeated every DISCOVERY_TIMEOUT_US, up to RREQ_RETRIES times, and then
    the buffered packets are dropped.  ``pending`` maps each destination
    under discovery to the timer of its current attempt, which carries the
    attempt number.  A discovery succeeds only through ``_release``: once a
    route is known, it sends what waits, cancels the timer and ends the
    discovery.  Subclasses supply ``route_lookup(dest)``, the route to dest
    or None, ``_send(pkt, route)`` over that route, ``originate_rreq(dest)``
    and ``rreq_kind``, the frame kind of a route request, whose payload
    carries its ``Flood``.
    """

    def __init__(self, node_id, sim, radio, trace, rng):
        super().__init__(node_id, sim, radio, trace, rng)
        self.buffers = {}        # dest -> deque of AppPacket
        self.pending = {}        # dest -> timer of the discovery's attempt

    @classmethod
    def deliver_broadcast(cls, routers, mask, frame):
        """Hand a broadcast frame to the routers in mask, in node order.  A
        route request reaches only the nodes not yet in its flood's
        ``seen``, which are marked before any of them handles it: the one
        place where a node handles a request at most once."""
        if frame.kind == cls.rreq_kind:
            flood = frame.payload.flood
            mask &= ~flood.seen
            flood.seen |= mask
        super().deliver_broadcast(routers, mask, frame)

    def send_app_packet(self, pkt):
        route = self.route_lookup(pkt.dst)
        if route is not None:
            self._send(pkt, route)
        else:
            self._buffer(pkt.dst, pkt)
            self._start_discovery(pkt.dst)

    def _buffer(self, dest, pkt):
        buf = self.buffers.setdefault(dest, deque())
        if len(buf) >= BUFFER_CAPACITY:
            buf.popleft()
            self.drop("buffer_overflow")
        buf.append(pkt)

    def _start_discovery(self, dest):
        if dest not in self.pending:
            self._discover(dest, 0)

    def _discover(self, dest, attempt):
        """Flood a request for dest; its timer retries or gives up."""
        self.originate_rreq(dest)
        self.pending[dest] = self.sim.after(DISCOVERY_TIMEOUT_US,
                                            self._discovery_timeout, dest, attempt)

    def _discovery_timeout(self, dest, attempt):
        if self.route_lookup(dest) is not None:
            del self.pending[dest]
        elif attempt < RREQ_RETRIES:
            self._discover(dest, attempt + 1)
        else:
            del self.pending[dest]
            for _ in self.buffers.pop(dest, ()):
                self.drop("no_route_ever")

    def _release(self, dest):
        """Send the packets waiting for dest and end its discovery, if a
        route is known; False only when packets wait and none is."""
        buffered = self.buffers.get(dest)
        if not buffered:
            # Nothing waits: leave the route's expiry alone (AODV's
            # route_lookup refreshes it).
            return True
        route = self.route_lookup(dest)
        if route is None:
            return False
        del self.buffers[dest]
        timer = self.pending.pop(dest, None)
        if timer is not None:
            self.sim.cancel(timer)
        for pkt in buffered:
            self._send(pkt, route)
        return True
