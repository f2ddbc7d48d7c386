"""Deterministic discrete-event core.

Virtual time is kept as integer microseconds so that event ordering is
identical on every platform.  Ties between events with the same timestamp
are broken by insertion order.
"""

import hashlib
import heapq
import random
from itertools import count

US_PER_S = 1_000_000


def to_us(seconds):
    """Convert seconds (float) to integer microseconds."""
    return int(round(seconds * US_PER_S))


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the current clock."""


class Event:
    """A callable ``payload`` due at ``fire_at``, called with ``args``; the
    object returned by ``Simulator.at`` doubles as the cancellation handle."""

    __slots__ = ("fire_at", "payload", "args")

    def __init__(self, fire_at, payload, args):
        self.fire_at = fire_at
        self.payload = payload
        self.args = args


def _stream_seed(master_seed, stream_id):
    digest = hashlib.sha256(f"{master_seed}:{stream_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream(random.Random):
    """Named random stream derived from a master seed by a labeled hash.

    Identical (seed, stream_id) pairs yield identical draw sequences, and
    draws on one stream never perturb another.
    """

    def __new__(cls, master_seed, stream_id):
        return super().__new__(cls)

    def __init__(self, master_seed, stream_id):
        self.master_seed = master_seed
        self.stream_id = stream_id
        super().__init__(_stream_seed(master_seed, stream_id))


class Simulator:
    """Single-threaded event loop with a monotone virtual clock."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = count()

    def schedule(self, event):
        """Enqueue *event*; returns it as a cancellation handle."""
        if event.fire_at < self.now:
            raise SchedulingInPast(
                f"fire_at {event.fire_at} < clock {self.now}"
            )
        heapq.heappush(self._heap, (event.fire_at, next(self._seq), event))
        return event

    def at(self, fire_at, fn, *args):
        """Schedule ``fn(*args)`` at absolute time *fire_at* (microseconds)."""
        return self.schedule(Event(fire_at, fn, args))

    def after(self, delay, fn, *args):
        return self.schedule(Event(self.now + delay, fn, args))

    def cancel(self, handle):
        """Cancel a pending event; cancelling it again, or after it fired,
        changes nothing."""
        handle.payload = None

    def clear(self):
        """Cancel and drop every pending event."""
        for _fire_at, _seq, event in self._heap:
            event.payload = None
        self._heap.clear()

    def run_until(self, end):
        """Dispatch every event with fire_at <= end; clock ends at *end*.

        Returns the number of dispatched (non-cancelled) events.
        """
        heap = self._heap
        dispatched = 0
        while heap and heap[0][0] <= end:
            fire_at, _seq, event = heapq.heappop(heap)
            payload = event.payload
            if payload is None:
                continue
            self.now = fire_at
            dispatched += 1
            payload(*event.args)
        self.now = end
        return dispatched
