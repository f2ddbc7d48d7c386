"""In-memory spans and counts around the simulator's layer boundaries.

The tracer patches, from outside the program, the public functions through
which one layer calls another, and wraps every scheduled event so that its
handler runs in a span of the layer that scheduled it.  Nothing in ``src/``
changes.  Spans are kept in flat arrays (name, parent, start, end) and
written out when the run ends; a layer's self time is the duration of its
spans minus the part their child spans cover.
"""

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

import manetsim.metrics as metrics
import manetsim.mobility as mobility
import manetsim.radio as radio
import manetsim.scenario as scenario
import manetsim.sweep as sweep
import manetsim.traffic as traffic
from manetsim.engine import Simulator
from manetsim.protocols import AodvRouter, DsdvRouter, DsrRouter

# Layer of the code an event handler comes from, by defining module.
MODULE_LAYER = {
    "manetsim.engine": "engine",
    "manetsim.mobility": "mobility",
    "manetsim.radio": "radio",
    "manetsim.protocols.dsdv": "dsdv",
    "manetsim.protocols.aodv": "aodv",
    "manetsim.protocols.dsr": "dsr",
    "manetsim.protocols.base": "protocols",
    "manetsim.traffic": "traffic",
    "manetsim.metrics": "metrics",
    "manetsim.scenario": "scenario",
    "manetsim.sweep": "sweep",
}
CLASS_LAYER = ((DsdvRouter, "dsdv"), (AodvRouter, "aodv"), (DsrRouter, "dsr"))

# Public methods through which other layers call in.
CLASS_ENTRIES = (
    (Simulator, "engine", ("cancel", "run_until")),
    (mobility.RandomWaypoint, "mobility", ("positions_xy", "position", "positions")),
    (mobility.FixedPositions, "mobility", ("positions_xy", "position", "positions")),
    (radio.Radio, "radio", ("broadcast", "unicast", "register_link_break")),
    (DsdvRouter, "dsdv", ("start", "send_app_packet", "handle_frame", "handle_link_break")),
    (AodvRouter, "aodv", ("start", "send_app_packet", "handle_frame", "handle_link_break")),
    (DsrRouter, "dsr", ("start", "send_app_packet", "handle_frame", "handle_link_break")),
    (traffic.TrafficGenerator, "traffic", ("start",)),
    (metrics.PacketTrace, "metrics", ("record_generated", "record_received",
                                      "record_control", "record_drop", "window")),
)
# Module-level functions, patched in every namespace that calls them.
FUNCTION_ENTRIES = (
    ("scenario", "build_simulation", (scenario,)),
    ("scenario", "run_scenario", (scenario, sweep)),
    ("sweep", "run_sweep", (sweep,)),
    ("metrics", "summarize", (scenario,)),
    ("metrics", "write_trace_csv", (scenario,)),
)

RADIO_STATS = ("tx_broadcast", "tx_unicast", "rx_delivered", "rx_collision",
               "rx_out_of_range", "mac_retry", "link_broken")


def _counted(fn, count):
    """fn wrapped so that ``count(args, result)`` runs after each call."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        count(args, result)
        return result
    return wrapper


def layer_of(fn):
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        for cls, layer in CLASS_LAYER:
            if isinstance(owner, cls):
                return layer
    return MODULE_LAYER.get(getattr(fn, "__module__", None), "other")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ix = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = Counter()
        self.radios = []
        self.traces = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn):
        """fn wrapped so that each call records one span called ``name``."""
        nid = self._id(name)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(name_ix)
            name_ix.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0)
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end[i] = clock()

        return wrapper

    # -- installing ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the layer boundaries for the duration of the block."""
        saved = []

        def patch(owner, name, value):
            saved.append((owner, name, owner.__dict__.get(name)))
            setattr(owner, name, value)

        counts = self.counts
        for cls, layer, names in CLASS_ENTRIES:
            for name in names:
                fn = getattr(cls, name)
                if name == "run_until":
                    fn = _counted(fn, lambda a, r: counts.update(events=r))
                patch(cls, name, self.span(f"{layer}.{name}", fn))

        orig_schedule = Simulator.__dict__["schedule"]
        span = self.span

        def schedule(sim, event):
            payload = event.payload
            if callable(payload):
                event.payload = span(f"{layer_of(payload)}.event", payload)
            return orig_schedule(sim, event)

        patch(Simulator, "schedule", self.span("engine.schedule", schedule))

        def on_update(args, changed):
            counts["dsdv.update_entries"] += len(args[1][1])
            counts["dsdv.changed"] += len(changed)

        patch(DsdvRouter, "handle_update",
              _counted(DsdvRouter.__dict__["handle_update"], on_update))
        for cls, key in ((AodvRouter, "aodv.rreq_handled"), (DsrRouter, "dsr.rreq_handled")):
            patch(cls, "handle_rreq", _counted(cls.__dict__["handle_rreq"],
                                               lambda a, r, key=key: counts.update((key,))))

        def on_build(args, built):
            self.radios.append(built[1])
            self.traces.append(built[3])

        for layer, name, namespaces in FUNCTION_ENTRIES:
            fn = getattr(namespaces[0], name)
            if name == "build_simulation":
                fn = _counted(fn, on_build)
            wrapped = self.span(f"{layer}.{name}", fn)
            for ns in namespaces:
                patch(ns, name, wrapped)
        try:
            yield self
        finally:
            for owner, name, value in reversed(saved):
                if value is None:
                    delattr(owner, name)   # the class inherited it
                else:
                    setattr(owner, name, value)

    # -- results -------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_ix, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def self_seconds(self):
        """Self time per span name, in seconds."""
        names, parent, start, end = self.arrays()
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        per_name = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {name: per_name[i] / 1e9 for i, name in enumerate(self.names)}

    def inclusive_seconds(self, name):
        names, _parent, start, end = self.arrays()
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        mask = names == nid
        return float((end[mask] - start[mask]).sum()) / 1e9

    def span_count(self, prefix):
        names = self.arrays()[0]
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return int(np.isin(names, ids).sum())

    def layer_metrics(self, untraced_wall_s, traced_wall_s):
        """The per-layer metrics of the traced round."""
        self_s = Counter()
        for name, seconds in self.self_seconds().items():
            self_s[name.split(".", 1)[0]] += seconds
        stats = Counter()
        for r in self.radios:
            stats.update(r.stats)
        events = self.counts["events"]
        heard = stats["rx_delivered"] + stats["rx_collision"] + stats["rx_out_of_range"]
        entries = self.counts["dsdv.update_entries"]
        out = {
            "engine.self_s": (self_s["engine"], "s"),
            "engine.events": (events, "count"),
            "engine.events_per_s": (events / untraced_wall_s, "1/s"),
            "mobility.self_s": (self_s["mobility"], "s"),
            "mobility.queries": (self.span_count("mobility."), "count"),
            "radio.self_s": (self_s["radio"], "s"),
        }
        for key in RADIO_STATS:
            out[f"radio.{key}"] = (stats[key], "count")
        out["radio.rx_useful_ratio"] = (stats["rx_delivered"] / heard if heard else 0.0, "ratio")
        out.update({
            "dsdv.self_s": (self_s["dsdv"], "s"),
            "dsdv.update_entries": (entries, "count"),
            "dsdv.changed_ratio": (self.counts["dsdv.changed"] / entries if entries else 0.0, "ratio"),
            "aodv.self_s": (self_s["aodv"], "s"),
            "aodv.rreq_handled": (self.counts["aodv.rreq_handled"], "count"),
            "dsr.self_s": (self_s["dsr"], "s"),
            "dsr.rreq_handled": (self.counts["dsr.rreq_handled"], "count"),
            "protocols.control_bytes": (sum(sum(t.control_bytes.values()) for t in self.traces), "B"),
            "protocols.drops": (sum(sum(t.drops.values()) for t in self.traces), "count"),
            "traffic.self_s": (self_s["traffic"], "s"),
            "traffic.packets_generated": (sum(len(t.records) for t in self.traces), "count"),
            "metrics.self_s": (self_s["metrics"], "s"),
            "scenario.build_s": (self.inclusive_seconds("scenario.build_simulation"), "s"),
            "sweep.self_s": (self_s["sweep"], "s"),
            "tracing.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
        })
        return out

    def write(self, path):
        names, parent, start, end = self.arrays()
        np.savez(path, span_names=np.array(self.names), name=names,
                 parent=parent, start_ns=start, end_ns=end)
