"""The benchmark's tracer still sees every layer of a run.

``benchmark/tracer.py`` patches, from outside the program, the names
through which one layer calls another: ``Simulator.schedule``, ``cancel``
and ``run_until``, the mobility queries, and the entry points of the radio,
the routers, traffic, metrics and the scenario.  A change in ``src/`` that
renames one of them, or schedules an event around ``schedule``, leaves a
layer out of the benchmark's per-layer metrics without failing anything
else.  This test runs the tracer, unedited, around one short scenario per
protocol and MAC: a mobile one under the realistic MAC, and a static one
under the ideal MAC, which has no rebroadcast jitter.
"""

import sys
from pathlib import Path

import pytest

from manetsim import scenario
from manetsim.engine import Simulator
from manetsim.mobility import STATIC
from manetsim.scenario import ScenarioConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
try:
    import tracer
finally:
    sys.path.pop(0)

CONFIGS = {
    "realistic": dict(node_count=20, n_flows=4, sim_time=20.0, warmup=5.0, seed=1,
                      pause_time=0.0, mac_mode="realistic"),
    # Sparse enough that some discoveries fail and their timers fire.
    "ideal": dict(node_count=20, n_flows=4, sim_time=20.0, warmup=5.0, seed=1,
                  pause_time=STATIC, mac_mode="ideal", area_width=1000.0,
                  area_height=1000.0),
}


def _patch_targets():
    """{(owner, name): what the owner holds under that name} for every
    name the tracer patches."""
    targets = [(cls, name) for cls, _layer, names in tracer.CLASS_ENTRIES
               for name in names]
    targets += [(Simulator, "schedule"), (tracer.DsdvRouter, "handle_update"),
                (tracer.AodvRouter, "handle_rreq"), (tracer.DsrRouter, "handle_rreq")]
    targets += [(ns, name) for _layer, name, namespaces in tracer.FUNCTION_ENTRIES
                for ns in namespaces]
    return {(owner, name): vars(owner).get(name) for owner, name in targets}


@pytest.mark.parametrize("protocol, mac_mode", [
    pytest.param(protocol, mac_mode,
                 id=protocol if mac_mode == "realistic" else f"{protocol}-{mac_mode}")
    for mac_mode in CONFIGS for protocol in ("DSDV", "AODV", "DSR")])
def test_tracer_sees_every_layer(protocol, mac_mode, monkeypatch):
    returned = []
    run_until = Simulator.run_until

    def run_until_kept(sim, end):
        dispatched = run_until(sim, end)
        returned.append(dispatched)
        return dispatched

    monkeypatch.setattr(Simulator, "run_until", run_until_kept)
    before = _patch_targets()
    t = tracer.Tracer()
    with t.installed():
        scenario.run_scenario(ScenarioConfig(protocol=protocol, **CONFIGS[mac_mode]))

    for span in ("engine.schedule", "radio.event", "traffic.event",
                 f"{protocol.lower()}.event", "mobility.positions_xy"):
        assert t.span_count(span) > 0, span
    assert len(returned) == 1 and returned[0] > 0
    assert t.counts["events"] == returned[0]
    if protocol == "DSDV" and mac_mode == "realistic":
        # Every winning (receiver, destination) pair of every update reaches
        # handle_update, and it returns every changed one: this scenario's
        # exact counts, which the per-layer table reports.
        assert t.counts["dsdv.update_entries"] == 1349
        assert t.counts["dsdv.changed"] == 965
    assert _patch_targets() == before
