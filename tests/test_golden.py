"""Golden behaviour lock: sha256 of the outputs of a small fixed grid.

The grid is every protocol x {20, 40} nodes x pauses {0, 20, static} with
the realistic MAC, swept with per-cell traces, plus one ideal-MAC cell per
protocol on a fixed placement.  Any change to an output byte of ``raw.csv``
or of a trace fails the test.  The radio's counters (``Radio.stats``) do
not reach those outputs, so the counters of the 40-node pause-0 cells are
locked as well, with one more such cell per protocol on slow, fast-moving
links (SLOW), where frames also arrive after their receiver left range.
The movement traces (``movement.csv``) of 20-node runs at every pause are
locked under MOVE_KEY, so that the writer of that file can change without
changing its bytes.  Under WIDE_KEY, the ``raw.csv`` of one 70-node cell
per protocol locks runs whose receiver masks and node ids pass 64 bits,
where a numpy integer in place of a Python one breaks the radio's mask
shifts.  A change that alters behaviour on purpose regenerates
``golden.json`` with

    PYTHONPATH=src python tests/test_golden.py

and says why.
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from manetsim import scenario
from manetsim.engine import RngStream
from manetsim.mobility import STATIC, FixedPositions, init_positions
from manetsim.scenario import ScenarioConfig, run_scenario
from manetsim.sweep import SweepSpec, result_row, run_sweep, write_raw_csv

GOLDEN = Path(__file__).with_name("golden.json")
BASE = ScenarioConfig(n_flows=5, sim_time=40.0, warmup=10.0, seed=1)
GRID = SweepSpec(protocols=["DSDV", "AODV", "DSR"], node_counts=[20, 40],
                 pause_times=[0.0, 20.0, STATIC], seeds_per_cell=1)
FIXED = dataclasses.replace(BASE, node_count=30, n_flows=8, mac_mode="ideal",
                            pause_time=STATIC)
# 50 ms per hop at up to 20 m/s: out-of-range arrivals occur.
SLOW = dataclasses.replace(BASE, node_count=40, pause_time=0.0, max_speed=20.0,
                           per_hop_latency=0.05)
STATS_KEY = "radio_stats"
MOVE_KEY = "movement"
WIDE_KEY = "raw_n70"
WIDE = SweepSpec(protocols=GRID.protocols, node_counts=[70], pause_times=[0.0],
                 seeds_per_cell=1)
# (protocol, pause, interval in seconds) of the movement-trace cells; 0.3 s
# does not divide the 40 s run, so the last sample falls short of its end.
MOVE_CELLS = [(protocol, pause, 1.0) for protocol in GRID.protocols
              for pause in GRID.pause_times] + [("DSR", 0.0, 0.3)]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fixed_cells(out):
    """One ideal-MAC run per protocol on the same seeded fixed placement."""
    positions = init_positions(FIXED.node_count, RngStream(FIXED.seed, "golden"),
                               600.0, 600.0)
    rows = []
    for protocol in GRID.protocols:
        config = dataclasses.replace(FIXED, protocol=protocol)
        record, _trace = run_scenario(
            config, trace_path=str(out / f"trace_fixed_{protocol}.csv"),
            mobility=FixedPositions(positions))
        rows.append(result_row(config, record))
    write_raw_csv(rows, out / "raw_fixed.csv")


def _movement_cells(out):
    """{cell: sha256 of its movement.csv} for MOVE_CELLS."""
    digests = {}
    for protocol, pause, interval in MOVE_CELLS:
        config = dataclasses.replace(BASE, protocol=protocol, node_count=20,
                                     pause_time=pause)
        cell = f"{protocol}-n20-p{'static' if pause == STATIC else f'{pause:g}'}-i{interval:g}"
        path = out / f"movement_{cell}.csv"
        run_scenario(config, move_trace_path=str(path), move_trace_interval=interval)
        digests[cell] = _sha256(path)
    return digests


def golden_outputs(out_dir):
    """{output file name: sha256} for the grid and the fixed cells, plus
    under STATS_KEY {cell: radio counters} of the 40-node pause-0 cells
    of the grid and of SLOW, under MOVE_KEY {cell: sha256} of the
    movement traces, and under WIDE_KEY the sha256 of the raw.csv of
    WIDE."""
    out = Path(out_dir)
    stats = {}
    build = scenario.build_simulation

    def build_and_keep_stats(config, mobility=None):
        built = build(config, mobility)
        if config.node_count == 40 and config.pause_time == 0.0:
            slow = "-slow" if config.per_hop_latency == SLOW.per_hop_latency else ""
            stats[f"{config.protocol}-n40-p0{slow}"] = built[1].stats
        return built

    with mock.patch.object(scenario, "build_simulation", build_and_keep_stats):
        _rows, failures = run_sweep(GRID, BASE, str(out), trace_cells=True)
        for protocol in GRID.protocols:
            run_scenario(dataclasses.replace(SLOW, protocol=protocol))
    assert failures == []
    _fixed_cells(out)
    outputs = {p.name: _sha256(p) for p in sorted(out.glob("*.csv"))
               if p.name.startswith(("raw", "trace_"))}
    outputs[STATS_KEY] = {cell: dict(sorted(counts.items()))
                          for cell, counts in sorted(stats.items())}
    outputs[MOVE_KEY] = _movement_cells(out)
    wide = out / "wide"
    _rows, failures = run_sweep(WIDE, BASE, str(wide))
    assert failures == []
    outputs[WIDE_KEY] = _sha256(wide / "raw.csv")
    return outputs


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """(wanted, got) outputs, computed once for the module."""
    want = json.loads(GOLDEN.read_text())
    return want, golden_outputs(tmp_path_factory.mktemp("golden"))


def test_outputs_match_golden_digests(golden):
    want, got = golden
    names = (want.keys() | got.keys()) - {STATS_KEY, MOVE_KEY}
    differ = sorted(name for name in names if want.get(name) != got.get(name))
    assert not differ, f"outputs differ from {GOLDEN.name}: {differ}"


def test_radio_counters_match_golden(golden):
    want, got = golden
    assert len(got[STATS_KEY]) == 6
    assert any(counts.get("rx_out_of_range") for counts in got[STATS_KEY].values())
    assert got[STATS_KEY] == want[STATS_KEY]


def test_movement_traces_match_golden(golden):
    want, got = golden
    assert len(got[MOVE_KEY]) == len(MOVE_CELLS)
    assert got[MOVE_KEY] == want[MOVE_KEY]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = golden_outputs(tmp)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs) - 3} digests, the radio counters, the "
          f"movement digests and the 70-node digest to {GOLDEN}",
          file=sys.stderr)
