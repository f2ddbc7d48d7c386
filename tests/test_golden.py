"""Golden behaviour lock: sha256 of the outputs of a small fixed grid.

The grid is every protocol x {20, 40} nodes x pauses {0, 20, static} with
the realistic MAC, swept with per-cell traces, plus one ideal-MAC cell per
protocol on a fixed placement.  Any change to an output byte of ``raw.csv``
or of a trace fails the test.  A change that alters behaviour on purpose
regenerates ``golden.json`` with

    PYTHONPATH=src python tests/test_golden.py

and says why.
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

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


def golden_digests(out_dir):
    """{output file name: sha256} for the grid and the fixed cells."""
    out = Path(out_dir)
    _rows, failures = run_sweep(GRID, BASE, str(out), trace_cells=True)
    assert failures == []
    _fixed_cells(out)
    return {p.name: _sha256(p) for p in sorted(out.glob("*.csv"))
            if p.name.startswith(("raw", "trace_"))}


def test_outputs_match_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = golden_digests(tmp_path)
    differ = sorted(name for name in want.keys() | got.keys()
                    if want.get(name) != got.get(name))
    assert not differ, f"outputs differ from {GOLDEN.name}: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(tmp)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
