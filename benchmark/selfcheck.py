"""Shows that the benchmark's checks catch falsified outputs.

    python3 benchmark/selfcheck.py

Runs one static-ideal AODV cell and one short mobile DSR cell, checks that
both pass, then falsifies one delivered packet at a time in a copy of the
trace and checks that each falsification is reported.  Exits 1 if a check
misses one.
"""

import dataclasses
import sys

import run
from checks import check_cell
from inputs import make_round


def cells():
    static = next(c for c in make_round("static-ideal", 1) if c.protocol == "AODV")
    mobile = dict(protocol="DSR", node_count=50, pause_time=20.0, seed=1,
                  sim_time=30.0)
    yield "static-ideal AODV", static.config, static.positions
    yield "mobile DSR", mobile, None


def falsified(records, positions):
    """(name, records) pairs, each with one delivered packet altered."""
    key, (gen, recv, hops) = next((k, r) for k, r in sorted(records.items())
                                  if r[1] is not None and r[0] >= 10_000_000)
    yield "hops set to 0", {**records, key: (gen, recv, 0)}
    yield "delay below the per-hop minimum", {**records, key: (gen, gen + hops * 3000, hops)}
    yield "delivery 1 ms later", {**records, key: (gen, recv + 1000, hops)}
    if positions is not None:
        yield "one hop more than the shortest path", {**records, key: (gen, recv, hops + 1)}


def main():
    run.load_program()
    missed = 0
    for name, kwargs, positions in cells():
        config = run.ScenarioConfig(**kwargs)
        mobility = run.FixedPositions(positions) if positions else None
        record, trace = run.scenario.run_scenario(config, mobility=mobility)
        cfg = dataclasses.asdict(config)
        row = run.metrics_row(config, record)
        records = {k: (r[0], r[1], r[2]) for k, r in trace.records.items()}
        flows = run.cell_flows(cfg)
        problems = check_cell(cfg, flows, records, row, positions)
        print(f"{name}: unaltered -> {problems or 'pass'}")
        missed += bool(problems)
        for what, bad in falsified(records, positions):
            problems = check_cell(cfg, flows, bad, row, positions)
            print(f"{name}: {what} -> {problems or 'NOT CAUGHT'}")
            missed += not problems
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
