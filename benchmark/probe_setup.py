"""Set-up time of a workload's first cell, measured in a fresh process.

    PYTHONPATH=src python3 benchmark/probe_setup.py <workload> <seed>

Prints the seconds from just before ``import manetsim`` to the first
dispatched event: the import, ``build_simulation`` and starting the
routers and the traffic.  Inputs are generated before the clock starts.
"""

import sys
import time

from inputs import make_round


def main(workload, seed):
    call = make_round(workload, seed)[0]
    cell = call.cell_configs()[0]
    started = time.perf_counter()
    from manetsim.mobility import FixedPositions
    from manetsim.scenario import ScenarioConfig, build_simulation
    mobility = FixedPositions(call.positions) if call.positions else None
    sim, _radio, routers, _trace, _flows, generator = build_simulation(
        ScenarioConfig(**cell), mobility)
    for router in routers:
        router.start()
    generator.start()
    first = []
    # Scheduled last at t=0, so nothing with a later time dispatches before it.
    sim.at(0, lambda: first.append(time.perf_counter()))
    sim.run_until(0)
    print(first[0] - started)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
