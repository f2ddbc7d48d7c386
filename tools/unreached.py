"""Lines of src/manetsim that no run reaches.

    python3 tools/unreached.py

Traces, with ``sys.settrace`` limited to frames of src/manetsim, the runs
that define what the simulator does:

- one round of each benchmark workload at seed 1, as
  ``benchmark/inputs.make_round`` builds it;
- the grid of ``tests/test_golden.py``;
- the console-script commands of the CI workflow.

A line that none of them reaches is deleted, or it stays for a reason that
``ALLOWED`` gives, with the test that reaches it.  ``ALLOWED`` is keyed by
file and function.  The script exits 1 when an unreached line's function
is not in it, or when an entry has no unreached line left, and it prints
them.  It takes about 90 s on a two-core host.
"""

import contextlib
import importlib.util
import io
import re
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "manetsim"

# (file under src/manetsim, function) -> (why its unreached lines stay,
# the test that reaches them).
HARNESS = "tests/test_harness.py::"
ALLOWED = {
    # Checks of input from outside the program: configs, files, calls.
    ("scenario.py", "ScenarioConfig.validate"): (
        "rejects each invalid config field", HARNESS + "test_validation_*"),
    ("scenario.py", "ScenarioConfig.check"): (
        "raises the errors of validate()", HARNESS + "test_cli_validate_bad_config"),
    ("scenario.py", "build_simulation"): (
        "rejects a mobility model of another node count",
        HARNESS + "test_run_scenario_rejects_a_mobility_of_another_size"),
    ("sweep.py", "SweepSpec.validate"): (
        "rejects an empty grid axis or no seed", HARNESS + "test_sweep_spec_validation"),
    ("sweep.py", "SweepSpec.check"): (
        "raises the errors of validate()", HARNESS + "test_cli_sweep_rejects_an_empty_grid"),
    ("cli.py", "_cmd_plotdata"): (
        "plotdata before any sweep", HARNESS + "test_cli_plotdata_needs_a_sweep"),
    ("cli.py", "load_config_file"): (
        "the --config file, which the CI commands do not pass",
        HARNESS + "test_config_file_*"),
    ("cli.py", "_coerce"): (
        "types the values of a --config file", HARNESS + "test_config_file_parsing"),
    ("cli.py", "build_config"): (
        "reads a --config file", HARNESS + "test_cli_run_prints_metrics"),
    ("sweep.py", "_parse_pause"): (
        "a pause of 'static' on the command line or in raw.csv",
        HARNESS + "test_cli_sweep_and_plotdata"),
    ("engine.py", "Simulator.schedule"): (
        "refuses an event in the past; benchmark/tracer.py also patches "
        "schedule(Event) by name (ROADMAP item 1)",
        "tests/test_engine.py::test_scheduling_in_past_raises"),
    ("metrics.py", "compute_pdr"): (
        "a trace without traffic", "tests/test_metrics.py::test_pdr_no_traffic_raises"),
    ("metrics.py", "compute_throughput"): (
        "a trace without a delivery",
        "tests/test_metrics.py::test_throughput_nothing_received_raises"),
    ("metrics.py", "compute_avg_delay"): (
        "a trace without a delivery",
        "tests/test_metrics.py::test_avg_delay_nothing_received_raises"),
    ("metrics.py", "read_trace_csv"): (
        "reads a trace.csv back; ROADMAP item 7 changes its format",
        "tests/test_metrics.py::test_trace_csv_round_trip_bit_exact"),
    ("cli.py", "<module>"): (
        "the 'python -m manetsim.cli' entry that README shows",
        HARNESS + "test_cli_run_rejects_a_move_trace_interval_under_a_tick"),
    # Outcomes that a valid config can have, but no run has.
    ("metrics.py", "summarize"): (
        "a window without a delivery", "tests/test_metrics.py::test_summarize_zero_deliveries"),
    ("sweep.py", "run_sweep"): (
        "a failing cell, and progress lines, which --quiet turns off",
        HARNESS + "test_sweep_records_per_cell_failures"),
    ("sweep.py", "cell_mean"): (
        "a cell without a value", HARNESS + "test_sweep_records_per_cell_failures"),
    ("sweep.py", "_fmt"): (
        "a missing value", HARNESS + "test_sweep_records_per_cell_failures"),
    ("cli.py", "_cmd_sweep"): (
        "a sweep with a failing cell", HARNESS + "test_cli_sweep_failed_cell_exit_code"),
    ("traffic.py", "TrafficGenerator._tick"): (
        "a flow whose staggered start falls at or after sim_time",
        "tests/test_traffic.py::test_generation_stops_at_stop_time"),
    ("protocols/base.py", "ReactiveProtocol._buffer"): (
        "buffer_overflow: more than BUFFER_CAPACITY packets wait for one destination",
        "tests/test_aodv.py::test_buffer_overflow_drops_oldest"),
    ("protocols/base.py", "RoutingProtocol._receive_data"): (
        "hop_limit: a transient forwarding loop of MAX_HOPS links",
        "tests/test_{dsdv,aodv}.py::test_hop_limit_drops_a_packet_on_its_last_allowed_link"),
    ("protocols/dsdv.py", "DsdvRouter.route_lookup"): (
        "a hold-down that lapses before an equally fresh route confirms it",
        "tests/test_dsdv.py::test_hold_down_expires"),
    ("mobility.py", "FixedPositions.move"): (
        "scripts the topologies of the tests",
        "tests/test_mobility.py::test_fixed_positions_move"),
    # Patched by name by benchmark/tracer.py; ROADMAP item 3 deletes them.
    ("mobility.py", "RandomWaypoint.positions"): (
        "patched by benchmark/tracer.py", "tests/test_mobility.py::test_trajectory_is_continuous"),
    ("mobility.py", "FixedPositions.positions"): (
        "patched by benchmark/tracer.py", "tests/test_mobility.py::test_static_mode_never_moves"),
}

# The Console script step of .github/workflows/tests.yml, with its exit
# codes; {out} is a temporary directory.
GRID = ["--protocols", "AODV,DSR", "--node-counts", "20", "--pauses", "20"]
CLI_COMMANDS = [
    (["validate"], 0),
    (["run", "--nodes", "20", "--sim-time", "15", "--out", "{out}/run"], 0),
    (["run", "--nodes", "20", "--sim-time", "15", "--trace", "--move-trace",
      "--move-trace-interval", "5", "--out", "{out}/traced"], 0),
    (["run", "--move-trace", "--move-trace-interval", "0", "--out", "{out}/zero"], 1),
    (["sweep", *GRID, "--seeds-per-cell", "1", "--sim-time", "15", "--quiet",
      "--out", "{out}/sweep"], 0),
    (["plotdata", *GRID, "--out", "{out}/sweep"], 0),
]

# Code objects that belong to the function around them.
_INNER = re.compile(r"(\.<locals>)?\.<(listcomp|dictcomp|setcomp|genexpr|lambda)>$")


def _import(path):
    """The module at path, imported under its file name's stem."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def executable_lines(path):
    """{line: function} for every line of path that holds code; a function
    is a qualified name, or <module>."""
    lines = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        function = _INNER.sub("", code.co_qualname)
        for _start, _end, line in code.co_lines():
            if line is not None:
                lines[line] = function
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


@contextlib.contextmanager
def traced(reached):
    """Add (file, line) to reached for each line run in a src/manetsim frame."""
    prefix = str(SRC)

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.settrace(on_call)
    try:
        yield
    finally:
        sys.settrace(None)


def run_workloads(work):
    """One round of each benchmark workload at seed 1, as benchmark/run.py
    calls the simulator."""
    from manetsim.mobility import FixedPositions
    from manetsim.scenario import ScenarioConfig, run_scenario
    from manetsim.sweep import SweepSpec, run_sweep

    inputs = _import(ROOT / "benchmark" / "inputs.py")
    for workload in inputs.WORKLOADS:
        for i, call in enumerate(inputs.make_round(workload, 1)):
            config = ScenarioConfig(**call.config)
            if call.entry == "sweep":
                spec = SweepSpec([call.protocol], list(call.node_counts),
                                 [config.pause_time], seeds_per_cell=1)
                _rows, failures = run_sweep(spec, config, str(work / f"{workload}-{i}"),
                                            trace_cells=True)
                assert failures == [], failures
            else:
                run_scenario(config, mobility=FixedPositions(call.positions))


def run_golden(work):
    _import(ROOT / "tests" / "test_golden.py").golden_outputs(work / "golden")


def run_cli(work):
    from manetsim.cli import main

    for argv, want in CLI_COMMANDS:
        argv = [arg.format(out=work / "cli") for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == want, (argv, code)


def unreached():
    """{(file, function): [(line, source)]} of the lines no run reaches."""
    reached = set()
    sys.path.insert(0, str(SRC.parent))
    with tempfile.TemporaryDirectory() as tmp, traced(reached):
        for run in (run_workloads, run_golden, run_cli):
            run(Path(tmp))
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        source = path.read_text().splitlines()
        for line, function in sorted(executable_lines(path).items()):
            if (str(path), line) not in reached:
                found.setdefault((name, function), []).append(
                    (line, source[line - 1].strip()))
    return found


def main():
    found = unreached()
    bad = 0
    for key, lines in sorted(found.items()):
        if key not in ALLOWED:
            bad += 1
            for line, text in lines:
                print(f"src/manetsim/{key[0]}:{line}: {key[1]}: unreached: {text}")
    for key in sorted(ALLOWED.keys() - found.keys()):
        bad += 1
        print(f"src/manetsim/{key[0]}: {key[1]}: allowed, but no line of it is unreached")
    listed = sum(len(found[key]) for key in ALLOWED.keys() & found.keys())
    print(f"{listed} unreached lines in {len(ALLOWED)} allowed functions; "
          f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
