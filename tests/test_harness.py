"""Scenario config, sweep outputs and the command-line interface."""

import gc
import math
import os
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import manetsim
import manetsim.sweep as sweep
from manetsim.cli import load_config_file, main
from manetsim.engine import SchedulingInPast
from manetsim.metrics import read_trace_csv
from manetsim.mobility import STATIC, FixedPositions
from manetsim.scenario import (MAC_MODES, PROTOCOL_NAMES, ConfigInvalid,
                               ScenarioConfig, run_scenario)
from manetsim.sweep import (SweepSpec, cell_mean, emit_plot_data,
                            read_raw_csv, run_sweep)

FAST = dict(node_count=12, n_flows=3, sim_time=12.0, warmup=4.0, seed=7,
            mac_mode="ideal", pause_time=STATIC)


# -- configuration ------------------------------------------------------

def test_default_config_is_valid():
    assert ScenarioConfig().validate() == []


def test_validation_collects_all_errors():
    cfg = ScenarioConfig(protocol="OSPF", node_count=1, max_speed=0,
                         n_flows=99, mac_mode="half-duplex")
    errors = cfg.validate()
    assert len(errors) >= 5
    # The rules that setup_flows and init_positions rely on live here only.
    assert any(e.startswith("node_count") for e in errors)
    assert any(e.startswith("n_flows") for e in errors)
    with pytest.raises(ConfigInvalid):
        cfg.check()


def test_warmup_must_precede_sim_end():
    assert ScenarioConfig(sim_time=10, warmup=10).validate()
    assert ScenarioConfig(sim_time=10, warmup=20).validate()


@pytest.mark.parametrize("name, value", [
    ("per_hop_latency", -0.01), ("drain", -50.0), ("retry_limit", -1),
    ("rate", math.nan), ("sim_time", math.inf), ("radio_range", math.inf),
    ("area_width", math.nan), ("drain", math.nan), ("min_speed", 1e-12),
    ("pause_time", 1e14), ("radio_range", 0.0), ("bandwidth", -1),
    ("area_width", 0.0), ("area_height", -1.0), ("rate", 0.0), ("packet_size", 0)])
def test_validation_rejects_negative_and_non_finite(name, value):
    assert ScenarioConfig(**{name: value}).validate()


def test_validation_rejects_areas_crossed_in_under_a_millisecond():
    tiny = dict(area_width=0.01, area_height=0.01)
    assert ScenarioConfig(max_speed=100.0, **tiny).validate()
    assert ScenarioConfig(max_speed=10.0, **tiny).validate() == []
    assert ScenarioConfig(max_speed=100.0, pause_time=STATIC, **tiny).validate() == []


def test_static_pause_is_accepted():
    assert ScenarioConfig(pause_time=STATIC).validate() == []
    assert ScenarioConfig(pause_time=-1.0).validate()


positive = dict(allow_nan=False, allow_infinity=False, exclude_min=True)


@settings(max_examples=100, deadline=None)
@given(protocol=st.sampled_from(["DSDV", "AODV", "DSR"]),
       mac_mode=st.sampled_from(["realistic", "ideal"]),
       node_count=st.integers(2, 8),
       speeds=st.tuples(st.floats(0.0, 100.0, **positive),
                        st.floats(0.0, 100.0, **positive)).map(sorted),
       pause_time=st.one_of(st.just(STATIC), st.floats(0.0, 1e15)),
       # From 0.1 mm up: validate() rejects the areas a node crosses in
       # under a millisecond, at 100 m/s squares below about 7 cm.
       area=st.tuples(st.integers(-4, 5), st.floats(0.1, 10.0)).map(
           lambda a: (10.0 ** a[0], 10.0 ** a[0] * a[1])),
       radio_range=st.floats(0.0, 1e4, **positive),
       per_hop_latency=st.floats(0.0, 1.0),
       sim_time=st.floats(0.5, 5.0))
# Just above the bound: legs of about half a millisecond for 5 s.
@example(protocol="DSR", mac_mode="realistic", node_count=8, speeds=[50.0, 100.0],
         pause_time=0.0, area=(0.08, 0.08), radio_range=250.0,
         per_hop_latency=0.001, sim_time=5.0)
def test_valid_config_runs_to_completion(protocol, mac_mode, node_count, speeds,
                                         pause_time, area, radio_range,
                                         per_hop_latency, sim_time):
    """validate() == [] implies that run_scenario completes."""
    config = ScenarioConfig(
        protocol=protocol, mac_mode=mac_mode, node_count=node_count, n_flows=1,
        min_speed=speeds[0], max_speed=speeds[1], pause_time=pause_time,
        area_width=area[0], area_height=area[1], radio_range=radio_range,
        per_hop_latency=per_hop_latency, sim_time=sim_time, warmup=0.0,
        drain=0.5, seed=3)
    if config.validate() == []:
        run_scenario(config)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "protocol = DSR   # trailing comment\n"
        "\n"
        "node_count = 30\n"
        "pause_time = static\n"
        "max_speed = 12.5\n")
    values = load_config_file(path)
    assert values == {"protocol": "DSR", "node_count": 30,
                      "pause_time": STATIC, "max_speed": 12.5}


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("wibble = 3\n")
    with pytest.raises(ConfigInvalid):
        load_config_file(path)


@pytest.mark.parametrize("line, error", [
    ("node_count 30", "expected 'key = value'"),
    ("node_count = thirty", "bad value 'thirty' for node_count")],
    ids=["no-equals", "bad-value"])
def test_config_file_rejects_malformed_lines(tmp_path, line, error):
    path = tmp_path / "bad.cfg"
    path.write_text(f"protocol = DSR\n{line}\n")
    with pytest.raises(ConfigInvalid) as exc:
        load_config_file(path)
    assert exc.value.errors == [f"{path}:2: {error}"]


# -- single scenarios ---------------------------------------------------

def test_run_scenario_is_deterministic():
    a, _ = run_scenario(ScenarioConfig(**FAST))
    b, _ = run_scenario(ScenarioConfig(**FAST))
    assert a == b


@pytest.mark.parametrize("nodes", [6, 14])
def test_run_scenario_rejects_a_mobility_of_another_size(nodes):
    mobility = FixedPositions([(50.0 * i, 0.0) for i in range(nodes)])
    with pytest.raises(ConfigInvalid) as err:
        run_scenario(ScenarioConfig(**{**FAST, "node_count": 10}), mobility=mobility)
    assert f"moves {nodes} nodes" in str(err.value)
    assert "node_count is 10" in str(err.value)


@pytest.mark.parametrize("protocol, mac_mode", list(product(PROTOCOL_NAMES, MAC_MODES)))
def test_finished_run_leaves_no_reference_cycle(protocol, mac_mode):
    """Reference counting alone frees a finished run: no collection by the
    cycle collector, inside run_scenario or after it, finds garbage."""
    collected = []

    def on_gc(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    config = ScenarioConfig(protocol=protocol, mac_mode=mac_mode, node_count=20,
                            n_flows=4, sim_time=20.0, warmup=5.0, seed=1,
                            pause_time=0.0)
    gc.collect()
    gc.disable()
    gc.callbacks.append(on_gc)
    try:
        run_scenario(config)
        assert gc.collect() == 0
    finally:
        gc.callbacks.remove(on_gc)
        gc.enable()
    assert not any(collected)


def test_different_seeds_differ():
    a, _ = run_scenario(ScenarioConfig(**FAST))
    b, _ = run_scenario(ScenarioConfig(**{**FAST, "seed": 8}))
    assert not (a == b)


def test_run_scenario_writes_traces(tmp_path):
    trace_path = tmp_path / "trace.csv"
    move_path = tmp_path / "moves.csv"
    config = ScenarioConfig(**FAST)
    record, trace = run_scenario(config, trace_path=str(trace_path),
                                 move_trace_path=str(move_path))
    back = read_trace_csv(trace_path, config.packet_size)
    assert back.packets_sent == trace.packets_sent
    assert move_path.read_text().startswith("time,node,x,y\n")


# -- sweeps -------------------------------------------------------------

@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    spec = SweepSpec(protocols=["AODV", "DSDV"], node_counts=[12],
                     pause_times=[STATIC, 5.0], seeds_per_cell=2)
    base = ScenarioConfig(**FAST)
    rows, failures = run_sweep(spec, base, str(out))
    return spec, rows, failures, out


def test_sweep_runs_every_cell(small_sweep):
    spec, rows, failures, _ = small_sweep
    assert failures == []
    assert len(rows) == 2 * 1 * 2 * 2


def test_sweep_writes_tables(small_sweep):
    spec, rows, _, out = small_sweep
    for name in ("raw.csv", "throughput.csv", "pdr.csv", "delay.csv"):
        assert (out / name).exists()
    pdr = (out / "pdr.csv").read_text().splitlines()
    assert pdr[0] == "pause,AODV_12,DSDV_12"
    assert pdr[1].startswith("static,")
    assert pdr[2].startswith("5,")


def test_raw_csv_round_trip(small_sweep):
    spec, rows, _, out = small_sweep
    back = read_raw_csv(out / "raw.csv")
    assert len(back) == len(rows)
    for got, want in zip(back, rows):
        assert got["protocol"] == want["protocol"]
        assert got["pause"] == want["pause"]
        assert got["packets_sent"] == want["packets_sent"]
        assert got["pdr"] == pytest.approx(want["pdr"], abs=1e-6)


def test_cell_mean_averages_over_seeds(small_sweep):
    spec, rows, _, _ = small_sweep
    vals = [r["pdr"] for r in rows
            if r["protocol"] == "AODV" and r["pause"] == STATIC]
    assert len(vals) == 2
    assert cell_mean(rows, "AODV", 12, STATIC, "pdr") == sum(vals) / 2


def test_plot_data_files(small_sweep):
    spec, rows, _, out = small_sweep
    paths = emit_plot_data(rows, spec, str(out))
    assert len(paths) == 3 * 1  # 3 metrics x 1 node count
    lines = (out / "fig_pdr_12.dat").read_text().splitlines()
    assert lines[0] == "# pause AODV DSDV"
    assert lines[1].split()[0] == "static"
    assert len(lines) == 3


def test_sweep_records_per_cell_failures(tmp_path):
    spec = SweepSpec(protocols=["AODV"], node_counts=[4, 12], pause_times=[STATIC],
                     seeds_per_cell=1)
    base = ScenarioConfig(**FAST)   # n_flows=3 impossible with 4 nodes
    lines = []
    rows, failures = run_sweep(spec, base, str(tmp_path), progress=lines.append)
    assert [r["nodes"] for r in rows] == [12] and len(failures) == 1
    assert lines == [
        "AODV-n4-pstatic-s7: FAILED (ConfigInvalid: n_flows must be in "
        "[1, node_count/2], got 3)",
        f"AODV-n12-pstatic-s7: pdr={rows[0]['pdr']:.2f}"]


@pytest.mark.parametrize("field, value, error", [
    ("protocols", [], "protocols list must be non-empty"),
    ("node_counts", [], "node_counts list must be non-empty"),
    ("pause_times", [], "pause_times list must be non-empty"),
    ("seeds_per_cell", 0, "seeds_per_cell must be >= 1")],
    ids=["protocols", "node_counts", "pause_times", "seeds_per_cell"])
def test_sweep_spec_validation(field, value, error):
    grid = dict(protocols=["AODV"], node_counts=[12], pause_times=[STATIC])
    assert SweepSpec(**grid).validate() == []
    assert SweepSpec(**dict(grid, **{field: value})).validate() == [error]


def test_sweep_failing_cell_stops_only_itself(tmp_path, monkeypatch):
    def run_or_raise(config, **kwargs):
        if config.seed == FAST["seed"] + 1:
            raise SchedulingInPast("event at -1 before now 0")
        return run_scenario(config, **kwargs)

    monkeypatch.setattr(sweep, "run_scenario", run_or_raise)
    spec = SweepSpec(protocols=["AODV"], node_counts=[12], pause_times=[STATIC],
                     seeds_per_cell=3)
    rows, failures = run_sweep(spec, ScenarioConfig(**FAST), str(tmp_path))
    assert failures == [(f"AODV-n12-pstatic-s{FAST['seed'] + 1}",
                         "SchedulingInPast: event at -1 before now 0")]
    assert [r["seed"] for r in rows] == [FAST["seed"], FAST["seed"] + 2]
    assert [r["seed"] for r in read_raw_csv(tmp_path / "raw.csv")] == \
        [FAST["seed"], FAST["seed"] + 2]


# -- CLI ----------------------------------------------------------------

def test_cli_validate_ok(capsys):
    assert main(["validate", "--protocol", "AODV", "--nodes", "30"]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_validate_bad_config(capsys):
    assert main(["validate", "--nodes", "1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_run_prints_metrics(tmp_path, capsys):
    code = main(["run", "--protocol", "DSDV", "--nodes", "12", "--seed", "3",
                 "--sim-time", "12", "--mac", "ideal", "--pause", "static",
                 "--config", _fast_cfg(tmp_path),
                 "--out", str(tmp_path / "out"), "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert "protocol=DSDV" in out and "pdr=" in out
    assert (tmp_path / "out" / "trace.csv").exists()


def test_cli_sweep_and_plotdata(tmp_path, capsys):
    code = main(["sweep", "--protocols", "AODV", "--node-counts", "12",
                 "--pauses", "static", "--seeds-per-cell", "1",
                 "--config", _fast_cfg(tmp_path), "--mac", "ideal",
                 "--quiet", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "raw.csv").exists()
    assert (tmp_path / "fig_delay_12.dat").exists()
    code = main(["plotdata", "--protocols", "AODV", "--node-counts", "12",
                 "--pauses", "static", "--out", str(tmp_path)])
    assert code == 0


def test_cli_sweep_rejects_an_empty_grid(tmp_path, capsys):
    assert main(["sweep", "--protocols", "", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "config error: protocols list must be non-empty\n"
    assert not (tmp_path / "out").exists()


def test_cli_plotdata_needs_a_sweep(tmp_path, capsys):
    assert main(["plotdata", "--out", str(tmp_path)]) == 1
    assert "no raw.csv in" in capsys.readouterr().err


def test_cli_sweep_failed_cell_exit_code(tmp_path, capsys):
    code = main(["sweep", "--protocols", "AODV", "--node-counts", "4",
                 "--pauses", "static", "--seeds-per-cell", "1",
                 "--config", _fast_cfg(tmp_path), "--quiet",
                 "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("interval", ["0", "-1", "4e-7"])
def test_cli_run_rejects_a_move_trace_interval_under_a_tick(tmp_path, interval):
    """A step that rounds to no time would sample the movement trace
    forever; the run is refused before it starts.  A subprocess with a
    timeout, so that a regression fails instead of hanging."""
    src = os.path.dirname(os.path.dirname(manetsim.__file__))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "manetsim.cli", "run", "--nodes", "12",
         "--config", _fast_cfg(tmp_path), "--mac", "ideal", "--pause", "static",
         "--move-trace", "--move-trace-interval", interval, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=20)
    assert done.returncode == 1
    assert "config error: move_trace_interval" in done.stderr
    assert not out.exists()


def _fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text("n_flows = 3\nsim_time = 12\nwarmup = 4\n")
    return str(path)
