"""Host-time benchmark of manetsim: one workload per process.

    python3 benchmark/run.py --workload mobile --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --regen-digests

Each run repeats whole rounds of the workload's calls into ``run_sweep`` /
``run_scenario`` until ``--seconds`` would be exceeded (at least one round),
checks every cell, and prints one JSON object as its last line.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
one untraced and one traced round and reports the per-layer metrics.  See
README.md in this directory.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check_cell
from inputs import PROTOCOLS, WORKLOADS, digest_key, make_round

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_PROBES = 5
REFERENCE_SEEDS = (1, 2, 3)


def load_program():
    """Import manetsim from this checkout's src/, or exit without a result."""
    if not (SRC / "manetsim" / "__init__.py").is_file():
        sys.exit(f"benchmark: {SRC}/manetsim not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    global RngStream, FixedPositions, ScenarioConfig, SweepSpec
    global metrics, scenario, sweep, setup_flows
    import manetsim.metrics as metrics
    import manetsim.scenario as scenario
    import manetsim.sweep as sweep
    from manetsim.engine import RngStream
    from manetsim.mobility import FixedPositions
    from manetsim.scenario import ScenarioConfig
    from manetsim.sweep import SweepSpec
    from manetsim.traffic import setup_flows
    if not Path(scenario.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: imported manetsim from {scenario.__file__}, not {SRC}")


@dataclasses.dataclass
class RoundResult:
    seconds: dict            # protocol -> host seconds in its calls
    cells: int = 0
    failures: list = dataclasses.field(default_factory=list)   # (label, reason)
    raw_digest: str = ""
    trace_digest: str = ""

    @property
    def wall(self):
        return sum(self.seconds.values())


def _label(cfg):
    return f"{cfg['protocol']}-n{cfg['node_count']}-p{cfg['pause_time']:g}-s{cfg['seed']}"


def cell_flows(cfg):
    flows = setup_flows(cfg["n_flows"], range(cfg["node_count"]),
                        RngStream(cfg["seed"], "traffic"), rate=cfg["rate"],
                        packet_size=cfg["packet_size"], stop_s=cfg["sim_time"])
    return [(f.flow_id, f.src, f.dst, f.start_us, f.stop_us) for f in flows]


def _read_trace_csv(path):
    """Per-packet records of a trace.csv, parsed here rather than by manetsim."""
    records = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            flow, seq, gen, recv, hops = line.rstrip("\n").split(",")
            records[(int(flow), int(seq))] = (
                int(round(float(gen) * 1e6)),
                int(round(float(recv) * 1e6)) if recv else None, int(hops))
    return records


def metrics_row(config, record):
    return {"protocol": config.protocol, "nodes": config.node_count,
            "pause": config.pause_time, "seed": config.seed,
            "throughput": record.throughput, "pdr": record.pdr,
            "delay": record.avg_e2e_delay, "control_bytes": record.control_bytes,
            "packets_sent": record.packets_sent,
            "packets_received": record.packets_received}


def run_call(call, work_dir, result, raw_h, trace_h):
    """Time one call, then check each of its cells and digest its outputs."""
    cells = [dataclasses.asdict(ScenarioConfig(**c)) for c in call.cell_configs()]
    result.cells += len(cells)
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    outputs = {}    # label -> (row, records)
    if call.entry == "sweep":
        spec = SweepSpec([call.protocol], list(call.node_counts),
                         [call.config["pause_time"]], seeds_per_cell=1)
        base = ScenarioConfig(**call.config)
        started = time.perf_counter()
        try:
            rows, failures = sweep.run_sweep(spec, base, str(work_dir), trace_cells=True)
        except Exception as exc:   # the whole call is lost: every cell failed
            traceback.print_exc()
            rows, failures = [], [(_label(c), repr(exc)) for c in cells]
        result.seconds[call.protocol] += time.perf_counter() - started
        result.failures.extend(failures)
        for row in rows:
            cfg = next(c for c in cells
                       if (c["node_count"], c["seed"]) == (row["nodes"], row["seed"]))
            path = work_dir / f"trace_{_label(cfg)}.csv"
            outputs[_label(cfg)] = (row, _read_trace_csv(path))
            trace_h.update(path.read_bytes())
        if rows:
            raw_h.update((work_dir / "raw.csv").read_bytes())
    else:
        config = ScenarioConfig(**call.config)
        mobility = FixedPositions(call.positions)
        started = time.perf_counter()
        try:
            record, trace = scenario.run_scenario(config, mobility=mobility)
        except Exception as exc:
            result.seconds[call.protocol] += time.perf_counter() - started
            traceback.print_exc()
            result.failures.append((_label(cells[0]), repr(exc)))
            return
        result.seconds[call.protocol] += time.perf_counter() - started
        row = metrics_row(config, record)
        records = {k: (r[0], r[1], r[2]) for k, r in trace.records.items()}
        outputs[_label(cells[0])] = (row, records)
        sweep.write_raw_csv([row], work_dir / "raw.csv")
        metrics.write_trace_csv(trace, work_dir / "trace.csv")
        raw_h.update((work_dir / "raw.csv").read_bytes())
        trace_h.update((work_dir / "trace.csv").read_bytes())
    for cfg in cells:
        label = _label(cfg)
        if label not in outputs:
            continue   # already recorded as a failure
        row, records = outputs[label]
        problems = check_cell(cfg, cell_flows(cfg), records, row, call.positions)
        if problems:
            result.failures.append((label, "; ".join(problems)))


def run_round(calls, workload):
    result = RoundResult(seconds={p: 0.0 for p in PROTOCOLS})
    raw_h, trace_h = hashlib.sha256(), hashlib.sha256()
    for i, call in enumerate(calls):
        run_call(call, OUT_DIR / "work" / workload / f"{i:03d}", result, raw_h, trace_h)
    result.raw_digest = raw_h.hexdigest()
    result.trace_digest = trace_h.hexdigest()
    return result


def probe_setup(workload, seed):
    """Seconds from `import manetsim` to the first event, in a new process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, str(BENCH_DIR / "probe_setup.py"),
                           workload, str(seed)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def report_digests(workload, seed, first):
    refs = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    key = digest_key(workload, seed)
    ref = refs.get(key)
    for name, value in (("raw.csv", first.raw_digest), ("traces", first.trace_digest)):
        if ref is None:
            status = "no reference"
        elif ref[name] == value:
            status = "matches reference"
        else:
            status = f"MISMATCH against reference {ref[name]}"
        print(f"digest {key} {name} {value} {status}")


def regen_digests():
    refs = {}
    for workload in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            key = digest_key(workload, seed)
            if key in refs:
                continue
            result = run_round(make_round(workload, seed), workload)
            for label, reason in result.failures:
                print(f"{key}: {label} FAILED: {reason}", file=sys.stderr)
            refs[key] = {"raw.csv": result.raw_digest, "traces": result.trace_digest}
            print(f"{key} {refs[key]}")
    DIGESTS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-digests", action="store_true",
                    help="rewrite digests.json from one round of every workload "
                         f"at seeds {REFERENCE_SEEDS}")
    args = ap.parse_args(argv)
    if not args.regen_digests and args.workload is None:
        ap.error("--workload is required")
    load_program()
    if args.regen_digests:
        regen_digests()
        return 0

    calls = make_round(args.workload, args.seed)
    rounds = []
    if args.trace:
        from tracer import Tracer
        rounds.append(run_round(calls, args.workload))
        tracer = Tracer()
        with tracer.installed():
            rounds.append(run_round(calls, args.workload))
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
        found = tracer.layer_metrics(rounds[0].wall, rounds[1].wall)
    else:
        began = time.perf_counter()
        while True:
            started = time.perf_counter()
            rounds.append(run_round(calls, args.workload))
            took = time.perf_counter() - started
            if time.perf_counter() - began + took > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        found = {"wall_s": (statistics.median(r.wall for r in rounds), "s")}
        for p in PROTOCOLS:
            found[f"{p.lower()}_s"] = (statistics.median(r.seconds[p] for r in rounds), "s")
        found["setup_s"] = (statistics.median(setup), "s")
        found["peak_rss_mb"] = (peak_rss_mb, "MB")

    for i, r in enumerate(rounds):
        print(f"round {i}: wall {r.wall:.3f} s "
              + " ".join(f"{p} {s:.3f} s" for p, s in r.seconds.items())
              + f", {r.cells} cells, {len(r.failures)} failed")
    for label, reason in rounds[0].failures:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    report_digests(args.workload, args.seed, rounds[0])
    # Identical rounds must give identical outputs.
    deterministic = all((r.raw_digest, r.trace_digest)
                        == (rounds[0].raw_digest, rounds[0].trace_digest)
                        for r in rounds)
    if not deterministic:
        print("rounds of identical inputs gave different outputs", file=sys.stderr)
    print(json.dumps({
        "correct": deterministic,
        "attempted": sum(r.cells for r in rounds),
        "failed": sum(len(r.failures) for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in found.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
