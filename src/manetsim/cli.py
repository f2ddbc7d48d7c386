"""Command-line front end.

Subcommands: run (single scenario), sweep (experiment grid), plotdata
(figure data files from raw sweep results), validate (config check only).
Exit codes: 0 success, 1 config error, 2 failed sweep cells.

Config files are line-oriented ``key = value`` text; CLI flags override
file values.
"""

import argparse
import inspect
import math
import os
import sys
from dataclasses import fields

from .scenario import ConfigInvalid, ScenarioConfig, run_scenario
from .sweep import SweepSpec, _parse_pause, emit_plot_data, read_raw_csv, run_sweep

_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _coerce(key, value):
    if key == "pause_time":
        return _parse_pause(value)
    ftype = _FIELD_TYPES[key]
    if ftype in ("int", int):
        return int(value)
    if ftype in ("float", float):
        return float(value)
    return str(value)


def load_config_file(path):
    """Parse a key = value config file into a dict of ScenarioConfig fields."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigInvalid([f"{path}:{lineno}: expected 'key = value'"])
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _FIELD_TYPES:
                raise ConfigInvalid([f"{path}:{lineno}: unknown key {key!r}"])
            try:
                values[key] = _coerce(key, value)
            except ValueError:
                raise ConfigInvalid(
                    [f"{path}:{lineno}: bad value {value!r} for {key}"]) from None
    return values


def build_config(args):
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    overrides = {
        "protocol": args.protocol,
        "node_count": args.nodes,
        "pause_time": _parse_pause(args.pause) if args.pause is not None else None,
        "seed": args.seed,
        "sim_time": args.sim_time,
        "mac_mode": args.mac,
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ScenarioConfig(**values)


def _add_common(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--protocol", choices=["DSDV", "AODV", "DSR"])
    parser.add_argument("--nodes", type=int)
    parser.add_argument("--pause", help="pause time in seconds, or 'static'")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--sim-time", type=float, dest="sim_time")
    parser.add_argument("--mac", choices=["realistic", "ideal"])
    parser.add_argument("--out", default="results", help="output directory")


def _add_grid(parser):
    parser.add_argument("--protocols", default="DSDV,AODV,DSR")
    parser.add_argument("--node-counts", default="50,75,100")
    parser.add_argument("--pauses", default="20,40,60,80,100")


def _csv_list(text, cast):
    return [cast(part) for part in text.split(",") if part]


def _grid_spec(args, **extra):
    """The SweepSpec of the grid options that _add_grid registers."""
    return SweepSpec(protocols=_csv_list(args.protocols, str),
                     node_counts=_csv_list(args.node_counts, int),
                     pause_times=_csv_list(args.pauses, _parse_pause), **extra)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="manetsim",
        description="MANET routing protocol comparison simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single scenario")
    _add_common(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="write the per-packet trace CSV")
    p_run.add_argument("--move-trace", action="store_true",
                       help="write a movement trace CSV")
    p_run.add_argument("--move-trace-interval", type=float,
                       default=inspect.signature(run_scenario)
                       .parameters["move_trace_interval"].default,
                       help="movement trace sampling step, seconds (> 0)")

    p_sweep = sub.add_parser("sweep", help="run a full experiment grid")
    _add_common(p_sweep)
    _add_grid(p_sweep)
    p_sweep.add_argument("--seeds-per-cell", type=int,
                         default=SweepSpec.seeds_per_cell)
    p_sweep.add_argument("--trace-cells", action="store_true",
                         help="write a per-packet trace CSV for every cell")
    p_sweep.add_argument("--quiet", action="store_true")

    p_plot = sub.add_parser("plotdata", help="emit per-figure data files")
    p_plot.add_argument("--out", default="results",
                        help="directory holding raw.csv; .dat files go there too")
    _add_grid(p_plot)

    p_val = sub.add_parser("validate", help="check a configuration and exit")
    _add_common(p_val)

    args = parser.parse_args(argv)
    command = {"run": _cmd_run, "sweep": _cmd_sweep, "plotdata": _cmd_plotdata,
               "validate": _cmd_validate}[args.command]
    try:
        return command(args)
    except ConfigInvalid as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return 1


def _cmd_run(args):
    config = build_config(args)
    config.check()
    trace_path = os.path.join(args.out, "trace.csv") if args.trace else None
    move_path = os.path.join(args.out, "movement.csv") if args.move_trace else None
    record, _ = run_scenario(config, trace_path=trace_path,
                             move_trace_path=move_path,
                             move_trace_interval=args.move_trace_interval)
    delay = "n/a" if record.avg_e2e_delay is None else f"{record.avg_e2e_delay:.6f} s"
    print(f"protocol={config.protocol} nodes={config.node_count} "
          f"pause={'static' if config.pause_time == math.inf else config.pause_time} "
          f"seed={config.seed}")
    print(f"throughput={record.throughput:.2f} bit/s pdr={record.pdr:.4f}% "
          f"delay={delay} control_bytes={record.control_bytes} "
          f"sent={record.packets_sent} received={record.packets_received}")
    return 0


def _cmd_sweep(args):
    base = build_config(args)
    spec = _grid_spec(args, seeds_per_cell=args.seeds_per_cell)
    progress = None if args.quiet else lambda line: print(line, flush=True)
    rows, failures = run_sweep(spec, base, args.out,
                               trace_cells=args.trace_cells, progress=progress)
    emit_plot_data(rows, spec, args.out)
    if failures:
        print(f"{len(failures)} cell(s) failed:", file=sys.stderr)
        for label, error in failures:
            print(f"  {label}: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_plotdata(args):
    raw_path = os.path.join(args.out, "raw.csv")
    if not os.path.exists(raw_path):
        raise ConfigInvalid([f"no raw.csv in {args.out}; run 'sweep' first"])
    rows = read_raw_csv(raw_path)
    for path in emit_plot_data(rows, _grid_spec(args), args.out):
        print(path)
    return 0


def _cmd_validate(args):
    build_config(args).check()
    print("config ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
