"""Command-line front end.

Subcommands: run (single scenario), sweep (experiment grid), plotdata
(tables and figure data from a sweep's raw.csv), validate (config check).
Exit codes: 0 success, 1 config error, 2 failed sweep cells.  A usage
error, such as an unknown flag, is a config error.

Config files are line-oriented ``key = value`` text; CLI flags override
file values.  A flag, a config-file value and an item of a sweep's grid
list take the same text, and _coerce parses all three.
"""

import argparse
import inspect
import os
import sys
from dataclasses import fields

from .scenario import ConfigInvalid, ScenarioConfig, run_scenario
from .sweep import (SweepSpec, _parse_pause, _pause_label, read_raw_csv, run_sweep,
                    write_derived)

_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
# The flags that run, sweep and validate share, and the field each sets.
_FLAGS = {"--protocol": "protocol", "--nodes": "node_count", "--pause": "pause_time",
          "--seed": "seed", "--sim-time": "sim_time", "--mac": "mac_mode"}


def _coerce(key, text, where):
    """The value of ScenarioConfig field key that text names; where (a
    file:line or a flag) places the text in a refusal."""
    parse = _parse_pause if key == "pause_time" else _FIELD_TYPES[key]
    try:
        return parse(text)
    except ValueError:
        raise ConfigInvalid([f"{where}: bad value {text!r} for {key}"]) from None


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
            values[key] = _coerce(key, value, f"{path}:{lineno}")
    return values


def build_config(args):
    values = load_config_file(args.config) if args.config else {}
    for flag, key in _FLAGS.items():
        text = getattr(args, key)
        if text is not None:
            values[key] = _coerce(key, text, flag)
    return ScenarioConfig(**values)


def _add_common(parser):
    parser.add_argument("--config", help="key = value config file")
    for flag, key in _FLAGS.items():
        parser.add_argument(flag, dest=key, help=f"as {key} in a config file")
    parser.add_argument("--out", default="results", help="output directory")


def _csv_list(text, key, flag):
    return [_coerce(key, part, flag) for part in text.split(",") if part]


class _Parser(argparse.ArgumentParser):
    """Refuses a usage error as a config error, so that it exits 1."""

    def error(self, message):
        raise ConfigInvalid([message])


def main(argv=None):
    parser = _Parser(
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
    p_sweep.add_argument("--protocols", default="DSDV,AODV,DSR")
    p_sweep.add_argument("--node-counts", default="50,75,100")
    p_sweep.add_argument("--pauses", default="20,40,60,80,100")
    p_sweep.add_argument("--seeds-per-cell", type=int,
                         default=SweepSpec.seeds_per_cell)
    p_sweep.add_argument("--trace-cells", action="store_true",
                         help="write a per-packet trace CSV for every cell")
    p_sweep.add_argument("--quiet", action="store_true")

    p_plot = sub.add_parser("plotdata", help="rewrite the files derived from raw.csv")
    p_plot.add_argument("--out", default="results",
                        help="directory holding raw.csv; the files go there too")

    p_val = sub.add_parser("validate", help="check a configuration and exit")
    _add_common(p_val)

    try:
        args = parser.parse_args(argv)
        return {"run": _cmd_run, "sweep": _cmd_sweep, "plotdata": _cmd_plotdata,
                "validate": _cmd_validate}[args.command](args)
    except ConfigInvalid as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return 1


def _cmd_run(args):
    config = build_config(args)
    trace_path = os.path.join(args.out, "trace.csv") if args.trace else None
    move_path = os.path.join(args.out, "movement.csv") if args.move_trace else None
    record, _ = run_scenario(config, trace_path=trace_path,
                             move_trace_path=move_path,
                             move_trace_interval=args.move_trace_interval)
    delay = "n/a" if record.avg_e2e_delay is None else f"{record.avg_e2e_delay:.6f} s"
    print(f"protocol={config.protocol} nodes={config.node_count} "
          f"pause={_pause_label(config.pause_time)} seed={config.seed}")
    print(f"throughput={record.throughput:.2f} bit/s pdr={record.pdr:.4f}% "
          f"delay={delay} control_bytes={record.control_bytes} "
          f"sent={record.packets_sent} received={record.packets_received}")
    return 0


def _cmd_sweep(args):
    base = build_config(args)
    spec = SweepSpec(_csv_list(args.protocols, "protocol", "--protocols"),
                     _csv_list(args.node_counts, "node_count", "--node-counts"),
                     _csv_list(args.pauses, "pause_time", "--pauses"),
                     args.seeds_per_cell)
    progress = None if args.quiet else lambda line: print(line, flush=True)
    _rows, failures = run_sweep(spec, base, args.out,
                                trace_cells=args.trace_cells, progress=progress)
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
    for path in write_derived(read_raw_csv(raw_path), args.out):
        print(path)
    return 0


def _cmd_validate(args):
    build_config(args).check()
    print("config ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
