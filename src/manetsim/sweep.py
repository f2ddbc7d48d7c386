"""Experiment grids: protocol x node-count x pause-time sweeps, result
tables and plot-ready data files."""

import contextlib
import csv
import os
import sys
from dataclasses import dataclass, replace
from itertools import repeat
from typing import List

from .mobility import STATIC
from .scenario import ConfigInvalid, ScenarioConfig, run_scenario

METRIC_NAMES = ("throughput", "pdr", "delay")

# A sweep's workers are forked where that was measured: on Linux (which
# has os.sched_getaffinity) before Python 3.12.  Spawned workers import
# numpy and manetsim afresh, which made a two-cell call slower than a
# serial one.  From 3.12 Python deprecates forking a process that runs
# threads, and numpy's BLAS starts one at import.  There, and without
# os.sched_getaffinity (macOS, Windows), a pool takes the platform's start
# method and a default sweep runs in this process.
_FORK = sys.version_info < (3, 12) and hasattr(os, "sched_getaffinity")
# The most workers a default sweep starts.  The CPUs this process may use
# can outnumber its share of a container, and each worker holds its own
# copy of the simulator: on the 225-cell grid of the acceptance test, the
# sweep's processes held 37 MB resident at once with no worker, 96 MB with
# two and 156 MB with four.  Speed was timed with up to two workers.
MAX_DEFAULT_JOBS = 4


@dataclass
class SweepSpec:
    protocols: List[str]
    node_counts: List[int]
    pause_times: List[float]
    seeds_per_cell: int = 5

    def validate(self):
        errors = []
        if not self.protocols:
            errors.append("protocols list must be non-empty")
        if not self.node_counts:
            errors.append("node_counts list must be non-empty")
        if not self.pause_times:
            errors.append("pause_times list must be non-empty")
        if self.seeds_per_cell < 1:
            errors.append("seeds_per_cell must be >= 1")
        return errors

    def check(self):
        errors = self.validate()
        if errors:
            raise ConfigInvalid(errors)

    def cells(self, base):
        """Every (protocol, nodes, pause, seed) ScenarioConfig of the grid."""
        for protocol in self.protocols:
            for nodes in self.node_counts:
                for pause in self.pause_times:
                    for k in range(self.seeds_per_cell):
                        yield replace(base, protocol=protocol, node_count=nodes,
                                      pause_time=pause, seed=base.seed + k)


def _pause_label(pause):
    if pause == STATIC:
        return "static"
    return f"{pause:g}"


def _parse_pause(text):
    """The pause time a _pause_label (or "inf", or any number) names."""
    if str(text).strip().lower() in ("static", "inf"):
        return STATIC
    return float(text)


def run_sweep(spec, base, out_dir, trace_cells=False, progress=None, jobs=None):
    """Execute every grid cell; returns (rows, failures).

    Per-cell failures are recorded and the remaining cells still run.
    Writes throughput.csv / pdr.csv / delay.csv (wide, mean over seeds),
    raw.csv (long, per seed) and optional per-cell trace files.

    Cells run in ``jobs`` worker processes, and never more than there are
    cells; with fewer than two they run in this process.  Progress lines
    and failures come in cell order either way, and the outputs are the
    same bytes.  The default, ``jobs=None``, is one worker per CPU this
    process may use, at most MAX_DEFAULT_JOBS, where workers are forked
    (see _FORK); elsewhere it is 1.  A caller that runs threads of its
    own passes ``jobs=1``.
    """
    spec.check()
    os.makedirs(out_dir, exist_ok=True)
    cells = list(spec.cells(base))
    if jobs is None:
        jobs = min(len(os.sched_getaffinity(0)), MAX_DEFAULT_JOBS) if _FORK else 1
    workers = min(jobs, len(cells))
    trace_dir = out_dir if trace_cells else None
    rows = []
    failures = []
    with contextlib.ExitStack() as stack:
        cell_map = map
        if workers > 1:
            # Imported here: they add 1.4 MB of memory to every process
            # that imports this module, and only a pool needs them.
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context
            pool = ProcessPoolExecutor(
                workers, mp_context=get_context("fork" if _FORK else None))
            cell_map = stack.enter_context(pool).map
        for label, row, reason in cell_map(_run_cell, cells, repeat(trace_dir)):
            if row is None:
                failures.append((label, reason))
                line = f"{label}: FAILED ({reason})"
            else:
                rows.append(row)
                line = f"{label}: pdr={row['pdr']:.2f}"
            if progress:
                progress(line)
    rows.sort(key=lambda r: (r["protocol"], r["nodes"], r["pause"], r["seed"]))
    write_raw_csv(rows, os.path.join(out_dir, "raw.csv"))
    for metric in METRIC_NAMES:
        write_metric_table(rows, spec, metric,
                           os.path.join(out_dir, f"{metric}.csv"))
    return rows, failures


def _run_cell(config, trace_dir):
    """(label, raw.csv row, None) of one grid cell, or (label, None, reason)
    when it raises; with a trace_dir the cell writes its trace there."""
    label = (f"{config.protocol}-n{config.node_count}"
             f"-p{_pause_label(config.pause_time)}-s{config.seed}")
    trace_path = os.path.join(trace_dir, f"trace_{label}.csv") if trace_dir else None
    try:
        record, _trace = run_scenario(config, trace_path=trace_path)
    except Exception as exc:    # one failing cell must not stop the grid
        return label, None, f"{type(exc).__name__}: {exc}"
    return label, result_row(config, record), None


def result_row(config, record):
    """The raw.csv row of one run."""
    return {
        "protocol": config.protocol,
        "nodes": config.node_count,
        "pause": config.pause_time,
        "seed": config.seed,
        "throughput": record.throughput,
        "pdr": record.pdr,
        "delay": record.avg_e2e_delay,
        "control_bytes": record.control_bytes,
        "packets_sent": record.packets_sent,
        "packets_received": record.packets_received,
    }


def _fmt(value, metric):
    if value is None:
        return ""
    if metric == "throughput":
        return f"{value:.2f}"
    return f"{value:.6f}"


def write_raw_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["protocol", "nodes", "pause", "seed", "throughput",
                         "pdr", "delay", "control_bytes", "packets_sent",
                         "packets_received"])
        for r in rows:
            writer.writerow([
                r["protocol"], r["nodes"], _pause_label(r["pause"]), r["seed"],
                _fmt(r["throughput"], "throughput"), _fmt(r["pdr"], "pdr"),
                _fmt(r["delay"], "delay"), r["control_bytes"],
                r["packets_sent"], r["packets_received"],
            ])


def cell_mean(rows, protocol, nodes, pause, metric):
    """Mean over seeds of one grid cell; None when no value exists."""
    values = [r[metric] for r in rows
              if r["protocol"] == protocol and r["nodes"] == nodes
              and r["pause"] == pause and r[metric] is not None]
    if not values:
        return None
    return sum(values) / len(values)


def write_metric_table(rows, spec, metric, path):
    """Wide table shaped like the comparison tables: one row per pause
    time, one column per protocol x node-count pair."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["pause"]
        for protocol in spec.protocols:
            for nodes in spec.node_counts:
                header.append(f"{protocol}_{nodes}")
        writer.writerow(header)
        for pause in spec.pause_times:
            row = [_pause_label(pause)]
            for protocol in spec.protocols:
                for nodes in spec.node_counts:
                    row.append(_fmt(cell_mean(rows, protocol, nodes, pause,
                                              metric), metric))
            writer.writerow(row)


def emit_plot_data(rows, spec, out_dir):
    """One whitespace-delimited file per (metric, node_count): column 1 is
    the pause time, then one column per protocol."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for metric in METRIC_NAMES:
        for nodes in spec.node_counts:
            path = os.path.join(out_dir, f"fig_{metric}_{nodes}.dat")
            with open(path, "w") as fh:
                fh.write("# pause " + " ".join(spec.protocols) + "\n")
                for pause in spec.pause_times:
                    cells = [cell_mean(rows, p, nodes, pause, metric)
                             for p in spec.protocols]
                    cols = [(_fmt(c, metric) or "nan") for c in cells]
                    fh.write(f"{_pause_label(pause)} " + " ".join(cols) + "\n")
            paths.append(path)
    return paths


def read_raw_csv(path):
    rows = []
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            rows.append({
                "protocol": r["protocol"],
                "nodes": int(r["nodes"]),
                "pause": _parse_pause(r["pause"]),
                "seed": int(r["seed"]),
                "throughput": float(r["throughput"]) if r["throughput"] else None,
                "pdr": float(r["pdr"]) if r["pdr"] else None,
                "delay": float(r["delay"]) if r["delay"] else None,
                "control_bytes": int(r["control_bytes"]),
                "packets_sent": int(r["packets_sent"]),
                "packets_received": int(r["packets_received"]),
            })
    return rows
