"""Experiment grids: protocol x node-count x pause-time sweeps, result
tables and plot-ready data files."""

import contextlib
import csv
import os
import re
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from typing import List

from .mobility import STATIC
from .scenario import PROTOCOL_NAMES, ConfigInvalid, run_scenario

METRIC_NAMES = ("throughput", "pdr", "delay")
# The name of a plot data file that write_derived writes.
_FIGURE = re.compile(rf"fig_({'|'.join(METRIC_NAMES)})_\d+\.dat")

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
        if len(set(self.protocols) & set(PROTOCOL_NAMES)) < len(self.protocols):
            errors.append(f"protocols must be distinct names among {PROTOCOL_NAMES}, "
                          f"got {self.protocols}")
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
    Writes raw.csv (long, per seed; rounded, unlike the rows returned), the
    write_derived files of the rows read back from it, and cell traces.

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
    raw_path = os.path.join(out_dir, "raw.csv")
    write_raw_csv(rows, raw_path)
    write_derived(read_raw_csv(raw_path), out_dir)
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


def _fmt(value, places):
    if value is None:
        return ""
    return f"{value:.{places}f}"


def _parse_protocol(text):
    if text not in PROTOCOL_NAMES:
        raise ValueError(text)
    return text


def _parse_metric(text):
    return float(text) if text else None


# raw.csv's columns, in order, each with its printer and its parser.
_RAW_COLUMNS = {
    "protocol": (str, _parse_protocol), "nodes": (str, int),
    "pause": (_pause_label, _parse_pause), "seed": (str, int),
    "throughput": (partial(_fmt, places=2), _parse_metric),
    "pdr": (partial(_fmt, places=6), _parse_metric),
    "delay": (partial(_fmt, places=6), _parse_metric),
    "control_bytes": (str, int), "packets_sent": (str, int), "packets_received": (str, int),
}


def write_raw_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RAW_COLUMNS)
        for r in rows:
            writer.writerow([fmt(r[name]) for name, (fmt, _) in _RAW_COLUMNS.items()])


def read_raw_csv(path):
    """The rows of a raw.csv; ConfigInvalid names each value that does not parse."""
    rows, errors = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames != list(_RAW_COLUMNS):
            raise ConfigInvalid([f"{path}: header is not {','.join(_RAW_COLUMNS)}"])
        for r in reader:
            row = {}
            for name, (_, parse) in _RAW_COLUMNS.items():
                try:
                    row[name] = parse(r[name])
                except ValueError:
                    errors.append(f"{path}:{reader.line_num}: bad {name} {r[name]!r}")
            rows.append(row)
    if errors:
        raise ConfigInvalid(errors)
    return rows


def cell_mean(rows, protocol, nodes, pause, metric):
    """Mean over seeds of one grid cell; None when no value exists."""
    values = [r[metric] for r in rows
              if r["protocol"] == protocol and r["nodes"] == nodes
              and r["pause"] == pause and r[metric] is not None]
    if not values:
        return None
    return sum(values) / len(values)


def write_derived(rows, out_dir):
    """Write, and return the paths of, the files derived from raw.csv's rows:
    per metric a wide table <metric>.csv (a row per pause, a column per
    protocol x node count) and plot data fig_<metric>_<nodes>.dat (the pause,
    a column per protocol).  Each value is a cell_mean ("" in a table and nan
    in plot data without one).  The axes are the rows' values: protocols in
    PROTOCOL_NAMES order, node counts and pauses ascending (static last).
    The plot data files already in out_dir go first, so that none is left
    of a node count the rows do not hold."""
    for name in os.listdir(out_dir):
        if _FIGURE.fullmatch(name):
            os.remove(os.path.join(out_dir, name))
    protocols = sorted({r["protocol"] for r in rows}, key=PROTOCOL_NAMES.index)
    node_counts = sorted({r["nodes"] for r in rows})
    pauses = sorted({r["pause"] for r in rows})
    columns = [(p, n) for p in protocols for n in node_counts]
    paths = []
    for metric in METRIC_NAMES:
        fmt = _RAW_COLUMNS[metric][0]
        means = {(p, n, pause): fmt(cell_mean(rows, p, n, pause, metric))
                 for p, n in columns for pause in pauses}
        paths.append(os.path.join(out_dir, f"{metric}.csv"))
        with open(paths[-1], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pause"] + [f"{p}_{n}" for p, n in columns])
            for pause in pauses:
                writer.writerow([_pause_label(pause)]
                                + [means[p, n, pause] for p, n in columns])
        for n in node_counts:
            paths.append(os.path.join(out_dir, f"fig_{metric}_{n}.dat"))
            with open(paths[-1], "w") as fh:
                fh.write("# pause " + " ".join(protocols) + "\n")
                for pause in pauses:
                    cols = [means[p, n, pause] or "nan" for p in protocols]
                    fh.write(f"{_pause_label(pause)} " + " ".join(cols) + "\n")
    return paths
