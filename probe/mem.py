"""Memory probe: dataset collection and dataset IO, and one ablate grid job.

Run from the root of a checkout::

    python3 probe/mem.py [--scale F]

For the dataset of each benchmark workload (lan-hier-cont: 100k
medium/navigate; iqe-flat-stitch: 100k medium/stitch; ablate-giant: 50k
giant/stitch; data seed 1) it prints, for ``collect_*``, ``write_dataset``
and ``read_dataset``, the tracemalloc peak inside the call and what the call
leaves allocated, beside the dataset's store (``states``, ``actions``,
``index``, ``end``) and its file size, in MB of 10^6 bytes, and the store's
bytes per transition; for ``collect_*`` also its wall time in seconds, the
minimum of 3 untraced runs, each on a fresh spec. For each builtin layout it
prints the dtype and bytes of ``maze.hop_table`` and ``maze.next_hop_table``.
Then it runs one ablate-giant grid job (giant/stitch, MLP and LAN flat, seeds
1 and 2, 100 steps a run, 20 eval trials) through ``cli.main`` in a fresh
interpreter and prints that interpreter's ``ru_maxrss`` in MB of 2^20 bytes,
as the benchmark's ``peak_rss_mb``. ``--scale`` multiplies every transition,
step and trial count, for a quick run.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mazegcrl import cli, data, maze  # noqa: E402

MB = 1e6
SEED = 1
DATASETS = {  # workload -> (layout, style, transitions)
    "lan-hier-cont": ("medium", "navigate", 100_000),
    "iqe-flat-stitch": ("medium", "stitch", 100_000),
    "ablate-giant": ("giant", "stitch", 50_000),
}
GRID = ["env.layout=giant", "grid.arch_kinds=MLP,LAN", "grid.hierarchical=false",
        "grid.continuity_weights=0", "grid.styles=stitch",
        f"grid.seeds={SEED},{SEED + 1}", f"data.seed={SEED}"]
GRID_COUNTS = {"data.transitions": 50_000, "train.steps": 100,
               "run.eval_trials": 20}


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def traced(fn, *args):
    """(fn(*args), tracemalloc peak MB, MB still allocated after the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / MB, current / MB


def wall_s(fn, layout: str, *args, runs: int = 3) -> float:
    """The least wall time of ``runs`` untraced fn(spec, *args) calls.

    Each call gets a fresh spec of the layout, as a ``gen-data`` process
    has; ``maze``'s hop table, built once per process, is not timed.
    """
    times = []
    for _ in range(runs):
        spec = maze.builtin_layout(layout)
        start = time.perf_counter()
        fn(spec, *args)
        times.append(time.perf_counter() - start)
    return min(times)


def store_bytes(dataset) -> int:
    return sum(a.nbytes for a in (dataset.states, dataset.actions,
                                  dataset.index, dataset.end))


def dataset_rows(scale: float, tmp: Path) -> list[str]:
    rows = []
    for name, (layout, style, transitions) in DATASETS.items():
        config = cli.parse_config_lines(
            [f"env.layout={layout}", f"data.style={style}",
             f"data.transitions={scaled(transitions, scale)}",
             f"data.seed={SEED}"]).finalize()
        if style == "navigate":
            collect, args = data.collect_navigate, (config.transitions, config.noise,
                                                    config.data_seed)
        else:
            collect, args = data.collect_stitch, (config.transitions,
                                                  config.segment_len, config.noise,
                                                  config.data_seed)
        dataset, peak, kept = traced(collect, maze.builtin_layout(layout), *args)
        wall = wall_s(collect, layout, *args)
        calls = [(f"collect_{style}", peak, kept, f"{wall:.3f}")]
        path = tmp / f"{name}.dset"
        _, peak, kept = traced(data.write_dataset, dataset, path)
        calls.append(("write_dataset", peak, kept, "-"))
        del dataset
        dataset, peak, kept = traced(data.read_dataset, path)
        calls.append(("read_dataset", peak, kept, "-"))
        size = os.path.getsize(path) / MB
        store = store_bytes(dataset)
        per = store / dataset.n_transitions
        rows += [f"{name:<16} {call:<17} {peak:8.2f} {kept:11.2f} "
                 f"{store / MB:8.2f} {per:9.2f} {size:7.2f} {wall:>6}"
                 for call, peak, kept, wall in calls]
    return rows


def table_rows() -> list[str]:
    """Each builtin layout's BFS tables: their dtype and bytes."""
    rows = []
    for name in maze.LAYOUT_NAMES:
        spec = maze.builtin_layout(name)
        hops, nxt = maze.hop_table(spec), maze.next_hop_table(spec)
        rows.append(f"bfs tables {name}: {hops.dtype} hop_table {hops.nbytes} B, "
                    f"{nxt.dtype} next_hop_table {nxt.nbytes} B")
    return rows


def grid_job(scale: float, out: Path) -> float:
    """Run the grid in this process; its ru_maxrss in MB."""
    argv = ["ablate", "--out", str(out)]
    for item in GRID + [f"{k}={scaled(v, scale)}" for k, v in GRID_COUNTS.items()]:
        argv += ["--set", item]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if cli.main(argv) != 0:
            raise SystemExit("grid job failed")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every transition, step and trial count")
    parser.add_argument("--grid-job", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.grid_job:
        print(f"{grid_job(args.scale, Path(args.grid_job)):.1f}")
        return 0
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        # first: a child's ru_maxrss counts this process's RSS when it started
        job = subprocess.run(
            [sys.executable, __file__, "--scale", str(args.scale),
             "--grid-job", str(tmp / "grid")],
            check=True, stdout=subprocess.PIPE, text=True)
        print(f"{'workload':<16} {'call':<17} {'peak_mb':>8} {'retained_mb':>11} "
              f"{'store_mb':>8} {'store_b/t':>9} {'file_mb':>7} {'wall_s':>6}")
        print("\n".join(dataset_rows(args.scale, tmp) + table_rows()))
    print(f"ablate-giant grid job: ru_maxrss {float(job.stdout):.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
