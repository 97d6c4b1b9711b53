"""Benchmark entry point: one workload, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lan-hier-cont --seed 1 --seconds 20 --trace 0

Each workload runs in fresh Python processes (``worker.py``), one at a time.
With ``--trace 0`` three processes each do a third of the work and the
result holds every end-to-end metric of BENCHMARK.json as the median over
them (peak memory as their maximum); the processes must agree on every
output. With ``--trace 1`` one traced process does all of the work and
reports every per-layer metric instead. The last line of standard output is
the JSON result; the lines before it state the sample counts and the checked
outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 3          # untraced workload processes, each a third of the work
TIME_LIMIT_S = 170.0   # the whole run, all processes included


class WorkerError(RuntimeError):
    pass


def spawn(args, seconds: float, deadline: float) -> dict:
    """Run one worker to completion; returns its result with ``setup_s``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise WorkerError("a workload process exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"a workload process exited with status {proc.returncode}")
    res = json.loads(lines[-1])
    res["setup_s"] = res["setup_done"] - started
    return res


def aggregate(results: list[dict]) -> dict:
    """End-to-end metrics over the workload processes of one run."""
    values = {k: statistics.median(r["metrics"][k] for r in results)
              for k in results[0]["metrics"]}
    values["peak_rss_mb"] = max(r["metrics"]["peak_rss_mb"] for r in results)
    values["setup_s"] = statistics.median(r["setup_s"] for r in results)
    return values


def outputs_agree(results: list[dict]) -> bool:
    """Every process ran the same seed, so every output must be identical."""
    return (len({json.dumps(r["quality"]) for r in results}) == 1
            and len({r["digest"] for r in results}) == 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "mazegcrl" / "__init__.py").is_file():
        print("perfbench: no library source under src/mazegcrl", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    deadline = time.monotonic() + TIME_LIMIT_S
    processes = 1 if args.trace else PROCESSES
    try:
        results = [spawn(args, args.seconds / processes, deadline)
                   for _ in range(processes)]
    except WorkerError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    values = results[0]["metrics"] if args.trace else aggregate(results)
    correct = all(r["correct"] for r in results) and outputs_agree(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[section]:
        value = values[m["name"]]
        if not math.isfinite(value):
            correct, value = False, 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    latencies = [x for r in results for x in r["latencies"]]
    print(f"{args.workload} seed {args.seed}: {processes} process(es), "
          f"{attempted} operations, {failed} failed, {len(latencies)} step "
          f"latencies")
    if len(latencies) >= 1000:
        p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
        print(f"pooled p99 step latency {1000 * p99:.2f} ms, "
              f"{len(latencies) // 100} samples beyond it")
    success, alignment, kendall = results[0]["quality"]
    digest = results[0]["digest"]
    print(f"evaluate: success {success:.4f} alignment {alignment:.4f} "
          f"kendall {kendall:.4f}; identical in every process: "
          f"{outputs_agree(results)}"
          + (f"; grid output sha256 {digest}" if digest else ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
