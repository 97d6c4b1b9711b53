"""One workload process: set up, run the timed part, print one JSON line.

Usage (started by run.py from the root of a checkout)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The line reports the monotonic time at which set-up ended; run.py subtracts
the time at which it started the process, so set-up time includes
interpreter start and imports. Untraced, it carries this process's
end-to-end figures and step latencies; traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def load_library():
    sys.path.insert(0, str(ROOT / "src"))
    import mazegcrl  # noqa: F401  (pins BLAS to one thread before numpy loads)
    from mazegcrl import autodiff, cli, data, evaluation, maze, training, values

    return types.SimpleNamespace(autodiff=autodiff, cli=cli, data=data,
                                 evaluation=evaluation, maze=maze,
                                 training=training, values=values)


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def percentile_ms(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples, in milliseconds."""
    return 1000.0 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict) -> dict:
    lat = res["latencies"]
    steps_per_round = res["steps"] / len(res["round_s"])
    return {
        "run_s": res["run_s"],
        "train_steps_per_s": steps_per_round / _median(res["round_s"]),
        "step_ms_p50": percentile_ms(lat, 50),
        "step_ms_p90": percentile_ms(lat, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, res: dict) -> dict:
    t = tracer
    steps = t.calls("training.train_step")

    def per_step(name):
        return _ratio(t.calls(name, "train_step"), steps)

    def ms_per_step(name):
        return _ratio(1000.0 * t.total_s(name, "train_step"), steps)

    def mean_s(name, phase=None):
        return _ratio(t.total_s(name, phase), t.calls(name, phase))

    evals = t.calls("evaluation.evaluate")
    ablates = t.calls("cli.cmd_ablate")
    own = t.self_times()
    ablate_self = sum(s for s, span in zip(own, t.spans)
                      if span[2] == "cli.cmd_ablate")
    traced = [s for s, on in zip(res["round_s"], res["traced_round"]) if on]
    plain = [s for s, on in zip(res["round_s"], res["traced_round"]) if not on]
    extra = _median(traced) - _median(plain)
    grid = res["kind"] == "ablate"
    # run_s sums the rounds of a train workload and is one job of the grid
    scale = 1 if grid else len(res["round_s"])
    success, alignment, kendall = res["quality"]
    return {
        "data.collect_s": (t.total_s("data.collect_navigate")
                           + t.total_s("data.collect_stitch")),
        "data.sample_batch_ms": 1000.0 * mean_s("data.sample_batch"),
        "data.write_dataset_s": mean_s("data.write_dataset"),
        "data.read_dataset_s": mean_s("data.read_dataset"),
        "data.dataset_mb": _ratio(t.amount("dataset_bytes"),
                                  1e6 * t.calls("data.write_dataset")),
        "maze.step_calls": t.calls("maze.step"),
        "maze.step_us": 1e6 * mean_s("maze.step"),
        "maze.distance_field_calls": t.calls("maze.distance_field"),
        "maze.distance_field_ms": 1000.0 * t.total_s("maze.distance_field"),
        "training.train_step_ms": 1000.0 * mean_s("training.train_step"),
        "training.adam_ms_per_step": ms_per_step("training.adam_step"),
        "training.polyak_ms_per_step": ms_per_step("training.polyak_update"),
        "autodiff.tapes_per_step": per_step("autodiff.Tape"),
        "autodiff.backward_calls_per_step": per_step("autodiff.Tape.backward"),
        "autodiff.backward_ms_per_step": ms_per_step("autodiff.Tape.backward"),
        "autodiff.tape_mlp_passes_per_step": per_step("autodiff.LiftedMlp"),
        "autodiff.tape_mlp_ms_per_step": ms_per_step("autodiff.LiftedMlp"),
        "autodiff.plain_mlp_passes_per_step": per_step("autodiff.mlp_apply"),
        "autodiff.plain_mlp_ms_per_step": ms_per_step("autodiff.mlp_apply"),
        "autodiff.gelu_ms_per_step": (
            ms_per_step("autodiff.Tape.gelu") + ms_per_step("autodiff.gelu_value")
            + _ratio(1000.0 * t.amount("gelu_backward", "train_step"), steps)),
        "autodiff.matmul_flops_per_step": _ratio(
            t.amount("matmul_flops", "train_step"), steps),
        "autodiff.matmul_mb_per_step": _ratio(
            t.amount("matmul_bytes", "train_step"), 1e6 * steps),
        "values.tape_value_calls_per_step": per_step("values.LiftedValue"),
        "values.tape_value_ms_per_step": ms_per_step("values.LiftedValue"),
        "values.plain_value_calls_per_step": per_step("values.value"),
        "values.plain_value_ms_per_step": ms_per_step("values.value"),
        "values.iqe_union_calls_per_step": per_step("values.interval_union_measure"),
        "values.iqe_union_ms_per_step": ms_per_step("values.interval_union_measure"),
        "values.write_tensors_s": mean_s("values.write_tensors"),
        "values.checkpoint_mb": _ratio(t.amount("checkpoint_bytes"),
                                       1e6 * t.calls("values.write_tensors")),
        "evaluation.evaluate_s": mean_s("evaluation.evaluate"),
        "evaluation.act_batch_ms": 1000.0 * mean_s("evaluation.act_batch", "evaluate"),
        "evaluation.diagnostics_ms": _ratio(
            1000.0 * (t.total_s("evaluation.kendall_consistency", "evaluate")
                      + t.total_s("evaluation.temporal_alignment", "evaluate")),
            evals),
        "evaluation.active_row_ratio": _ratio(t.calls("maze.step", "evaluate"),
                                              t.amount("act_rows", "evaluate")),
        "evaluation.success": success,
        "evaluation.alignment": alignment,
        "evaluation.kendall": kendall,
        "cli.cmd_train_s": mean_s("cli.cmd_train"),
        "cli.self_s": _ratio(ablate_self, ablates),
        "cli.runs_attempted": res["attempted"] if grid else 0,
        "cli.runs_failed": res["failed"] if grid else 0,
        "trace.overhead_s": extra * scale,
        "trace.overhead_pct": 100.0 * _ratio(extra, _median(plain)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    mods = load_library()  # before anything imports numpy

    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}")
    tracer = None
    if args.trace:
        import tracer as tracemod

        tracer = tracemod.install(tracemod.Tracer(), mods)

    train = args.workload in workloads.TRAIN_WORKLOADS
    ctx = None
    if train:
        ctx = workloads.setup_train(mods, args.workload, args.seed)
    setup_done = time.monotonic()

    if train:
        res = workloads.run_train(mods, ctx, workloads.train_rounds(
            args.workload, args.seconds), tracer)
    else:
        scratch = OUT / f"{args.workload}-{os.getpid()}"
        jobs = workloads.ablate_jobs(args.seconds)
        if tracer is not None:
            jobs = max(2, jobs)  # one traced job and the untraced rest
        res = workloads.run_ablate(mods, args.seed, jobs, scratch, tracer)
        shutil.rmtree(scratch, ignore_errors=True)
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
        metrics = per_layer(tracer, res)
    else:
        metrics = end_to_end(res)
    print(json.dumps({
        "setup_done": setup_done, "correct": bool(res["correct"]),
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": metrics, "quality": res["quality"],
        "digest": res.get("digest"), "latencies": res["latencies"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
