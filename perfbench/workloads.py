"""The benchmark's workloads: set-up, the timed closed loop, and output checks.

Each workload is a closed loop with one caller: the next operation is issued
when the previous one returns. The library is driven only through its public
calls (``cli.parse_config_lines``, ``data.collect_*``, ``data.sample_batch``,
``training.init_learner``, ``training.train_step``, ``evaluation.evaluate``,
``cli.main``); the workload seed picks the data and the training seeds.

The amount of work is a function of (workload, seconds), never of the clock,
so two runs at one seed train the same steps and produce the same results.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROUND_STEPS = 100      # train steps per round; rounds alternate in traced runs
ABLATE_KINDS = ("MLP", "LAN")
ABLATE_RUNS = 2 * len(ABLATE_KINDS)  # each kind at the two grid seeds
ABLATE_STEPS = 100     # per grid run: 2 kinds x 2 seeds x 100 = 400 steps a job
ABLATE_TRANSITIONS = 50_000
ABLATE_EVAL_TRIALS = 20
ABLATE_JOB_S = 7.0     # nominal seconds of one grid job, sizes the job count

TRAIN_WORKLOADS = {
    # name -> (config lines, nominal train steps per second on the parent)
    "lan-hier-cont": (["env.layout=medium", "data.style=navigate", "arch.kind=LAN",
                       "train.hierarchical=true", "train.continuity_weight=1",
                       "train.batch_size=256"], 55),
    "iqe-flat-stitch": (["env.layout=medium", "data.style=stitch", "arch.kind=IQE",
                         "train.hierarchical=false", "train.continuity_weight=0",
                         "train.batch_size=256"], 70),
}
ABLATE_WORKLOADS = ("ablate-giant",)
NAMES = tuple(TRAIN_WORKLOADS) + ABLATE_WORKLOADS

clock = time.perf_counter


def train_rounds(name: str, seconds: float) -> int:
    return max(2, math.ceil(seconds * TRAIN_WORKLOADS[name][1] / ROUND_STEPS))


def ablate_jobs(seconds: float) -> int:
    return max(1, round(seconds / ABLATE_JOB_S))


def quality_in_range(success: float, alignment: float, kendall: float) -> bool:
    return (0.0 <= success <= 1.0 and -1.0 <= alignment <= 1.0
            and 0.0 <= kendall <= 1.0)


# ---- train workloads ---------------------------------------------------------------


def train_config(mods, name: str, seed: int):
    lines = TRAIN_WORKLOADS[name][0] + [f"data.seed={seed}", f"train.seed={seed}"]
    return mods.cli.parse_config_lines(lines).finalize()


def make_dataset(mods, config, spec):
    if config.style == "navigate":
        return mods.data.collect_navigate(spec, config.transitions, config.noise,
                                          config.data_seed)
    return mods.data.collect_stitch(spec, config.transitions, config.segment_len,
                                    config.noise, config.data_seed)


def setup_train(mods, name: str, seed: int) -> dict:
    config = train_config(mods, name, seed)
    spec = mods.maze.builtin_layout(config.layout)
    dataset = make_dataset(mods, config, spec)
    state = mods.training.init_learner(config.train, spec)
    return {"config": config, "spec": spec, "dataset": dataset, "state": state}


def run_train(mods, ctx: dict, rounds: int, tracer=None) -> dict:
    """Train ``rounds`` x ROUND_STEPS steps, then evaluate once.

    With a tracer, even rounds run traced and odd rounds untraced, so the
    tracing overhead is measured inside one process on the same work.
    """
    config, spec, dataset, state = (ctx["config"], ctx["spec"], ctx["dataset"],
                                    ctx["state"])
    cfg = config.train
    data, training = mods.data, mods.training
    rng = np.random.default_rng([cfg.seed, 1])
    loss_keys = ["td_loss", "continuity_loss", "low_policy_loss"]
    if cfg.hierarchical:
        loss_keys.append("high_policy_loss")
    latencies, round_s, traced_round = [], [], []
    attempted = failed = 0
    nonfinite = 0
    start = clock()
    for r in range(rounds):
        traced = tracer is not None and r % 2 == 0
        if tracer is not None:
            tracer.enabled = traced
        r0 = clock()
        for _ in range(ROUND_STEPS):
            attempted += 1
            t0 = clock()
            try:
                batch = data.sample_batch(
                    dataset, cfg.batch_size, cfg.value_goal_ratios,
                    cfg.policy_goal_ratios, cfg.discount, cfg.subgoal_steps,
                    spec.goal_radius, rng)
                state, metrics = training.train_step(state, batch)
            except Exception:  # counted as a failed operation; the loop goes on
                latencies.append(clock() - t0)
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            latencies.append(clock() - t0)
            if not all(math.isfinite(metrics[k]) for k in loss_keys):
                nonfinite += 1
        round_s.append(clock() - r0)
        traced_round.append(traced)
    run_s = clock() - start
    if tracer is not None:
        tracer.enabled = True

    eval_rng = np.random.default_rng([cfg.seed, 2, state.step])
    try:
        report = mods.evaluation.evaluate(state, spec, spec.tasks,
                                          config.eval_trials, eval_rng)
        quality = (report.aggregate_success, report.mean_alignment,
                   report.mean_kendall)
        per_task = zip(report.task_success, report.task_alignment,
                       report.task_kendall)
        eval_ok = (len(report.task_success) == len(spec.tasks)
                   and all(quality_in_range(*t) for t in per_task))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        quality, eval_ok = (math.nan, math.nan, math.nan), False
    failed += nonfinite
    return {
        "kind": "train", "steps": attempted, "attempted": attempted, "failed": failed,
        "correct": failed == 0 and eval_ok,
        "run_s": run_s, "round_s": round_s, "traced_round": traced_round,
        "latencies": latencies, "quality": quality,
    }


# ---- ablate workload ------------------------------------------------------------


def ablate_argv(seed: int, out: Path) -> list[str]:
    sets = ["env.layout=giant", f"grid.arch_kinds={','.join(ABLATE_KINDS)}",
            "grid.hierarchical=false", "grid.continuity_weights=0",
            "grid.styles=stitch", f"grid.seeds={seed},{seed + 1}",
            f"data.seed={seed}", f"train.steps={ABLATE_STEPS}",
            f"data.transitions={ABLATE_TRANSITIONS}",
            f"run.eval_trials={ABLATE_EVAL_TRIALS}"]
    argv = ["ablate", "--out", str(out)]
    for item in sets:
        argv += ["--set", item]
    return argv


def _time_calls(owner, attr: str, sink: list):
    """Append the duration of every call of ``owner.attr``; returns an undo."""
    original = owner.__dict__[attr]

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(clock() - t0)

    setattr(owner, attr, timed)
    return lambda: setattr(owner, attr, original)


def check_ablate_output(mods, out: Path, status: int | None) -> dict:
    """Correctness of one grid job; failures are counted, never raised."""
    expected = ABLATE_RUNS
    result = {"ok": False, "failed": expected, "digest": None,
              "quality": (math.nan, math.nan, math.nan)}
    if status != 0:
        return result
    try:
        runs_text = (out / "runs.csv").read_text()
        summary_text = (out / "summary.csv").read_text()
        runs = mods.cli.read_runs_csv(runs_text)
        summary = mods.cli.read_summary_csv(summary_text)
    except (OSError, ValueError, IndexError):
        traceback.print_exc(file=sys.stderr)
        return result
    failed = sum(row["status"] != "ok" for row in runs)
    failed += max(0, expected - len(runs))
    result["failed"] = failed
    result["digest"] = hashlib.sha256(
        runs_text.encode() + b"\0" + summary_text.encode()).hexdigest()
    quality = tuple(float(np.mean([row[k] for row in summary])) if summary
                    else math.nan
                    for k in ("success_mean", "alignment_mean", "kendall_mean"))
    result["quality"] = quality
    cells_ok = (len(summary) == len(ABLATE_KINDS)
                and all(row["n_ok"] == row["n_seeds"] for row in summary))
    run_dirs = sorted(p for p in out.iterdir() if p.is_dir())
    ckpts = sorted(run_dirs[-1].glob("ckpt_*.txt")) if run_dirs else []
    try:
        tensors = mods.values.read_tensors(ckpts[-1]) if ckpts else {}
    except (OSError, ValueError, IndexError):
        traceback.print_exc(file=sys.stderr)
        tensors = {}
    ckpt_ok = bool(tensors) and all(np.all(np.isfinite(v)) for v in tensors.values())
    result["ok"] = (failed == 0 and len(runs) == expected and cells_ok and ckpt_ok
                    and quality_in_range(*quality))
    return result


def run_ablate(mods, seed: int, jobs: int, scratch: Path, tracer=None) -> dict:
    """Run the grid ``jobs`` times in process; every job must match the first.

    With a tracer, the first job runs traced and the others untraced.
    Without one, the only hook is a timestamp pair around
    ``training.train_step``, which gives the step latency inside the grid.
    """
    latencies: list[float] = []
    undo = (_time_calls(mods.training, "train_step", latencies)
            if tracer is None else None)
    job_s, traced_job, checks = [], [], []
    try:
        for j in range(jobs):
            out = scratch / f"job{j}"
            traced = tracer is not None and j == 0
            if tracer is not None:
                tracer.enabled = traced
            t0 = clock()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    status = mods.cli.main(ablate_argv(seed, out))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                status = None
            job_s.append(clock() - t0)
            traced_job.append(traced)
            if tracer is not None:
                tracer.enabled = False
            checks.append(check_ablate_output(mods, out, status))
            shutil.rmtree(out, ignore_errors=True)
    finally:
        if undo is not None:
            undo()
        if tracer is not None:
            tracer.enabled = True
    digests = {c["digest"] for c in checks}
    deterministic = len(digests) == 1 and None not in digests
    failed = sum(c["failed"] for c in checks)
    return {
        "kind": "ablate", "steps": jobs * ABLATE_RUNS * ABLATE_STEPS,
        "attempted": jobs * ABLATE_RUNS, "failed": failed,
        "correct": deterministic and all(c["ok"] for c in checks),
        "run_s": float(np.median(job_s)), "round_s": job_s,
        "traced_round": traced_job, "latencies": latencies,
        "quality": checks[0]["quality"], "digest": checks[0]["digest"],
    }
