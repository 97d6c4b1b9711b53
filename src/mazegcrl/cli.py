"""Experiment front end: gen-data, train, eval, ablate, landscape.

train reads its --data file once and hands the parsed dataset to
cmd_train. The ablate grid writes each style's dataset file once, reads it
back once, and trains every cell on that copy, so a cell sees exactly what
train --data <grid dataset file> would.

Configuration is flat dotted key=value text (files via --config, overrides
via --set); unknown keys are rejected. The one rename map _KEYS maps each
key to a RunConfig/TrainConfig field, parsed by its dataclass default's type.
Values and every CSV go through evaluation's text codec: one schema-driven
table writer and one reader. Every emitted byte except manifest timestamps
is a deterministic function of (config, seed).

Exit status is 0 on success; on failure the first stderr line is
"<category>: <message>" with category one of usage, config, io, dims,
numeric, env.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, data as datamod, evaluation as evalmod, maze
from . import training as trainmod
from .autodiff import GraphError, NonFiniteError
from .maze import MazeError
from .training import LearnerState, TrainConfig
from .values import read_tensors, write_tensors

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_lines",
    "config_lines",
    "config_hash",
    "cmd_gen_data",
    "cmd_train",
    "cmd_eval",
    "cmd_ablate",
    "cmd_landscape",
    "read_summary_csv",
    "read_runs_csv",
    "main",
]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Full run description: environment, data, training, orchestration."""

    layout: str = "medium"
    style: str = "navigate"
    transitions: int = 100_000
    noise: float = 0.5
    segment_len: int = 8
    data_seed: int = 100
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str = "runs/latest"
    checkpoint_every: int = 0
    eval_every: int = 0
    metrics_every: int = 100
    eval_trials: int = 50
    landscape_resolution: int = 2
    grid_arch_kinds: tuple = ("LAN", "MLP")
    grid_hierarchical: tuple = (False,)
    grid_continuity: tuple = (0.0,)
    grid_styles: tuple = ("stitch",)
    grid_seeds: tuple = (0, 1, 2)
    explicit: set = field(default_factory=set)

    def finalize(self) -> "RunConfig":
        if self.layout not in maze.LAYOUT_NAMES:
            raise ConfigError(f"env.layout must be one of {maze.LAYOUT_NAMES}")
        if self.style not in ("navigate", "stitch"):
            raise ConfigError("data.style must be navigate or stitch")
        self._follow_style()
        try:
            self.train.validate()
        except ValueError as err:
            raise ConfigError(str(err)) from None
        for kind, hier, wc in itertools.product(
                self.grid_arch_kinds, self.grid_hierarchical, self.grid_continuity):
            try:  # the cell ablate would train
                replace(self.train, arch_kind=kind, hierarchical=hier,
                        continuity_weight=wc).validate()
            except ValueError as err:
                raise ConfigError(f"grid cell {_cell_name(kind, hier, wc)}: "
                                  f"{err}") from None
        for key in ("data.seed", "train.seed", "grid.seeds"):
            seed = np.min(getattr(*_field(self, key)), initial=0)
            if seed < 0:  # NumPy seeds no generator from one
                raise ConfigError(f"{key} must be nonnegative, got {seed}")
        if self.transitions <= 0 or self.segment_len < 2:
            raise ConfigError("data.transitions must be positive, "
                              "data.segment_len at least 2")
        if not 0.0 <= self.noise < np.inf:
            raise ConfigError(f"data.noise must be finite and nonnegative, "
                              f"got {self.noise!r}")
        if min(self.metrics_every, self.eval_trials,
               self.landscape_resolution) < 1:
            raise ConfigError("run.metrics_every, run.eval_trials and "
                              "run.landscape_resolution must be at least 1")
        if min(self.checkpoint_every, self.eval_every) < 0:
            raise ConfigError("cadences must be nonnegative")
        for style in self.grid_styles:
            if style not in ("navigate", "stitch"):
                raise ConfigError(f"unknown grid style '{style}'")
        for key in (k for k in _KEYS if k.startswith("grid.")):
            # each entry names a part of its runs' directories, as in _run_cell
            names = [f"{v:g}" if isinstance(v, float) else str(v)
                     for v in getattr(*_field(self, key))]
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ConfigError(f"{key} repeats the name '{name}': two "
                                      f"runs would share a directory")
        return self

    def _follow_style(self) -> None:
        """Value-goal mixture defaults follow the dataset style."""
        if "train.value_goal_ratios" not in self.explicit:
            self.train.value_goal_ratios = (
                datamod.VALUE_GOAL_RATIOS_STITCH if self.style == "stitch"
                else datamod.VALUE_GOAL_RATIOS_DEFAULT)


# key -> RunConfig attribute; "train.<name>" is a TrainConfig attribute
_KEYS = {
    "env.layout": "layout",
    "data.style": "style",
    "data.transitions": "transitions",
    "data.noise": "noise",
    "data.segment_len": "segment_len",
    "data.seed": "data_seed",
    "train.gamma": "train.discount",
    "train.expectile": "train.expectile",
    "train.continuity_weight": "train.continuity_weight",
    "train.high_temp": "train.high_temp",
    "train.low_temp": "train.low_temp",
    "train.subgoal_steps": "train.subgoal_steps",
    "train.target_rate": "train.target_rate",
    "train.lr": "train.lr",
    "train.batch_size": "train.batch_size",
    "train.steps": "train.total_steps",
    "train.value_goal_ratios": "train.value_goal_ratios",
    "train.policy_goal_ratios": "train.policy_goal_ratios",
    "train.hierarchical": "train.hierarchical",
    "train.rep_grad_from_policy": "train.rep_grad_from_policy",
    "train.objective": "train.objective",
    "train.seed": "train.seed",
    "train.dtype": "train.dtype",
    "arch.kind": "train.arch_kind",
    "arch.value_hidden": "train.value_hidden",
    "arch.policy_hidden": "train.policy_hidden",
    "arch.rep_hidden": "train.rep_hidden",
    "arch.rep_dim": "train.rep_dim",
    "arch.latent_dim": "train.latent_dim",
    "arch.iqe_components": "train.iqe_components",
    "arch.iqe_intervals": "train.iqe_intervals",
    "arch.mrn_sym_dim": "train.mrn_sym_dim",
    "arch.mrn_asym_dim": "train.mrn_asym_dim",
    "run.out_dir": "out_dir",
    "run.checkpoint_every": "checkpoint_every",
    "run.eval_every": "eval_every",
    "run.metrics_every": "metrics_every",
    "run.eval_trials": "eval_trials",
    "run.landscape_resolution": "landscape_resolution",
    "grid.arch_kinds": "grid_arch_kinds",
    "grid.hierarchical": "grid_hierarchical",
    "grid.continuity_weights": "grid_continuity",
    "grid.styles": "grid_styles",
    "grid.seeds": "grid_seeds",
}


def _field(config: RunConfig, key: str) -> tuple:
    """The object and attribute name that ``key`` sets."""
    owner, _, name = _KEYS[key].rpartition(".")
    return (config.train if owner else config), name


def parse_config_lines(lines, config: RunConfig | None = None) -> RunConfig:
    config = config or RunConfig()
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key '{key}'")
        try:  # typed by the field's default: a set value may be ()
            parsed = evalmod.parse_value(value, getattr(*_field(RunConfig(), key)))
        except ValueError as err:
            raise ConfigError(f"bad value for '{key}': {err}") from None
        setattr(*_field(config, key), parsed)
        config.explicit.add(key)
    return config


def config_lines(config: RunConfig) -> list[str]:
    """Canonical resolved key=value lines, sorted by key."""
    return [f"{key}={evalmod.format_value(getattr(*_field(config, key)))}"
            for key in sorted(_KEYS)]


def config_hash(config: RunConfig) -> str:
    semantic = [line for line in config_lines(config)
                if not line.startswith("run.out_dir=")]
    return hashlib.sha256("\n".join(semantic).encode()).hexdigest()


def load_config(paths, sets) -> RunConfig:
    config = RunConfig()
    for path in paths or ():
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise FileNotFoundError(f"cannot read config file {path}: {err}") from None
        parse_config_lines(text.splitlines(), config)
    parse_config_lines(sets or (), config)
    return config.finalize()


# ---- shared run machinery -----------------------------------------------------------


def _generate_dataset(config: RunConfig, spec) -> datamod.Dataset:
    if config.style == "navigate":
        return datamod.collect_navigate(spec, config.transitions, config.noise,
                                        config.data_seed)
    return datamod.collect_stitch(spec, config.transitions, config.segment_len,
                                  config.noise, config.data_seed)


def _dataset_manifest(config: RunConfig, spec, dataset) -> dict:
    cells, tasks, span = datamod.coverage(dataset, spec,
                                          span=config.style == "stitch")
    info = {
        "layout": config.layout,
        "style": config.style,
        "transitions": dataset.n_transitions,
        "n_trajectories": len(dataset.lengths),
        "cell_coverage": cells,
        "tasks_covered_by_single_trajectory": tasks,
    }
    if config.style == "stitch":
        info["max_bfs_span"] = span
        info["segment_len"] = config.segment_len
    return info


def cmd_gen_data(config: RunConfig, out_path: str) -> dict:
    spec = maze.builtin_layout(config.layout)
    dataset = _generate_dataset(config, spec)
    datamod.write_dataset(dataset, out_path)
    info = _dataset_manifest(config, spec, dataset)
    info["config_hash"] = config_hash(config)
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(info, indent=2) + "\n")
    print(f"wrote {dataset.n_transitions} transitions "
          f"({len(dataset.lengths)} trajectories) to {out_path}")
    print(f"free-cell coverage: {info['cell_coverage']:.3f}")
    if "max_bfs_span" in info:
        print(f"max single-trajectory span: {info['max_bfs_span']} cells")
    return info


def _protocol_steps(total: int) -> list[int]:
    return sorted({int(round(f * total)) for f in (0.8, 0.9, 1.0)})


def _every(period: int, total: int) -> set[int]:
    """The protocol steps and, if period > 0, its multiples up to total."""
    extra = range(period, total + 1, period) if period > 0 else ()
    return set(_protocol_steps(total)).union(extra)


# CSV schemas: ordered {column: example of the column's type}
_METRICS = dict.fromkeys(trainmod.METRIC_FIELDS, 0.0) | {"step": 0}
_CELL = {"arch": "", "hierarchical": False, "continuity_weight": 0.0,
         "style": ""}
_RUNS = _CELL | {"seed": 0, "success": 0.0, "alignment": 0.0, "kendall": 0.0,
                 "status": ""}
_SUMMARY = _CELL | {"n_seeds": 0, "n_ok": 0, "success_mean": 0.0,
                    "success_std": 0.0, "alignment_mean": 0.0,
                    "alignment_std": 0.0, "kendall_mean": 0.0,
                    "kendall_std": 0.0}


def cmd_train(config: RunConfig, dataset: datamod.Dataset) -> dict:
    """Train one agent on an already-read dataset; write the run directory.

    The train verb passes data.read_dataset of its --data file; the ablate
    grid passes the copy it read back from its own dataset file.
    """
    spec = maze.builtin_layout(config.layout)
    if dataset.state_dim != maze.POINT_DIM or dataset.action_dim != maze.POINT_DIM:
        raise GraphError(f"dataset dims ({dataset.state_dim}, "
                         f"{dataset.action_dim}) do not match the layout")
    datamod.state_cells(dataset, spec)  # a dataset of another layout
    finite = np.isfinite(dataset.actions).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteError(f"dataset transition {i} has a non-finite action "
                             f"{tuple(dataset.actions[i].tolist())}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = config.train
    state = trainmod.init_learner(cfg, spec)
    batch_rng = np.random.default_rng([cfg.seed, 1])
    total = cfg.total_steps
    protocol = _protocol_steps(total)
    eval_at = _every(config.eval_every, total)
    ckpt_at = _every(config.checkpoint_every, total)
    manifest = {
        "command": "train",
        "config_hash": config_hash(config),
        "seed": cfg.seed,
        "version": __version__,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }

    reports, metrics_rows, error = [], [], None
    try:
        for step in range(total + 1):  # step 0 trains nothing
            if step:
                batch = datamod.sample_batch(
                    dataset, cfg.batch_size, cfg.value_goal_ratios,
                    cfg.policy_goal_ratios, cfg.discount, cfg.subgoal_steps,
                    spec.goal_radius, batch_rng)
                state, metrics = trainmod.train_step(state, batch)
                if step % config.metrics_every == 0 or step == total:
                    metrics_rows.append(metrics)
            if step in eval_at:
                reports.append(evalmod.evaluate(
                    state, spec, spec.tasks, config.eval_trials,
                    np.random.default_rng([cfg.seed, 2, step])))
            if step in ckpt_at:
                write_tensors(trainmod.state_tree(state), out / f"ckpt_{step:08d}.txt")
    except NonFiniteError as err:
        error = str(err)
        write_tensors(trainmod.state_tree(state),
                      out / f"ckpt_abort_{state.step:08d}.txt")

    (out / "metrics.csv").write_text(
        evalmod.table_to_csv(_METRICS, metrics_rows))
    (out / "report.csv").write_text(evalmod.report_to_csv(reports))
    manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if error is None:  # the last report is the protocol's last step
        success = [r.aggregate_success for r in reports
                   if r.checkpoint_step in protocol]
        manifest["final_eval"] = {
            "protocol_steps": protocol,
            "protocol_success": success,
            "success": float(np.mean(success)),
            "final_kendall": reports[-1].mean_kendall,
            "final_alignment": reports[-1].mean_alignment,
        }
    else:
        manifest["error"] = error
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if error is not None:
        raise NonFiniteError(error)
    print(f"trained {total} steps; protocol success "
          f"{manifest['final_eval']['success']:.3f}; outputs in {out}")
    return manifest


def _load_learner(config: RunConfig, ckpt_path: str) -> tuple:
    spec = maze.builtin_layout(config.layout)
    state = trainmod.init_learner(config.train, spec)
    trainmod.load_state_tree(state, read_tensors(ckpt_path))
    return spec, state


def cmd_eval(config: RunConfig, ckpt_path: str, out_path: str) -> evalmod.EvalReport:
    spec, state = _load_learner(config, ckpt_path)
    rng = np.random.default_rng([config.train.seed, 2, state.step])
    report = evalmod.evaluate(state, spec, spec.tasks, config.eval_trials, rng)
    Path(out_path).write_text(evalmod.report_to_csv([report]))
    print(f"step {report.checkpoint_step}: success "
          f"{report.aggregate_success:.3f}, kendall {report.mean_kendall:.3f}, "
          f"alignment {report.mean_alignment:.3f}")
    return report


def read_summary_csv(text: str) -> list[dict]:
    return evalmod.table_from_csv("summary", _SUMMARY, text)


def read_runs_csv(text: str) -> list[dict]:
    return evalmod.table_from_csv("runs", _RUNS, text)


def cmd_ablate(config: RunConfig, out_dir: str) -> list[dict]:
    """Run the grid end to end: per-seed rows plus per-cell aggregates.

    Each style's dataset is collected straight into its store, written once
    to the grid directory and read back once, block by block, so every cell
    of that style trains on exactly the file it leaves behind. The collected
    store is dropped before the read. An empty grid tuple is a ConfigError,
    raised before anything is written.
    """
    for key in _KEYS:
        if key.startswith("grid.") and not getattr(*_field(config, key)):
            raise ConfigError(f"{key} is empty: the grid has no runs")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = maze.builtin_layout(config.layout)
    datasets = {}
    for style in config.grid_styles:
        path = out / f"dataset_{config.layout}_{style}.dset"
        datamod.write_dataset(
            _generate_dataset(replace_style(config, style), spec), path)
        datasets[style] = datamod.read_dataset(path)

    rows, runs = [], []
    for kind, hier, wc, style in itertools.product(
            config.grid_arch_kinds, config.grid_hierarchical,
            config.grid_continuity, config.grid_styles):
        rows.append(_run_cell(config, kind, hier, wc, style, datasets[style],
                              out, runs))
    (out / "runs.csv").write_text(evalmod.table_to_csv(_RUNS, runs))
    (out / "summary.csv").write_text(evalmod.table_to_csv(_SUMMARY, rows))
    print(f"{len(rows)} grid cells ({len(runs)} runs) written "
          f"to {out / 'summary.csv'}")
    return rows


def replace_style(config: RunConfig, style: str) -> RunConfig:
    clone = copy.deepcopy(config)
    clone.style = style
    clone._follow_style()
    return clone


def _cell_name(kind: str, hier: bool, wc: float) -> str:
    return f"{kind}_{'hier' if hier else 'flat'}_wc{wc:g}"


def _run_cell(config, kind, hier, wc, style, dataset, out: Path,
              runs: list[dict]) -> dict:
    """Train every seed of one grid cell; append its runs.csv rows to runs."""
    cell = {"arch": kind, "hierarchical": hier, "continuity_weight": wc,
            "style": style, "n_seeds": len(config.grid_seeds)}
    nan = float("nan")
    ok = []
    for seed in config.grid_seeds:
        run = replace_style(config, style)
        run.train = replace(run.train, arch_kind=kind, hierarchical=hier,
                            continuity_weight=wc, seed=seed)
        name = f"{_cell_name(kind, hier, wc)}_{style}_s{seed}"
        run.out_dir = str(out / name)
        try:
            manifest = cmd_train(run, dataset)
        except ValueError as err:
            print(f"cell {name} failed: {err}", file=sys.stderr)
            runs.append(cell | {"seed": seed, "success": nan, "alignment": nan,
                                "kendall": nan, "status": "failed"})
            continue
        final = manifest["final_eval"]
        ok.append({"success": final["success"],
                   "alignment": final["final_alignment"],
                   "kendall": final["final_kendall"]})
        runs.append(cell | ok[-1] | {"seed": seed, "status": "ok"})
    cell["n_ok"] = len(ok)
    for label in ("success", "alignment", "kendall"):
        vals = [r[label] for r in ok]
        cell[f"{label}_mean"] = float(np.mean(vals)) if vals else nan
        cell[f"{label}_std"] = float(np.std(vals)) if vals else nan
    return cell


def cmd_landscape(config: RunConfig, ckpt_path: str, out_path: str,
                  goal=None, task: int | None = None) -> None:
    spec, state = _load_learner(config, ckpt_path)
    if goal is None:
        if task is None:
            raise ConfigError("landscape needs --goal x,y or --task N")
        if not 0 <= task < len(spec.tasks):
            raise ConfigError(f"task index {task} out of range")
        goal = spec.tasks[task].goal
    if not maze.is_valid_state(spec, tuple(goal)):
        raise MazeError(f"goal {tuple(goal)} is not inside a free cell")
    grid = evalmod.value_landscape(evalmod.learner_value_fn(state), spec,
                                   tuple(goal), config.landscape_resolution)
    Path(out_path).write_text(evalmod.landscape_to_csv(grid))
    print(f"wrote {len(grid.values)} landscape samples to {out_path}")


# ---- entry point ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mazegcrl",
        description="Offline goal-conditioned RL on point mazes")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", action="append", default=[],
                       help="config file with key=value lines (repeatable)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       help="single config override (repeatable)")

    p = sub.add_parser("gen-data", help="collect an offline dataset")
    common(p)
    p.add_argument("--out", required=True, help="dataset output path")

    p = sub.add_parser("train", help="train one agent on a dataset file")
    common(p)
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", help="output directory (overrides run.out_dir)")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="report CSV path")

    p = sub.add_parser("ablate", help="run a configuration grid")
    common(p)
    p.add_argument("--out", required=True, help="grid output directory")

    p = sub.add_parser("landscape", help="export a value landscape CSV")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--goal", help="goal as x,y")
    p.add_argument("--task", type=int, help="canonical task index")
    return parser


def _dispatch(args) -> int:
    config = load_config(args.config, args.set)
    if args.verb == "gen-data":
        cmd_gen_data(config, args.out)
    elif args.verb == "train":
        if args.out:
            config.out_dir = args.out
        cmd_train(config, datamod.read_dataset(args.data))
    elif args.verb == "eval":
        cmd_eval(config, args.ckpt, args.out)
    elif args.verb == "ablate":
        cmd_ablate(config, args.out)
    elif args.verb == "landscape":
        goal = (None if args.goal is None
                else evalmod.parse_value(args.goal, (0.0,)))
        if goal is not None and len(goal) != 2:
            raise ConfigError("--goal must be x,y")
        if goal is not None and not np.isfinite(goal).all():
            raise ConfigError(f"--goal must be finite, got {args.goal}")
        cmd_landscape(config, args.ckpt, args.out, goal=goal, task=args.task)
    return 0


# exception type -> the category of main's stderr line; the first match wins
_CATEGORIES = ((ConfigError, "config"), (OSError, "io"), (MazeError, "env"),
               (NonFiniteError, "numeric"), (GraphError, "dims"),
               (ValueError, "config"))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        if err.code not in (0, None):
            print("usage: bad arguments", file=sys.stderr)
            return 2
        return 0
    try:
        return _dispatch(args)
    except (OSError, ValueError) as err:
        category = next(c for kind, c in _CATEGORIES if isinstance(err, kind))
        print(f"{category}: {err}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
