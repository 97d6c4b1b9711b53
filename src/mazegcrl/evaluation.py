"""Evaluation rollouts and value-quality diagnostics.

Rollouts are deterministic: policies act through their means and the
dynamics are deterministic, so trials differ only through a small start
jitter drawn from the caller's RNG. ``evaluate`` rolls every trial of
every task out together: one actor call and one ``maze.step_batch`` per
time step. Finished trials are frozen in place rather than dropped, so the
actor always sees the same batch shape; a matrix product's bits for a row
can depend on how many rows the BLAS kernel is handed, in float32 as in
float64, so shrinking the batch could change actions. The actor and the
value run in the learner's dtype; positions stay float64.

Value quality is scalarized two ways:
Kendall order consistency counts strictly increasing value pairs along a
shortest cell path to the goal, and the temporal-alignment score is the
Spearman rank correlation between the value landscape over free cells and
the negated BFS distance oracle. The correlation is ``np.corrcoef`` of the
two samples' average ranks (ties share the mean of the ranks they span),
computed as ``scipy.stats.spearmanr`` computes it, so it equals scipy's bit
for bit without importing SciPy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import maze
from .maze import MazeSpec, Task
from .training import LearnerState, policy_mean
from .values import value

__all__ = [
    "EvalReport",
    "LandscapeGrid",
    "act_batch",
    "evaluate",
    "kendall_consistency",
    "value_landscape",
    "temporal_alignment",
    "learner_value_fn",
    "report_to_csv",
    "report_from_csv",
    "landscape_to_csv",
    "format_value",
    "parse_value",
    "table_to_csv",
    "table_from_csv",
]

START_JITTER_CELLS = 0.25


@dataclass
class EvalReport:
    checkpoint_step: int
    task_success: list[float]
    task_kendall: list[float]
    task_alignment: list[float]

    @property
    def aggregate_success(self) -> float:
        return float(np.mean(self.task_success))

    @property
    def mean_kendall(self) -> float:
        return float(np.mean(self.task_kendall))

    @property
    def mean_alignment(self) -> float:
        return float(np.mean(self.task_alignment))


@dataclass
class LandscapeGrid:
    xs: np.ndarray           # coordinates of the free sample points, row-major
    ys: np.ndarray
    values: np.ndarray


def act_batch(state: LearnerState, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Deterministic (mean) actions for a batch of state/goal pairs."""
    s = state.normalize(np.asarray(s, dtype=np.float64))
    g = state.normalize(np.asarray(g, dtype=np.float64))
    if state.config.hierarchical:
        w = policy_mean(state.high, np.concatenate([s, g], axis=1))
        a = policy_mean(state.low, np.concatenate([s, w], axis=1))
    else:
        a = policy_mean(state.low, np.concatenate([s, g], axis=1))
    return np.clip(a, -1.0, 1.0)


def learner_value_fn(state: LearnerState):
    """V(s, g) callable over batches, with the learner's input normalization."""

    def fn(states: np.ndarray, goal) -> np.ndarray:
        states = np.asarray(states, dtype=np.float64)
        goals = np.broadcast_to(np.asarray(goal, dtype=np.float64),
                                states.shape).copy()
        return value(state.arch, state.rep, state.normalize(states),
                     state.normalize(goals))

    return fn


def _jittered_starts(spec: MazeSpec, start, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """n jittered copies of start; one outside the start's free cell is the start."""
    jitter = rng.uniform(-START_JITTER_CELLS, START_JITTER_CELLS, size=(n, 2))
    start = np.asarray(start, dtype=np.float64)
    starts = start + jitter * spec.cell_size
    home = maze.cell_ids(spec, *start)  # -1: a start in a wall is never jittered
    starts[(maze.cell_ids(spec, *starts.T) != home) | (home < 0)] = start
    return starts


def _rollout_success(actor, spec: MazeSpec, starts: np.ndarray,
                     goals, max_steps: int) -> np.ndarray:
    """Roll every trial forward under actor(positions, goals) -> actions.

    ``goals`` is one goal for all rows or one per row, so trials of many
    tasks share a rollout. The actor sees every row at every step, finished
    ones included, and ``np.where`` keeps finished rows in place: a fixed
    batch shape keeps each row's actions independent of when others finish.
    """
    pos = np.array(starts, dtype=np.float64)
    goals = np.broadcast_to(np.asarray(goals, dtype=np.float64), pos.shape)
    done = np.linalg.norm(pos - goals, axis=1) <= spec.goal_radius
    for _ in range(max_steps):
        if done.all():
            break
        moved = maze.step_batch(spec, pos, actor(pos, goals))
        pos = np.where(done[:, None], pos, moved)
        done |= np.linalg.norm(pos - goals, axis=1) <= spec.goal_radius
    return done


def evaluate(state: LearnerState, spec: MazeSpec, tasks: tuple[Task, ...],
             trials_per_task: int, rng: np.random.Generator) -> EvalReport:
    """Success rates plus per-task order-consistency diagnostics.

    Every task's starts are drawn first, in task order, then all trials
    roll out in one batch of tasks x trials rows.
    """
    if trials_per_task < 1:
        raise ValueError("trials_per_task must be at least 1")
    value_fn = learner_value_fn(state)
    actor = lambda pos, goals: act_batch(state, pos, goals)
    starts = np.array([_jittered_starts(spec, task.start, trials_per_task, rng)
                       for task in tasks]).reshape(-1, 2)
    goals = np.repeat(np.array([task.goal for task in tasks],
                               dtype=np.float64).reshape(-1, 2),
                      trials_per_task, axis=0)
    done = _rollout_success(actor, spec, starts, goals, spec.max_episode_steps)
    success = [float(d.mean())
               for d in done.reshape(len(tasks), trials_per_task)]
    kendall, alignment = [], []
    for task in tasks:
        reference = maze.optimal_trajectory(spec, task)
        kendall.append(kendall_consistency(value_fn, reference, task.goal))
        alignment.append(temporal_alignment(value_fn, spec, task.goal))
    return EvalReport(checkpoint_step=state.step, task_success=success,
                      task_kendall=kendall, task_alignment=alignment)


def kendall_consistency(value_fn, states: np.ndarray, goal) -> float:
    """Fraction of state pairs along a reference path ordered like time.

    Strict inequality only, so exact ties count against consistency; an
    empty path (start already at the goal) is vacuously consistent.
    """
    horizon = len(states) - 1
    if horizon == 0:
        return 1.0
    vals = value_fn(states, goal)
    later_higher = vals[None, :] > vals[:, None]
    count = int(np.triu(later_higher, k=1).sum())
    return 2.0 * count / (horizon * (horizon + 1))


def _free_sample_points(spec: MazeSpec, resolution: int):
    """Each free cell's resolution^2 sub-cell centres, cell by cell, row-major."""
    sub = (np.arange(resolution) + 0.5) / resolution
    i, j = np.divmod(np.arange(resolution * resolution), resolution)  # sub-row, -col
    rows, cols = np.nonzero(~spec.walls)  # free_cells() order
    return (((cols[:, None] + sub[j]) * spec.cell_size).ravel(),
            ((rows[:, None] + sub[i]) * spec.cell_size).ravel())


def value_landscape(value_fn, spec: MazeSpec, goal,
                    resolution: int = 1) -> LandscapeGrid:
    """V over a uniform sub-grid of the free cells; walls stay absent."""
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    xs, ys = _free_sample_points(spec, resolution)
    vals = value_fn(np.stack([xs, ys], axis=1), goal)
    if not np.all(np.isfinite(vals)):
        raise ValueError("value landscape contains non-finite entries")
    return LandscapeGrid(xs=xs, ys=ys, values=vals)


def temporal_alignment(value_fn, spec: MazeSpec, goal) -> float:
    """Spearman correlation of V(cell center, g) with -BFS(cell, goal cell)."""
    if len(spec.free_cells()) < 2:
        raise ValueError("temporal_alignment needs at least two free cells")
    vals = value_fn(np.column_stack(_free_sample_points(spec, 1)), goal)  # centres
    field = maze.distance_field(spec, maze.cell_of(spec, goal))
    return _spearman(vals, -field.astype(np.float64))


def _spearman(a, b) -> float:
    """``scipy.stats.spearmanr(a, b).statistic`` of two 1-D samples, same bits.

    The samples hold at least two pairs. NaN for a constant sample (with
    scipy's warning) and for a sample holding NaN. The ranks reach
    ``np.corrcoef`` in scipy's (n, 2) Fortran-ordered layout; being exact
    halves, every sum over them is exact anyway.
    """
    x = np.column_stack((a, b))
    if (x[0] == x).all(axis=0).any():
        warnings.warn("An input array is constant; the correlation "
                      "coefficient is not defined.", RuntimeWarning,
                      stacklevel=2)
        return float("nan")
    if np.isnan(x).any():
        return float("nan")
    ranks = np.empty(x.shape, order="F")
    for column, rank in zip(x.T, ranks.T):  # ties share their mean rank
        order = np.argsort(column, kind="stable")
        ordered = column[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        counts = np.diff(np.r_[starts, len(column)])
        rank[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


# ---- text codec and CSV tables ----------------------------------------------------


def format_value(value) -> str:
    """Text of a config or CSV value: %.17g floats (NumPy's too), true/false,
    comma-joined tuples."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def parse_value(text: str, like):
    """format_value's text read as ``like``'s type; ``like[0]`` types a tuple."""
    if isinstance(like, tuple):  # a tuple of str drops blank items
        if isinstance(like[0], str):
            return tuple(x.strip() for x in text.split(",") if x.strip())
        return tuple(parse_value(x, like[0]) for x in text.split(","))
    if isinstance(like, bool):
        if text not in ("true", "false"):
            raise ValueError(f"expected true/false, got {text!r}")
        return text == "true"
    return type(like)(text)


def table_to_csv(schema: dict, rows) -> str:
    """CSV of dict rows under ``schema``, an ordered {column: example value}."""
    lines = [",".join(schema)]
    lines += [",".join(format_value(row[col]) for col in schema) for row in rows]
    return "\n".join(lines) + "\n"


def table_from_csv(kind: str, schema: dict, text: str) -> list[dict]:
    """Rows of a ``table_to_csv`` text; ``kind`` names the file in errors."""
    lines = text.strip().split("\n")
    if lines[0] != ",".join(schema):
        raise ValueError(f"bad {kind} header")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(schema):
            raise ValueError(f"{kind} line {number} has {len(cells)} cells, "
                             f"expected {len(schema)}")
        try:
            rows.append({col: parse_value(cell, like)
                         for (col, like), cell in zip(schema.items(), cells)})
        except ValueError as err:
            raise ValueError(f"{kind} line {number}: {err}") from None
    return rows


_REPORT = {"step": 0, "task_id": 0, "success_rate": 0.0, "kendall": 0.0,
           "temporal_alignment": 0.0}
_LANDSCAPE = {"x": 0.0, "y": 0.0, "value": 0.0}


def report_to_csv(reports: list[EvalReport]) -> str:
    return table_to_csv(_REPORT, (
        dict(zip(_REPORT, (rep.checkpoint_step, i) + row))
        for rep in reports
        for i, row in enumerate(zip(rep.task_success, rep.task_kendall,
                                    rep.task_alignment))))


def report_from_csv(text: str) -> list[EvalReport]:
    by_step: dict[int, EvalReport] = {}
    for row in table_from_csv("report", _REPORT, text):
        step, task = row["step"], row["task_id"]
        rep = by_step.setdefault(step, EvalReport(step, [], [], []))
        if task != len(rep.task_success):
            raise ValueError(f"report row for step {step} has task id {task}, "
                             f"expected {len(rep.task_success)}")
        rep.task_success.append(row["success_rate"])
        rep.task_kendall.append(row["kendall"])
        rep.task_alignment.append(row["temporal_alignment"])
    return [by_step[k] for k in sorted(by_step)]


def landscape_to_csv(grid: LandscapeGrid) -> str:
    return table_to_csv(_LANDSCAPE, (
        dict(zip(_LANDSCAPE, point))
        for point in zip(grid.xs, grid.ys, grid.values)))
