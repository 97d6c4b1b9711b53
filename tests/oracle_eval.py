"""The per-task ``evaluate`` the library shipped before its batched rollout.

A test-only reference: each task rolls its trials out on its own, and each
trial steps through the scalar ``maze.step``. The current ``evaluate`` must
reproduce its report exactly. Its start jitter, temporal alignment and
landscape sample points are the library's per-trial and per-cell loops from
before the vectorized free-cell ids, verbatim, except that the alignment reads
the (H, W) BFS grid of ``oracle_collect.distance_field``; its reference paths
walk ``oracle_collect.next_cell`` one hop at a time, as the library did
before ``maze.next_hop_table``.
"""

from __future__ import annotations

import numpy as np

from mazegcrl import maze
from mazegcrl.evaluation import (
    START_JITTER_CELLS,
    EvalReport,
    _spearman,
    act_batch,
    kendall_consistency,
    learner_value_fn,
)
from mazegcrl.maze import MazeSpec, Task
from mazegcrl.training import LearnerState
from tests.oracle_collect import distance_field, next_cell


def optimal_trajectory(spec: MazeSpec, task: Task) -> np.ndarray:
    """Cell centres of the shortest cell path, then the goal state itself."""
    path, goal = [maze.cell_of(spec, task.start)], maze.cell_of(spec, task.goal)
    while (cell := next_cell(spec, path[-1], goal)) != path[-1]:
        path.append(cell)
    states = [maze.cell_center(spec, c) for c in path[:-1]] + [task.goal]
    return np.asarray(states, dtype=np.float64)


def _jittered_starts(spec: MazeSpec, start, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    jitter = rng.uniform(-START_JITTER_CELLS, START_JITTER_CELLS, size=(n, 2))
    starts = np.asarray(start, dtype=np.float64) + jitter * spec.cell_size
    home = maze.cell_of(spec, start)
    for i in range(n):
        s = (float(starts[i, 0]), float(starts[i, 1]))
        if maze.cell_of(spec, s) != home or not maze.is_valid_state(spec, s):
            starts[i] = start
    return starts


def _free_sample_points(spec: MazeSpec, resolution: int):
    sub = (np.arange(resolution) + 0.5) / resolution
    xs, ys = [], []
    for r, c in spec.free_cells():
        for i in range(resolution):
            for j in range(resolution):
                xs.append((c + sub[j]) * spec.cell_size)
                ys.append((r + sub[i]) * spec.cell_size)
    return np.array(xs), np.array(ys)


def temporal_alignment(value_fn, spec: MazeSpec, goal) -> float:
    """Spearman correlation of V(cell center, g) with -BFS(cell, goal cell)."""
    cells = spec.free_cells()
    if len(cells) < 2:
        raise ValueError("temporal_alignment needs at least two free cells")
    centers = np.array([maze.cell_center(spec, c) for c in cells])
    vals = value_fn(centers, goal)
    goal_cell = maze.cell_of(spec, goal)
    field = distance_field(spec, goal_cell)
    oracle = -np.array([field[c] for c in cells], dtype=np.float64)
    return _spearman(vals, oracle)


def rollout_success(actor, spec: MazeSpec, starts: np.ndarray,
                    goal, max_steps: int) -> np.ndarray:
    """Roll every trial forward under actor(positions, goals) -> actions."""
    n = len(starts)
    pos = starts.copy()
    goal_arr = np.broadcast_to(np.asarray(goal, dtype=np.float64), (n, 2)).copy()
    done = np.linalg.norm(pos - goal_arr, axis=1) <= spec.goal_radius
    for _ in range(max_steps):
        if done.all():
            break
        actions = actor(pos, goal_arr)
        for i in range(n):
            if done[i]:
                continue
            pos[i] = maze.step(spec, (pos[i, 0], pos[i, 1]),
                               (actions[i, 0], actions[i, 1]))
        done |= np.linalg.norm(pos - goal_arr, axis=1) <= spec.goal_radius
    return done


def evaluate(state: LearnerState, spec: MazeSpec, tasks: tuple[Task, ...],
             trials_per_task: int, rng: np.random.Generator) -> EvalReport:
    """Success rates plus per-task order-consistency diagnostics."""
    if trials_per_task < 1:
        raise ValueError("trials_per_task must be at least 1")
    value_fn = learner_value_fn(state)
    actor = lambda pos, goals: act_batch(state, pos, goals)
    success, kendall, alignment = [], [], []
    for task in tasks:
        starts = _jittered_starts(spec, task.start, trials_per_task, rng)
        done = rollout_success(actor, spec, starts, task.goal,
                               spec.max_episode_steps)
        success.append(float(done.mean()))
        reference = optimal_trajectory(spec, task)
        kendall.append(kendall_consistency(value_fn, reference, task.goal))
        alignment.append(temporal_alignment(value_fn, spec, task.goal))
    return EvalReport(checkpoint_step=state.step, task_success=success,
                      task_kendall=kendall, task_alignment=alignment)
