"""The per-task ``evaluate`` the library shipped before its batched rollout.

A test-only reference: each task rolls its trials out on its own, and each
trial steps through the scalar ``maze.step``. The current ``evaluate`` must
reproduce its report exactly.
"""

from __future__ import annotations

import numpy as np

from mazegcrl import maze
from mazegcrl.evaluation import (
    EvalReport,
    _jittered_starts,
    act_batch,
    kendall_consistency,
    learner_value_fn,
    temporal_alignment,
)
from mazegcrl.maze import MazeSpec, Task
from mazegcrl.training import LearnerState


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
        reference = maze.optimal_trajectory(spec, task)
        kendall.append(kendall_consistency(value_fn, reference, task.goal))
        alignment.append(temporal_alignment(value_fn, spec, task.goal))
    return EvalReport(checkpoint_step=state.step, task_success=success,
                      task_kendall=kendall, task_alignment=alignment)
