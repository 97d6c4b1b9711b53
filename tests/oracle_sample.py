"""Goal sampling as it was before the flat transition index: test-only.

``sample_goals`` and ``sample_batch`` are verbatim copies of the functions
that read a (trajectory, step) pair per transition and per-trajectory offset
and length arrays. ``legacy`` derives those arrays from a dataset's
trajectories, so the library's batches can be compared with these draw for
draw and byte for byte.
"""

from types import SimpleNamespace

import numpy as np

from mazegcrl.data import GoalSampleRatios


def legacy(dataset) -> SimpleNamespace:
    """The old index of a dataset: built from its trajectories alone."""
    trajectories = dataset.trajectories
    lens = np.array([t.length for t in trajectories], dtype=np.int64)
    return SimpleNamespace(
        n_transitions=int(lens.sum()),
        _traj_len=lens,
        _state_offset=np.concatenate([[0], np.cumsum(lens + 1)[:-1]]),
        _action_offset=np.concatenate([[0], np.cumsum(lens)[:-1]]),
        _all_states=np.concatenate([t.states for t in trajectories]),
        _all_actions=np.concatenate([t.actions for t in trajectories]),
        trans_traj=np.repeat(np.arange(len(lens)), lens),
        trans_step=np.concatenate([np.arange(n) for n in lens]),
    )


def sample_goals(dataset, traj_ids: np.ndarray, steps: np.ndarray,
                 ratios: GoalSampleRatios, discount: float,
                 rng: np.random.Generator):
    """Vectorized goal draw for a batch of transition indices.

    Returns (goals, sources) where sources indexes into GOAL_SOURCES.
    """
    ratios = GoalSampleRatios(*ratios).validate()
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must lie in (0, 1)")
    n = len(traj_ids)
    lengths = dataset._traj_len[traj_ids]          # T per element
    offsets = dataset._state_offset[traj_ids]
    edges = np.cumsum(ratios)
    source = np.searchsorted(edges, rng.random(n), side="right")
    source = np.minimum(source, 3)
    state_idx = np.empty(n, dtype=np.int64)

    cur = source == 0
    state_idx[cur] = offsets[cur] + steps[cur]

    traj_mask = source == 1
    if traj_mask.any():
        lo = np.minimum(steps[traj_mask], lengths[traj_mask] - 1)
        width = lengths[traj_mask] - lo             # draws k in [lo, T-1]
        k = lo + np.floor(rng.random(int(traj_mask.sum())) * width).astype(np.int64)
        state_idx[traj_mask] = offsets[traj_mask] + k

    geom_mask = source == 2
    if geom_mask.any():
        k = rng.geometric(1.0 - discount, size=int(geom_mask.sum()))
        idx = np.minimum(steps[geom_mask] + k, lengths[geom_mask] - 1)
        state_idx[geom_mask] = offsets[geom_mask] + idx

    rand_mask = source == 3
    if rand_mask.any():
        j = rng.integers(dataset.n_transitions, size=int(rand_mask.sum()))
        state_idx[rand_mask] = (dataset._state_offset[dataset.trans_traj[j]]
                                + dataset.trans_step[j])

    return dataset._all_states[state_idx], source


def sample_batch(dataset, batch_size: int,
                 value_ratios: GoalSampleRatios,
                 policy_ratios: GoalSampleRatios,
                 discount: float, subgoal_steps: int, goal_radius: float,
                 rng: np.random.Generator) -> dict:
    """One training batch: transition, goals, subgoal, reward/done mask.

    Rewards and termination are computed against the value goal with the
    success radius applied uniformly, so a goal drawn at the current state
    always yields reward 0 and done.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if subgoal_steps < 1:
        raise ValueError("subgoal_steps must be at least 1")
    idx = rng.integers(dataset.n_transitions, size=batch_size)
    traj_ids = dataset.trans_traj[idx]
    steps = dataset.trans_step[idx]
    offsets = dataset._state_offset[traj_ids]
    lengths = dataset._traj_len[traj_ids]

    # integer-array indexing copies, so no row aliases the dataset
    obs = dataset._all_states[offsets + steps]
    next_obs = dataset._all_states[offsets + steps + 1]
    actions = dataset._all_actions[dataset._action_offset[traj_ids] + steps]

    value_goal, value_src = sample_goals(dataset, traj_ids, steps,
                                         value_ratios, discount, rng)
    policy_goal, policy_src = sample_goals(dataset, traj_ids, steps,
                                           policy_ratios, discount, rng)
    sub_idx = np.minimum(steps + subgoal_steps, lengths - 1)
    subgoal = dataset._all_states[offsets + sub_idx]

    j = rng.integers(dataset.n_transitions, size=batch_size)
    rand_goal = dataset._all_states[
        dataset._state_offset[dataset.trans_traj[j]] + dataset.trans_step[j]]

    dist = np.linalg.norm(obs - value_goal, axis=1)
    done = dist <= goal_radius
    rew = np.where(done, 0.0, -1.0)
    return {
        "obs": obs,
        "action": actions,
        "next_obs": next_obs,
        "value_goal": value_goal,
        "value_goal_src": value_src,
        "reward": rew,
        "done": done.astype(np.float64),
        "policy_goal": policy_goal,
        "policy_goal_src": policy_src,
        "subgoal": subgoal,
        "rand_goal": rand_goal,
    }
