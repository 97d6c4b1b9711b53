"""Offline dataset collection and the goal-sampling distributions.

Two collection styles mirror the benchmark protocols: ``navigate`` produces
long trajectories from a noisy expert that re-targets a random free cell on
every arrival, ``stitch`` produces many short segments whose pairwise
temporal span is bounded by construction, so long tasks are only solvable by
composing segments. Both run one rollout loop that inlines ``maze.step``
and ``maze.reward`` and makes exactly these ``rng`` draws, whose order fixes
the dataset bytes: a ``random_free_cell`` start; a ``random_free_cell`` goal
(navigate) or one ``integers`` over the start's goal candidates (stitch);
two ``random()`` a step, angle then radius, only when the noise scale is
positive; on navigate a ``random_free_cell`` goal after each arrival.

Goal sampling mixes four conditionals per transition (s_t in a trajectory
s_0..s_T): the current state itself, a uniform future in-trajectory state
s_k with k ~ U{min(t, T-1), ..., T-1}, a geometric lookahead s_{min(t+k, T-1)}
with k ~ Geom(1 - discount) on {1, 2, ...}, and a uniform state from the
whole dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import maze
from .maze import MazeSpec

__all__ = [
    "Trajectory",
    "Dataset",
    "GoalSampleRatios",
    "GOAL_SOURCES",
    "VALUE_GOAL_RATIOS_DEFAULT",
    "VALUE_GOAL_RATIOS_STITCH",
    "POLICY_GOAL_RATIOS_DEFAULT",
    "collect_navigate",
    "collect_stitch",
    "sample_goals",
    "sample_batch",
    "cell_coverage",
    "trajectory_span",
    "task_covered",
    "write_dataset",
    "read_dataset",
    "dataset_to_text",
    "dataset_from_text",
]

GOAL_SOURCES = ("cur", "traj", "geom", "rand")

VALUE_GOAL_RATIOS_DEFAULT = (0.2, 0.0, 0.5, 0.3)
VALUE_GOAL_RATIOS_STITCH = (0.2, 0.3, 0.0, 0.5)
POLICY_GOAL_RATIOS_DEFAULT = (0.0, 0.5, 0.0, 0.5)


class GoalSampleRatios(NamedTuple):
    cur: float
    traj: float
    geom: float
    rand: float

    def validate(self) -> "GoalSampleRatios":
        if any(r < 0 for r in self):
            raise ValueError(f"goal ratios must be nonnegative, got {tuple(self)}")
        if abs(sum(self) - 1.0) > 1e-9:
            raise ValueError(f"goal ratios must sum to 1, got {tuple(self)}")
        return self


@dataclass
class Trajectory:
    """States s_0..s_T and the T actions between them."""

    states: np.ndarray   # (T+1, state_dim)
    actions: np.ndarray  # (T, action_dim)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        if self.states.ndim != 2 or self.actions.ndim != 2:
            raise ValueError("trajectory arrays must be matrices")
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("need exactly one more state than actions")

    @property
    def length(self) -> int:
        return len(self.actions)


@dataclass
class Dataset:
    """Trajectory list plus a flat index over every transition."""

    trajectories: list[Trajectory]
    trans_traj: np.ndarray = field(init=False)    # transition -> trajectory id
    trans_step: np.ndarray = field(init=False)    # transition -> step t
    _all_states: np.ndarray = field(init=False)   # concatenated states
    _all_actions: np.ndarray = field(init=False)  # concatenated actions
    _state_offset: np.ndarray = field(init=False) # trajectory -> index of s_0
    _action_offset: np.ndarray = field(init=False)
    _traj_len: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.trajectories:
            raise ValueError("dataset must contain at least one trajectory")
        lens = np.array([t.length for t in self.trajectories], dtype=np.int64)
        if (lens == 0).any():
            raise ValueError("empty trajectory in dataset")
        self._traj_len = lens
        self._state_offset = np.concatenate([[0], np.cumsum(lens + 1)[:-1]])
        self._action_offset = np.concatenate([[0], np.cumsum(lens)[:-1]])
        self._all_states = np.concatenate([t.states for t in self.trajectories])
        self._all_actions = np.concatenate([t.actions for t in self.trajectories])
        self.trans_traj = np.repeat(np.arange(len(lens)), lens)
        self.trans_step = np.concatenate([np.arange(n) for n in lens])

    @property
    def n_transitions(self) -> int:
        return int(self._traj_len.sum())

    @property
    def state_dim(self) -> int:
        return self.trajectories[0].states.shape[1]

    @property
    def action_dim(self) -> int:
        return self.trajectories[0].actions.shape[1]


# ---- collection ----------------------------------------------------------------


def collect_navigate(spec: MazeSpec, n_transitions: int, noise_scale: float,
                     seed: int) -> Dataset:
    """Long trajectories: re-target a random free cell on each arrival."""
    return _collect(spec, n_transitions, noise_scale, seed, 0)


def collect_stitch(spec: MazeSpec, n_transitions: int, segment_len: int,
                   noise_scale: float, seed: int) -> Dataset:
    """Short segments whose pairwise cell span never exceeds segment_len.

    Each segment targets a goal at BFS distance in [1, segment_len] from a
    random start; the rollout ends on arrival, on budget exhaustion, or just
    before a step that would stretch the visited-cell span past the bound.
    """
    if segment_len < 2:
        raise ValueError("segment_len must be at least 2")
    return _collect(spec, n_transitions, noise_scale, seed, segment_len)


def _collect(spec: MazeSpec, n_transitions: int, noise_scale: float, seed: int,
             segment_len: int) -> Dataset:
    """Noisy-expert rollouts from cell centres: navigate when segment_len is 0.

    Each step aims a unit vector at the next shortest-path cell's centre (the
    goal's in the goal cell), adds disk noise, clamps each axis to [-1, 1]. A
    stitch step that would stretch the span ends the segment after its draws.
    """
    if n_transitions <= 0:
        raise ValueError("n_transitions must be positive")
    rng = np.random.default_rng(seed)
    free, cs, step_len = spec._free_set, spec.cell_size, spec.step_length
    arrive, draw = spec.goal_radius, rng.random
    floor, hypot = math.floor, math.hypot
    hops: dict = {}        # goal cell -> {cell: next shortest-path cell centre}
    candidates: dict = {}  # stitch start cell -> goal cells within segment_len
    trajectories, total = [], 0
    while total < n_transitions:
        cell = r, c = maze.random_free_cell(spec, rng)
        if segment_len:
            fields = {cell: maze.distance_field(spec, cell)}  # visited cells
            near = candidates.get(cell)
            if near is None:
                near = candidates[cell] = [g for g in spec.free_cells()
                                           if 1 <= fields[cell][g] <= segment_len]
            goal_cell = near[int(rng.integers(len(near)))]
            span, n_steps = 0, 4 * segment_len
        else:
            goal_cell = maze.random_free_cell(spec, rng)
            fields, n_steps = None, spec.max_episode_steps
        x, y = maze.cell_center(spec, cell)
        gx, gy = maze.cell_center(spec, goal_cell)
        to_goal = hops.setdefault(goal_cell, {})
        states, actions = [(x, y)], []
        for _ in range(n_steps):
            cur = (r, c)
            target = to_goal.get(cur)
            if target is None:
                target = to_goal[cur] = maze.cell_center(
                    spec, maze.next_cell(spec, cur, goal_cell))
            dx = target[0] - x
            dy = target[1] - y
            norm = hypot(dx, dy)
            if norm > 1e-12:
                dx /= norm
                dy /= norm
            else:
                dx = dy = 0.0
            if noise_scale > 0.0:
                angle = draw() * 2.0 * math.pi
                radius = noise_scale * math.sqrt(draw())
                dx += radius * math.cos(angle)
                dy += radius * math.sin(angle)
            # min(1, max(-1, d)), NaN to -1 included
            m = dx if dx > -1.0 else -1.0
            ax = m if m < 1.0 else 1.0
            m = dy if dy > -1.0 else -1.0
            ay = m if m < 1.0 else 1.0
            nx = x + step_len * ax  # x first, then y from the post-x position
            col = floor(nx / cs)
            if (r, col) in free:
                x, c = nx, col
            ny = y + step_len * ay
            row = floor(ny / cs)
            if (row, c) in free:
                y, r = ny, row
            if fields is not None and (r, c) not in fields:  # a new cell
                new = (r, c)
                span = max(span, max(f[new] for f in fields.values()))
                if span > segment_len:
                    break
                fields[new] = maze.distance_field(spec, new)
            states.append((x, y))
            actions.append((ax, ay))
            if hypot(x - gx, y - gy) <= arrive:
                if fields is not None:
                    break
                goal_cell = maze.random_free_cell(spec, rng)
                gx, gy = maze.cell_center(spec, goal_cell)
                to_goal = hops.setdefault(goal_cell, {})
        if actions or fields is None:  # an empty navigate rollout is an error
            trajectories.append(Trajectory(np.array(states), np.array(actions)))
            total += len(actions)
    return Dataset(trajectories)


# ---- goal sampling ---------------------------------------------------------------


def sample_goals(dataset: Dataset, traj_ids: np.ndarray, steps: np.ndarray,
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


def sample_batch(dataset: Dataset, batch_size: int,
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


# ---- dataset diagnostics ------------------------------------------------------------


def _visited_cells(spec: MazeSpec, traj: Trajectory) -> set:
    cols = np.floor(traj.states[:, 0] / spec.cell_size).astype(int)
    rows = np.floor(traj.states[:, 1] / spec.cell_size).astype(int)
    return set(zip(rows.tolist(), cols.tolist()))


def cell_coverage(dataset: Dataset, spec: MazeSpec) -> float:
    """Fraction of free cells visited by any state in the dataset."""
    visited = set()
    for traj in dataset.trajectories:
        visited |= _visited_cells(spec, traj)
    return len(visited) / len(spec.free_cells())


def trajectory_span(spec: MazeSpec, traj: Trajectory) -> int:
    """Largest BFS distance between any two cells visited by one trajectory."""
    cells = sorted(_visited_cells(spec, traj))
    span = 0
    for i, a in enumerate(cells):
        dist = maze.distance_field(spec, a)
        for b in cells[i + 1:]:
            span = max(span, int(dist[b]))
    return span


def task_covered(dataset: Dataset, spec: MazeSpec, task: maze.Task) -> bool:
    """True if one single trajectory visits both the start and goal cells."""
    start_cell = maze.cell_of(spec, task.start)
    goal_cell = maze.cell_of(spec, task.goal)
    for traj in dataset.trajectories:
        cells = _visited_cells(spec, traj)
        if start_cell in cells and goal_cell in cells:
            return True
    return False


# ---- file format -------------------------------------------------------------------


def _dataset_blocks(dataset: Dataset):
    """Header line, then one string per trajectory, each formatted in one call."""
    sd, ad = dataset.state_dim, dataset.action_dim
    yield f"GCRL-DSET v1 {sd} {ad} {len(dataset.trajectories)}\n"
    state_row = " ".join(["%.17g"] * sd) + "\n"
    pair_rows = state_row + " ".join(["%.17g"] * ad) + "\n"
    for traj in dataset.trajectories:
        # rows s_0, a_0, s_1, a_1, ..., s_T in file order
        flat = np.concatenate((np.hstack((traj.states[:-1], traj.actions)).ravel(),
                               traj.states[-1]))
        yield (f"T {traj.length}\n"
               + (pair_rows * traj.length + state_row) % tuple(flat.tolist()))


def dataset_to_text(dataset: Dataset) -> str:
    return "".join(_dataset_blocks(dataset))


def dataset_from_text(text: str) -> Dataset:
    lines = text.strip().split("\n")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "GCRL-DSET" or head[1] != "v1":
        raise ValueError("bad dataset header")
    state_dim, action_dim, n_traj = int(head[2]), int(head[3]), int(head[4])
    pos = 1
    trajectories = []
    for i in range(n_traj):
        if pos >= len(lines):
            raise ValueError(f"dataset ends at line {len(lines)}, before "
                             f"trajectory {i} of {n_traj}")
        marker = lines[pos].split()
        if len(marker) != 2 or marker[0] != "T":
            raise ValueError(f"expected trajectory marker at line {pos + 1}")
        length = int(marker[1])
        pos += 1
        end = pos + 2 * length + 1
        if end > len(lines):
            raise ValueError(f"dataset ends at line {len(lines)}, inside "
                             f"trajectory {i} (marker at line {pos})")
        rows = [line.split() for line in lines[pos:end]]
        widths = [state_dim, action_dim] * length + [state_dim]
        if list(map(len, rows)) != widths:
            k = next(k for k, (row, w) in enumerate(zip(rows, widths))
                     if len(row) != w)
            raise ValueError(f"line {pos + k + 1} has {len(rows[k])} numbers, "
                             f"expected {widths[k]}")
        flat = np.array(list(map(float, chain.from_iterable(rows))))
        n_pairs = length * (state_dim + action_dim)
        pairs = flat[:n_pairs].reshape(length, state_dim + action_dim)
        states = np.vstack((pairs[:, :state_dim], flat[n_pairs:]))
        trajectories.append(Trajectory(states, pairs[:, state_dim:]))
        pos = end
    return Dataset(trajectories)


def write_dataset(dataset: Dataset, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_dataset_blocks(dataset))


def read_dataset(path) -> Dataset:
    with open(path) as fh:
        return dataset_from_text(fh.read())
