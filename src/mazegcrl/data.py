"""Offline dataset collection and the goal-sampling distributions.

Two collection styles mirror the benchmark protocols: ``navigate`` produces
long trajectories from a noisy expert that re-targets a random free cell on
every arrival, ``stitch`` produces many short segments whose pairwise
temporal span is bounded by construction, so long tasks are only solvable by
composing segments. Both run one rollout loop that inlines ``maze.step``
and the goal-radius arrival test and makes exactly these ``rng`` draws,
whose order fixes the dataset bytes: one ``integers`` over the free-cell ids
for the start; one over the ids (navigate) or the start's goal candidates
(stitch) for the goal; two ``random()`` a step, angle then radius, only when
the noise scale is positive; on navigate one over the ids for a new goal
after each arrival. The doubles are drawn ahead, ``rng.random(2k)`` for the
next k <= ``NOISE_BLOCK`` steps of the rollout; before each integer draw the
generator's state from before the block is restored and the doubles used
are redrawn, so the stream, and every byte, is that of one ``random()`` a
double. The expert walks rows of ``maze.next_hop_table``; the stitch goal
candidates and span bound read rows of ``maze.hop_table``. The rollouts
append straight into the flat store that ``Dataset`` takes (``states``,
``actions`` and per-trajectory ``lengths``), as ``read_dataset`` parses each
file block into it. ``walk`` yields each trajectory's states and actions as
views of that store, by ``lengths``, for the file writer; ``coverage`` reads
the whole store as one visit matrix.

Goal sampling mixes four conditionals per transition (s_t in a trajectory
s_0..s_T): the current state itself, a uniform future in-trajectory state
s_k with k ~ U{min(t, T-1), ..., T-1}, a geometric lookahead s_{min(t+k, T-1)}
with k ~ Geom(1 - discount) on {1, 2, ...}, and a uniform state from the
whole dataset. A goal is a position in the ``Dataset`` store of states,
and an in-trajectory goal lies ``goal - index[i]`` steps ahead of s_t.
"""

from __future__ import annotations

import functools
import io
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import NamedTuple

import numpy as np

from . import maze
from .maze import MazeError, MazeSpec

__all__ = [
    "Dataset",
    "walk",
    "GoalSampleRatios",
    "GOAL_SOURCES",
    "VALUE_GOAL_RATIOS_DEFAULT",
    "VALUE_GOAL_RATIOS_STITCH",
    "POLICY_GOAL_RATIOS_DEFAULT",
    "collect_navigate",
    "collect_stitch",
    "sample_goals",
    "sample_batch",
    "state_cells",
    "coverage",
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
class Dataset:
    """Every trajectory's states and actions in one flat store, each state once.

    ``states`` holds each trajectory's s_0..s_T in turn, ``actions`` its
    a_0..a_{T-1} and ``lengths`` its T; the caller keeps those shapes
    consistent. Transition i is (states[index[i]], actions[i],
    states[index[i] + 1]); end[i] is the position of its trajectory's s_T.
    ``walk`` yields each trajectory's rows. ``trajectories`` wraps each in a
    one-trajectory ``Dataset`` on every read, at about ten times the cost:
    it is kept for the benchmark harness, and no library code reads it.
    """

    states: np.ndarray   # (sum(lengths) + len(lengths), state_dim)
    actions: np.ndarray  # (sum(lengths), action_dim)
    lengths: np.ndarray  # trajectory -> its number of transitions, each >= 1
    index: np.ndarray = field(init=False)  # int32, transition -> position of s_t
    end: np.ndarray = field(init=False)    # int32, transition -> position of s_T

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if not len(self.lengths):
            raise ValueError("dataset must contain at least one trajectory")
        if (self.lengths < 1).any():
            raise ValueError("empty trajectory in dataset")
        ends = np.cumsum(self.lengths + 1, dtype=np.int32) - 1
        self.index = np.delete(np.arange(len(self.states), dtype=np.int32), ends)
        self.end = np.repeat(ends, self.lengths)

    @property
    def trajectories(self) -> list[Dataset]:
        return [Dataset(s, a, [len(a)]) for s, a in walk(self)]

    @property
    def n_transitions(self) -> int:
        return len(self.actions)

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]


def walk(dataset: Dataset):
    """Each trajectory's (s_0..s_T, a_0..a_{T-1}), in order, as views of the store."""
    s0 = a0 = 0
    for n in dataset.lengths.tolist():
        yield dataset.states[s0:s0 + n + 1], dataset.actions[a0:a0 + n]
        s0, a0 = s0 + n + 1, a0 + n


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


NOISE_BLOCK = 32  # the most steps whose noise one rng.random call draws


def _collect(spec: MazeSpec, n_transitions: int, noise_scale: float, seed: int,
             segment_len: int) -> Dataset:
    """Noisy-expert rollouts from cell centres: navigate when segment_len is 0.

    Each step aims a unit vector at the next shortest-path cell's centre (the
    goal's in the goal cell), adds disk noise, clamps each axis to [-1, 1]. A
    stitch step that would stretch the span ends the segment after its draws.
    A cell's free-cell id indexes the tables, centres and span bit masks; it is
    looked up once per new cell by the flat index r * W + c, which a step (under
    one cell per axis, inside a wall border) never moves off the grid.
    """
    if n_transitions <= 0:
        raise ValueError("n_transitions must be positive")
    rng = np.random.default_rng(seed)
    w = spec.shape[1]
    cs, step_len, arrive = spec.cell_size, spec.step_length, spec.goal_radius
    floor, hypot, cos, sin, sqrt = (math.floor, math.hypot, math.cos, math.sin,
                                    math.sqrt)
    two_pi = 2.0 * math.pi
    ids = spec._ids.ravel().tolist()  # flat index -> free-cell id, -1 on walls
    free = spec.free_cells()  # id -> (row, col)
    centre = [maze.cell_center(spec, cell) for cell in free]
    hops = maze.hop_table(spec)
    # per goal, each cell's next cell toward it; per stitch start, its goal
    # cells; per cell, a bit mask of the cells within segment_len hops of it
    next_hop = list(map(memoryview, maze.next_hop_table(spec)))
    near = functools.cache(lambda cell: np.flatnonzero(
        (hops[cell] >= 1) & (hops[cell] <= segment_len)).data)
    ball = functools.cache(lambda cell: int.from_bytes(np.packbits(
        hops[cell] <= segment_len, bitorder="little"), "little"))
    block, k, saved = (), 0, None  # noise doubles drawn ahead, used, state before
    states, actions, lengths = array("d"), array("d"), []
    push_state, push_action = states.extend, actions.extend
    total = 0
    while total < n_transitions:
        block, k = _rewind(rng, saved, block, k)
        cell = int(rng.integers(len(free)))
        r, c = free[cell]
        if segment_len:
            goals = near(cell)
            goal = goals[int(rng.integers(len(goals)))]
            visited, n_steps = 1 << cell, 4 * segment_len
        else:
            goal = int(rng.integers(len(free)))
            n_steps = spec.max_episode_steps
        x, y = centre[cell]
        gx, gy = centre[goal]
        to_goal = next_hop[goal]
        tx, ty = centre[to_goal[cell]]
        rw = r * w
        at = rw + c
        mark = len(actions)
        push_state((x, y))
        for t in range(n_steps):
            dx = tx - x
            dy = ty - y
            norm = hypot(dx, dy)
            if norm > 1e-12:
                dx /= norm
                dy /= norm
            else:
                dx = dy = 0.0
            if noise_scale > 0.0:
                if k == len(block):  # draw the noise of the steps ahead
                    saved = rng.bit_generator.state
                    block = rng.random(2 * min(n_steps - t, NOISE_BLOCK)).tolist()
                    k = 0
                angle = block[k] * two_pi  # exactly (u * 2.0) * pi: 2.0 scales exactly
                radius = noise_scale * sqrt(block[k + 1])
                k += 2
                dx += radius * cos(angle)
                dy += radius * sin(angle)
            # min(1, max(-1, d)), NaN to -1 included
            m = dx if dx > -1.0 else -1.0
            ax = m if m < 1.0 else 1.0
            m = dy if dy > -1.0 else -1.0
            ay = m if m < 1.0 else 1.0
            nx = x + step_len * ax  # x first, then y from the post-x position
            col = floor(nx / cs)
            if col == c or ids[rw + col] >= 0:
                x, c = nx, col
            ny = y + step_len * ay
            row = floor(ny / cs)
            if row == r or ids[row * w + c] >= 0:
                y, r, rw = ny, row, row * w
            if rw + c != at:  # a new cell: a new target, maybe a wider span
                at = rw + c
                cell = ids[at]
                if segment_len and not visited >> cell & 1:
                    if visited & ~ball(cell):  # a visited cell too far from it
                        break
                    visited |= 1 << cell
                tx, ty = centre[to_goal[cell]]
            push_state((x, y))
            push_action((ax, ay))
            if hypot(x - gx, y - gy) <= arrive:
                if segment_len:
                    break
                block, k = _rewind(rng, saved, block, k)
                goal = int(rng.integers(len(free)))
                gx, gy = centre[goal]
                to_goal = next_hop[goal]
                tx, ty = centre[to_goal[cell]]
        n = (len(actions) - mark) // 2
        if n or not segment_len:  # an empty navigate rollout is an error
            lengths.append(n)
            total += n
        else:  # a stitch segment that ended before its first step
            del states[-2:]
    return _stored(states, actions, lengths, 2, 2)


def _rewind(rng: np.random.Generator, saved, block, used: int):
    """Put the stream just after the ``used`` doubles of a block; an empty block.

    A part-used block is undone by restoring ``saved``, the state before it
    was drawn, and redrawing ``used`` doubles; not by ``advance``, which drops
    the buffered uint32 half-word the next ``integers`` draw reads.
    """
    if used < len(block):
        rng.bit_generator.state = saved
        rng.random(used)
    return (), 0


def _stored(states: array, actions: array, lengths: list, state_dim: int,
            action_dim: int) -> Dataset:
    """The Dataset over two flat float64 buffers, viewed without a copy."""
    if not lengths:  # before the reshape: a file may declare any dims then
        raise ValueError("dataset must contain at least one trajectory")
    n = sum(lengths)
    return Dataset(np.frombuffer(states).reshape(n + len(lengths), state_dim),
                   np.frombuffer(actions).reshape(n, action_dim), lengths)


# ---- goal sampling ---------------------------------------------------------------


def sample_goals(dataset: Dataset, idx: np.ndarray, ratios: GoalSampleRatios,
                 discount: float, rng: np.random.Generator):
    """Vectorized goal draw for a batch of transition indices.

    Returns (goals, sources) where sources indexes into GOAL_SOURCES.
    """
    ratios = GoalSampleRatios(*ratios).validate()
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must lie in (0, 1)")
    index, end = dataset.index[idx], dataset.end[idx]
    edges = np.cumsum(ratios)
    source = np.searchsorted(edges, rng.random(len(idx)), side="right")
    source = np.minimum(source, 3)
    # an empty source draws nothing, so every branch runs unguarded
    traj, geom, rand = source == 1, source == 2, source == 3
    goal = index.copy()  # cur
    lo = np.minimum(index[traj], end[traj] - 1)  # draws in [lo, end - 1]
    goal[traj] = lo + np.floor(rng.random(int(traj.sum()))
                               * (end[traj] - lo)).astype(np.int64)
    k = rng.geometric(1.0 - discount, size=int(geom.sum()))
    goal[geom] = np.minimum(index[geom] + k, end[geom] - 1)
    goal[rand] = dataset.index[rng.integers(dataset.n_transitions,
                                            size=int(rand.sum()))]
    return dataset.states[goal], source


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
    index = dataset.index[idx]

    # integer-array indexing copies, so no row aliases the dataset
    obs = dataset.states[index]
    next_obs = dataset.states[index + 1]
    actions = dataset.actions[idx]

    value_goal, value_src = sample_goals(dataset, idx, value_ratios,
                                         discount, rng)
    policy_goal, _ = sample_goals(dataset, idx, policy_ratios, discount, rng)
    # widened first: an int32 position plus a large setting would wrap or raise
    subgoal = dataset.states[np.minimum(index.astype(np.int64) + subgoal_steps,
                                        dataset.end[idx] - 1)]
    j = rng.integers(dataset.n_transitions, size=batch_size)
    rand_goal = dataset.states[dataset.index[j]]

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
        "subgoal": subgoal,
        "rand_goal": rand_goal,
    }


# ---- dataset diagnostics ------------------------------------------------------------


def state_cells(dataset: Dataset, spec: MazeSpec) -> np.ndarray:
    """Each state's free-cell id; a MazeError names the first in no free cell."""
    ids = maze.cell_ids(spec, *dataset.states.T)
    if (ids < 0).any():
        row = int(np.argmax(ids < 0))
        raise MazeError(f"dataset state {row} {tuple(dataset.states[row].tolist())} "
                        f"lies in no free cell")
    return ids


def coverage(dataset: Dataset, spec: MazeSpec, span: bool = False):
    """(cells, tasks, span) read from one (trajectory x free cell) visit matrix.

    The fraction of free cells any state visits; per spec task, whether one
    trajectory visits its start and goal cells; if asked for (else None), the
    largest BFS distance between two cells one trajectory visits.
    """
    free = spec.free_cells()
    ids = state_cells(dataset, spec)  # as an index, -1 would mark the last free cell
    n_traj = len(dataset.lengths)
    visits = np.zeros((n_traj, len(free)), dtype=bool)
    visits[np.repeat(np.arange(n_traj), dataset.lengths + 1), ids] = True
    ends = maze.cell_ids(spec, *np.reshape(spec.tasks, (-1, 2)).T).reshape(-1, 2)
    tasks = ((visits[:, ends[:, 0]] & visits[:, ends[:, 1]]).any(axis=0)
             & (ends >= 0).all(axis=1)).tolist()  # no trajectory visits a wall
    seen, far = visits.any(axis=0), None
    if span:  # one gather over the cell pairs some trajectory visits together
        v = visits.astype(np.float32)  # a pair's co-visit count: positive iff any
        far = int(maze.hop_table(spec)[v.T @ v > 0].max())
    return int(np.count_nonzero(seen)) / len(free), tasks, far


# ---- file format -------------------------------------------------------------------


def _dataset_blocks(dataset: Dataset):
    """Header line, then one string per trajectory, each formatted in one call."""
    sd, ad = dataset.state_dim, dataset.action_dim
    yield f"GCRL-DSET v1 {sd} {ad} {len(dataset.lengths)}\n"
    state_row = " ".join(["%.17g"] * sd) + "\n"
    pair_rows = state_row + " ".join(["%.17g"] * ad) + "\n"
    for states, actions in walk(dataset):
        # rows s_0, a_0, s_1, a_1, ..., s_T in file order
        n = len(actions)
        flat = np.concatenate((np.hstack((states[:-1], actions)).ravel(), states[-1]))
        yield f"T {n}\n" + (pair_rows * n + state_row) % tuple(flat.tolist())


def dataset_to_text(dataset: Dataset) -> str:
    return "".join(_dataset_blocks(dataset))


def _content_lines(lines):
    """The lines of ``text.strip().split("\n")``, from the lines of a file."""
    blank, started = 0, False
    for line in lines:
        if line.isspace():
            blank += 1
            continue
        if blank and started:
            yield from repeat("", blank)
        started, blank = True, 0
        yield line


def _number_error(rows, line: int, where: str = "") -> ValueError:
    """Name the first of these split lines, numbered from ``line``, not all numbers."""
    for k, row in enumerate(rows):
        try:
            list(map(float, row))
        except ValueError as err:
            return ValueError(f"line {line + k}: {err}{where}")


def _parse_dataset(lines) -> Dataset:
    """Parse each ``T n`` block of a line stream straight into the store.

    Lines are numbered from the header; one block's lines are held at a time.
    """
    lines = _content_lines(lines)
    head = next(lines, "").split()
    if len(head) != 5 or head[0] != "GCRL-DSET" or head[1] != "v1":
        raise ValueError("bad dataset header")
    try:
        state_dim, action_dim, n_traj = map(int, head[2:])
    except ValueError as err:
        raise ValueError(f"bad dataset header at line 1: {err}") from None
    states, actions, lengths = array("d"), array("d"), []
    pos = 1  # lines read
    for i in range(n_traj):
        line = next(lines, None)
        if line is None:
            raise ValueError(f"dataset ends at line {pos}, before "
                             f"trajectory {i} of {n_traj}")
        pos += 1
        marker = line.split()
        if (len(marker) != 2 or marker[0] != "T" or not marker[1].isdecimal()
                or int(marker[1]) < 1):
            raise ValueError(f"expected trajectory marker at line {pos}")
        length = int(marker[1])
        rows = [row.split() for row in islice(lines, 2 * length + 1)]
        if len(rows) < 2 * length + 1:
            raise ValueError(f"dataset ends at line {pos + len(rows)}, inside "
                             f"trajectory {i} (marker at line {pos})")
        widths = [state_dim, action_dim] * length + [state_dim]
        if list(map(len, rows)) != widths:
            k = next(k for k, (row, w) in enumerate(zip(rows, widths))
                     if len(row) != w)
            raise ValueError(f"line {pos + k + 1} has {len(rows[k])} numbers, "
                             f"expected {widths[k]}")
        try:
            states.extend(map(float, chain.from_iterable(rows[0::2])))
            actions.extend(map(float, chain.from_iterable(rows[1::2])))
        except ValueError:
            raise _number_error(rows, pos + 1) from None
        lengths.append(length)
        pos += 2 * length + 1
    if next(lines, None) is not None:
        raise ValueError(f"line {pos + 1} follows the last of the {n_traj} "
                         f"trajectories the header declares")
    return _stored(states, actions, lengths, state_dim, action_dim)


def dataset_from_text(text: str) -> Dataset:
    return _parse_dataset(io.StringIO(text))


def write_dataset(dataset: Dataset, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_dataset_blocks(dataset))


def read_dataset(path) -> Dataset:
    with open(path) as fh:
        return _parse_dataset(fh)
