"""Dataset collection as it was before the one table-driven rollout: test-only.

Copies of ``data.expert_action``, ``data.collect_navigate``,
``data.collect_stitch`` and the NumPy-indexed BFS ``maze.distance_field``,
verbatim except that the BFS keeps its own cache (so comparing the two never
reads one array twice) and the stitch collector measures spans with it.
``dataset_of`` joins one-trajectory datasets, as the old
``Dataset(trajectories)`` constructor did.
Every expert step here goes through ``maze.cell_of``, ``maze.next_cell``,
``maze.step`` and a ``math.hypot`` goal-radius test one call at a time. The
library's datasets must equal these byte for byte, and its distance fields
these arrays.
"""

import math
import weakref
from collections import deque

import numpy as np

from mazegcrl import maze
from mazegcrl.data import Dataset
from mazegcrl.maze import MazeSpec


def dataset_of(trajectories: list[Dataset]) -> Dataset:
    """The dataset whose store holds these datasets' stores, in order (copied)."""
    if not trajectories:
        raise ValueError("dataset must contain at least one trajectory")
    return Dataset(np.concatenate([t.states for t in trajectories]),
                   np.concatenate([t.actions for t in trajectories]),
                   np.concatenate([t.lengths for t in trajectories]))


_FIELDS = weakref.WeakKeyDictionary()  # spec -> {source cell: distance array}


def distance_field(spec: MazeSpec, source: tuple[int, int]) -> np.ndarray:
    """4-connected BFS hop counts from one cell; -1 marks unreachable."""
    cache = _FIELDS.setdefault(spec, {})
    cached = cache.get(source)
    if cached is not None:
        return cached
    if source not in spec.free_cells():
        raise maze.MazeError(f"distance_field: cell {source} is not a free cell")
    dist = np.full(spec.walls.shape, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        r, c = queue.popleft()
        d = dist[r, c] + 1
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            n = (r + dr, c + dc)
            if not spec.walls[n] and dist[n] < 0:
                dist[n] = d
                queue.append(n)
    cache[source] = dist
    return dist


def expert_action(spec: MazeSpec, s, g, noise_scale: float,
                  rng: np.random.Generator):
    """Unit step toward the next shortest-path cell center, plus disk noise."""
    cur = maze.cell_of(spec, s)
    goal_cell = maze.cell_of(spec, g)
    if cur == goal_cell:
        target = g
    else:
        target = maze.cell_center(spec, maze.next_cell(spec, cur, goal_cell))
    dx = target[0] - s[0]
    dy = target[1] - s[1]
    norm = math.hypot(dx, dy)
    if norm > 1e-12:
        dx /= norm
        dy /= norm
    else:
        dx = dy = 0.0
    if noise_scale > 0.0:
        angle = rng.random() * 2.0 * math.pi
        radius = noise_scale * math.sqrt(rng.random())
        dx += radius * math.cos(angle)
        dy += radius * math.sin(angle)
    return (min(1.0, max(-1.0, dx)), min(1.0, max(-1.0, dy)))


def collect_navigate(spec: MazeSpec, n_transitions: int, noise_scale: float,
                     seed: int) -> Dataset:
    """Long trajectories: re-target a random free cell on each arrival."""
    if n_transitions <= 0:
        raise ValueError("n_transitions must be positive")
    rng = np.random.default_rng(seed)
    trajectories = []
    total = 0
    while total < n_transitions:
        s = maze.cell_center(spec, maze.random_free_cell(spec, rng))
        goal = maze.cell_center(spec, maze.random_free_cell(spec, rng))
        states = [s]
        actions = []
        for _ in range(spec.max_episode_steps):
            a = expert_action(spec, s, goal, noise_scale, rng)
            s = maze.step(spec, s, a)
            states.append(s)
            actions.append(a)
            if (math.hypot(s[0] - goal[0], s[1] - goal[1])
                    <= spec.goal_radius):
                goal = maze.cell_center(spec, maze.random_free_cell(spec, rng))
        trajectories.append(Dataset(np.array(states), np.array(actions),
                                    [len(actions)]))
        total += len(actions)
    return dataset_of(trajectories)


def collect_stitch(spec: MazeSpec, n_transitions: int, segment_len: int,
                   noise_scale: float, seed: int) -> Dataset:
    """Short segments whose pairwise cell span never exceeds segment_len.

    Each segment targets a goal at BFS distance in [1, segment_len] from a
    random start; the rollout ends on arrival, on budget exhaustion, or just
    before a step that would stretch the visited-cell span past the bound.
    """
    if n_transitions <= 0:
        raise ValueError("n_transitions must be positive")
    if segment_len < 2:
        raise ValueError("segment_len must be at least 2")
    rng = np.random.default_rng(seed)
    budget = 4 * segment_len
    free = spec.free_cells()
    candidate_cache: dict = {}
    trajectories = []
    total = 0
    while total < n_transitions:
        start_cell = free[int(rng.integers(len(free)))]
        candidates = candidate_cache.get(start_cell)
        if candidates is None:
            dist = distance_field(spec, start_cell)
            candidates = [c for c in free if 1 <= dist[c] <= segment_len]
            candidate_cache[start_cell] = candidates
        goal_cell = candidates[int(rng.integers(len(candidates)))]
        goal = maze.cell_center(spec, goal_cell)
        s = maze.cell_center(spec, start_cell)
        states = [s]
        actions = []
        visited = {start_cell}
        span = 0
        for _ in range(budget):
            a = expert_action(spec, s, goal, noise_scale, rng)
            nxt = maze.step(spec, s, a)
            cell = maze.cell_of(spec, nxt)
            if cell not in visited:
                reach = max(int(distance_field(spec, v)[cell]) for v in visited)
                if max(span, reach) > segment_len:
                    break
                span = max(span, reach)
                visited.add(cell)
            s = nxt
            states.append(s)
            actions.append(a)
            if (math.hypot(s[0] - goal[0], s[1] - goal[1])
                    <= spec.goal_radius):
                break
        if not actions:
            continue
        trajectories.append(Dataset(np.array(states), np.array(actions),
                                    [len(actions)]))
        total += len(actions)
    return dataset_of(trajectories)
