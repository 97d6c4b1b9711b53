"""Deterministic 2D point-mass maze environments plus an exact temporal-distance oracle.

Geometry: the world is a grid of unit-square cells; a continuous position
(x, y) lies in cell (row, col) = (floor(y / cell), floor(x / cell)). The
border of every layout is wall, free cells form a single connected
component, and the builtin layouts ship five canonical start/goal tasks.

Dynamics are a clipped point mass: each axis of the scaled displacement is
applied in turn and reverted if it would enter a wall cell, so corner
tunneling is impossible and Euclidean-close states on opposite sides of a
wall stay dynamically far apart.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "MazeError",
    "Unreachable",
    "State",
    "Action",
    "Task",
    "MazeSpec",
    "builtin_layout",
    "LAYOUT_NAMES",
    "step",
    "step_batch",
    "bfs_distance",
    "distance_field",
    "next_cell",
    "shortest_cell_path",
    "optimal_trajectory",
    "cell_of",
    "cell_center",
    "is_valid_state",
    "random_free_cell",
    "text_to_grid",
]

State = tuple[float, float]   # (x, y) in length units
Action = tuple[float, float]  # displacement direction, each axis in [-1, 1]
POINT_DIM = 2  # the size of a State and of an Action

GOAL_RADIUS_CELLS = 0.5
STEP_LENGTH_CELLS = 0.4
EPISODE_BUDGET_FACTOR = 4


class MazeError(ValueError):
    pass


class Unreachable(MazeError):
    """No free-cell path between the queried states."""


class Task(NamedTuple):
    start: State
    goal: State


@dataclass(frozen=True, eq=False)
class MazeSpec:
    """Immutable wall grid plus the geometry constants derived from it."""

    name: str
    walls: np.ndarray          # bool (H, W); True = wall
    cell_size: float
    max_episode_steps: int
    goal_radius: float         # length units
    tasks: tuple[Task, ...]
    _dist_cache: dict = field(default_factory=dict, repr=False)
    _free: tuple = field(init=False, repr=False)
    _free_set: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        walls = np.asarray(self.walls, dtype=bool)
        object.__setattr__(self, "walls", walls)
        if walls.ndim != 2:
            raise MazeError("wall grid must be a matrix")
        if not (walls[0].all() and walls[-1].all()
                and walls[:, 0].all() and walls[:, -1].all()):
            raise MazeError(f"layout '{self.name}': outer border must be all walls")
        if not self.max_episode_steps >= 1:
            raise MazeError(f"layout '{self.name}': max_episode_steps must be at "
                            f"least 1, got {self.max_episode_steps}")
        object.__setattr__(self, "_free",
                           tuple(map(tuple, np.argwhere(~walls).tolist())))
        object.__setattr__(self, "_free_set", frozenset(self._free))
        if not self._free:
            raise MazeError(f"layout '{self.name}': no free cells")
        if (distance_field(self, self._free[0]) >= 0).sum() != len(self._free):
            raise MazeError(f"layout '{self.name}': free cells are not connected")

    @property
    def step_length(self) -> float:
        return STEP_LENGTH_CELLS * self.cell_size

    @property
    def shape(self) -> tuple[int, int]:
        return self.walls.shape

    def free_cells(self) -> tuple[tuple[int, int], ...]:
        """Free cells in row-major order, computed once per spec."""
        return self._free


def cell_of(spec: MazeSpec, s: State) -> tuple[int, int]:
    return (int(math.floor(s[1] / spec.cell_size)),
            int(math.floor(s[0] / spec.cell_size)))


def cell_center(spec: MazeSpec, cell: tuple[int, int]) -> State:
    r, c = cell
    return ((c + 0.5) * spec.cell_size, (r + 0.5) * spec.cell_size)


def _is_wall_at(spec: MazeSpec, x: float, y: float) -> bool:
    cs = spec.cell_size
    return (math.floor(y / cs), math.floor(x / cs)) not in spec._free_set


def is_valid_state(spec: MazeSpec, s: State) -> bool:
    return not _is_wall_at(spec, s[0], s[1])


def step(spec: MazeSpec, s: State, a: Action) -> State:
    """Clipped point-mass transition; never yields a wall state.

    The x move is applied first, then the y move is checked against the
    post-x position, so a diagonal move can never cut a corner.
    """
    ax = min(1.0, max(-1.0, a[0]))
    ay = min(1.0, max(-1.0, a[1]))
    x, y = s
    nx = x + spec.step_length * ax
    if _is_wall_at(spec, nx, y):
        nx = x
    ny = y + spec.step_length * ay
    if _is_wall_at(spec, nx, ny):
        ny = y
    return (nx, ny)


def _walls_at(spec: MazeSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise ``_is_wall_at``; cells outside the grid are walls."""
    cs = spec.cell_size
    r = np.floor(y / cs)
    c = np.floor(x / cs)
    h, w = spec.walls.shape
    inside = (r >= 0) & (r < h) & (c >= 0) & (c < w)
    hit = np.ones(inside.shape, dtype=bool)
    hit[inside] = spec.walls[r[inside].astype(np.intp), c[inside].astype(np.intp)]
    return hit


def step_batch(spec: MazeSpec, positions: np.ndarray,
               actions: np.ndarray) -> np.ndarray:
    """``step`` applied to each row of (N, 2) positions and actions.

    Every row equals the scalar ``step`` bit for bit. ``np.fmin``/``np.fmax``
    clamp a NaN action component to -1 as Python's ``min``/``max`` do
    (``np.clip`` would pass it through). Data collection inlines the scalar
    ``step`` in its rollout loop instead: one transition at a time between
    the noise and arrival draws whose order fixes dataset bytes.
    """
    pos = np.asarray(positions, dtype=np.float64)
    a = np.fmin(1.0, np.fmax(-1.0, np.asarray(actions, dtype=np.float64)))
    x, y = pos[:, 0], pos[:, 1]
    nx = x + spec.step_length * a[:, 0]
    nx = np.where(_walls_at(spec, nx, y), x, nx)
    ny = y + spec.step_length * a[:, 1]
    ny = np.where(_walls_at(spec, nx, ny), y, ny)
    return np.stack([nx, ny], axis=1)


def _check_free_cell(spec: MazeSpec, cell: tuple[int, int], what: str) -> None:
    if cell not in spec._free_set:
        raise MazeError(f"{what}: cell {cell} is not a free cell")


def distance_field(spec: MazeSpec, source: tuple[int, int]) -> np.ndarray:
    """4-connected BFS hop counts from one cell; -1 marks unreachable."""
    cached = spec._dist_cache.get(source)
    if cached is not None:
        return cached
    _check_free_cell(spec, source, "distance_field")
    free, hops = spec._free_set, {source: 0}
    queue = deque([source])
    while queue:
        cell = queue.popleft()
        d = hops[cell] + 1
        r, c = cell
        for n in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if n in free and n not in hops:
                hops[n] = d
                queue.append(n)
    dist = np.full(spec.walls.shape, -1, dtype=np.int64)
    dist[tuple(zip(*hops))] = list(hops.values())
    spec._dist_cache[source] = dist
    return dist


def bfs_distance(spec: MazeSpec, s: State, g: State) -> int:
    """Exact cell-hop temporal distance between the cells holding s and g."""
    cs, cg = cell_of(spec, s), cell_of(spec, g)
    _check_free_cell(spec, cs, "bfs_distance")
    _check_free_cell(spec, cg, "bfs_distance")
    d = int(distance_field(spec, cs)[cg])
    if d < 0:
        raise Unreachable(f"no path between cells {cs} and {cg}")
    return d


def next_cell(spec: MazeSpec, cell: tuple[int, int],
              goal_cell: tuple[int, int]) -> tuple[int, int]:
    """The cell after ``cell`` on a shortest path to ``goal_cell``.

    That is the first free 4-neighbour, in up/down/left/right order, one BFS
    hop closer to the goal; ``cell`` itself when it is the goal cell.
    """
    dist = distance_field(spec, goal_cell)
    if dist[cell] < 0:
        raise Unreachable(f"no path between cells {cell} and {goal_cell}")
    d = dist[cell]
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        n = (cell[0] + dr, cell[1] + dc)
        if not spec.walls[n] and dist[n] == d - 1:
            return n
    return cell


def shortest_cell_path(spec: MazeSpec, s: State, g: State) -> list[tuple[int, int]]:
    """One BFS-optimal cell path from s's cell to g's cell (deterministic)."""
    path, goal = [cell_of(spec, s)], cell_of(spec, g)
    while (cell := next_cell(spec, path[-1], goal)) != path[-1]:
        path.append(cell)
    return path


def optimal_trajectory(spec: MazeSpec, task: Task) -> np.ndarray:
    """Cell-center shortest path ending exactly at the goal state, (n+1, 2).

    States hop one cell at a time: the reference path for order-consistency
    diagnostics. A start already in the goal's cell gives the goal alone.
    """
    cells = shortest_cell_path(spec, task.start, task.goal)
    states = [cell_center(spec, c) for c in cells[:-1]] + [task.goal]
    return np.asarray(states, dtype=np.float64)


def random_free_cell(spec: MazeSpec, rng: np.random.Generator) -> tuple[int, int]:
    cells = spec.free_cells()
    return cells[int(rng.integers(len(cells)))]


# ---- builtin layouts ----------------------------------------------------------

_MEDIUM_GRID = """\
##########
#........#
#.######.#
#.#....#.#
#.#.##.#.#
#.#.#..#.#
#...#.##.#
#.###....#
#.....##.#
##########"""

_LARGE_GRID = """\
##############
#......#.....#
#.####.#.###.#
#.#..#.....#.#
#.#.######.#.#
#.#......#.#.#
#.######.#.#.#
#........#.#.#
######.###.#.#
#......#...#.#
#.######.###.#
#.#......#...#
#...######.#.#
##############"""

_GIANT_GRID = """\
######################
#....................#
#....................#
#....................#
#....................#
##################...#
#....................#
#....................#
#....................#
#..###################
#....................#
#....................#
#....................#
##################...#
#....................#
#....................#
#....................#
#..###################
#....................#
#....................#
#....................#
######################"""

# canonical tasks as ((start row, start col), (goal row, goal col)); chosen
# once from the all-pairs BFS table to span short through diameter-length
# goals (giant tasks all require a detour around at least one wall)
_CANONICAL_CELLS = {
    "medium": (((1, 1), (1, 6)), ((1, 2), (3, 6)), ((1, 3), (5, 5)),
               ((2, 8), (6, 5)), ((1, 3), (5, 6))),
    "large": (((1, 1), (1, 12)), ((1, 2), (5, 6)), ((1, 8), (5, 3)),
              ((3, 3), (5, 12)), ((3, 4), (12, 10))),
    "giant": (((1, 1), (6, 9)), ((1, 2), (10, 7)), ((1, 3), (13, 20)),
              ((1, 4), (18, 5)), ((1, 1), (20, 20))),
}

LAYOUT_NAMES = ("medium", "large", "giant")
_GRIDS = {"medium": _MEDIUM_GRID, "large": _LARGE_GRID, "giant": _GIANT_GRID}


def builtin_layout(name: str) -> MazeSpec:
    """Fixed desk-scale layout: medium (8x8), large (12x12), giant (20x20)."""
    if name not in _GRIDS:
        raise MazeError(f"unknown layout '{name}' (choose from {LAYOUT_NAMES})")
    walls = text_to_grid(_GRIDS[name])
    cell = 1.0
    spec = MazeSpec(name=name, walls=walls, cell_size=cell, max_episode_steps=1,
                    goal_radius=GOAL_RADIUS_CELLS * cell, tasks=())
    tasks = []
    for start_cell, goal_cell in _CANONICAL_CELLS[name]:
        tasks.append(Task(cell_center(spec, start_cell), cell_center(spec, goal_cell)))
    longest = max(bfs_distance(spec, t.start, t.goal) for t in tasks)
    return MazeSpec(name=name, walls=walls, cell_size=cell,
                    max_episode_steps=EPISODE_BUDGET_FACTOR * longest,
                    goal_radius=GOAL_RADIUS_CELLS * cell, tasks=tuple(tasks))


def text_to_grid(text: str) -> np.ndarray:
    lines = [line for line in text.strip().split("\n")]
    width = len(lines[0])
    if any(len(line) != width for line in lines):
        raise MazeError("grid rows have inconsistent widths")
    if any(ch not in "#." for line in lines for ch in line):
        raise MazeError("grid may only contain '#' and '.'")
    return np.array([[ch == "#" for ch in line] for line in lines])
