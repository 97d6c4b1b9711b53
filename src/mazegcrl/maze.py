"""Deterministic 2D point-mass maze environments plus an exact temporal-distance oracle.

Geometry: the world is a grid of unit-square cells; a continuous position
(x, y) lies in cell (row, col) = (floor(y / cell), floor(x / cell)). The
border of every layout is wall, free cells form a single connected
component, and the builtin layouts ship five canonical start/goal tasks.
A free cell's id is its index in ``free_cells()`` (row-major order): the id
every vectorized position lookup, ``cell_ids``, returns (-1 off free cells).

Every BFS distance comes from two read-only (N, N) tables over free-cell ids,
built by one multi-source BFS per wall grid and process (an LRU cache of 16
grids) and shared by every spec on that grid: ``hop_table[i, j]`` is the
4-connected hop count between free cells i and j, and ``next_hop_table[g, s]``
is s's first up/down/left/right neighbour one hop closer to g (g itself at
s = g), a tie-break that fixes every dataset byte. ``distance_field`` is one
row of ``hop_table``. Both take the narrowest signed dtype holding N, int16
at least, as NumPy wraps int8 sums silently.

Dynamics are a clipped point mass: each axis of the scaled displacement is
applied in turn and reverted if it would enter a wall cell, so corner
tunneling is impossible and Euclidean-close states on opposite sides of a
wall stay dynamically far apart.
"""

from __future__ import annotations

import functools
import math
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
    "hop_table",
    "next_hop_table",
    "shortest_cell_path",
    "optimal_trajectory",
    "cell_of",
    "cell_ids",
    "cell_center",
    "is_valid_state",
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
    _free: tuple = field(init=False, repr=False)
    _free_set: frozenset = field(init=False, repr=False)
    _ids: np.ndarray = field(init=False, repr=False)  # (H, W) free-cell id, -1 on walls
    _hops: np.ndarray = field(init=False, repr=False)  # hop_table(self)
    _next_hops: np.ndarray = field(init=False, repr=False)  # next_hop_table(self)

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
        hops, next_hops, ids = _hop_tables(walls.shape, walls.tobytes())
        object.__setattr__(self, "_hops", hops)
        object.__setattr__(self, "_next_hops", next_hops)
        object.__setattr__(self, "_ids", ids)
        if (hops[0] < 0).any():
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


def is_valid_state(spec: MazeSpec, s: State) -> bool:
    return cell_of(spec, s) in spec._free_set


def step(spec: MazeSpec, s: State, a: Action) -> State:
    """Clipped point-mass transition; never yields a wall state.

    The x move is applied first, then the y move is checked against the
    post-x position, so a diagonal move can never cut a corner.
    """
    ax = min(1.0, max(-1.0, a[0]))
    ay = min(1.0, max(-1.0, a[1]))
    x, y = s
    nx = x + spec.step_length * ax
    if not is_valid_state(spec, (nx, y)):
        nx = x
    ny = y + spec.step_length * ay
    if not is_valid_state(spec, (nx, ny)):
        ny = y
    return (nx, ny)


def cell_ids(spec: MazeSpec, x, y) -> np.ndarray:
    """Each point's free-cell id; -1 in a wall cell or outside the grid."""
    h, w = spec.shape  # fmax/fmin clamp outside points, NaN too, onto the wall border
    r = np.fmin(np.fmax(np.floor(np.divide(y, spec.cell_size)), 0), h - 1)
    c = np.fmin(np.fmax(np.floor(np.divide(x, spec.cell_size)), 0), w - 1)
    return spec._ids[r.astype(np.intp), c.astype(np.intp)]


def step_batch(spec: MazeSpec, positions: np.ndarray,
               actions: np.ndarray) -> np.ndarray:
    """``step`` applied to each row of (N, 2) positions and actions.

    Every row equals the scalar ``step`` bit for bit. ``np.fmin``/``np.fmax``
    clamp a NaN action component to -1 as Python's ``min``/``max`` do
    (``np.clip`` would pass it through).
    """
    pos = np.asarray(positions, dtype=np.float64)
    a = np.fmin(1.0, np.fmax(-1.0, np.asarray(actions, dtype=np.float64)))
    x, y = pos[:, 0], pos[:, 1]
    nx = x + spec.step_length * a[:, 0]
    nx = np.where(cell_ids(spec, nx, y) < 0, x, nx)
    ny = y + spec.step_length * a[:, 1]
    ny = np.where(cell_ids(spec, nx, ny) < 0, y, ny)
    return np.stack([nx, ny], axis=1)


def _check_free_cell(spec: MazeSpec, cell: tuple[int, int], what: str) -> None:
    if cell not in spec._free_set:
        raise MazeError(f"{what}: cell {cell} is not a free cell")


@functools.lru_cache(maxsize=16)
def _hop_tables(shape: tuple[int, int], wall_bytes: bytes) -> tuple:
    """``hop_table``, ``next_hop_table`` and the (H, W) free-cell id grid.

    Read-only and cached by wall grid, so every spec on one grid shares them.
    Each BFS round moves every source's frontier one hop by shifting the flat
    grid by +-1 and +-W; the border is wall, so no free cell's shift wraps.
    The free columns of that grid are ``hop_table``, and one pass over each
    neighbour's column gives every free cell its next hop.
    """
    h, w = shape
    free = ~np.frombuffer(wall_bytes, dtype=bool)
    cells = np.flatnonzero(free)
    n = len(cells)
    ids = np.full(h * w, -1, dtype=np.promote_types(np.int16, np.min_scalar_type(-n)))
    ids[cells] = np.arange(n)
    grid = np.full((n, h * w), -1, dtype=ids.dtype)
    frontier = np.zeros(grid.shape, dtype=bool)
    frontier[np.arange(n), cells] = True
    unseen = free & ~frontier
    grid[frontier] = 0
    reach, d = np.empty_like(frontier), 0
    while frontier.any():
        d += 1
        reach[:, :w] = False
        reach[:, w:] = frontier[:, :-w]
        reach[:, :-w] |= frontier[:, w:]
        reach[:, 1:] |= frontier[:, :-1]
        reach[:, :-1] |= frontier[:, 1:]
        np.logical_and(reach, unseen, out=frontier)
        unseen &= ~frontier
        grid[frontier] = d
    hops = grid[:, cells]
    to = np.tile(ids[cells], (n, 1))  # the source maps to itself
    closer = hops - 1  # -1 only at the source, where walls would match
    for off in (1, -1, w, -w):  # assigned last, up/down/left/right's first wins
        near = grid[:, cells + off]
        np.copyto(to, ids[cells + off], where=(near == closer) & (near >= 0))
    hops.flags.writeable = to.flags.writeable = ids.flags.writeable = False
    return hops, to, ids.reshape(shape)


def hop_table(spec: MazeSpec) -> np.ndarray:
    """(N, N) read-only BFS hops between free cells, by free-cell id."""
    return spec._hops


def next_hop_table(spec: MazeSpec) -> np.ndarray:
    """(N, N) read-only: row g maps each free-cell id s to the id of the first
    of s's up/down/left/right neighbours one hop closer to g; g maps to itself."""
    return spec._next_hops


def distance_field(spec: MazeSpec, source: tuple[int, int]) -> np.ndarray:
    """BFS hops from one free cell to each, in ``free_cells()`` order. Read-only."""
    _check_free_cell(spec, source, "distance_field")
    return spec._hops[spec._ids[source]]


def bfs_distance(spec: MazeSpec, s: State, g: State) -> int:
    """Exact cell-hop temporal distance between the cells holding s and g."""
    cs, cg = cell_of(spec, s), cell_of(spec, g)
    _check_free_cell(spec, cs, "bfs_distance")
    _check_free_cell(spec, cg, "bfs_distance")
    return int(spec._hops[spec._ids[cs], spec._ids[cg]])  # free cells are connected


def shortest_cell_path(spec: MazeSpec, s: State, g: State) -> list[tuple[int, int]]:
    """One BFS-optimal cell path from s's cell to g's cell (deterministic)."""
    start, goal = cell_of(spec, s), cell_of(spec, g)
    _check_free_cell(spec, goal, "shortest_cell_path")
    if start not in spec._free_set:
        raise Unreachable(f"no path between cells {start} and {goal}")
    to = next_hop_table(spec)[spec._ids[goal]].tolist()
    path = [int(spec._ids[start])]
    while (cell := to[path[-1]]) != path[-1]:
        path.append(cell)
    return [spec._free[cell] for cell in path]


def optimal_trajectory(spec: MazeSpec, task: Task) -> np.ndarray:
    """Cell-center shortest path ending exactly at the goal state, (n+1, 2).

    States hop one cell at a time: the reference path for order-consistency
    diagnostics. A start already in the goal's cell gives the goal alone.
    """
    cells = shortest_cell_path(spec, task.start, task.goal)
    states = [cell_center(spec, c) for c in cells[:-1]] + [task.goal]
    return np.asarray(states, dtype=np.float64)


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
    tasks = [Task(cell_center(spec, start_cell), cell_center(spec, goal_cell))
             for start_cell, goal_cell in _CANONICAL_CELLS[name]]
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
