"""Maze layouts, clipped point-mass dynamics, and the BFS distance oracle."""

import ast
import heapq
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazegcrl import maze
from mazegcrl.maze import MazeError, MazeSpec, Task, builtin_layout
from tests import oracle_collect


def corridor_spec(n_cells: int, cell_size: float = 1.0) -> MazeSpec:
    walls = np.ones((3, n_cells + 2), dtype=bool)
    walls[1, 1:n_cells + 1] = False
    return MazeSpec(name="corridor", walls=walls, cell_size=cell_size,
                    max_episode_steps=100,
                    goal_radius=0.5 * cell_size, tasks=())


# ---- layouts -------------------------------------------------------------------


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_builtin_layout_invariants(name):
    spec = builtin_layout(name)
    walls = spec.walls
    assert walls[0].all() and walls[-1].all()
    assert walls[:, 0].all() and walls[:, -1].all()
    assert len(spec.tasks) == 5
    for task in spec.tasks:
        assert maze.is_valid_state(spec, task.start)
        assert maze.is_valid_state(spec, task.goal)
        maze.bfs_distance(spec, task.start, task.goal)  # reachable


def test_interior_sizes():
    assert builtin_layout("medium").shape == (10, 10)
    assert builtin_layout("large").shape == (14, 14)
    assert builtin_layout("giant").shape == (22, 22)


def test_giant_longest_task_at_least_3x_medium():
    def longest(name):
        spec = builtin_layout(name)
        return max(maze.bfs_distance(spec, t.start, t.goal) for t in spec.tasks)

    assert longest("giant") >= 3 * longest("medium")


def test_unknown_layout_rejected():
    with pytest.raises(MazeError, match="unknown layout"):
        builtin_layout("tiny")


def test_disconnected_layout_rejected():
    walls = np.ones((5, 5), dtype=bool)
    walls[1, 1] = False
    walls[3, 3] = False
    with pytest.raises(MazeError, match="connected"):
        MazeSpec("split", walls, 1.0, 10, 0.5, ())


def test_missing_border_rejected():
    walls = np.zeros((4, 4), dtype=bool)
    with pytest.raises(MazeError, match="border"):
        MazeSpec("open", walls, 1.0, 10, 0.5, ())


@pytest.mark.parametrize("budget", [0, -3, float("nan")])
def test_episode_budget_below_one_rejected(budget):
    walls = builtin_layout("medium").walls
    with pytest.raises(MazeError) as err:
        MazeSpec("medium", walls, 1.0, budget, 0.5, ())
    assert str(err.value) == ("layout 'medium': max_episode_steps must be at "
                              f"least 1, got {budget}")
    assert MazeSpec("medium", walls, 1.0, 1, 0.5, ()).max_episode_steps == 1


# ---- dynamics ------------------------------------------------------------------


def test_zero_action_is_identity():
    spec = builtin_layout("medium")
    s = spec.tasks[0].start
    assert maze.step(spec, s, (0.0, 0.0)) == s


def test_wall_blocks_one_axis_only():
    spec = corridor_spec(5)
    s = (1.5, 1.2)
    # pushing up into the wall: y reverted, x applied
    nxt = maze.step(spec, s, (1.0, -1.0))
    assert nxt == (1.9, 1.2)
    # pushing left out of the corridor: x reverted
    nxt = maze.step(spec, (1.2, 1.5), (-1.0, 0.0))
    assert nxt == (1.2, 1.5)


def test_open_corridor_moves_exactly_step_length():
    spec = corridor_spec(10, cell_size=0.5)
    assert spec.step_length == pytest.approx(0.2)
    s = (1.25, 0.75)
    nxt = maze.step(spec, s, (1.0, 0.0))
    assert nxt[0] == pytest.approx(1.45, abs=1e-15)
    assert nxt[1] == s[1]


def test_action_components_clamped():
    spec = corridor_spec(10)
    s = (2.5, 1.5)
    nxt = maze.step(spec, s, (5.0, 0.0))
    assert nxt[0] == pytest.approx(2.5 + spec.step_length)


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_step_never_enters_wall_fuzz(name):
    spec = builtin_layout(name)
    rng = np.random.default_rng(123)
    n = 1_000_000
    free = np.array(spec.free_cells())
    picks = free[rng.integers(len(free), size=n)]
    offs = rng.uniform(0.001, 0.999, size=(n, 2))
    xs = (picks[:, 1] + offs[:, 0]) * spec.cell_size
    ys = (picks[:, 0] + offs[:, 1]) * spec.cell_size
    acts = rng.uniform(-1.0, 1.0, size=(n, 2))
    # step_batch equals the scalar step bit for bit (the Hypothesis test below)
    out = maze.step_batch(spec, np.column_stack([xs, ys]), acts)
    rows = np.floor(out[:, 1] / spec.cell_size).astype(int)
    cols = np.floor(out[:, 0] / spec.cell_size).astype(int)
    assert not spec.walls[rows, cols].any()


_LAYOUTS = {name: builtin_layout(name) for name in maze.LAYOUT_NAMES}


@st.composite
def positions_and_actions(draw):
    spec = _LAYOUTS[draw(st.sampled_from(maze.LAYOUT_NAMES))]
    h, w = spec.shape
    n = draw(st.integers(1, 40))
    # positions reach three cells past every edge of the grid
    xs = st.floats(-3.0 * spec.cell_size, (w + 3) * spec.cell_size)
    ys = st.floats(-3.0 * spec.cell_size, (h + 3) * spec.cell_size)
    pos = draw(st.lists(st.tuples(xs, ys), min_size=n, max_size=n))
    # any float, NaN, +-inf, huge and subnormal included
    acts = draw(st.lists(st.tuples(st.floats(), st.floats()), min_size=n, max_size=n))
    return spec, np.array(pos, dtype=np.float64), np.array(acts, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(case=positions_and_actions())
def test_step_batch_equals_scalar_step_bit_for_bit(case):
    spec, pos, acts = case
    out = maze.step_batch(spec, pos, acts)
    assert out.shape == pos.shape and out.dtype == np.float64
    for i in range(len(pos)):
        want = np.array(maze.step(spec, (pos[i, 0], pos[i, 1]),
                                  (acts[i, 0], acts[i, 1])), dtype=np.float64)
        assert out[i].tobytes() == want.tobytes(), (pos[i], acts[i])


def test_step_batch_clamps_nan_action_to_minus_one():
    spec = corridor_spec(10)
    out = maze.step_batch(spec, np.array([[5.5, 1.5], [5.5, 1.5]]),
                          np.array([[np.nan, 0.0], [np.inf, -0.0]]))
    assert out.tolist() == [[5.5 - spec.step_length, 1.5],
                            [5.5 + spec.step_length, 1.5]]


@pytest.mark.parametrize("spec", [builtin_layout(n) for n in maze.LAYOUT_NAMES]
                         + [corridor_spec(6, cell_size=2.5)],
                         ids=[*maze.LAYOUT_NAMES, "corridor"])
def test_cell_ids_index_free_cells(spec):
    h, w = spec.shape
    free = list(spec.free_cells())
    rng = np.random.default_rng(6)
    cs = spec.cell_size
    # random points, every cell's corners and edge midpoints, two cells past
    # every side of the grid (negative coordinates too), and the grid's bounds
    edges = np.arange(-2, max(h, w) + 3) * cs
    pts = np.concatenate([
        rng.uniform(-2 * cs, (max(h, w) + 2) * cs, size=(2000, 2)),
        np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2),
        np.stack(np.meshgrid(edges + 0.5 * cs, edges), axis=-1).reshape(-1, 2),
        np.stack(np.meshgrid(edges, edges + 0.5 * cs), axis=-1).reshape(-1, 2),
        [[-0.0, -0.0], [-1e-300, 1.5], [w * cs, 1.5], [1.5, h * cs],
         [np.nextafter(w * cs, 0), 1.5], [1e300, -1e300], [np.nan, 1.5]],
    ])
    got = maze.cell_ids(spec, pts[:, 0], pts[:, 1])
    assert got.shape == (len(pts),)
    for (x, y), i in zip(pts.tolist(), got.tolist()):
        cell = maze.cell_of(spec, (x, y)) if x == x else None
        assert i == (free.index(cell) if cell in free else -1), (x, y)
    assert (got >= 0).any() and (got < 0).any()


# ---- BFS oracle ----------------------------------------------------------------


def test_bfs_same_cell_is_zero():
    spec = builtin_layout("medium")
    assert maze.bfs_distance(spec, (1.2, 1.2), (1.8, 1.8)) == 0


def test_bfs_straight_corridor():
    spec = corridor_spec(4)
    assert maze.bfs_distance(spec, (1.5, 1.5), (4.5, 1.5)) == 3


def _dijkstra(walls, src, dst):
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == dst:
            return d
        if d > dist[u]:
            continue
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            v = (u[0] + dr, u[1] + dc)
            if not walls[v]:
                nd = d + 1
                if nd < dist.get(v, 10**9):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return -1


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_free_cells_cached_in_row_major_order(name):
    spec = builtin_layout(name)
    free = [tuple(rc) for rc in np.argwhere(~spec.walls)]
    assert spec.free_cells() == tuple(free)
    assert spec.free_cells() is spec.free_cells()
    # the same draws pick the same cells as indexing the argwhere list
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(50):
        assert oracle_collect.random_free_cell(spec, rng_a) == \
            free[int(rng_b.integers(len(free)))]


def test_bfs_matches_dijkstra_oracle():
    spec = builtin_layout("medium")
    rng = np.random.default_rng(8)
    free = spec.free_cells()
    for _ in range(60):
        a = free[rng.integers(len(free))]
        b = free[rng.integers(len(free))]
        sa, sb = maze.cell_center(spec, a), maze.cell_center(spec, b)
        assert maze.bfs_distance(spec, sa, sb) == _dijkstra(spec.walls, a, b)


def test_bfs_symmetry_and_triangle():
    spec = builtin_layout("large")
    rng = np.random.default_rng(9)
    free = spec.free_cells()
    centers = [maze.cell_center(spec, c) for c in free]
    for _ in range(1000):
        a, b, c = (centers[rng.integers(len(centers))] for _ in range(3))
        dab = maze.bfs_distance(spec, a, b)
        assert dab == maze.bfs_distance(spec, b, a)
        assert maze.bfs_distance(spec, a, c) <= dab + maze.bfs_distance(spec, b, c)


@pytest.mark.parametrize("spec", [builtin_layout(n) for n in maze.LAYOUT_NAMES]
                         + [corridor_spec(6), MazeSpec("medium3", builtin_layout(
                             "medium").walls, 3.0, 60, 1.5, ())],
                         ids=[*maze.LAYOUT_NAMES, "corridor", "medium3"])
def test_distance_field_equals_the_numpy_indexed_bfs(spec):
    table = maze.hop_table(spec)
    assert table.shape == (len(spec.free_cells()),) * 2
    for row, source in zip(table, spec.free_cells()):
        got = maze.distance_field(spec, source)
        want = oracle_collect.distance_field(spec, source)[~spec.walls]  # by id
        assert got.dtype == np.int16
        assert got.shape == want.shape and (got == want).all(), source
        assert np.shares_memory(got, table) and (row == want).all()  # a table row


CUSTOM_GRID = """\
#######
#.....#
#.#.#.#
#.....#
###.###
#.....#
#######"""


@pytest.mark.parametrize("spec", [builtin_layout(n) for n in maze.LAYOUT_NAMES]
                         + [MazeSpec("custom", maze.text_to_grid(CUSTOM_GRID),
                                     0.5, 40, 0.25, ())],
                         ids=[*maze.LAYOUT_NAMES, "custom"])
def test_bfs_tables_are_free_cell_square_and_consistent(spec):
    hops, to = maze.hop_table(spec), maze.next_hop_table(spec)
    n = len(spec.free_cells())
    off = ~np.eye(n, dtype=bool)
    assert hops.shape == to.shape == (n, n)
    assert not hops.flags.writeable and not to.flags.writeable
    assert (hops == hops.T).all() and (np.diag(hops) == 0).all()
    assert (hops[off] >= 1).all()
    assert (np.diag(to) == np.arange(n)).all()  # the goal maps to itself
    assert (np.take_along_axis(hops, to.astype(np.intp), axis=1)[off]
            == hops[off] - 1).all()
    cells = np.array(spec.free_cells())
    steps = np.abs(cells[to] - cells).sum(axis=-1)  # s to its next hop, per goal
    assert (steps[off] == 1).all()


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_both_bfs_tables_are_int16(name):
    # int8 would hold medium's, but NumPy wraps int8 sums silently
    spec = builtin_layout(name)
    assert maze.hop_table(spec).dtype == maze.next_hop_table(spec).dtype == np.int16


def test_hop_table_rows_are_read_only():
    spec = builtin_layout("medium")
    row = maze.distance_field(spec, spec.free_cells()[3])
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 7
    with pytest.raises(ValueError, match="read-only"):
        maze.hop_table(spec)[0, 1] = 7
    with pytest.raises(ValueError, match="read-only"):
        maze.next_hop_table(spec)[0, 1] = 7
    with pytest.raises(TypeError, match="read-only"):  # as the collector reads it
        memoryview(maze.next_hop_table(spec)[3])[1] = 7
    want = oracle_collect.distance_field(spec, spec.free_cells()[3])[~spec.walls]
    assert (row == want).all()
    assert maze.next_hop_table(spec)[0, 0] == 0  # free cell 0 maps to itself


def test_specs_on_one_wall_grid_share_one_hop_table():
    medium = builtin_layout("medium")
    big = MazeSpec("medium3", medium.walls.copy(), 3.0, 60, 1.5, ())
    assert maze.hop_table(big) is maze.hop_table(medium)
    assert maze.hop_table(builtin_layout("medium")) is maze.hop_table(medium)
    assert maze.next_hop_table(big) is maze.next_hop_table(medium)
    assert maze.next_hop_table(builtin_layout("medium")) is maze.next_hop_table(medium)
    assert maze.next_hop_table(builtin_layout("large")) is not maze.next_hop_table(medium)


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_next_hop_table_and_shortest_path_all_pairs(name):
    spec = builtin_layout(name)
    free = spec.free_cells()
    table = maze.next_hop_table(spec)
    assert table.shape == (len(free), len(free))
    for row, goal in zip(table, free):
        dist = oracle_collect.distance_field(spec, goal)
        for cell, hop in zip(free, row.tolist()):
            hop = free[hop]
            if cell == goal:
                assert hop == cell
                continue
            closer = [n for n in ((cell[0] - 1, cell[1]), (cell[0] + 1, cell[1]),
                                  (cell[0], cell[1] - 1), (cell[0], cell[1] + 1))
                      if not spec.walls[n] and dist[n] == dist[cell] - 1]
            assert hop == closer[0]  # the first of up, down, left, right
    # every pair, but on giant (109k pairs, 3.9M hops) every fifth start
    stride = 5 if name == "giant" else 1
    for a in free:
        sa = maze.cell_center(spec, a)
        dist = maze.distance_field(spec, a)
        for i in range(0, len(free), stride):
            b = free[i]
            path = maze.shortest_cell_path(spec, maze.cell_center(spec, b), sa)
            assert len(path) == dist[i] + 1
            assert path[0] == b and path[-1] == a
    wall = (0, 0)
    with pytest.raises(maze.Unreachable):
        maze.shortest_cell_path(spec, maze.cell_center(spec, wall),
                                maze.cell_center(spec, free[0]))
    with pytest.raises(maze.MazeError, match="not a free cell"):
        maze.shortest_cell_path(spec, maze.cell_center(spec, free[0]),
                                maze.cell_center(spec, wall))


# ---- optimal trajectories --------------------------------------------------------


def test_optimal_trajectory_degenerate_task():
    spec = builtin_layout("medium")
    g = spec.tasks[0].start
    states = maze.optimal_trajectory(spec, Task(g, g))
    assert len(states) - 1 == 0
    assert states.shape == (1, 2)


def test_optimal_trajectory_corridor_length():
    spec = corridor_spec(6)
    task = Task((1.5, 1.5), (6.5, 1.5))
    states = maze.optimal_trajectory(spec, task)
    assert len(states) - 1 == maze.bfs_distance(spec, task.start, task.goal) == 5


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_optimal_trajectory_valid_and_monotone(name):
    spec = builtin_layout(name)
    for task in spec.tasks:
        states = maze.optimal_trajectory(spec, task)
        assert len(states) - 1 == maze.bfs_distance(spec, task.start, task.goal)
        cells = [maze.cell_of(spec, tuple(s)) for s in states]
        for a, b in zip(cells, cells[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
        dists = [maze.bfs_distance(spec, tuple(s), task.goal) for s in states]
        assert all(x > y for x, y in zip(dists, dists[1:]))
        assert dists[-1] == 0


def test_maze_imports_no_other_package_module():
    # maze is the bottom layer: data, training and evaluation import it, so an
    # import the other way, even one inside a function, is a cycle
    tree = ast.parse(Path(maze.__file__).read_text())
    own = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "mazegcrl":
                own.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            own += [alias.name for alias in node.names
                    if alias.name.split(".")[0] == "mazegcrl"]
    assert own == []


# ---- grid text ------------------------------------------------------------------


def test_bad_grid_rejected():
    with pytest.raises(MazeError):
        maze.text_to_grid("##\n#")
    with pytest.raises(MazeError):
        maze.text_to_grid("#x\n##")
