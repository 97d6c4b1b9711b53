"""Rollout evaluation, Kendall order consistency, landscape diagnostics."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from mazegcrl import data, evaluation as E, maze
from mazegcrl.maze import Task, builtin_layout
from mazegcrl.training import TrainConfig, init_learner
from tests import oracle_eval
from tests.oracle_collect import expert_action
from tests.test_maze import corridor_spec


def zero_policy_learner(spec, bias=(0.0, 0.0), hierarchical=False):
    cfg = TrainConfig(arch_kind="MLP", hierarchical=hierarchical)
    state = init_learner(cfg, spec)
    pols = [state.low] + ([state.high] if hierarchical else [])
    for pol in pols:
        for w in pol.net.weights:
            w[...] = 0.0
        for b in pol.net.biases:
            b[...] = 0.0
    state.low.net.biases[-1][...] = np.array(bias)
    return state


def path_states(values_by_index):
    n = len(values_by_index)
    return np.stack([np.arange(n, dtype=np.float64), np.zeros(n)], axis=1)


# ---- act -----------------------------------------------------------------------


def act_one(state, s, g) -> list:
    return E.act_batch(state, np.array([s]), np.array([g]))[0].tolist()


def test_zero_policy_action_is_clamped_bias():
    spec = builtin_layout("medium")
    state = zero_policy_learner(spec, bias=(2.0, -0.5))
    assert act_one(state, spec.tasks[0].start, spec.tasks[0].goal) == [1.0, -0.5]


def test_flat_action_conditions_on_goal_directly():
    spec = builtin_layout("medium")
    state = zero_policy_learner(spec)
    from mazegcrl.training import policy_mean

    s, g = spec.tasks[1].start, spec.tasks[1].goal
    direct = policy_mean(state.low,
                         np.concatenate([state.normalize(np.array(s)),
                                         state.normalize(np.array(g))])[None])[0]
    assert act_one(state, s, g) == np.clip(direct, -1, 1).tolist()


def test_hierarchical_action_conditions_on_subgoal_representation():
    spec = builtin_layout("medium")
    state = zero_policy_learner(spec, hierarchical=True)
    from mazegcrl.training import policy_mean

    s, g = spec.tasks[1].start, spec.tasks[1].goal
    sn = state.normalize(np.array(s))
    w = policy_mean(state.high,
                    np.concatenate([sn, state.normalize(np.array(g))])[None])[0]
    direct = policy_mean(state.low, np.concatenate([sn, w])[None])[0]
    assert act_one(state, s, g) == np.clip(direct, -1, 1).tolist()


# ---- evaluate ------------------------------------------------------------------


def test_frozen_zero_policy_fails_every_task():
    spec = builtin_layout("medium")
    state = zero_policy_learner(spec)
    rng = np.random.default_rng(0)
    report = E.evaluate(state, spec, spec.tasks, trials_per_task=5, rng=rng)
    assert report.aggregate_success == 0.0


def test_degenerate_task_succeeds_immediately():
    spec = builtin_layout("medium")
    state = zero_policy_learner(spec)
    start = spec.tasks[0].start
    rng = np.random.default_rng(0)
    report = E.evaluate(state, spec, (Task(start, start),), 8, rng)
    assert report.task_success == [1.0]


def test_expert_actor_succeeds_on_all_canonical_tasks():
    spec = builtin_layout("medium")
    rng = np.random.default_rng(1)

    def expert_actor(pos, goals):
        out = np.zeros_like(pos)
        for i in range(len(pos)):
            out[i] = expert_action(spec, tuple(pos[i]), tuple(goals[i]), 0.0,
                                   rng)
        return out

    for task in spec.tasks:
        starts = E._jittered_starts(spec, task.start, 4, np.random.default_rng(2))
        done = E._rollout_success(expert_actor, spec, starts, task.goal,
                                  spec.max_episode_steps)
        assert done.all()


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_jittered_starts_equal_the_per_trial_loop_at_cell_edges(name):
    spec = builtin_layout(name)
    free = spec.free_cells()
    rng = np.random.default_rng(5)
    starts = []
    for r, c in (free[k] for k in rng.integers(len(free), size=20).tolist()):
        # near a corner: about half the jittered trials leave the start's cell
        starts.append(((c + rng.uniform(0.0, 0.2)) * spec.cell_size,
                       (r + rng.uniform(0.8, 1.0)) * spec.cell_size))
    # inside a wall cell next to free cells: no trial is jittered
    inner_walls = np.argwhere(spec.walls[1:-1, 1:-1]) + 1
    starts += [maze.cell_center(spec, tuple(rc)) for rc in inner_walls[:3]]
    for start in starts:
        seed = int(rng.integers(2**32))
        got = E._jittered_starts(spec, start, 30, np.random.default_rng(seed))
        want = oracle_eval._jittered_starts(spec, start, 30,
                                            np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes(), start
        assert (got == start).all(axis=1).any()


def test_evaluate_deterministic_given_rng_seed():
    spec = builtin_layout("medium")
    cfg = TrainConfig(arch_kind="LAN", hierarchical=True, seed=3)
    state = init_learner(cfg, spec)
    r1 = E.evaluate(state, spec, spec.tasks, 6, np.random.default_rng(9))
    r2 = E.evaluate(state, spec, spec.tasks, 6, np.random.default_rng(9))
    assert r1 == r2


def test_trials_validated():
    spec = builtin_layout("medium")
    state = zero_policy_learner(spec)
    with pytest.raises(ValueError):
        E.evaluate(state, spec, spec.tasks, 0, np.random.default_rng(0))


def test_empty_task_set_gives_empty_report():
    spec = builtin_layout("medium")
    state = zero_policy_learner(spec)
    report = E.evaluate(state, spec, (), 5, np.random.default_rng(0))
    assert report == E.EvalReport(state.step, [], [], [])


def test_actor_called_once_per_step_across_all_tasks(monkeypatch):
    spec = builtin_layout("medium")
    state = zero_policy_learner(spec)
    calls = []
    act = E.act_batch

    def counted(*args):
        out = act(*args)
        calls.append(len(out))
        return out

    monkeypatch.setattr(E, "act_batch", counted)
    E.evaluate(state, spec, spec.tasks, 4, np.random.default_rng(0))
    # the zero policy never arrives, so the rollout runs its whole budget
    assert len(calls) == spec.max_episode_steps
    assert set(calls) == {len(spec.tasks) * 4}


def test_evaluate_reads_one_bfs_field_per_task(monkeypatch):
    # the reference paths walk next_hop_table rows; only alignment reads a field
    spec = builtin_layout("giant")
    state = zero_policy_learner(spec)
    calls = []
    field = maze.distance_field
    monkeypatch.setattr(maze, "distance_field",
                        lambda *args: calls.append(args) or field(*args))
    E.evaluate(state, spec, spec.tasks, 1, np.random.default_rng(0))
    assert len(spec.tasks) == 5 and len(calls) <= 5


# ---- batched rollouts against the per-task reference ------------------------------


def near_tasks(spec):
    """Goals 0.6 and 0.9 cells right of each canonical start, where free."""
    tasks = [Task(t.start, (t.start[0] + dx * spec.cell_size, t.start[1]))
             for t in spec.tasks for dx in (0.6, 0.9)]
    return tuple(t for t in tasks if maze.is_valid_state(spec, t.goal))


@pytest.mark.parametrize("trials", [20, 50])
@pytest.mark.parametrize("kind,hierarchical", [("LAN", True), ("MLP", False)])
@pytest.mark.parametrize("layout", ["medium", "giant"])
def test_evaluate_matches_per_task_reference(layout, kind, hierarchical, trials):
    spec = builtin_layout(layout)
    state = init_learner(TrainConfig(arch_kind=kind, hierarchical=hierarchical,
                                     seed=1), spec)
    tasks = spec.tasks + near_tasks(spec)
    got = E.evaluate(state, spec, tasks, trials, np.random.default_rng(4))
    want = oracle_eval.evaluate(state, spec, tasks, trials,
                                np.random.default_rng(4))
    assert got == want
    assert any(s > 0.0 for s in got.task_success)


def corridor_tasks(spec):
    """Row-1 tasks of the giant layout: goals right of the start are reached
    by a policy pushing right after different numbers of steps, goals left
    of it never are."""
    tasks = []
    for c0, c1 in ((1, 4), (2, 9), (3, 14), (5, 20), (10, 3), (1, 1)):
        tasks.append(Task(maze.cell_center(spec, (1, c0)),
                          maze.cell_center(spec, (1, c1))))
    return tuple(tasks)


@pytest.mark.parametrize("trials", [20, 50])
def test_evaluate_matches_reference_when_trials_succeed(trials):
    spec = builtin_layout("giant")
    state = zero_policy_learner(spec, bias=(1.0, 0.0))
    tasks = corridor_tasks(spec)
    got = E.evaluate(state, spec, tasks, trials, np.random.default_rng(7))
    want = oracle_eval.evaluate(state, spec, tasks, trials,
                                np.random.default_rng(7))
    assert got == want
    assert got.task_success[:4] == [1.0] * 4 and got.task_success[4] == 0.0


def test_expert_rollout_matches_reference_when_trials_finish_apart():
    spec = builtin_layout("medium")
    trials = 20

    def expert_actor(pos, goals):
        out = np.zeros_like(pos)
        for i in range(len(pos)):
            out[i] = expert_action(spec, tuple(pos[i]), tuple(goals[i]), 0.0,
                                   None)
        return out

    rng = np.random.default_rng(3)
    starts = [E._jittered_starts(spec, t.start, trials, rng) for t in spec.tasks]
    goals = np.repeat([t.goal for t in spec.tasks], trials, axis=0)
    finish = np.full(len(goals), -1)
    for budget in range(spec.max_episode_steps + 1):
        got = E._rollout_success(expert_actor, spec, np.concatenate(starts),
                                 goals, budget)
        want = np.concatenate([
            oracle_eval.rollout_success(expert_actor, spec, s, t.goal, budget)
            for s, t in zip(starts, spec.tasks)])
        assert np.array_equal(got, want), budget
        finish[(finish < 0) & got] = budget
        if got.all():
            break
    assert (finish >= 0).all()
    assert len(set(finish.tolist())) > len(spec.tasks)

    # finished trials stay where they arrived while the others run on
    seen = []

    def recording_actor(pos, goals):
        seen.append(pos.copy())
        return expert_actor(pos, goals)

    E._rollout_success(recording_actor, spec, np.concatenate(starts), goals,
                       spec.max_episode_steps)
    seen = np.array(seen)
    arrived = np.linalg.norm(seen - goals, axis=2) <= spec.goal_radius
    waited = 0
    for i in np.flatnonzero(arrived.any(axis=0)):
        first = int(arrived[:, i].argmax())
        assert (seen[first:, i] == seen[first, i]).all()
        waited += len(seen) - 1 - first
    assert waited > 0


# ---- Kendall order consistency -----------------------------------------------------


def test_kendall_strictly_increasing_value_scores_one():
    path = path_states(range(8))
    fn = lambda states, g: -(7.0 - states[:, 0])
    assert E.kendall_consistency(fn, path, (7.0, 0.0)) == 1.0


def test_kendall_strictly_decreasing_value_scores_zero():
    path = path_states(range(8))
    fn = lambda states, g: 3.0 * (7.0 - states[:, 0])
    assert E.kendall_consistency(fn, path, (7.0, 0.0)) == 0.0


def test_kendall_empty_path_is_vacuously_one():
    path = path_states(range(1))
    fn = lambda states, g: np.zeros(len(states))
    assert E.kendall_consistency(fn, path, (0.0, 0.0)) == 1.0


def test_kendall_matches_pair_counting_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        horizon = int(rng.integers(1, 11))
        vals = rng.normal(size=horizon + 1)
        path = path_states(range(horizon + 1))
        fn = lambda states, g, vals=vals: vals[states[:, 0].astype(int)]
        count = 0
        for i in range(horizon + 1):
            for j in range(i + 1, horizon + 1):
                if vals[j] > vals[i]:
                    count += 1
        expected = count / (horizon * (horizon + 1) / 2)
        assert E.kendall_consistency(fn, path, (0, 0)) == pytest.approx(
            expected, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), scale=st.floats(0.1, 5.0),
       shift=st.floats(-3.0, 3.0))
def test_kendall_invariant_under_increasing_transforms(seed, scale, shift):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=7)
    path = path_states(range(7))
    base = E.kendall_consistency(
        lambda s, g: vals[s[:, 0].astype(int)], path, (0, 0))
    warped = E.kendall_consistency(
        lambda s, g: np.exp(scale * vals[s[:, 0].astype(int)]) + shift,
        path, (0, 0))
    assert warped == base


def test_kendall_complement_bound():
    rng = np.random.default_rng(6)
    for _ in range(50):
        vals = rng.normal(size=6)
        path = path_states(range(6))
        fn = lambda s, g, v=vals: v[s[:, 0].astype(int)]
        neg = lambda s, g, v=vals: -v[s[:, 0].astype(int)]
        total = (E.kendall_consistency(fn, path, (0, 0))
                 + E.kendall_consistency(neg, path, (0, 0)))
        assert total <= 1.0 + 1e-15
        assert total == pytest.approx(1.0)  # no ties in continuous draws

    tied = np.array([1.0, 1.0, 2.0])
    path = path_states(range(3))
    fn = lambda s, g: tied[s[:, 0].astype(int)]
    neg = lambda s, g: -tied[s[:, 0].astype(int)]
    assert (E.kendall_consistency(fn, path, (0, 0))
            + E.kendall_consistency(neg, path, (0, 0))) < 1.0


# ---- landscapes ---------------------------------------------------------------------


def test_constant_value_gives_constant_landscape():
    spec = builtin_layout("medium")
    fn = lambda states, g: np.full(len(states), -2.5)
    grid = E.value_landscape(fn, spec, spec.tasks[0].goal, resolution=2)
    assert (grid.values == -2.5).all()


@pytest.mark.parametrize("res", [1, 2, 3])
@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_landscape_point_count_and_walls_absent(name, res):
    spec = builtin_layout(name)
    fn = lambda states, g: np.zeros(len(states))
    grid = E.value_landscape(fn, spec, spec.tasks[0].goal, resolution=res)
    n_free = len(spec.free_cells())
    assert len(grid.values) == n_free * res * res
    rows = np.floor(grid.ys / spec.cell_size).astype(int)
    cols = np.floor(grid.xs / spec.cell_size).astype(int)
    assert not spec.walls[rows, cols].any()
    # the same points, in the same order and bits, as the per-cell loop
    want_xs, want_ys = oracle_eval._free_sample_points(spec, res)
    assert grid.xs.tobytes() == want_xs.tobytes()
    assert grid.ys.tobytes() == want_ys.tobytes()


def test_landscape_resolution_validated():
    spec = builtin_layout("medium")
    with pytest.raises(ValueError):
        E.value_landscape(lambda s, g: np.zeros(len(s)), spec,
                          spec.tasks[0].goal, resolution=0)


# ---- temporal alignment ----------------------------------------------------------------


def bfs_value_fn(spec, sign=-1.0):
    def fn(states, goal):
        return sign * np.array(
            [maze.bfs_distance(spec, tuple(s), tuple(goal)) for s in states],
            dtype=np.float64)

    return fn


def test_alignment_of_oracle_is_one():
    for name in maze.LAYOUT_NAMES:
        spec = builtin_layout(name)
        fn = bfs_value_fn(spec, sign=-1.0)
        assert E.temporal_alignment(fn, spec, spec.tasks[4].goal) == pytest.approx(1.0)


def test_alignment_of_negated_oracle_is_minus_one():
    spec = builtin_layout("medium")
    fn = bfs_value_fn(spec, sign=+1.0)
    assert E.temporal_alignment(fn, spec, spec.tasks[4].goal) == pytest.approx(-1.0)


def test_euclidean_value_misaligns_behind_walls():
    spec = builtin_layout("medium")

    def fn(states, goal):
        return -np.linalg.norm(states - np.asarray(goal), axis=1)

    score = E.temporal_alignment(fn, spec, spec.tasks[4].goal)
    assert score < 1.0


INF = float("inf")
NAN = float("nan")

# scipy.stats.spearmanr, a test-only dependency, is the reference. Small
# integers tie often; signed zeros and infinities must rank as scipy sorts them.
sample_elements = st.sampled_from([
    st.integers(-3, 3).map(float),
    st.sampled_from((0.0, -0.0, INF, -INF, 0.5, -0.5)),
    st.floats(allow_nan=False),
    st.floats(-1e3, 1e3),
])


@st.composite
def sample_pairs(draw):
    n = draw(st.one_of(st.just(2), st.integers(2, 40), st.integers(2, 500)))
    pair = []
    for _ in range(2):
        elements = draw(sample_elements)
        if draw(st.integers(0, 5)) == 0:  # now and then a NaN
            elements = st.one_of(elements, st.just(NAN))
        pair.append(draw(hnp.arrays(np.float64, n, elements=elements,
                                    fill=st.nothing())))
    return tuple(pair)


def _constant_warnings(caught) -> list[str]:
    return [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "constant" in str(w.message)]


@settings(max_examples=400, deadline=None)
@given(pair=sample_pairs())
@example(pair=(np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0])))
@example(pair=(np.array([0.0, 1.0, 2.0]), np.array([-0.0, 0.0, -0.0])))
@example(pair=(np.array([INF, INF]), np.array([NAN, 1.0])))
@example(pair=(np.array([NAN, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])))
@example(pair=(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, NAN])))
@example(pair=(np.array([INF, -INF, 0.0, -0.0]), np.array([1.0, 2.0, 3.0, 4.0])))
def test_spearman_same_bits_as_scipy(pair):
    a, b = pair
    with warnings.catch_warnings(record=True) as theirs:
        warnings.simplefilter("always")
        expected = np.float64(stats.spearmanr(a, b).statistic)
    with warnings.catch_warnings(record=True) as ours:
        warnings.simplefilter("always")
        got = np.float64(E._spearman(a, b))
    assert got.tobytes() == expected.tobytes(), (got, expected)
    assert _constant_warnings(ours) == _constant_warnings(theirs)


def test_spearman_constant_sample_is_nan_with_warning():
    with pytest.warns(RuntimeWarning, match="An input array is constant; "
                                            "the correlation coefficient is "
                                            "not defined."):
        rho = E._spearman(np.zeros(4), np.arange(4.0))
    assert np.isnan(rho)


def test_alignment_needs_two_free_cells():
    walls = np.ones((3, 3), dtype=bool)
    walls[1, 1] = False
    spec = maze.MazeSpec("dot", walls, 1.0, 10, 0.5, ())
    with pytest.raises(ValueError):
        E.temporal_alignment(lambda s, g: np.zeros(len(s)), spec, (1.5, 1.5))


# ---- CSV round trips ----------------------------------------------------------------------


def test_report_csv_round_trip():
    reports = [E.EvalReport(100, [0.2, 1.0], [0.5, 0.75], [0.9, -0.1]),
               E.EvalReport(200, [0.4, 0.8], [0.55, 0.8], [0.95, 0.0])]
    text = E.report_to_csv(reports)
    back = E.report_from_csv(text)
    assert back == reports
    assert E.report_to_csv(back) == text


def test_report_csv_rejects_out_of_order_task_ids():
    text = E.report_to_csv([E.EvalReport(100, [0.2, 1.0], [0.5, 0.75], [0.9, -0.1])])
    header, first, second = text.strip().split("\n")
    with pytest.raises(ValueError, match="task id"):
        E.report_from_csv("\n".join([header, second, first]))


def test_landscape_csv_round_trip():
    spec = builtin_layout("medium")
    fn = lambda states, g: -np.hypot(states[:, 0] - g[0], states[:, 1] - g[1])
    grid = E.value_landscape(fn, spec, spec.tasks[0].goal, resolution=2)
    text = E.landscape_to_csv(grid)
    table = E.table_from_csv("landscape", E._LANDSCAPE, text)
    xs, ys, vals = (np.array([row[col] for row in table]) for col in E._LANDSCAPE)
    assert np.array_equal(xs, grid.xs)
    assert np.array_equal(ys, grid.ys)
    assert np.array_equal(vals, grid.values)
