"""Dataset collection, goal sampling, batches, and the dataset file format."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mazegcrl import data, maze
from mazegcrl.data import (
    Dataset,
    GoalSampleRatios,
    collect_navigate,
    collect_stitch,
    sample_batch,
    sample_goals,
)
from tests import oracle_collect, oracle_io, oracle_sample
from tests.oracle_collect import dataset_of, expert_action


def synthetic_trajectory(length: int) -> Dataset:
    # state x-coordinate encodes the step index, so goals identify themselves
    states = np.stack([np.arange(length + 1, dtype=np.float64),
                       np.zeros(length + 1)], axis=1)
    actions = np.zeros((length, 2))
    return Dataset(states, actions, [length])


# ---- trajectory / dataset basics -------------------------------------------------


def test_dataset_flat_index_covers_all_transitions():
    ds = dataset_of([synthetic_trajectory(3), synthetic_trajectory(5)])
    assert ds.n_transitions == 8
    assert ds.states.shape == (10, 2) and ds.actions.shape == (8, 2)
    assert ds.index.tolist() == [0, 1, 2, 4, 5, 6, 7, 8]
    assert ds.end.tolist() == [3] * 3 + [9] * 5
    assert ds.index.dtype == ds.end.dtype == np.int32
    # x encodes the step: s_t at index, s_{t+1} after it, s_T at end
    assert ds.states[ds.index, 0].tolist() == [0, 1, 2, 0, 1, 2, 3, 4]
    assert ds.states[ds.end, 0].tolist() == [3] * 3 + [5] * 5


def test_dataset_stores_each_state_once(tmp_path):
    caller = [synthetic_trajectory(n) for n in (1, 4, 1, 2)]
    for traj in caller:
        traj.actions[:] = np.arange(traj.n_transitions)[:, None] + 0.5
    before = [(t.states, t.actions, t.states.copy(), t.actions.copy())
              for t in caller]
    ds = dataset_of(list(caller))
    walked = list(data.walk(ds))
    assert len(walked) == len(caller)
    for traj, (states, actions, s_copy, a_copy), (view_s, view_a) in zip(
            caller, before, walked):
        assert traj.states is states and traj.actions is actions
        assert np.array_equal(states, s_copy) and np.array_equal(actions, a_copy)
        assert np.shares_memory(view_s, ds.states)
        assert np.shares_memory(view_a, ds.actions)
        assert not np.shares_memory(view_s, states)
        assert np.array_equal(view_s, states)
        assert np.array_equal(view_a, actions)
    assert ds.lengths.tolist() == [1, 4, 1, 2]
    spec = maze.builtin_layout("medium")
    data.write_dataset(collect_navigate(spec, 500, 0.5, seed=0),
                       tmp_path / "navigate.dset")
    for got in (collect_stitch(spec, 500, 4, 0.5, seed=0),
                data.read_dataset(tmp_path / "navigate.dset")):
        assert sum(len(s) for s, _ in data.walk(got)) == len(got.states)
        for view_s, view_a in data.walk(got):
            assert np.shares_memory(view_s, got.states)
            assert np.shares_memory(view_a, got.actions)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError, match="at least one trajectory"):
        Dataset(np.zeros((0, 2)), np.zeros((0, 2)), [])
    with pytest.raises(ValueError, match="empty trajectory"):
        Dataset(np.zeros((3, 2)), np.zeros((1, 2)), [1, 0])


# ---- expert ------------------------------------------------------------------------


def test_expert_points_along_corridor():
    from tests.test_maze import corridor_spec

    spec = corridor_spec(6)
    rng = np.random.default_rng(0)
    a = expert_action(spec, (1.5, 1.5), (6.5, 1.5), 0.0, rng)
    assert a == pytest.approx((1.0, 0.0))


def test_expert_in_goal_cell_points_at_goal():
    from tests.test_maze import corridor_spec

    spec = corridor_spec(6)
    rng = np.random.default_rng(0)
    a = expert_action(spec, (3.2, 1.5), (3.8, 1.5), 0.0, rng)
    assert a == pytest.approx((1.0, 0.0))


def test_expert_rejects_goal_outside_free_space():
    walls = np.ones((5, 7), dtype=bool)
    walls[1:4, 1:6] = False
    spec = maze.MazeSpec("open", walls, 1.0, 50, 0.5, ())
    rng = np.random.default_rng(0)
    with pytest.raises(maze.MazeError):
        expert_action(spec, (1.5, 1.5), (0.5, 0.5), 0.0, rng)  # wall cell
    with pytest.raises(maze.MazeError):
        expert_action(spec, (1.5, 1.5), (10.5, 1.5), 0.0, rng)  # out of bounds


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_noiseless_expert_reaches_all_canonical_goals(name):
    # Top speed is 0.4 cells/step, so covering d cells needs about 2.5*d
    # steps; 3*d is the tight achievable bound (the episode budget is 4*d).
    spec = maze.builtin_layout(name)
    rng = np.random.default_rng(0)
    for task in spec.tasks:
        d = maze.bfs_distance(spec, task.start, task.goal)
        s, (gx, gy) = task
        reached = False
        for _ in range(3 * max(d, 1)):
            s = maze.step(spec, s, expert_action(spec, s, task.goal, 0.0, rng))
            if math.hypot(s[0] - gx, s[1] - gy) <= spec.goal_radius:
                reached = True
                break
        assert reached, f"{name}: expert failed task at distance {d}"


# ---- collection ----------------------------------------------------------------------


def test_navigate_deterministic_given_seed():
    spec = maze.builtin_layout("medium")
    a = collect_navigate(spec, 2000, 0.5, seed=11)
    b = collect_navigate(spec, 2000, 0.5, seed=11)
    assert a.lengths.tolist() == b.lengths.tolist()
    for (sa, aa), (sb, ab) in zip(data.walk(a), data.walk(b)):
        assert np.array_equal(sa, sb)
        assert np.array_equal(aa, ab)


def test_navigate_transition_count_within_one_trajectory():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 10_000, 0.5, seed=3)
    assert 10_000 <= ds.n_transitions < 10_000 + spec.max_episode_steps


def test_navigate_covers_free_cells():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 100_000, 0.5, seed=5)
    assert data.coverage(ds, spec)[0] >= 0.95


def validate_dataset(dataset: Dataset, spec) -> None:
    """Exhaustive dynamics-consistency check of every stored transition."""
    for k, (states, actions) in enumerate(data.walk(dataset)):
        for t in range(len(actions)):
            s = tuple(states[t])
            if not maze.is_valid_state(spec, s):
                raise ValueError(f"trajectory {k}: state {t} inside a wall")
            nxt = maze.step(spec, s, tuple(actions[t]))
            if nxt != tuple(states[t + 1]):
                raise ValueError(f"trajectory {k}: transition {t} inconsistent "
                                 f"with the maze dynamics")


def test_navigate_dynamics_consistency_exhaustive():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 3000, 0.5, seed=2)
    validate_dataset(ds, spec)


def test_stitch_span_bounded_by_construction():
    spec = maze.builtin_layout("medium")
    ds = collect_stitch(spec, 3000, 4, 0.5, seed=2)
    validate_dataset(ds, spec)
    assert data.coverage(ds, spec, span=True)[2] <= 4


def test_stitch_deterministic_given_seed():
    spec = maze.builtin_layout("medium")
    a = collect_stitch(spec, 2000, 4, 0.5, seed=9)
    b = collect_stitch(spec, 2000, 4, 0.5, seed=9)
    for (sa, _), (sb, _) in zip(data.walk(a), data.walk(b)):
        assert np.array_equal(sa, sb)


def test_giant_stitch_forces_stitching():
    spec = maze.builtin_layout("giant")
    ds = collect_stitch(spec, 30_000, 8, 0.5, seed=1)
    _, tasks, _ = data.coverage(ds, spec)
    assert tasks[4] is False  # the longest task


def test_coverage_rejects_a_state_in_no_free_cell():
    spec = maze.builtin_layout("medium")
    ds = collect_stitch(spec, 300, 4, 0.5, seed=2)
    # a corner wall, an inner wall, a point left of the grid
    for row, bad in ((17, (0.5, 0.5)), (len(ds.states) - 1, (4.5, 2.5)),
                     (0, (-3.0, 1.5))):
        states = ds.states.copy()
        states[row] = bad
        with pytest.raises(maze.MazeError, match=f"^dataset state {row} "):
            data.coverage(Dataset(states, ds.actions, ds.lengths), spec,
                          span=True)


def test_coverage_never_covers_a_task_end_in_a_wall():
    medium = maze.builtin_layout("medium")
    first, last = (maze.cell_center(medium, c)
                   for c in (medium.free_cells()[0], medium.free_cells()[-1]))
    # the wall cell's id -1 must not read the last free cell's visits
    spec = maze.MazeSpec("medium", medium.walls, 1.0, 60, 0.5,
                         (maze.Task(first, last), maze.Task(first, (0.5, 0.5)),
                          maze.Task((0.5, 0.5), last)))
    ds = collect_navigate(spec, 5000, 0.5, seed=1)
    assert data.coverage(ds, spec)[1] == [True, False, False]


def test_stitch_segment_len_validated():
    spec = maze.builtin_layout("medium")
    with pytest.raises(ValueError):
        collect_stitch(spec, 100, 1, 0.5, seed=0)


# ---- collection against the per-call oracle --------------------------------------------

NOISES = (0.0, 0.3, 1.3, math.inf)


def assert_same_bytes(spec, n, noise, seed, segment_len=None):
    if segment_len is None:
        got = collect_navigate(spec, n, noise, seed)
        want = oracle_collect.collect_navigate(spec, n, noise, seed)
    else:
        got = collect_stitch(spec, n, segment_len, noise, seed)
        want = oracle_collect.collect_stitch(spec, n, segment_len, noise, seed)
    same = all(a.tobytes() == b.tobytes() for a, b in zip(  # no array diff
        (got.states, got.actions, got.lengths), (want.states, want.actions, want.lengths)))
    assert same, (spec.name, n, noise, seed, segment_len)


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_navigate_bytes_equal_the_oracle(name):
    spec = maze.builtin_layout(name)
    for noise, seed in itertools.product(NOISES, range(3)):
        assert_same_bytes(spec, 300, noise, seed)


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_stitch_bytes_equal_the_oracle(name):
    spec = maze.builtin_layout(name)
    for noise, seed, length in itertools.product(NOISES, range(3), (2, 3, 8, 20)):
        assert_same_bytes(spec, 150, noise, seed, length)


@pytest.mark.parametrize("name", maze.LAYOUT_NAMES)
def test_stitch_with_a_span_bound_above_every_hop_count_equals_the_oracle(name):
    # the bound meets int16 hop counts; 2**15 and up lie outside int16 itself
    spec = maze.builtin_layout(name)
    for noise, length in itertools.product((0.0, 0.3), (spec.walls.size, 2**15,
                                                        2**31, 2**70)):
        assert_same_bytes(spec, 150, noise, 0, length)


def test_collection_bytes_equal_the_oracle_at_other_cell_sizes():
    from tests.test_maze import corridor_spec

    big = maze.MazeSpec("medium3", maze.builtin_layout("medium").walls, 3.0, 60,
                        1.5, ())
    for spec, noise in itertools.product((corridor_spec(6, 0.5), big), NOISES):
        assert_same_bytes(spec, 300, noise, 4)
        for length in (2, 3, 8):
            assert_same_bytes(spec, 200, noise, 4, length)


_DEFAULT_RNG = np.random.default_rng  # before any test patches it


class ZeroingRng:
    """A generator whose every fifth double of the stream is exactly 0.0.

    Positions count doubles, however they are drawn: ``random()`` one at a
    time or ``random(size)`` in a block. ``bit_generator.state`` saves and
    restores the position with the real generator's state, as the collector's
    block rewind does; a zeroed position draws nothing from the real stream.
    """

    def __init__(self, seed):
        self.rng, self.calls = _DEFAULT_RNG(seed), 0
        self.bit_generator = self

    @property
    def state(self):
        return self.rng.bit_generator.state, self.calls

    @state.setter
    def state(self, saved):
        self.rng.bit_generator.state, self.calls = saved

    def integers(self, *args):
        return self.rng.integers(*args)

    def random(self, size=None):
        n = 1 if size is None else size
        zero = (self.calls + 1 + np.arange(n)) % 5 == 0
        out = np.zeros(n)
        out[~zero] = self.rng.random(int(np.count_nonzero(~zero)))
        self.calls += n
        return float(out[0]) if size is None else out


def test_nan_action_components_clamp_to_minus_one(monkeypatch):
    # every fifth double is exactly 0.0, so at infinite noise a radius or a
    # sine term is 0 * inf: NaN, which min(1, max(-1, nan)) turns into -1
    monkeypatch.setattr(np.random, "default_rng", ZeroingRng)
    spec = maze.builtin_layout("medium")
    assert_same_bytes(spec, 300, math.inf, 0)
    assert_same_bytes(spec, 200, math.inf, 0, 3)
    _, actions = next(data.walk(collect_navigate(spec, 300, math.inf, 0)))
    assert (actions == -1.0).all(axis=1).any()


class RecordingRng:
    """A real generator that logs each draw and each state save and restore."""

    def __init__(self, seed):
        self.rng, self.log = _DEFAULT_RNG(seed), []
        self.bit_generator = self

    @property
    def state(self):
        self.log.append("save")
        return self.rng.bit_generator.state

    @state.setter
    def state(self, saved):
        self.log.append("restore")
        self.rng.bit_generator.state = saved

    def integers(self, *args):
        self.log.append("integers")
        return self.rng.integers(*args)

    def random(self, size=None):
        self.log.append(("random", size))
        return self.rng.random(size)


def _recorded(monkeypatch, collect, *args):
    rngs = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: rngs.append(RecordingRng(seed)) or rngs[-1])
    dataset = collect(*args)
    monkeypatch.setattr(np.random, "default_rng", _DEFAULT_RNG)
    return dataset, rngs[0].log


@pytest.mark.parametrize("block", [1, 2, 5])
def test_block_draws_equal_the_oracle_at_block_boundaries(monkeypatch, block):
    # with NOISE_BLOCK steps a block, rollouts end exactly on a block's last
    # double, need one step past a block, and stop inside one
    monkeypatch.setattr(data, "NOISE_BLOCK", block)
    spec = maze.builtin_layout("medium")
    for noise in (0.3, math.inf):
        assert_same_bytes(spec, 300, noise, 2)
        assert_same_bytes(spec, 200, noise, 2, 3)
    _, log = _recorded(monkeypatch, collect_navigate, spec, 300, 0.3, 2)
    full = ["save", ("random", 2 * block)]  # a whole block, not a rewind's redraw
    after = [log[i + 2] for i in range(len(log) - 2) if log[i:i + 2] == full]
    assert "integers" in after  # a block used to its last double, no rewind
    assert "save" in after      # a rollout one step longer than a block
    # a rollout that stops inside a block; a one-step block never leaves one
    assert ("restore" in after) == (block > 1)


def test_single_transition_and_noiseless_collection_equal_the_oracle(monkeypatch):
    spec = maze.builtin_layout("medium")
    for seed, noise in itertools.product(range(3), NOISES):
        assert_same_bytes(spec, 1, noise, seed)
        assert_same_bytes(spec, 1, noise, seed, 2)
    for collect, *args in ((collect_navigate, spec, 300, 0.0, 5),
                           (collect_stitch, spec, 300, 4, 0.0, 5)):
        _, log = _recorded(monkeypatch, collect, *args)
        assert set(log) == {"integers"}  # no double drawn, no state saved


def test_stitch_segment_ending_before_its_first_step_equals_the_oracle(monkeypatch):
    # 1.5-cell steps jump the wall between two corridors joined at one end, so
    # a first step can land 20 hops from its start; the three-cell border
    # keeps every landing cell inside the grid
    monkeypatch.setattr(maze, "STEP_LENGTH_CELLS", 1.5)
    walls = maze.text_to_grid("\n".join(
        ["#" * 16] * 3 + ["###..........###", "###.############",
                          "###..........###"] + ["#" * 16] * 3))
    spec = maze.MazeSpec("jump", walls, 1.0, 20, 0.5, ())
    for noise in (1.3, math.inf):
        assert_same_bytes(spec, 200, noise, 0, 3)
    ds, log = _recorded(monkeypatch, collect_stitch, spec, 200, 3, math.inf, 0)
    assert log.count("integers") > 2 * len(ds.lengths)  # a segment was dropped


# ---- goal sampling ----------------------------------------------------------------------


def test_ratios_validation():
    with pytest.raises(ValueError):
        GoalSampleRatios(0.5, 0.5, 0.5, 0.0).validate()
    with pytest.raises(ValueError):
        GoalSampleRatios(-0.1, 0.6, 0.5, 0.0).validate()
    GoalSampleRatios(0.2, 0.0, 0.5, 0.3).validate()


@pytest.mark.parametrize("ratios", [(math.nan, 0, 0, 1), (math.nan,) * 4,
                                    (math.inf, 0, 0, 1)])
def test_sample_goals_refuses_non_finite_ratios(ratios):
    # NaN passed both the sign and the sum test, and every row drew "cur"
    ds = dataset_of([synthetic_trajectory(10)])
    with pytest.raises(ValueError, match="goal ratios must be finite and nonnegative"):
        sample_goals(ds, np.arange(5), ratios, 0.99, np.random.default_rng(0))


def test_sample_goal_cur_branch():
    ds = dataset_of([synthetic_trajectory(10)])
    rng = np.random.default_rng(0)
    ts = np.array([0, 4, 9])
    goals, src = sample_goals(ds, ts, (1, 0, 0, 0), 0.99, rng)
    assert [data.GOAL_SOURCES[k] for k in src] == ["cur"] * 3
    assert goals[:, 0].tolist() == ts.tolist()


def test_sample_goal_geom_clips_to_last_usable_state():
    ds = dataset_of([synthetic_trajectory(10)])
    rng = np.random.default_rng(0)
    goals, src = sample_goals(ds, np.full(50, 9), (0, 0, 1, 0), 0.99, rng)
    assert [data.GOAL_SOURCES[k] for k in src] == ["geom"] * 50
    assert (goals[:, 0] == 9).all()  # index T-1, never the final state


def test_geometric_offset_mean_matches_distribution():
    # long trajectory so the in-trajectory clip is immaterial at t=0
    ds = dataset_of([synthetic_trajectory(20_000)])
    rng = np.random.default_rng(12)
    n = 100_000
    goals, src = sample_goals(ds, np.zeros(n, dtype=int),
                              GoalSampleRatios(0, 0, 1, 0), 0.99, rng)
    assert (src == 2).all()
    offsets = goals[:, 0]
    assert offsets.min() >= 1
    assert abs(offsets.mean() - 100.0) < 5.0


def test_uniform_branch_respects_index_bounds():
    ds = dataset_of([synthetic_trajectory(12)])
    rng = np.random.default_rng(1)
    n = 20_000
    ts = rng.integers(0, 12, size=n)
    goals, src = sample_goals(ds, ts, GoalSampleRatios(0, 1, 0, 0), 0.99, rng)
    ks = goals[:, 0].astype(int)
    assert (ks >= np.minimum(ts, 11)).all()
    assert (ks <= 11).all()


@settings(max_examples=50, deadline=None)
@given(length=st.integers(2, 40), t_frac=st.floats(0, 1), seed=st.integers(0, 10**6))
def test_in_trajectory_goals_never_precede_current_state(length, t_frac, seed):
    ds = dataset_of([synthetic_trajectory(length)])
    t = min(int(t_frac * length), length - 1)
    rng = np.random.default_rng(seed)
    goals, src = sample_goals(ds, np.full(64, t, dtype=int),
                              GoalSampleRatios(0, 0.5, 0.5, 0), 0.9, rng)
    assert (goals[:, 0].astype(int) >= t).all()


def test_source_tag_frequencies_match_ratios():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 5000, 0.5, seed=0)
    rng = np.random.default_rng(77)
    n = 100_000
    idx = rng.integers(ds.n_transitions, size=n)
    ratios = GoalSampleRatios(0.2, 0.0, 0.5, 0.3)
    _, src = sample_goals(ds, idx, ratios, 0.99, rng)
    freq = np.bincount(src, minlength=4) / n
    assert np.abs(freq - np.array(ratios)).max() < 0.01


def test_random_goal_marginal_matches_dataset_marginal():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 20_000, 0.5, seed=4)
    rng = np.random.default_rng(5)
    n = 100_000
    idx = rng.integers(ds.n_transitions, size=n)
    goals, _ = sample_goals(ds, idx, GoalSampleRatios(0, 0, 0, 1), 0.99, rng)

    def occupancy(points):
        rows = np.floor(points[:, 1] / spec.cell_size).astype(int)
        cols = np.floor(points[:, 0] / spec.cell_size).astype(int)
        return np.bincount(rows * spec.shape[1] + cols,
                           minlength=spec.shape[0] * spec.shape[1])

    expected = occupancy(ds.states[ds.index]).astype(np.float64)
    got = occupancy(goals).astype(np.float64)
    keep = expected > 0
    expected = expected[keep] / expected[keep].sum() * n
    result = stats.chisquare(got[keep], expected)
    assert result.pvalue > 0.01


# ---- batches ---------------------------------------------------------------------------


def test_batch_cur_goal_gives_reward_zero_done():
    ds = dataset_of([synthetic_trajectory(1)])
    rng = np.random.default_rng(0)
    b = sample_batch(ds, 1, (1, 0, 0, 0), (0, 1, 0, 0), 0.99, 5, 0.5, rng)
    assert b["reward"][0] == 0.0
    assert b["done"][0] == 1.0
    assert np.array_equal(b["value_goal"][0], b["obs"][0])


def test_batch_subgoal_clipped_to_penultimate_state():
    ds = dataset_of([synthetic_trajectory(4)])
    rng = np.random.default_rng(0)
    b = sample_batch(ds, 256, (1, 0, 0, 0), (0, 1, 0, 0), 0.99, 99, 0.5, rng)
    assert (b["subgoal"][:, 0] == 3).all()  # index T-1 = 3


def test_batch_tag_frequencies():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 5000, 0.5, seed=0)
    rng = np.random.default_rng(6)
    b = sample_batch(ds, 100_000, (0.2, 0.3, 0.0, 0.5), (0.0, 0.5, 0.0, 0.5),
                     0.99, 5, spec.goal_radius, rng)
    vfreq = np.bincount(b["value_goal_src"], minlength=4) / 100_000
    assert np.abs(vfreq - np.array([0.2, 0.3, 0.0, 0.5])).max() < 0.01
    assert "policy_goal_src" not in b
    # the policy goal is the same draw over the policy ratios
    idx = rng.integers(ds.n_transitions, size=100_000)
    _, psrc = sample_goals(ds, idx, (0.0, 0.5, 0.0, 0.5), 0.99, rng)
    pfreq = np.bincount(psrc, minlength=4) / 100_000
    assert np.abs(pfreq - np.array([0.0, 0.5, 0.0, 0.5])).max() < 0.01


def test_batch_rejects_bad_ratios():
    ds = dataset_of([synthetic_trajectory(5)])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_batch(ds, 4, (0.9, 0.9, 0, 0), (0, 1, 0, 0), 0.99, 5, 0.5, rng)


def test_batch_reward_done_consistency():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 2000, 0.5, seed=1)
    rng = np.random.default_rng(2)
    b = sample_batch(ds, 4096, data.VALUE_GOAL_RATIOS_DEFAULT,
                     data.POLICY_GOAL_RATIOS_DEFAULT, 0.99, 5,
                     spec.goal_radius, rng)
    assert np.array_equal(b["reward"] == 0.0, b["done"] == 1.0)
    dist = np.linalg.norm(b["obs"] - b["value_goal"], axis=1)
    assert np.array_equal(b["done"] == 1.0, dist <= spec.goal_radius)


# ---- batches against the (trajectory, step) oracle --------------------------------------

RATIO_SETS = (data.VALUE_GOAL_RATIOS_DEFAULT, data.VALUE_GOAL_RATIOS_STITCH,
              data.POLICY_GOAL_RATIOS_DEFAULT, (0.1, 0.2, 0.3, 0.4))


def short_trajectory_dataset() -> Dataset:
    rng = np.random.default_rng(3)
    return dataset_of([Dataset(rng.random((n + 1, 2)), rng.random((n, 2)), [n])
                       for n in (1, 1, 3, 1, 7, 2, 1, 12, 1)])


@pytest.fixture(scope="module")
def oracle_datasets():
    sets = {"short": short_trajectory_dataset()}
    for name in ("medium", "giant"):
        spec = maze.builtin_layout(name)
        sets[f"{name}/navigate"] = collect_navigate(spec, 2000, 0.5, seed=1)
        sets[f"{name}/stitch"] = collect_stitch(spec, 2000, 8, 0.5, seed=1)
    return sets


def assert_same_arrays(got: dict, want: dict, where) -> None:
    assert list(got) == list(want), where
    for key in want:
        assert got[key].dtype == want[key].dtype, (where, key)
        assert got[key].tobytes() == want[key].tobytes(), (where, key)


@pytest.mark.parametrize("name", ["short", "medium/navigate", "medium/stitch",
                                  "giant/navigate", "giant/stitch"])
def test_batches_equal_the_oracle_bitwise(oracle_datasets, name):
    ds = oracle_datasets[name]
    old = oracle_sample.legacy(ds)
    for seed, batch_size, (v, value_ratios) in itertools.product(
            range(3), (1, 256), enumerate(RATIO_SETS)):
        policy_ratios = RATIO_SETS[(v + 1) % len(RATIO_SETS)]
        args = (value_ratios, policy_ratios, 0.95, 1 + 7 * v, 0.5)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_batch(ds, batch_size, *args, rng)
            want = oracle_sample.sample_batch(old, batch_size, *args, ref)
            del want["policy_goal_src"]
            assert_same_arrays(got, want, (name, seed, batch_size, v))
        idx = rng.integers(ds.n_transitions, size=batch_size)
        ref.integers(ds.n_transitions, size=batch_size)
        got = sample_goals(ds, idx, value_ratios, 0.95, rng)
        want = oracle_sample.sample_goals(old, old.trans_traj[idx],
                                          old.trans_step[idx], value_ratios,
                                          0.95, ref)
        assert_same_arrays(dict(enumerate(got)), dict(enumerate(want)),
                           (name, seed, batch_size, v))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("subgoal_steps", [10**4, 2**31 - 1, 2**31, 2**62])
def test_batches_with_a_subgoal_horizon_past_the_dataset_equal_the_oracle(
        oracle_datasets, subgoal_steps):
    # added to int32 positions, 2**31 - 1 would wrap and 2**31 would raise
    ds = oracle_datasets["medium/stitch"]
    assert subgoal_steps > len(ds.states)
    old = oracle_sample.legacy(ds)
    args = (data.VALUE_GOAL_RATIOS_STITCH, data.POLICY_GOAL_RATIOS_DEFAULT, 0.95,
            subgoal_steps, 0.5)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = sample_batch(ds, 256, *args, rng)
    want = oracle_sample.sample_batch(old, 256, *args, ref)
    del want["policy_goal_src"]
    assert_same_arrays(got, want, subgoal_steps)
    last = got["next_obs"] == got["subgoal"]  # some rows step onto s_T
    assert last.all(axis=1).any() and not last.all()


# ---- file format -----------------------------------------------------------------------


def test_dataset_file_round_trip_bit_exact(tmp_path):
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 500, 0.5, seed=13)
    path = tmp_path / "navigate.dset"
    data.write_dataset(ds, path)
    back = data.read_dataset(path)
    assert back.lengths.tolist() == ds.lengths.tolist()
    for (sa, aa), (sb, ab) in zip(data.walk(ds), data.walk(back)):
        assert np.array_equal(sa, sb)
        assert np.array_equal(aa, ab)
    # the file holds the reference text, and writing again reproduces it
    assert path.read_text() == oracle_io.dataset_to_text(ds)
    data.write_dataset(back, tmp_path / "again.dset")
    assert (tmp_path / "again.dset").read_text() == path.read_text()


@pytest.mark.parametrize("name", ["medium", "giant"])
@pytest.mark.parametrize("style", ["navigate", "stitch"])
def test_read_dataset_gives_the_written_store_byte_for_byte(tmp_path, name, style):
    # the grid trains on the read-back copy: it must be the collected store
    spec = maze.builtin_layout(name)
    for seed in range(3):
        ds = (collect_navigate(spec, 2000, 0.5, seed) if style == "navigate"
              else collect_stitch(spec, 2000, 8, 0.5, seed))
        path = tmp_path / f"{seed}.dset"
        data.write_dataset(ds, path)
        back = data.read_dataset(path)
        for key in ("states", "actions", "lengths", "index", "end"):
            got, want = getattr(back, key), getattr(ds, key)
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert got.tobytes() == want.tobytes(), (seed, key)


def _store_bytes(dataset: Dataset) -> int:
    return sum(a.nbytes for a in (dataset.states, dataset.actions,
                                  dataset.lengths, dataset.index, dataset.end))


def _traced(fn, *args):
    """fn(*args) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_collect_peak_memory_at_most_twice_its_store():
    # at 100k the next-hop, goal and span tables the rollouts cache are
    # small beside the store; tracing makes this collection take ~15 s
    ds, peak = _traced(collect_stitch, maze.builtin_layout("medium"), 100_000,
                       8, 0.5, 1)
    assert peak <= 2 * _store_bytes(ds)


def test_read_dataset_peak_memory_at_most_file_plus_twice_store(tmp_path):
    path = tmp_path / "stitch.dset"
    data.write_dataset(collect_stitch(maze.builtin_layout("medium"), 25_000, 8,
                                      0.5, 1), path)
    back, peak = _traced(data.read_dataset, path)
    assert peak <= path.stat().st_size + 2 * _store_bytes(back)


def test_dataset_header_checked(tmp_path):
    (tmp_path / "nope.dset").write_text("NOPE v1 2 2 1\nT 1\n0 0\n0 0\n1 1\n")
    with pytest.raises(ValueError, match="header"):
        data.read_dataset(tmp_path / "nope.dset")


@pytest.mark.parametrize("row, line", [
    ("2.5", 5),          # one number short in the final state
    ("0.1 0.1 0.1", 4),  # one number too many in an action row
])
def test_dataset_row_width_checked(tmp_path, row, line):
    lines = ["GCRL-DSET v1 2 2 1", "T 1", "0.5 0.5", "0.1 0.1", "2.5 2.5"]
    lines[line - 1] = row
    (tmp_path / "wide.dset").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {line} has {len(row.split())} "
                                         f"numbers, expected 2"):
        data.read_dataset(tmp_path / "wide.dset")


@pytest.mark.parametrize("row, line, message", [
    ("GCRL-DSET v1 x 2 1", 1, "bad dataset header at line 1: invalid literal "
                              "for int() with base 10: 'x'"),
    ("0.1 zz", 4, "line 4: could not convert string to float: 'zz'"),
    ("nan 0.5", 5, None),  # NaN and inf stay readable
], ids=["header", "action-row", "nan"])
def test_dataset_entry_not_a_number_names_its_line(tmp_path, row, line, message):
    lines = ["GCRL-DSET v1 2 2 1", "T 1", "0.5 0.5", "0.1 0.1", "2.5 -inf"]
    lines[line - 1] = row
    text = "\n".join(lines) + "\n"
    path = tmp_path / "entry.dset"
    path.write_text(text)
    if message is None:
        assert np.isnan(data.read_dataset(path).states[1, 0])
        return
    for read, source in ((data.read_dataset, path),
                         (oracle_io.dataset_from_text, text)):
        with pytest.raises(ValueError) as err:
            read(source)
        assert str(err.value) == message


@pytest.mark.parametrize("head", ["-1 2 1", "2 -2 1", "0 2 1", "2 0 1", "2 2 -1",
                                  "2 2 0"])
def test_dataset_header_dims_and_count_below_one_refused(tmp_path, head):
    # each header is followed by one valid trajectory; the refusal names the
    # header, not a row the declared dims or count would misread
    text = f"GCRL-DSET v1 {head}\nT 1\n0.5 0.5\n0.1 0.1\n2.5 2.5\n"
    path = tmp_path / "head.dset"
    path.write_text(text)
    message = (f"bad dataset header at line 1: dims and trajectory count must "
               f"be at least 1, got {head}")
    for read, source in ((data.read_dataset, path),
                         (oracle_io.dataset_from_text, text)):
        with pytest.raises(ValueError) as err:
            read(source)
        assert str(err.value) == message


def test_dataset_negative_trajectory_length_rejected(tmp_path):
    (tmp_path / "neg.dset").write_text("GCRL-DSET v1 2 2 1\nT -1\n0.5 0.5\n")
    with pytest.raises(ValueError, match="expected trajectory marker at line 2"):
        data.read_dataset(tmp_path / "neg.dset")


def test_dataset_content_after_the_declared_trajectories_rejected(tmp_path):
    one = "T 1\n0.5 0.5\n0.1 0.1\n2.5 2.5\n"
    text = "GCRL-DSET v1 2 2 1\n" + one + one
    path = tmp_path / "after.dset"
    path.write_text(text)
    with pytest.raises(ValueError, match="line 6 follows the last of the 1 "
                                         "trajectories"):
        data.read_dataset(path)
    path.write_text(text.replace(" 1\n", " 2\n", 1))
    assert data.read_dataset(path).n_transitions == 2


def test_write_dataset_peak_memory_is_one_block(tmp_path):
    # the block of one short trajectory; building every trajectory's view
    # first took about 0.86 MB here
    ds = collect_stitch(maze.builtin_layout("medium"), 25_000, 8, 0.5, 1)
    _, peak = _traced(data.write_dataset, ds, tmp_path / "stitch.dset")
    assert peak <= 0.1e6
    assert (tmp_path / "stitch.dset").read_text() == oracle_io.dataset_to_text(ds)
