"""Dataset collection, goal sampling, batches, and the dataset file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mazegcrl import data, maze
from mazegcrl.data import (
    Dataset,
    GoalSampleRatios,
    Trajectory,
    collect_navigate,
    collect_stitch,
    expert_action,
    sample_batch,
    sample_goals,
)
from tests import oracle_io


def synthetic_trajectory(length: int) -> Trajectory:
    # state x-coordinate encodes the step index, so goals identify themselves
    states = np.stack([np.arange(length + 1, dtype=np.float64),
                       np.zeros(length + 1)], axis=1)
    actions = np.zeros((length, 2))
    return Trajectory(states, actions)


# ---- trajectory / dataset basics -------------------------------------------------


def test_trajectory_length_consistency_enforced():
    with pytest.raises(ValueError):
        Trajectory(np.zeros((3, 2)), np.zeros((3, 2)))


def test_dataset_flat_index_covers_all_transitions():
    ds = Dataset([synthetic_trajectory(3), synthetic_trajectory(5)])
    assert ds.n_transitions == 8
    assert len(ds.trans_traj) == 8
    pairs = set(zip(ds.trans_traj.tolist(), ds.trans_step.tolist()))
    assert pairs == {(0, t) for t in range(3)} | {(1, t) for t in range(5)}


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        Dataset([])


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
        s = task.start
        reached = False
        for _ in range(3 * max(d, 1)):
            s = maze.step(spec, s, expert_action(spec, s, task.goal, 0.0, rng))
            if maze.reward(s, task.goal, spec.goal_radius)[1]:
                reached = True
                break
        assert reached, f"{name}: expert failed task at distance {d}"


# ---- collection ----------------------------------------------------------------------


def test_navigate_deterministic_given_seed():
    spec = maze.builtin_layout("medium")
    a = collect_navigate(spec, 2000, 0.5, seed=11)
    b = collect_navigate(spec, 2000, 0.5, seed=11)
    assert len(a.trajectories) == len(b.trajectories)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.actions, tb.actions)


def test_navigate_transition_count_within_one_trajectory():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 10_000, 0.5, seed=3)
    assert 10_000 <= ds.n_transitions < 10_000 + spec.max_episode_steps


def test_navigate_covers_free_cells():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 100_000, 0.5, seed=5)
    assert data.cell_coverage(ds, spec) >= 0.95


def validate_dataset(dataset: Dataset, spec) -> None:
    """Exhaustive dynamics-consistency check of every stored transition."""
    for k, traj in enumerate(dataset.trajectories):
        for t in range(traj.length):
            s = tuple(traj.states[t])
            if not maze.is_valid_state(spec, s):
                raise ValueError(f"trajectory {k}: state {t} inside a wall")
            nxt = maze.step(spec, s, tuple(traj.actions[t]))
            if nxt != tuple(traj.states[t + 1]):
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
    for traj in ds.trajectories:
        assert data.trajectory_span(spec, traj) <= 4


def test_stitch_deterministic_given_seed():
    spec = maze.builtin_layout("medium")
    a = collect_stitch(spec, 2000, 4, 0.5, seed=9)
    b = collect_stitch(spec, 2000, 4, 0.5, seed=9)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta.states, tb.states)


def test_giant_stitch_forces_stitching():
    spec = maze.builtin_layout("giant")
    ds = collect_stitch(spec, 30_000, 8, 0.5, seed=1)
    longest = spec.tasks[4]
    assert not data.task_covered(ds, spec, longest)


def test_stitch_segment_len_validated():
    spec = maze.builtin_layout("medium")
    with pytest.raises(ValueError):
        collect_stitch(spec, 100, 1, 0.5, seed=0)


# ---- goal sampling ----------------------------------------------------------------------


def test_ratios_validation():
    with pytest.raises(ValueError):
        GoalSampleRatios(0.5, 0.5, 0.5, 0.0).validate()
    with pytest.raises(ValueError):
        GoalSampleRatios(-0.1, 0.6, 0.5, 0.0).validate()
    GoalSampleRatios(0.2, 0.0, 0.5, 0.3).validate()


def test_sample_goal_cur_branch():
    ds = Dataset([synthetic_trajectory(10)])
    rng = np.random.default_rng(0)
    ts = np.array([0, 4, 9])
    goals, src = sample_goals(ds, np.zeros(3, dtype=int), ts, (1, 0, 0, 0), 0.99, rng)
    assert [data.GOAL_SOURCES[k] for k in src] == ["cur"] * 3
    assert goals[:, 0].tolist() == ts.tolist()


def test_sample_goal_geom_clips_to_last_usable_state():
    ds = Dataset([synthetic_trajectory(10)])
    rng = np.random.default_rng(0)
    goals, src = sample_goals(ds, np.zeros(50, dtype=int), np.full(50, 9),
                              (0, 0, 1, 0), 0.99, rng)
    assert [data.GOAL_SOURCES[k] for k in src] == ["geom"] * 50
    assert (goals[:, 0] == 9).all()  # index T-1, never the final state


def test_geometric_offset_mean_matches_distribution():
    # long trajectory so the in-trajectory clip is immaterial at t=0
    ds = Dataset([synthetic_trajectory(20_000)])
    rng = np.random.default_rng(12)
    n = 100_000
    goals, src = sample_goals(ds, np.zeros(n, dtype=int), np.zeros(n, dtype=int),
                              GoalSampleRatios(0, 0, 1, 0), 0.99, rng)
    assert (src == 2).all()
    offsets = goals[:, 0]
    assert offsets.min() >= 1
    assert abs(offsets.mean() - 100.0) < 5.0


def test_uniform_branch_respects_index_bounds():
    ds = Dataset([synthetic_trajectory(12)])
    rng = np.random.default_rng(1)
    n = 20_000
    ts = rng.integers(0, 12, size=n)
    goals, src = sample_goals(ds, np.zeros(n, dtype=int), ts,
                              GoalSampleRatios(0, 1, 0, 0), 0.99, rng)
    ks = goals[:, 0].astype(int)
    assert (ks >= np.minimum(ts, 11)).all()
    assert (ks <= 11).all()


@settings(max_examples=50, deadline=None)
@given(length=st.integers(2, 40), t_frac=st.floats(0, 1), seed=st.integers(0, 10**6))
def test_in_trajectory_goals_never_precede_current_state(length, t_frac, seed):
    ds = Dataset([synthetic_trajectory(length)])
    t = min(int(t_frac * length), length - 1)
    rng = np.random.default_rng(seed)
    goals, src = sample_goals(ds, np.zeros(64, dtype=int),
                              np.full(64, t, dtype=int),
                              GoalSampleRatios(0, 0.5, 0.5, 0), 0.9, rng)
    assert (goals[:, 0].astype(int) >= t).all()


def test_source_tag_frequencies_match_ratios():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 5000, 0.5, seed=0)
    rng = np.random.default_rng(77)
    n = 100_000
    idx = rng.integers(ds.n_transitions, size=n)
    ratios = GoalSampleRatios(0.2, 0.0, 0.5, 0.3)
    _, src = sample_goals(ds, ds.trans_traj[idx], ds.trans_step[idx],
                          ratios, 0.99, rng)
    freq = np.bincount(src, minlength=4) / n
    assert np.abs(freq - np.array(ratios)).max() < 0.01


def test_random_goal_marginal_matches_dataset_marginal():
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 20_000, 0.5, seed=4)
    rng = np.random.default_rng(5)
    n = 100_000
    idx = rng.integers(ds.n_transitions, size=n)
    goals, _ = sample_goals(ds, ds.trans_traj[idx], ds.trans_step[idx],
                            GoalSampleRatios(0, 0, 0, 1), 0.99, rng)

    def occupancy(points):
        rows = np.floor(points[:, 1] / spec.cell_size).astype(int)
        cols = np.floor(points[:, 0] / spec.cell_size).astype(int)
        return np.bincount(rows * spec.shape[1] + cols,
                           minlength=spec.shape[0] * spec.shape[1])

    trans_states = ds._all_states[ds._state_offset[ds.trans_traj] + ds.trans_step]
    expected = occupancy(trans_states).astype(np.float64)
    got = occupancy(goals).astype(np.float64)
    keep = expected > 0
    expected = expected[keep] / expected[keep].sum() * n
    result = stats.chisquare(got[keep], expected)
    assert result.pvalue > 0.01


# ---- batches ---------------------------------------------------------------------------


def test_batch_cur_goal_gives_reward_zero_done():
    ds = Dataset([synthetic_trajectory(1)])
    rng = np.random.default_rng(0)
    b = sample_batch(ds, 1, (1, 0, 0, 0), (0, 1, 0, 0), 0.99, 5, 0.5, rng)
    assert b["reward"][0] == 0.0
    assert b["done"][0] == 1.0
    assert np.array_equal(b["value_goal"][0], b["obs"][0])


def test_batch_subgoal_clipped_to_penultimate_state():
    ds = Dataset([synthetic_trajectory(4)])
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
    pfreq = np.bincount(b["policy_goal_src"], minlength=4) / 100_000
    assert np.abs(vfreq - np.array([0.2, 0.3, 0.0, 0.5])).max() < 0.01
    assert np.abs(pfreq - np.array([0.0, 0.5, 0.0, 0.5])).max() < 0.01


def test_batch_rejects_bad_ratios():
    ds = Dataset([synthetic_trajectory(5)])
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


# ---- file format -----------------------------------------------------------------------


def test_dataset_file_round_trip_bit_exact(tmp_path):
    spec = maze.builtin_layout("medium")
    ds = collect_navigate(spec, 500, 0.5, seed=13)
    path = tmp_path / "navigate.dset"
    data.write_dataset(ds, path)
    back = data.read_dataset(path)
    assert len(back.trajectories) == len(ds.trajectories)
    for ta, tb in zip(ds.trajectories, back.trajectories):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.actions, tb.actions)
    # the file holds the reference text, and writing again reproduces it
    assert path.read_text() == oracle_io.dataset_to_text(ds)
    assert data.dataset_to_text(back) == data.dataset_to_text(ds)


def test_dataset_header_checked():
    with pytest.raises(ValueError, match="header"):
        data.dataset_from_text("NOPE v1 2 2 1\nT 1\n0 0\n0 0\n1 1\n")


@pytest.mark.parametrize("row, line", [
    ("2.5", 5),          # one number short in the final state
    ("0.1 0.1 0.1", 4),  # one number too many in an action row
])
def test_dataset_row_width_checked(row, line):
    lines = ["GCRL-DSET v1 2 2 1", "T 1", "0.5 0.5", "0.1 0.1", "2.5 2.5"]
    lines[line - 1] = row
    with pytest.raises(ValueError, match=f"line {line} has {len(row.split())} "
                                         f"numbers, expected 2"):
        data.dataset_from_text("\n".join(lines) + "\n")
