"""Losses, AWR weighting, the optimization step, and checkpoint trees."""

from dataclasses import replace

import numpy as np
import pytest

from mazegcrl import data, maze
from mazegcrl import training as T
from mazegcrl.autodiff import GraphError, MlpParams
from mazegcrl.data import Dataset, sample_batch
from mazegcrl.training import (
    LearnerState,
    TrainConfig,
    awr_weights,
    continuity_threshold,
    init_learner,
    step_losses,
    train_step,
)
from mazegcrl.values import ValueArchitecture, value
from tests.test_maze import corridor_spec


def make_batch(rng, size=8, spread=4.0):
    b = {
        "obs": rng.uniform(0.5, spread, (size, 2)),
        "action": rng.uniform(-1, 1, (size, 2)),
        "next_obs": rng.uniform(0.5, spread, (size, 2)),
        "value_goal": rng.uniform(0.5, spread, (size, 2)),
        "policy_goal": rng.uniform(0.5, spread, (size, 2)),
        "subgoal": rng.uniform(0.5, spread, (size, 2)),
        "rand_goal": rng.uniform(0.5, spread, (size, 2)),
        "done": (rng.random(size) < 0.2).astype(np.float64),
    }
    b["reward"] = np.where(b["done"] == 1.0, 0.0, -1.0)
    return b


def loss(state, batch, name, **overrides):
    """One entry of ``step_losses`` under config fields ``overrides``."""
    state.config = replace(state.config, **overrides)
    return step_losses(state, batch)[name]


def constant_value_learner(spec, const, **cfg_kwargs):
    """MLP learner whose online and target values are a fixed constant."""
    cfg = TrainConfig(arch_kind="MLP", hierarchical=False,
                      normalize_inputs=False, **cfg_kwargs)
    state = init_learner(cfg, spec)
    for net in (state.arch.nets["trunk"], state.target_arch.nets["trunk"]):
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
        net.biases[-1][...] = const
    return state


# ---- expectile -----------------------------------------------------------------


def expectile_loss(x: float, expectile: float) -> float:
    """Asymmetric squared loss |e - 1{x<0}| * x^2 of one error (the oracle)."""
    if not 0.0 < expectile < 1.0:
        raise ValueError("expectile must lie in (0, 1)")
    weight = (1.0 - expectile) if x < 0 else expectile
    return weight * x * x


def test_expectile_half_is_symmetric_mse():
    for x in (-3.0, -0.5, 0.0, 1.7):
        assert expectile_loss(x, 0.5) == 0.5 * x * x


def test_expectile_plug_ins():
    assert expectile_loss(2.0, 0.9) == pytest.approx(3.6, abs=1e-15)
    assert expectile_loss(-2.0, 0.9) == pytest.approx(0.4, abs=1e-15)


def test_expectile_range_checked():
    with pytest.raises(ValueError):
        expectile_loss(1.0, 0.0)


# ---- TD loss -------------------------------------------------------------------


def test_td_zero_at_reached_goal_with_zero_value():
    spec = corridor_spec(4)
    state = constant_value_learner(spec, 0.0)
    rng = np.random.default_rng(0)
    batch = make_batch(rng)
    batch["done"][:] = 1.0
    batch["reward"][:] = 0.0
    assert loss(state, batch, "td_loss") == 0.0


def test_td_hand_case():
    # r=-1, discount 0.99, target value -10, online value -10, expectile 0.7:
    # error = -1 + 0.99*(-10) + 10 = -0.9, loss = 0.3 * 0.81 = 0.243
    spec = corridor_spec(4)
    state = constant_value_learner(spec, -10.0, discount=0.99, expectile=0.7,
                                   dtype="float64")
    rng = np.random.default_rng(1)
    batch = make_batch(rng)
    batch["done"][:] = 0.0
    batch["reward"][:] = -1.0
    assert loss(state, batch, "td_loss") == pytest.approx(0.243, abs=1e-12)


def test_td_matches_per_sample_loop_oracle():
    spec = maze.builtin_layout("medium")
    cfg = TrainConfig(arch_kind="LAN", hierarchical=True, expectile=0.9,
                      dtype="float64")
    state = init_learner(cfg, spec)
    ds = data.collect_navigate(spec, 2000, 0.5, seed=0)
    rng = np.random.default_rng(3)
    batch = sample_batch(ds, 64, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)

    per_sample = []
    for i in range(64):
        s = state.normalize(batch["obs"][i])[None]
        s2 = state.normalize(batch["next_obs"][i])[None]
        g = state.normalize(batch["value_goal"][i])[None]
        v = value(state.arch, state.rep, s, g)[0]
        tv = value(state.target_arch, state.rep, s2, g)[0]
        err = (batch["reward"][i]
               + cfg.discount * (1.0 - batch["done"][i]) * tv - v)
        per_sample.append(expectile_loss(err, cfg.expectile))
    assert loss(state, batch, "td_loss") == pytest.approx(np.mean(per_sample),
                                                          rel=1e-12)


def test_td_rejects_nonfinite_parameters():
    spec = corridor_spec(4)
    state = constant_value_learner(spec, 0.0)
    state.arch.nets["trunk"].biases[-1][...] = np.nan
    rng = np.random.default_rng(0)
    with pytest.raises(GraphError, match="non-finite"):
        step_losses(state, make_batch(rng))


def test_td_near_half_expectile_is_symmetric():
    spec = corridor_spec(4)
    cfg = TrainConfig(arch_kind="LAN", hierarchical=False,
                      expectile=0.5 + 1e-15, dtype="float64")
    state = init_learner(cfg, spec)
    rng = np.random.default_rng(4)
    batch = make_batch(rng)
    s = state.normalize(batch["obs"])
    s2 = state.normalize(batch["next_obs"])
    g = state.normalize(batch["value_goal"])
    err = (batch["reward"]
           + cfg.discount * (1.0 - batch["done"])
           * value(state.target_arch, None, s2, g)
           - value(state.arch, None, s, g))
    sym = 0.5 * (err ** 2).mean()
    assert loss(state, batch, "td_loss") == pytest.approx(sym, abs=1e-12)


# ---- continuity -----------------------------------------------------------------


def test_continuity_threshold_formula():
    assert continuity_threshold(0.99, -50.0) == pytest.approx(1.5, abs=1e-15)
    assert continuity_threshold(0.99, 50.0) == pytest.approx(1.5, abs=1e-15)


def test_continuity_hinge_values():
    # value function V(s, g) = s_x; batch mean 100 makes the threshold 2.0,
    # so a gap of 3 costs 9 - 4 = 5 and a gap of 0.5 costs nothing
    spec = corridor_spec(4)
    cfg = TrainConfig(arch_kind="MLP", hierarchical=False,
                      normalize_inputs=False, discount=0.99, dtype="float64")
    state = init_learner(cfg, spec)
    trunk = MlpParams([np.array([[1.0], [0.0], [0.0], [0.0]])], [np.zeros(1)])
    state.arch = ValueArchitecture("MLP", {"trunk": trunk})
    batch = make_batch(np.random.default_rng(0), size=1)
    batch["obs"][0] = (100.0, 1.0)
    batch["next_obs"][0] = (103.0, 1.0)
    assert loss(state, batch, "continuity_loss") == 0.0  # weight 0: not built
    assert loss(state, batch, "continuity_loss",
                continuity_weight=1.0) == pytest.approx(5.0, abs=1e-12)
    batch["next_obs"][0] = (100.5, 1.0)
    assert loss(state, batch, "continuity_loss") == 0.0


# ---- AWR policy losses ------------------------------------------------------------


def test_awr_weights_mean_one_and_clip():
    rng = np.random.default_rng(6)
    adv = rng.normal(size=512) * 3.0
    w = awr_weights(adv, 3.0)
    assert abs(w.mean() - 1.0) < 1e-14
    assert (np.minimum(np.exp(3.0 * adv), 100.0) /
            np.minimum(np.exp(3.0 * adv), 100.0).mean() == w).all()
    huge = awr_weights(np.array([1000.0, 0.0]), 1.0)
    assert np.isfinite(huge).all()


def test_high_policy_loss_zero_advantage_is_mean_nll():
    spec = corridor_spec(4)
    cfg = TrainConfig(arch_kind="MLP", hierarchical=True, normalize_inputs=False)
    state = init_learner(cfg, spec)
    # constant value -> zero advantages -> unit weights -> plain mean NLL
    for net in (state.arch.nets["trunk"],):
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
    rng = np.random.default_rng(7)
    batch = make_batch(rng, size=32)
    base = loss(state, batch, "high_policy_loss")
    assert loss(state, batch, "high_policy_loss", high_temp=1e-12) == pytest.approx(
        base, rel=1e-9)


def test_flat_row_has_no_high_policy_loss():
    spec = corridor_spec(4)
    cfg = TrainConfig(arch_kind="MLP", hierarchical=False)
    state = init_learner(cfg, spec)
    row = step_losses(state, make_batch(np.random.default_rng(0)))
    assert np.isnan(row["high_policy_loss"])
    assert np.isfinite(row["low_policy_loss"])


def test_low_policy_loss_zero_residual_gaussian_nll():
    spec = corridor_spec(4)
    cfg = TrainConfig(arch_kind="MLP", hierarchical=False, normalize_inputs=False,
                      dtype="float64")
    state = init_learner(cfg, spec)
    low = state.low
    for w in low.net.weights:
        w[...] = 0.0
    for b in low.net.biases:
        b[...] = 0.0
    trunk = state.arch.nets["trunk"]
    for w in trunk.weights:
        w[...] = 0.0
    for b in trunk.biases:
        b[...] = 0.0
    batch = make_batch(np.random.default_rng(8), size=16)
    batch["action"][:] = 0.0  # dataset action equals the policy mean
    # unit sigma, zero residual: NLL = D/2 * log(2*pi)
    expected = 0.5 * 2 * np.log(2 * np.pi)
    assert loss(state, batch, "low_policy_loss") == pytest.approx(expected, abs=1e-12)


def test_policy_losses_match_per_sample_oracle():
    spec = maze.builtin_layout("medium")
    cfg = TrainConfig(arch_kind="LAN", hierarchical=True, high_temp=2.0,
                      low_temp=3.0, dtype="float64")
    state = init_learner(cfg, spec)
    ds = data.collect_navigate(spec, 2000, 0.5, seed=0)
    rng = np.random.default_rng(9)
    batch = sample_batch(ds, 48, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)

    from mazegcrl.autodiff import mlp_apply

    def gaussian_nll(mean_row, log_std, target_row):
        ls = np.clip(log_std, T.LOG_STD_MIN, T.LOG_STD_MAX)
        z = (target_row - mean_row) * np.exp(-ls)
        return 0.5 * (z ** 2).sum() + ls.sum() + 0.5 * len(ls) * np.log(2 * np.pi)

    obs = state.normalize(batch["obs"])
    nxt = state.normalize(batch["next_obs"])
    goal = state.normalize(batch["policy_goal"])
    sub = state.normalize(batch["subgoal"])

    adv_h = (value(state.arch, state.rep, sub, goal)
             - value(state.arch, state.rep, obs, goal))
    with np.errstate(over="ignore"):
        w_h = np.minimum(np.exp(2.0 * adv_h), 100.0)
    w_h = w_h / w_h.mean()
    losses = []
    for i in range(48):
        target = mlp_apply(state.rep, sub[i][None])[0]
        mean = mlp_apply(state.high.net,
                         np.concatenate([obs[i], goal[i]])[None])[0]
        losses.append(w_h[i] * gaussian_nll(mean, state.high.log_std,
                                            target))
    assert loss(state, batch, "high_policy_loss") == pytest.approx(
        np.mean(losses), rel=1e-12)

    adv_l = (value(state.arch, state.rep, nxt, sub)
             - value(state.arch, state.rep, obs, sub))
    with np.errstate(over="ignore"):
        w_l = np.minimum(np.exp(3.0 * adv_l), 100.0)
    w_l = w_l / w_l.mean()
    losses = []
    for i in range(48):
        cond = mlp_apply(state.rep, sub[i][None])[0]
        mean = mlp_apply(state.low.net,
                         np.concatenate([obs[i], cond])[None])[0]
        losses.append(w_l[i] * gaussian_nll(mean, state.low.log_std,
                                            batch["action"][i]))
    assert loss(state, batch, "low_policy_loss") == pytest.approx(
        np.mean(losses), rel=1e-12)


def test_gcbc_equals_temperature_free_cloning():
    spec = corridor_spec(4)
    cfg = TrainConfig(arch_kind="MLP", hierarchical=False,
                      policy_goal_ratios=(0.0, 1.0, 0.0, 0.0))
    state = init_learner(cfg, spec)
    batch = make_batch(np.random.default_rng(10), size=32)
    direct = loss(state, batch, "low_policy_loss", objective="bc")
    # zero advantages make AWR weights exactly one
    for w in state.arch.nets["trunk"].weights:
        w[...] = 0.0
    for b in state.arch.nets["trunk"].biases:
        b[...] = 0.0
    assert loss(state, batch, "low_policy_loss", objective="awr",
                low_temp=1.0) == direct


# ---- train_step ---------------------------------------------------------------------


def _small_run(spec, ds, cfg, n_steps, batch_seed=123):
    state = init_learner(cfg, spec)
    rng = np.random.default_rng(batch_seed)
    metrics = []
    for _ in range(n_steps):
        b = sample_batch(ds, cfg.batch_size, cfg.value_goal_ratios,
                         cfg.policy_goal_ratios, cfg.discount,
                         cfg.subgoal_steps, spec.goal_radius, rng)
        state, m = train_step(state, b)
        metrics.append(m)
    return state, metrics


def test_zero_learning_rate_freezes_parameters_but_not_target():
    spec = corridor_spec(4)
    ds = data.collect_navigate(spec, 500, 0.3, seed=0)
    cfg = TrainConfig(arch_kind="LAN", hierarchical=True, lr=0.0, batch_size=32)
    state = init_learner(cfg, spec)
    # make target and online differ so the polyak drift is observable
    state.target_arch.nets["phi_s"].biases[-1][...] += 1.0
    before = {k: v.copy() for k, v in T.state_tree(state).items()}
    rng = np.random.default_rng(1)
    b = sample_batch(ds, 32, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                     cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)
    state, _ = train_step(state, b)
    after = T.state_tree(state)
    for name in before:
        if name.startswith(("value/", "rep/", "high/", "low/", "norm/")):
            assert np.array_equal(before[name], after[name]), name
    last = f"phi_s.b{len(state.arch.nets['phi_s'].biases) - 1}"
    gap_before = before[f"target/{last}"] - before[f"value/{last}"]
    gap_after = after[f"target/{last}"] - after[f"value/{last}"]
    assert (np.abs(gap_after) < np.abs(gap_before)).all()


def test_train_step_deterministic_given_seed():
    spec = corridor_spec(4)
    ds = data.collect_navigate(spec, 1000, 0.3, seed=0)
    cfg = TrainConfig(arch_kind="LAN", hierarchical=True, batch_size=64,
                      continuity_weight=1.0, seed=42)
    s1, _ = _small_run(spec, ds, cfg, 100)
    s2, _ = _small_run(spec, ds, cfg, 100)
    t1, t2 = T.state_tree(s1), T.state_tree(s2)
    assert set(t1) == set(t2)
    for name in t1:
        assert np.array_equal(t1[name], t2[name]), name


def test_td_loss_halves_on_corridor_reference_run():
    # pinned reference: flat LAN, expectile 0.7, fixed probe batch
    spec = corridor_spec(3)
    ds = data.collect_navigate(spec, 2000, 0.3, seed=1)
    cfg = TrainConfig(arch_kind="LAN", hierarchical=False, expectile=0.7,
                      continuity_weight=0.0, seed=0)
    probe = sample_batch(ds, 1024, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         cfg.discount, cfg.subgoal_steps, spec.goal_radius,
                         np.random.default_rng(999))
    state = init_learner(cfg, spec)
    rng = np.random.default_rng(123)
    at = {}
    for i in range(1, 201):
        b = sample_batch(ds, 256, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)
        state, _ = train_step(state, b)
        if i in (10, 200):
            at[i] = loss(state, probe, "td_loss")
    assert at[200] <= 0.5 * at[10]


def test_gcbc_reference_run_monotone_on_fixed_probe():
    spec = corridor_spec(3)
    ds = data.collect_navigate(spec, 2000, 0.0, seed=2)
    cfg = TrainConfig(arch_kind="MLP", hierarchical=False, objective="bc",
                      policy_goal_ratios=(0.0, 1.0, 0.0, 0.0), seed=0)
    probe = sample_batch(ds, 1024, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         cfg.discount, cfg.subgoal_steps, spec.goal_radius,
                         np.random.default_rng(55))
    state = init_learner(cfg, spec)
    rng = np.random.default_rng(7)
    losses = [loss(state, probe, "low_policy_loss")]
    for _ in range(100):
        b = sample_batch(ds, 256, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)
        state, _ = train_step(state, b)
        losses.append(loss(state, probe, "low_policy_loss"))
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_bc_single_transition_recovers_dataset_action():
    spec = corridor_spec(3)
    ds = Dataset(np.array([[1.5, 1.5], [1.9, 1.5]]), np.array([[1.0, 0.0]]), [1])
    cfg = TrainConfig(arch_kind="MLP", hierarchical=False, objective="bc",
                      policy_goal_ratios=(0.0, 1.0, 0.0, 0.0), lr=3e-3,
                      batch_size=16, seed=0)
    state = init_learner(cfg, spec)
    rng = np.random.default_rng(0)
    for _ in range(3000):
        b = sample_batch(ds, 16, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         0.99, 5, spec.goal_radius, rng)
        state, _ = train_step(state, b)
    from mazegcrl.evaluation import act_batch

    a = act_batch(state, np.array([[1.5, 1.5]]), np.array([[1.9, 1.5]]))[0]
    assert abs(a[0] - 1.0) < 0.08
    assert abs(a[1]) < 0.05


def test_losses_finite_on_random_batches():
    spec = maze.builtin_layout("medium")
    cfg = TrainConfig(arch_kind="IQE", hierarchical=True, continuity_weight=1.0)
    state = init_learner(cfg, spec)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        batch = make_batch(rng, size=8, spread=9.0)
        assert np.isfinite(list(step_losses(state, batch).values())).all()


def test_mlp_value_is_independent_of_rep():
    # hierarchical MLP keeps the bottleneck out of the value path
    spec = corridor_spec(4)
    cfg = TrainConfig(arch_kind="MLP", hierarchical=True)
    state = init_learner(cfg, spec)
    batch = make_batch(np.random.default_rng(12))
    before = loss(state, batch, "td_loss")
    for w in state.rep.weights:
        w[...] += 5.0
    assert loss(state, batch, "td_loss") == before


def test_rep_frozen_without_policy_gradient_flag():
    spec = corridor_spec(4)
    ds = data.collect_navigate(spec, 500, 0.3, seed=0)
    cfg = TrainConfig(arch_kind="MLP", hierarchical=True,
                      rep_grad_from_policy=False, batch_size=32)
    state = init_learner(cfg, spec)
    before = [w.copy() for w in state.rep.weights]
    rng = np.random.default_rng(2)
    for _ in range(5):
        b = sample_batch(ds, 32, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)
        state, _ = train_step(state, b)
    for w0, w1 in zip(before, state.rep.weights):
        assert np.array_equal(w0, w1)


def test_rep_moves_with_policy_gradient_flag():
    spec = corridor_spec(4)
    ds = data.collect_navigate(spec, 500, 0.3, seed=0)
    cfg = TrainConfig(arch_kind="MLP", hierarchical=True,
                      rep_grad_from_policy=True, batch_size=32)
    state = init_learner(cfg, spec)
    before = [w.copy() for w in state.rep.weights]
    rng = np.random.default_rng(2)
    b = sample_batch(ds, 32, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                     cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)
    state, _ = train_step(state, b)
    assert any(not np.array_equal(w0, w1)
               for w0, w1 in zip(before, state.rep.weights))


def test_target_only_changes_through_polyak():
    spec = corridor_spec(4)
    ds = data.collect_navigate(spec, 500, 0.3, seed=0)
    cfg = TrainConfig(arch_kind="LAN", hierarchical=False, batch_size=32,
                      target_rate=0.005)
    state = init_learner(cfg, spec)
    target_before = {k: v.copy() for k, v in state.target_arch.tree().items()}
    online_before = {k: v.copy() for k, v in state.arch.tree().items()}
    rng = np.random.default_rng(3)
    b = sample_batch(ds, 32, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                     cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)
    state, _ = train_step(state, b)
    online_after = state.arch.tree()
    for name, arr in state.target_arch.tree().items():
        expected = (1 - 0.005) * target_before[name] + 0.005 * online_after[name]
        assert np.allclose(arr, expected, atol=1e-15), name


# ---- checkpoint trees -----------------------------------------------------------------


def test_state_tree_round_trip(tmp_path):
    from mazegcrl.values import read_tensors, write_tensors

    spec = maze.builtin_layout("medium")
    cfg = TrainConfig(arch_kind="IQE", hierarchical=True, seed=5)
    state = init_learner(cfg, spec)
    ds = data.collect_navigate(spec, 500, 0.5, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(3):
        b = sample_batch(ds, 64, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)
        state, _ = train_step(state, b)

    path = tmp_path / "ckpt.txt"
    write_tensors(T.state_tree(state), path)
    other = init_learner(TrainConfig(arch_kind="IQE", hierarchical=True, seed=99),
                         spec)
    T.load_state_tree(other, read_tensors(path))
    t1, t2 = T.state_tree(state), T.state_tree(other)
    for name in t1:
        assert np.array_equal(t1[name], t2[name]), name
    assert other.step == state.step


_FLAT_ORDER = ["value", "target", "low",
               "opt_value/m/value", "opt_value/v/value", "opt_value",
               "opt_low/m/low", "opt_low/v/low", "opt_low", "norm", "step"]


@pytest.mark.parametrize("overrides, groups", [
    ({"hierarchical": False}, _FLAT_ORDER),
    ({"hierarchical": False, "objective": "bc"}, _FLAT_ORDER),
    ({"hierarchical": True},
     ["value", "rep", "target", "low", "high",
      "opt_value/m/value", "opt_value/m/rep", "opt_value/v/value",
      "opt_value/v/rep", "opt_value",
      "opt_high/m/high", "opt_high/v/high", "opt_high",
      "opt_low/m/low", "opt_low/v/low", "opt_low", "norm", "step"]),
], ids=["flat-awr", "flat-bc", "hier"])
def test_state_tree_key_order_is_pinned(overrides, groups):
    # the tensor order is the checkpoint's byte order; loading reads by name,
    # so only this pin notices a reordering
    state = init_learner(TrainConfig(arch_kind="LAN", **overrides),
                         maze.builtin_layout("medium"))
    seen = []
    for key in T.state_tree(state):
        group = key.rpartition("/")[0] or key
        if not seen or seen[-1] != group:
            seen.append(group)
    assert seen == groups


def _assert_flat_views(state):
    """Each group, its moments and the target heads are one buffer, in tree order."""
    groups = state.groups()
    assert list(state.buffers) == [*groups, "target"]
    pairs = [(params, state.buffers[name]) for name, params in groups.items()]
    for name, params in groups.items():
        opt = state.opt[name]
        assert list(opt.mean) == list(opt.var) == list(params)
        pairs += [(opt.mean, opt.m), (opt.var, opt.v)]
    pairs.append((state.target_arch.tree(), state.buffers["target"]))
    for arrays, flat in pairs:
        at = 0
        for key, arr in arrays.items():
            assert np.shares_memory(arr, flat), key
            assert arr.ctypes.data == flat.ctypes.data + at * flat.itemsize, key
            at += arr.size
        assert at == flat.size and flat.flags.c_contiguous
    buffers = [flat for _, flat in pairs]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers)
                   for b in buffers[i + 1:])
    value = state.buffers["value"]
    for key, arr in state.arch.tree().items():  # the value heads lead the value buffer
        assert arr is groups["value"][f"value/{key}"] and np.shares_memory(arr, value)


@pytest.mark.parametrize("overrides", [
    dict(arch_kind="LAN", hierarchical=True, continuity_weight=1.0),
    dict(arch_kind="IQE", hierarchical=False),
    dict(arch_kind="IQE", hierarchical=True, dtype="float64"),
    dict(arch_kind="MLP", hierarchical=False, objective="bc"),
], ids=["lan-hier", "iqe-flat", "iqe-hier-f64", "mlp-bc"])
def test_every_parameter_moment_and_target_is_a_view_of_its_flat_buffer(overrides):
    spec = maze.builtin_layout("medium")
    cfg = TrainConfig(batch_size=32, seed=2, **overrides)
    state = init_learner(cfg, spec)
    _assert_flat_views(state)
    trained = init_learner(replace(cfg, seed=7), spec)
    ds = data.collect_navigate(spec, 500, 0.5, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(3):
        b = sample_batch(ds, 32, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)
        trained, _ = train_step(trained, b)
    T.load_state_tree(state, T.state_tree(trained))
    _assert_flat_views(state)
    for name, flat in trained.buffers.items():
        assert state.buffers[name].tobytes() == flat.tobytes(), name
    for _ in range(3):
        b = sample_batch(ds, 32, cfg.value_goal_ratios, cfg.policy_goal_ratios,
                         cfg.discount, cfg.subgoal_steps, spec.goal_radius, rng)
        state, _ = train_step(state, b)
    _assert_flat_views(state)
    assert state.step == 6 and all(opt.count == 6 for name, opt in state.opt.items()
                                   if name != "value" or cfg.objective != "bc")


def test_checkpoint_shape_mismatch_rejected():
    spec = maze.builtin_layout("medium")
    state = init_learner(TrainConfig(arch_kind="LAN", hierarchical=True), spec)
    other_tree = T.state_tree(
        init_learner(TrainConfig(arch_kind="MLP", hierarchical=True), spec))
    with pytest.raises(GraphError, match="checkpoint"):
        T.load_state_tree(state, other_tree)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(discount=1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(expectile=0.5).validate()
    with pytest.raises(ValueError):
        TrainConfig(objective="bc", hierarchical=True).validate()
    with pytest.raises(ValueError):
        TrainConfig(value_goal_ratios=(1.0, 1.0, 0.0, 0.0)).validate()
    TrainConfig().validate()
