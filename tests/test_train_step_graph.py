"""The one-graph train_step: agreement with the three-tape oracle, structure, memory."""

import gc
import math
import platform
import resource
import weakref

import numpy as np
import pytest

from mazegcrl import autodiff, data, maze, values
from mazegcrl import training as T
from mazegcrl.data import sample_batch
from mazegcrl.training import TrainConfig, init_learner, train_step
from tests import oracle_iqe, oracle_layers, oracle_plain, oracle_step

KIND_CONFIGS = [dict(arch_kind=kind, hierarchical=hier, continuity_weight=wc)
                for kind in values.KINDS for hier in (False, True) for wc in (0.0, 1.0)]
CONFIGS = KIND_CONFIGS + [
    dict(arch_kind="MLP", hierarchical=False, objective="bc"),
    dict(arch_kind="LAN", hierarchical=False, objective="bc"),
    dict(arch_kind="LAN", hierarchical=True, continuity_weight=1.0,
         rep_grad_from_policy=False),
    dict(arch_kind="IQE", hierarchical=True, rep_grad_from_policy=False),
    dict(arch_kind="MLP", hierarchical=True, rep_grad_from_policy=False)]


def config_id(cfg):
    return "-".join(f"{k}={v}" for k, v in cfg.items())


@pytest.fixture(scope="module")
def medium():
    spec = maze.builtin_layout("medium")
    return spec, data.collect_navigate(spec, 2000, 0.5, seed=0)


def batches(spec, ds, cfg, n, seed=123):
    rng = np.random.default_rng(seed)
    return [sample_batch(ds, cfg.batch_size, cfg.value_goal_ratios,
                         cfg.policy_goal_ratios, cfg.discount, cfg.subgoal_steps,
                         spec.goal_radius, rng) for _ in range(n)]


def activate_continuity(state, batch_list):
    """Large values and distant next states, so the continuity hinge is active.

    At initialization the values are near zero and one transition moves
    them far less than the threshold, so the hinge would contribute nothing.
    """
    for arch in (state.arch, state.target_arch):
        for net in arch.nets.values():
            net.weights[-1] *= 3000.0
            net.biases[-1] *= 3000.0
    for batch in batch_list:
        batch["next_obs"] = batch["rand_goal"][::-1].copy()


CASES = [(cfg, False) for cfg in CONFIGS]
CASES += [(cfg, True) for cfg in CONFIGS if cfg.get("continuity_weight")]


@pytest.mark.parametrize("overrides, hinge", CASES, ids=[
    config_id(cfg) + ("-active-hinge" if hinge else "") for cfg, hinge in CASES])
def test_matches_three_tape_oracle_for_twenty_steps(medium, overrides, hinge):
    spec, ds = medium
    cfg = TrainConfig(batch_size=64, seed=3, dtype="float64", **overrides)
    new, old = init_learner(cfg, spec), init_learner(cfg, spec)
    batch_list = batches(spec, ds, cfg, 20)
    if hinge:
        activate_continuity(new, batch_list)
        activate_continuity(old, [])
    for step, batch in enumerate(batch_list):
        new, m_new = train_step(new, batch)
        old, m_old = oracle_step.train_step(old, batch)
        assert not hinge or step > 0 or m_old["continuity_loss"] > 0.0
        assert set(m_new) == set(m_old)
        for k, a in m_new.items():
            b = m_old[k]
            assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-10 * max(
                1.0, abs(b)), (step, k, a, b)
    # absolute as well as relative: with a shared encoder (MRN, Hilbert) the
    # last bias cancels in zs - zg, so its gradient is rounding noise that Adam
    # scales by 1/eps, and the two steps sum that noise in different orders
    t_new, t_old = T.state_tree(new), T.state_tree(old)
    assert set(t_new) == set(t_old)
    for name in t_new:
        np.testing.assert_allclose(t_new[name], t_old[name], rtol=1e-10,
                                   atol=1e-10, err_msg=name)


@pytest.mark.parametrize("overrides, hinge", [
    (dict(arch_kind="IQE", hierarchical=False, continuity_weight=0.0), False),
    (dict(arch_kind="IQE", hierarchical=True, continuity_weight=1.0), True),
], ids=["flat-wc0", "hier-wc1-active-hinge"])
def test_iqe_kernel_trains_like_reference_kernel_bit_for_bit(
        medium, monkeypatch, overrides, hinge):
    spec, ds = medium
    cfg = TrainConfig(batch_size=64, seed=3, dtype="float64", **overrides)

    def twenty_steps():
        state = init_learner(cfg, spec)
        batch_list = batches(spec, ds, cfg, 20)
        if hinge:
            activate_continuity(state, batch_list)
        metrics = []
        for batch in batch_list:
            state, m = train_step(state, batch)
            metrics.append(m)
        return T.state_tree(state), metrics

    tree, metrics = twenty_steps()
    reference_calls = []
    reference = oracle_iqe.interval_union_measure

    def reference_measure(u, v):
        reference_calls.append(u.shape)
        return reference(u, v)

    monkeypatch.setattr(values, "interval_union_measure", reference_measure)
    monkeypatch.setattr(values, "_iqe_measure_node", oracle_iqe._iqe_measure_node)
    monkeypatch.setattr(oracle_iqe, "interval_union_measure", reference_measure)
    ref_tree, ref_metrics = twenty_steps()
    assert len(reference_calls) == 3 * 20
    assert not hinge or ref_metrics[0]["continuity_loss"] > 0.0
    for step, (m, ref) in enumerate(zip(metrics, ref_metrics)):
        assert set(m) == set(ref)
        for k in m:
            assert np.float64(m[k]).tobytes() == np.float64(ref[k]).tobytes(), (step, k)
    assert set(tree) == set(ref_tree)
    for name in tree:
        assert tree[name].tobytes() == ref_tree[name].tobytes(), name


@pytest.mark.parametrize("overrides", KIND_CONFIGS, ids=config_id)
def test_plain_heads_train_like_per_kind_reference_bit_for_bit(
        medium, monkeypatch, overrides):
    spec, ds = medium
    cfg = TrainConfig(batch_size=64, seed=3, dtype="float64", **overrides)
    batch_list = batches(spec, ds, cfg, 20)

    def twenty_steps():
        state = init_learner(cfg, spec)
        metrics = []
        for batch in batch_list:
            state, m = train_step(state, batch)
            metrics.append(m)
        return T.state_tree(state), metrics

    tree, metrics = twenty_steps()
    reference_calls = []

    def reference_score(arch, zs, zg):
        reference_calls.append(arch.kind)
        return oracle_plain.score(arch, zs, zg)

    for module in (values, T):
        monkeypatch.setattr(module, "score", reference_score)
    for module in (autodiff, values, T):
        monkeypatch.setattr(module, "mlp_apply", oracle_plain.mlp_apply)
    ref_tree, ref_metrics = twenty_steps()
    assert reference_calls
    for step, (m, ref) in enumerate(zip(metrics, ref_metrics)):
        assert set(m) == set(ref)
        for k in m:
            assert np.float64(m[k]).tobytes() == np.float64(ref[k]).tobytes(), (step, k)
    assert set(tree) == set(ref_tree)
    for name in tree:
        assert tree[name].tobytes() == ref_tree[name].tobytes(), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("overrides", CONFIGS, ids=config_id)
def test_dense_layers_and_flat_groups_train_like_the_oracle_bit_for_bit(
        medium, monkeypatch, overrides, dtype):
    spec, ds = medium
    cfg = TrainConfig(batch_size=64, seed=3, dtype=dtype, **overrides)
    batch_list = batches(spec, ds, cfg, 12)

    def run(step):
        state = init_learner(cfg, spec)
        if overrides.get("continuity_weight"):
            activate_continuity(state, batch_list)
        rows = [step(state, batch)[1] for batch in batch_list]
        return {k: v.tobytes() for k, v in T.state_tree(state).items()}, rows

    tree, rows = run(train_step)
    oracle_layers.patch_layers(monkeypatch, autodiff)
    ref_tree, ref_rows = run(oracle_layers.train_step)
    assert not overrides.get("continuity_weight") or ref_rows[0]["continuity_loss"] > 0.0
    for row, ref in zip(rows, ref_rows):
        assert [np.float64(row[k]).tobytes() for k in ref] == [
            np.float64(v).tobytes() for v in ref.values()]
    assert list(tree) == list(ref_tree)
    assert [k for k in tree if tree[k] != ref_tree[k]] == []


@pytest.fixture
def counts(monkeypatch):
    """Tapes, backward sweeps, tape MLP passes and plain MLP passes made."""
    seen = {"tapes": 0, "backward": 0, "tape_mlp": 0, "plain_mlp": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(autodiff.Tape, "__init__",
                        counting(autodiff.Tape.__init__, "tapes"))
    monkeypatch.setattr(autodiff.Tape, "backward",
                        counting(autodiff.Tape.backward, "backward"))
    monkeypatch.setattr(autodiff.LiftedMlp, "__call__",
                        counting(autodiff.LiftedMlp.__call__, "tape_mlp"))
    plain = counting(autodiff.mlp_apply, "plain_mlp")
    for module in (autodiff, values, T):
        if hasattr(module, "mlp_apply"):
            monkeypatch.setattr(module, "mlp_apply", plain)
    return seen


@pytest.mark.parametrize("overrides", CONFIGS, ids=config_id)
def test_one_tape_and_one_backward_per_step(medium, counts, overrides):
    spec, ds = medium
    cfg = TrainConfig(batch_size=32, **overrides)
    state = init_learner(cfg, spec)
    for batch in batches(spec, ds, cfg, 2):
        before = dict(counts)
        state, _ = train_step(state, batch)
        assert counts["tapes"] - before["tapes"] == 1
        assert counts["backward"] - before["backward"] == 1


def test_lan_hierarchical_continuity_encodes_each_stack_once(medium, counts):
    spec, ds = medium
    cfg = TrainConfig(arch_kind="LAN", hierarchical=True, continuity_weight=1.0,
                      batch_size=32)
    state = init_learner(cfg, spec)
    (batch,) = batches(spec, ds, cfg, 1)
    train_step(state, batch)
    # tape: rep, phi_s, phi_g, high and low policy; plain: target phi_s and
    # phi_g, phi_s(subgoal), rep(policy goal), phi_g(policy goal, subgoal)
    assert counts["tape_mlp"] <= 5
    assert counts["plain_mlp"] <= 5


def test_step_graph_is_freed_without_the_cycle_collector(medium, monkeypatch):
    spec, ds = medium
    cfg = TrainConfig(arch_kind="IQE", hierarchical=True, continuity_weight=1.0,
                      batch_size=32)
    state = init_learner(cfg, spec)
    (batch,) = batches(spec, ds, cfg, 1)
    tapes = []
    init = autodiff.Tape.__init__

    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tapes.append(weakref.ref(self))

    monkeypatch.setattr(autodiff.Tape, "__init__", remember)
    gc.disable()
    try:
        train_step(state, batch)
        assert len(tapes) == 1 and tapes[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("overrides", [
    dict(arch_kind="LAN", hierarchical=True, continuity_weight=1.0),
    dict(arch_kind="LAN", hierarchical=False, objective="bc")], ids=config_id)
def test_step_losses_frees_its_graph_without_the_cycle_collector(
        medium, monkeypatch, overrides):
    spec, ds = medium
    cfg = TrainConfig(batch_size=32, **overrides)
    state = init_learner(cfg, spec)
    (batch,) = batches(spec, ds, cfg, 1)
    tapes = []
    init = autodiff.Tape.__init__

    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tapes.append(weakref.ref(self))

    monkeypatch.setattr(autodiff.Tape, "__init__", remember)
    gc.disable()
    try:
        assert math.isfinite(T.step_losses(state, batch)["low_policy_loss"])
        assert len(tapes) == 1 and tapes[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("overrides", CONFIGS, ids=config_id)
def test_step_losses_is_the_train_step_row_and_updates_nothing(medium, overrides):
    spec, ds = medium
    cfg = TrainConfig(batch_size=32, seed=3, **overrides)
    state = init_learner(cfg, spec)
    for batch in batches(spec, ds, cfg, 2):
        before = {k: v.tobytes() for k, v in T.state_tree(state).items()}
        row = T.step_losses(state, batch)
        assert {k: v.tobytes() for k, v in T.state_tree(state).items()} == before
        state, metrics = train_step(state, batch)
        assert list(row) == [k for k in metrics if k != "step"]
        for k, v in row.items():
            assert np.float64(v).tobytes() == np.float64(metrics[k]).tobytes(), k


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap tuning")
def test_steps_reuse_heap_memory_instead_of_faulting_it_in(medium):
    spec, ds = medium
    cfg = TrainConfig(arch_kind="IQE", hierarchical=False, batch_size=256)
    state = init_learner(cfg, spec)
    batch_list = batches(spec, ds, cfg, 15)
    for batch in batch_list[:5]:
        state, _ = train_step(state, batch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batch_list[5:]:
        state, _ = train_step(state, batch)
    # without the heap thresholds set on import, each step faults in ~1500 pages
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 10 * 50


# ---- float32 ---------------------------------------------------------------------------


@pytest.mark.parametrize("overrides", KIND_CONFIGS, ids=config_id)
def test_float32_step_matches_float64_step(medium, overrides):
    spec, ds = medium
    runs = {}
    for dtype in ("float32", "float64"):
        cfg = TrainConfig(batch_size=64, seed=3, dtype=dtype, **overrides)
        state = init_learner(cfg, spec)
        batch_list = batches(spec, ds, cfg, 1)
        if overrides["continuity_weight"]:
            activate_continuity(state, batch_list)
        state, metrics = train_step(state, batch_list[0])
        runs[dtype] = metrics, T.state_tree(state)
    (m32, t32), (m64, t64) = runs["float32"], runs["float64"]
    assert not overrides["continuity_weight"] or m64["continuity_loss"] > 0.0
    for k, b in m64.items():
        a = m32[k]
        assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-5 * max(
            1.0, abs(b)), (k, a, b)
    # a shared encoder's last bias shifts zs and zg alike, so some of its
    # coordinates (all of them on MRN and Hilbert) get only rounding noise as
    # gradient, which one Adam step turns into a move of up to lr
    cancelled = ({f"value/phi.b{len(cfg.value_hidden)}"}
                 if overrides["arch_kind"] in ("IQE", "MRN", "Hilbert") else set())
    for name, b in t64.items():
        assert t32[name].dtype == (np.float64 if name.endswith("count")
                                   or name == "step" else np.float32), name
        if not name.startswith("opt_") and name not in cancelled:
            np.testing.assert_allclose(t32[name], b, rtol=1e-5, atol=1e-5,
                                       err_msg=name)


@pytest.mark.parametrize("overrides", KIND_CONFIGS, ids=config_id)
def test_float32_step_never_computes_in_float64(medium, monkeypatch, overrides):
    """Every recorded value and gradient, and every plain forward, is float32.

    The tape casts what it records, so the check is made on the values
    handed to it, before the cast: a silent promotion would show there.
    """
    spec, ds = medium
    cfg = TrainConfig(batch_size=32, seed=3, **overrides)
    assert cfg.dtype == "float32"
    state = init_learner(cfg, spec)
    batch_list = batches(spec, ds, cfg, 2)
    if overrides["continuity_weight"]:
        activate_continuity(state, batch_list)
    seen, nodes = [], []
    register, accum, backward = (autodiff.Tape._register, autodiff.Tape._accum,
                                 autodiff.Tape.backward)
    plain, plain_score = T.mlp_apply, T.score

    def checked_register(self, value, name, inputs, grad_fn):
        seen.append((name, np.asarray(value).dtype))
        return register(self, value, name, inputs, grad_fn)

    def checked_accum(node, grad):
        seen.append((f"d {node.name}", grad.dtype))
        accum(node, grad)

    def keep_nodes(self, output, seed=None):
        nodes.extend(self.nodes)
        backward(self, output, seed)

    def checked_plain(params, x):
        out = plain(params, x)
        seen.append(("mlp_apply", out.dtype))
        return out

    def checked_score(arch, zs, zg):
        out = plain_score(arch, zs, zg)
        seen.append(("score", out.dtype))
        return out

    monkeypatch.setattr(autodiff.Tape, "_register", checked_register)
    monkeypatch.setattr(autodiff.Tape, "_accum", staticmethod(checked_accum))
    monkeypatch.setattr(autodiff.Tape, "backward", keep_nodes)
    for module in (values, T):
        monkeypatch.setattr(module, "mlp_apply", checked_plain)
    monkeypatch.setattr(T, "score", checked_score)
    for batch in batch_list:
        state, _ = train_step(state, batch)
    assert seen and nodes
    assert [s for s in seen if s[1] != np.float32] == []
    assert [n.name for n in nodes if n.value.dtype != np.float32] == []
    assert [n.name for n in nodes
            if n.grad is not None and n.grad.dtype != np.float32] == []
