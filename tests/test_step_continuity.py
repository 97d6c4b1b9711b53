"""The continuity penalty on the tape: only rows whose hinge is active are recorded.

Also the step's one finiteness check per parameter buffer.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mazegcrl import autodiff
from mazegcrl import training as T
from mazegcrl.training import TrainConfig, init_learner, train_step
from tests import oracle_step
from tests.test_train_step_graph import KIND_CONFIGS, batches, config_id, medium  # noqa: F401


WC1_CONFIGS = [cfg for cfg in KIND_CONFIGS if cfg["continuity_weight"]]


def recorded_nodes(monkeypatch):
    """Names of every node each step records, one list per backward sweep."""
    graphs = []
    backward = autodiff.Tape.backward

    def keep_names(self, output, seed=None):
        graphs.append([n.name for n in self.nodes])
        backward(self, output, seed)

    monkeypatch.setattr(autodiff.Tape, "backward", keep_names)
    return graphs


def active_rows(state, batch):
    """Rows whose continuity hinge gap² − δ² is positive, from plain values."""
    norm = state.normalize
    v = T.value(state.arch, state.rep, norm(batch["obs"]), norm(batch["value_goal"]))
    delta = T.continuity_threshold(state.config.discount, float(v.mean()))
    gap = (T.value(state.arch, state.rep, norm(batch["obs"]), norm(batch["rand_goal"]))
           - T.value(state.arch, state.rep, norm(batch["next_obs"]),
                     norm(batch["rand_goal"])))
    return np.flatnonzero(gap * gap - delta * delta > 0.0)


@pytest.mark.parametrize("overrides", WC1_CONFIGS, ids=config_id)
def test_continuity_step_without_active_rows_records_the_wc0_graph(
        medium, monkeypatch, overrides):
    spec, ds = medium
    cfg = TrainConfig(batch_size=32, seed=3, **overrides)
    (batch,) = batches(spec, ds, cfg, 1)
    graphs = recorded_nodes(monkeypatch)
    runs = {}
    for wc in (1.0, 0.0):
        state = init_learner(replace(cfg, continuity_weight=wc), spec)
        if wc:
            assert len(active_rows(state, batch)) == 0
        state, metrics = train_step(state, batch)
        runs[wc] = metrics, {k: v.tobytes() for k, v in T.state_tree(state).items()}
    with_cont, without = graphs
    assert len(with_cont) == len(without) and with_cont == without
    assert runs[1.0][0]["continuity_loss"] == 0.0
    assert runs[1.0][1] == runs[0.0][1]


@pytest.mark.parametrize("overrides", WC1_CONFIGS, ids=config_id)
def test_one_active_continuity_row_matches_three_tape_oracle(medium, overrides):
    spec, ds = medium
    cfg = TrainConfig(batch_size=64, seed=3, dtype="float64", **overrides)
    new, old = init_learner(cfg, spec), init_learner(cfg, spec)
    batch_list = batches(spec, ds, cfg, 20)
    for batch in batch_list:
        # one transition that jumps far: its value gap exceeds δ, no other does
        batch["next_obs"][5] = batch["obs"][5] + 1e5
    assert active_rows(new, batch_list[0]).tolist() == [5]
    for step, batch in enumerate(batch_list):
        new, m_new = train_step(new, batch)
        old, m_old = oracle_step.train_step(old, batch)
        assert step > 0 or m_new["continuity_loss"] > 0.0
        assert set(m_new) == set(m_old)
        for k, a in m_new.items():
            b = m_old[k]
            assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-10 * max(
                1.0, abs(b)), (step, k, a, b)
    t_new, t_old = T.state_tree(new), T.state_tree(old)
    assert set(t_new) == set(t_old)
    for name in t_new:
        np.testing.assert_allclose(t_new[name], t_old[name], rtol=1e-10,
                                   atol=1e-10, err_msg=name)


@pytest.mark.parametrize("group, at", [("value", 0), ("value", -1), ("high", 2),
                                       ("low", -1)])
def test_non_finite_parameter_named_before_the_step(medium, group, at):
    spec, ds = medium
    cfg = TrainConfig(arch_kind="LAN", hierarchical=True, continuity_weight=1.0,
                      batch_size=32)
    state = init_learner(cfg, spec)
    (batch,) = batches(spec, ds, cfg, 1)
    names = list(state.groups()[group])
    name = names[at]
    state.groups()[group][name].reshape(-1)[-1] = np.nan
    state.groups()[group][names[-1]].reshape(-1)[0] = np.inf  # a later one
    before = {k: v.tobytes() for k, v in T.state_tree(state).items()}
    for step in (T._graph, train_step):
        with pytest.raises(autodiff.GraphError) as err:
            step(state, batch)
        assert str(err.value) == f"non-finite parameter '{name}'"
    assert {k: v.tobytes() for k, v in T.state_tree(state).items()} == before
