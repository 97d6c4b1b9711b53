"""The three-tape ``train_step`` the library shipped before its one-graph step.

A test-only reference: the value objective, the high policy and the low
policy each build their own tape and run their own backward sweep; the
TD target and the AWR advantages encode their inputs afresh with plain
forwards, and the bottleneck's gradients are summed by hand. The current
step must reproduce its parameters, optimizer state and metrics.
"""

from __future__ import annotations

import math

import numpy as np

from mazegcrl.autodiff import GraphError, LiftedMlp, Node, Tape
from mazegcrl.training import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    LearnerState,
    TrainConfig,
    awr_weights,
    continuity_threshold,
    expectile_weights,
)
from mazegcrl.values import ValueArchitecture, _score, value
from tests.oracle_layers import adam_step, polyak_update


def tape_value(tape: Tape, lifted: ValueArchitecture, rep_l: LiftedMlp | None,
               s: Node, g: Node) -> Node:
    """V(s, g) on a tape: encode along ``chains``, then score.

    ``lifted`` is an architecture's ``lift`` on ``tape``; ``rep_l``, the
    lifted goal bottleneck, or None.
    """
    nets = dict(lifted.nets, rep=rep_l)
    s_chain, g_chain = lifted.chains(rep_l is not None)
    for name in s_chain:
        s = nets[name](s)
    for name in g_chain:
        g = nets[name](g)
    return _score(tape, lifted, s, g)


def _target_value(state: LearnerState, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    return value(state.target_arch, state.rep, s, g)


def _advantage(state: LearnerState, s_hi: np.ndarray, s_lo: np.ndarray,
               goal: np.ndarray) -> np.ndarray:
    """V(s_hi, goal) - V(s_lo, goal) with one stacked forward pass."""
    n = len(goal)
    both = value(state.arch, state.rep, np.concatenate([s_hi, s_lo]),
                 np.concatenate([goal, goal]))
    return both[:n] - both[n:]


def _value_objective(tape: Tape, state: LearnerState, batch: dict,
                     config: TrainConfig):
    """TD + weighted continuity objective on one tape; returns (node, info)."""
    obs = state.normalize(batch["obs"])
    next_obs = state.normalize(batch["next_obs"])
    goal = state.normalize(batch["value_goal"])
    rep_l = (LiftedMlp(tape, state.rep, name="rep")
             if state.rep is not None else None)
    lifted = state.arch.lift(tape)

    v = tape_value(tape, lifted, rep_l, tape.constant(obs, "obs"),
                   tape.constant(goal, "value_goal"))
    tv = _target_value(state, next_obs, goal)
    bootstrap = (batch["reward"]
                 + config.discount * (1.0 - batch["done"]) * tv)
    err = tape.sub(tape.constant(bootstrap, "td_target"), v)
    weights = expectile_weights(err.value, config.expectile)
    td = tape.reduce_mean(tape.mul(tape.constant(weights), tape.square(err)))

    v_mean = float(v.value.mean())
    delta = continuity_threshold(config.discount, v_mean)
    info = {"td_loss": float(td.value), "v_mean": v_mean, "delta": delta,
            "continuity_loss": 0.0}
    if config.continuity_weight == 0.0:
        return td, info, lifted, rep_l

    rand_goal = state.normalize(batch["rand_goal"])
    rg = tape.constant(rand_goal, "rand_goal")
    gap = tape.sub(tape_value(tape, lifted, rep_l, tape.constant(obs), rg),
                   tape_value(tape, lifted, rep_l, tape.constant(next_obs), rg))
    hinge = tape.relu(tape.sub(tape.square(gap), tape.constant(delta * delta)))
    cont = tape.reduce_mean(hinge)
    info["continuity_loss"] = float(cont.value)
    total = tape.add(td, tape.mul(tape.constant(config.continuity_weight), cont))
    return total, info, lifted, rep_l


def _gaussian_logprob(tape: Tape, mean: Node, log_std: Node, target: Node) -> Node:
    dim = mean.value.shape[1]
    ls = tape.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
    inv = tape.exp(tape.neg(ls))
    z = tape.mul(tape.sub(target, mean), inv)
    quad = tape.reduce_sum(tape.square(z), axis=1)
    logdet = tape.reduce_sum(ls)
    const = 0.5 * dim * math.log(2.0 * math.pi)
    half = tape.mul(quad, tape.constant(-0.5))
    return tape.sub(tape.sub(half, logdet), tape.constant(const))


def _policy_objective_high(tape: Tape, state: LearnerState, batch: dict,
                           config: TrainConfig, temperature: float):
    if not config.hierarchical or state.high is None:
        raise GraphError("high_policy_loss requires hierarchical mode")
    obs = state.normalize(batch["obs"])
    goal = state.normalize(batch["policy_goal"])
    sub = state.normalize(batch["subgoal"])
    adv = _advantage(state, sub, obs, goal)
    w = awr_weights(adv, temperature)

    rep_l = LiftedMlp(tape, state.rep, trainable=config.rep_grad_from_policy,
                      name="rep")
    target = rep_l(tape.constant(sub, "subgoal"))
    pol = state.high
    net = LiftedMlp(tape, pol.net, name="high.net")
    log_std = tape.leaf(pol.log_std, "high.log_std")
    mean = net(tape.concat(tape.constant(obs), tape.constant(goal)))
    logp = _gaussian_logprob(tape, mean, log_std, target)
    loss = tape.neg(tape.reduce_mean(tape.mul(tape.constant(w), logp)))
    nodes = pol_tree_nodes(net, log_std, "high")
    return loss, nodes, rep_l


def _policy_objective_low(tape: Tape, state: LearnerState, batch: dict,
                          config: TrainConfig, temperature: float):
    obs = state.normalize(batch["obs"])
    next_obs = state.normalize(batch["next_obs"])
    rep_l = None
    if config.objective == "bc":
        w = np.ones(len(obs))
        cond = tape.constant(state.normalize(batch["policy_goal"]), "policy_goal")
    elif config.hierarchical:
        sub = state.normalize(batch["subgoal"])
        w = awr_weights(_advantage(state, next_obs, obs, sub), temperature)
        rep_l = LiftedMlp(tape, state.rep, trainable=config.rep_grad_from_policy,
                          name="rep")
        cond = rep_l(tape.constant(sub, "subgoal"))
    else:
        goal = state.normalize(batch["policy_goal"])
        w = awr_weights(_advantage(state, next_obs, obs, goal), temperature)
        cond = tape.constant(goal, "policy_goal")
    pol = state.low
    net = LiftedMlp(tape, pol.net, name="low.net")
    log_std = tape.leaf(pol.log_std, "low.log_std")
    mean = net(tape.concat(tape.constant(obs), cond))
    logp = _gaussian_logprob(tape, mean, log_std,
                             tape.constant(batch["action"], "action"))
    loss = tape.neg(tape.reduce_mean(tape.mul(tape.constant(w), logp)))
    nodes = pol_tree_nodes(net, log_std, "low")
    return loss, nodes, rep_l


def pol_tree_nodes(net: LiftedMlp, log_std: Node, prefix: str) -> dict[str, Node]:
    nodes = {}
    for i, (wn, bn) in enumerate(zip(net.weights, net.biases)):
        nodes[f"{prefix}/net.w{i}"] = wn
        nodes[f"{prefix}/net.b{i}"] = bn
    nodes[f"{prefix}/log_std"] = log_std
    return nodes


def _check_finite(x: float, what: str, step: int) -> None:
    if not math.isfinite(x):
        raise GraphError(f"{what}: non-finite at training step {step}")


def _grads_for(tape: Tape, nodes: dict[str, Node]) -> dict[str, np.ndarray]:
    return {name: tape.grad(node) for name, node in nodes.items()}


def train_step(state: LearnerState, batch: dict,
               config: TrainConfig | None = None) -> tuple[LearnerState, dict]:
    """One optimization step over all parameter groups, then target smoothing."""
    config = config or state.config
    hier = config.hierarchical
    metrics = {}

    # value group (encoders, trunk, and the bottleneck via the value loss)
    if config.objective != "bc":
        tape = Tape()
        total, info, lifted, rep_l = _value_objective(tape, state, batch, config)
        _check_finite(float(total.value), "value_loss", state.step)
        tape.backward(total)
        value_nodes = {f"value/{k}": n for k, n in lifted.tree().items()}
        if rep_l is not None:
            value_nodes.update({f"rep/{k}": n
                                for k, n in rep_l.tree("rep").items()})
        value_grads = _grads_for(tape, value_nodes)
        metrics.update(info)
    else:
        value_grads = None
        metrics.update({"td_loss": float("nan"), "continuity_loss": float("nan"),
                        "v_mean": float("nan"), "delta": float("nan")})

    # high-level policy
    high_grads = None
    rep_from_high = None
    if hier:
        tape_h = Tape()
        loss_h, nodes_h, rep_lh = _policy_objective_high(
            tape_h, state, batch, config, config.high_temp)
        _check_finite(float(loss_h.value), "high_policy_loss", state.step)
        tape_h.backward(loss_h)
        high_grads = _grads_for(tape_h, nodes_h)
        if config.rep_grad_from_policy:
            rep_from_high = {f"rep/{k}": tape_h.grad(n)
                             for k, n in rep_lh.tree("rep").items()}
        metrics["high_policy_loss"] = float(loss_h.value)
    else:
        metrics["high_policy_loss"] = float("nan")

    # low-level policy
    tape_l = Tape()
    loss_l, nodes_l, rep_ll = _policy_objective_low(
        tape_l, state, batch, config, config.low_temp)
    _check_finite(float(loss_l.value), "low_policy_loss", state.step)
    tape_l.backward(loss_l)
    low_grads = _grads_for(tape_l, nodes_l)
    rep_from_low = None
    if hier and config.rep_grad_from_policy and rep_ll is not None:
        rep_from_low = {f"rep/{k}": tape_l.grad(n)
                        for k, n in rep_ll.tree("rep").items()}
    metrics["low_policy_loss"] = float(loss_l.value)

    # one Adam step per group; bottleneck gradients are summed across losses
    if value_grads is not None:
        for extra in (rep_from_high, rep_from_low):
            if extra:
                for name, g in extra.items():
                    value_grads[name] = value_grads[name] + g
        adam_step(state.groups()["value"], value_grads, state.opt["value"],
                  config.lr)
    if high_grads is not None:
        adam_step(state.high.tree("high"), high_grads,
                  state.opt["high"], config.lr)
    adam_step(state.low.tree("low"), low_grads, state.opt["low"], config.lr)

    if config.objective != "bc":
        polyak_update(state.target_arch.tree(), state.arch.tree(),
                      config.target_rate)
    state.step += 1
    metrics["step"] = state.step
    return state, metrics
