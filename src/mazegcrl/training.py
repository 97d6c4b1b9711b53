"""Training losses and the optimization step.

The value function is trained by an expectile temporal-difference objective
against a slowly updated target copy, optionally augmented with a continuity
penalty that caps value variation across single transitions under random
goals. Policies are extracted by advantage-weighted regression with the
exponential weights normalized by their batch mean; in hierarchical mode a
high-level policy regresses onto the bottleneck representation of a state
``subgoal_steps`` ahead while the low-level policy imitates dataset actions
conditioned on that representation.

One step is one graph. ``_graph`` builds every loss on a single ``Tape``.
States (obs, next_obs, subgoal) and goals (value_goal, rand_goal,
policy_goal, subgoal) are stacked so that each network runs once on the
tape, over the rows the TD loss and the policies differentiate through,
and at most once in plain NumPy, over the rows only values are read from
(the TD target, the AWR advantages and, with continuity, every row of the
TD pair and both continuity pairs); those reuse the tape's values where
they exist. The continuity hinge is zero on most rows, and on every row
early in training, so only the rows where it is active go on the tape,
through one more pass per network; a step with no active row records no
continuity node and the same graph as a step without continuity. Every
(state, goal) pair is scored in latent space from row blocks. The
target heads pair with the online bottleneck. ``train_step`` runs one
backward sweep over value + high-level + low-level loss, so the bottleneck
receives the value and policy gradients together (the policies read it
through ``stop_gradient`` when ``rep_grad_from_policy`` is false), then
takes one Adam step per parameter group and smooths the target.
``LearnerState.groups()`` is the one place that defines the groups, under
the names the checkpoint uses: "value" (value heads and bottleneck),
"high" (hierarchical only) and "low".
``step_losses`` builds the same graph and reads the row ``train_step``
would log, without a backward sweep.

Each group's parameters, its Adam moments and the target heads are each
one flat buffer (``LearnerState.buffers``, ``AdamState.m`` and ``.v``), so
Adam runs once per group and Polyak once, on the value buffer's head prefix.
Every parameter and moment array is a view of its buffer: never rebind
one; write into it (``arr[...] = x``, as ``load_state_tree`` does), or the
buffer trains on while the rebound array stays behind.

Baselines fall out as configurations: (MLP, flat, continuity 0) is the
expectile-TD flat agent, (MLP, hierarchical) its hierarchical counterpart,
and ``objective="bc"`` is goal-conditioned behavior cloning.

``TrainConfig.dtype`` is the one dtype of the learner: parameters, target
copy, Adam moments, normalizer, the step's tape and its plain forwards.
Parameters are drawn in float64 either way and then cast, so a float32
learner starts as the float64 one rounded; ``float64`` reproduces the runs
made before the key existed byte for byte. Datasets, batches and the maze
stay float64; the step casts what it reads from them.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import data as datamod
from .autodiff import (
    AdamState,
    GraphError,
    LiftedMlp,
    MlpParams,
    Node,
    Tape,
    adam_step,
    flatten,
    init_mlp,
    mlp_apply,
    polyak_update,
    require_finite,
)
from .maze import POINT_DIM, MazeSpec
from .values import (  # noqa: F401  (value is re-exported as training.value)
    ValueArchitecture,
    _score,
    make_subgoal_rep,
    make_value_arch,
    score,
    value,
)

__all__ = [
    "TrainConfig",
    "GaussianPolicy",
    "LearnerState",
    "init_learner",
    "state_tree",
    "load_state_tree",
    "expectile_weights",
    "awr_weights",
    "continuity_threshold",
    "step_losses",
    "train_step",
    "METRIC_FIELDS",
]

LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
ADV_EXP_CLIP = 100.0

METRIC_FIELDS = ("step", "td_loss", "continuity_loss", "high_policy_loss",
                 "low_policy_loss", "v_mean", "delta")


@dataclass
class TrainConfig:
    """Everything one run needs; defaults are the desk-scale reference point."""

    discount: float = 0.99
    expectile: float = 0.9
    continuity_weight: float = 0.0
    high_temp: float = 1.0
    low_temp: float = 3.0
    subgoal_steps: int = 5
    target_rate: float = 0.005
    lr: float = 3e-4
    batch_size: int = 256
    total_steps: int = 50_000
    value_goal_ratios: tuple = datamod.VALUE_GOAL_RATIOS_DEFAULT
    policy_goal_ratios: tuple = datamod.POLICY_GOAL_RATIOS_DEFAULT
    arch_kind: str = "LAN"
    hierarchical: bool = True
    rep_grad_from_policy: bool = True
    objective: str = "awr"             # "awr" | "bc"
    normalize_inputs: bool = True
    seed: int = 0
    value_hidden: tuple = (64, 64)
    policy_hidden: tuple = (64, 64)
    rep_hidden: tuple = (64,)
    rep_dim: int = 10
    latent_dim: int = 64
    iqe_components: int = 8
    iqe_intervals: int = 8
    mrn_sym_dim: int = 32
    mrn_asym_dim: int = 32
    dtype: str = "float32"             # "float32" | "float64"

    def validate(self) -> "TrainConfig":
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if not 0.5 < self.expectile < 1.0:
            raise ValueError("expectile must lie in (0.5, 1)")
        if not 0.0 <= self.continuity_weight < math.inf:
            raise ValueError("continuity_weight must be finite and nonnegative")
        if not (0.0 < self.high_temp < math.inf and 0.0 < self.low_temp < math.inf):
            raise ValueError("AWR temperatures high_temp and low_temp must be "
                             "finite and positive")
        if self.subgoal_steps < 1:
            raise ValueError("subgoal_steps must be at least 1")
        if not 0.0 < self.target_rate <= 1.0:
            raise ValueError("target_rate must lie in (0, 1]")
        if not 0.0 <= self.lr < math.inf or self.batch_size <= 0 or self.total_steps < 0:
            raise ValueError("lr must be finite and nonnegative; batch_size "
                             "positive; total_steps >= 0")
        if self.arch_kind not in ("MLP", "LAN", "IQE", "MRN", "Hilbert"):
            raise ValueError(f"unknown arch_kind '{self.arch_kind}'")
        if self.objective not in ("awr", "bc"):
            raise ValueError("objective must be 'awr' or 'bc'")
        if self.objective == "bc" and self.hierarchical:
            raise ValueError("behavior cloning is a flat-policy objective")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got '{self.dtype}'")
        datamod.GoalSampleRatios(*self.value_goal_ratios).validate()
        datamod.GoalSampleRatios(*self.policy_goal_ratios).validate()
        return self


@dataclass
class GaussianPolicy:
    """Diagonal Gaussian with an MLP mean and state-independent log-std."""

    net: MlpParams
    log_std: np.ndarray

    def tree(self, prefix: str) -> dict[str, np.ndarray]:
        out = self.net.tree(f"{prefix}/net")
        out[f"{prefix}/log_std"] = self.log_std
        return out

    def bind(self, views) -> None:
        """Point each array, in ``tree`` order, at the next of the iterator ``views``."""
        self.net.bind(views)
        self.log_std = next(views)


def make_policy(rng: np.random.Generator, in_dim: int, hidden: tuple,
                out_dim: int, dtype=np.float64) -> GaussianPolicy:
    return GaussianPolicy(init_mlp(rng, [in_dim, *tuple(hidden), out_dim], dtype=dtype),
                          np.zeros(out_dim, dtype=dtype))


def policy_mean(policy: GaussianPolicy, x: np.ndarray) -> np.ndarray:
    return mlp_apply(policy.net, x)


@dataclass
class LearnerState:
    config: TrainConfig
    arch: ValueArchitecture
    target_arch: ValueArchitecture
    rep: MlpParams | None
    high: GaussianPolicy | None
    low: GaussianPolicy
    opt: dict[str, AdamState]          # keyed like ``groups()``
    buffers: dict[str, np.ndarray]     # flat parameters by group, and "target"
    norm_center: np.ndarray
    norm_scale: np.ndarray
    step: int = 0

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """Inputs centred and scaled, in the learner's dtype."""
        return ((x - self.norm_center) / self.norm_scale).astype(
            self.norm_center.dtype, copy=False)

    def groups(self) -> dict[str, dict[str, np.ndarray]]:
        """The trainable arrays of each Adam group, under checkpoint names.

        "value" holds the value heads, then the bottleneck ``rep``; "high"
        exists only in hierarchical mode; "low" always.
        """
        value = {f"value/{k}": v for k, v in self.arch.tree().items()}
        if self.rep is not None:
            value.update({f"rep/{k}": v for k, v in self.rep.tree("rep").items()})
        out = {"value": value}
        if self.high is not None:
            out["high"] = self.high.tree("high")
        out["low"] = self.low.tree("low")
        return out


def init_learner(config: TrainConfig, spec: MazeSpec) -> LearnerState:
    config.validate()
    rng = np.random.default_rng(config.seed)
    hier, dtype = config.hierarchical, np.dtype(config.dtype)
    rep = (make_subgoal_rep(rng, POINT_DIM, config.rep_hidden, config.rep_dim, dtype)
           if hier else None)
    arch = make_value_arch(
        rng, config.arch_kind, POINT_DIM, config.value_hidden,
        goal_input_dim=config.rep_dim if hier else None,
        latent_dim=config.latent_dim, iqe_components=config.iqe_components,
        iqe_intervals=config.iqe_intervals, mrn_sym_dim=config.mrn_sym_dim,
        mrn_asym_dim=config.mrn_asym_dim, dtype=dtype)
    high = (make_policy(rng, 2 * POINT_DIM, config.policy_hidden, config.rep_dim,
                        dtype) if hier else None)
    low_cond = config.rep_dim if hier else POINT_DIM
    low = make_policy(rng, POINT_DIM + low_cond, config.policy_hidden, POINT_DIM,
                      dtype)

    if config.normalize_inputs:
        h, w = spec.shape
        center = np.array([w * spec.cell_size / 2.0, h * spec.cell_size / 2.0],
                          dtype=dtype)
        scale = center.copy()
    else:
        center = np.zeros(POINT_DIM, dtype=dtype)
        scale = np.ones(POINT_DIM, dtype=dtype)

    target = copy.deepcopy(arch)
    state = LearnerState(config=config, arch=arch, target_arch=target,
                         rep=rep, high=high, low=low, opt={}, buffers={},
                         norm_center=center, norm_scale=scale)
    # each buffer holds its owners' tree() arrays, owner after owner
    owners = {"value": (arch, rep), "high": (high,), "low": (low,), "target": (target,)}
    for name, params in dict(state.groups(), target=target.tree()).items():
        state.buffers[name], views = flatten(list(params.values()))
        views = iter(views)
        for owner in filter(None, owners[name]):
            owner.bind(views)
    state.opt = {name: AdamState.for_params(params)
                 for name, params in state.groups().items()}
    return state


# ---- loss primitives ---------------------------------------------------------------


def expectile_weights(x: np.ndarray, expectile: float) -> np.ndarray:
    return np.where(x < 0.0, 1.0 - expectile, expectile)


def awr_weights(adv: np.ndarray, temperature: float) -> np.ndarray:
    """Batch-mean-normalized exponential advantages, clipped before the mean."""
    with np.errstate(over="ignore"):
        w = np.minimum(np.exp(temperature * adv), ADV_EXP_CLIP)
    return w / w.mean()


def continuity_threshold(discount: float, v_mean: float) -> float:
    """Allowed per-transition value gap: 1 + (1 - discount) * |mean value|."""
    return 1.0 + (1.0 - discount) * abs(v_mean)


# ---- the step graph -------------------------------------------------------------------


_INPUTS = ("obs", "next_obs", "value_goal", "rand_goal", "policy_goal", "subgoal")


def _plan(requests, done) -> list[tuple[str, str | None, list[str]]]:
    """One pass per network over every requested name not in ``done``.

    ``requests`` holds (chain, names) pairs: each name runs through the
    networks of its chain in order. Returns (network, previous network,
    names) in an order where each network follows its predecessor.
    """
    passes: dict[str, tuple[str | None, list[str]]] = {}
    for chain, names in requests:
        for depth, net in enumerate(chain):
            _, todo = passes.setdefault(net, (chain[depth - 1] if depth else None, []))
            todo.extend(n for n in names if (net, n) not in done and n not in todo)
    return [(net, prev, names) for net, (prev, names) in passes.items() if names]


def _encode(requests, nets, apply, gather, inputs, done=None) -> dict:
    """Row blocks (source, lo, hi) keyed by (network, name).

    Each network runs once, on the stacked rows of all its names. Works on
    tape nodes and plain arrays alike: ``gather`` stacks a list of blocks
    and ``apply(net, x)`` runs a network. ``inputs`` holds each name's raw
    rows; blocks in ``done`` are reused instead of recomputed.
    """
    out = dict(done or {})
    for net, prev, names in _plan(requests, out):
        parts = [inputs[n] if prev is None else out[(prev, n)] for n in names]
        y = apply(nets[net], gather(parts))
        lo = 0
        for n, (_, a, b) in zip(names, parts):
            out[(net, n)] = (y, lo, lo + b - a)
            lo += b - a
    return out


def _gather_plain(blocks) -> np.ndarray:
    if len(blocks) == 1:
        src, lo, hi = blocks[0]
        return src[lo:hi]
    return np.concatenate([src[lo:hi] for src, lo, hi in blocks])


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of true entries in a boolean vector."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def _pair_blocks(z, inputs, s_chain, g_chain, pairs):
    """State and goal latent blocks of the (state, goal) name pairs."""
    def latent(chain, name):
        return z[(chain[-1], name)] if chain else inputs[name]

    return ([latent(s_chain, s) for s, _ in pairs],
            [latent(g_chain, g) for _, g in pairs])


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


def _policy_loss(tape: Tape, policy: GaussianPolicy, prefix: str, inputs: Node,
                 target: Node, weights: np.ndarray) -> tuple[Node, dict[str, Node]]:
    """Weighted negative log-likelihood and the policy's parameter leaves."""
    net = LiftedMlp(tape, policy.net, name=f"{prefix}.net")
    log_std = tape.leaf(policy.log_std, f"{prefix}.log_std")
    logp = _gaussian_logprob(tape, net(inputs), log_std, target)
    loss = tape.neg(tape.reduce_mean(tape.mul(tape.constant(weights), logp)))
    leaves = net.tree(f"{prefix}/net")
    leaves[f"{prefix}/log_std"] = log_std
    return loss, leaves


@dataclass
class _Graph:
    tape: Tape
    losses: dict[str, Node]              # "value", "high", "low" as built
    params: dict[str, dict[str, Node]]   # Adam group -> parameter name -> leaf
    info: dict[str, float]


def _graph(state: LearnerState, batch: dict) -> _Graph:
    """Build every loss ``state.config`` trains on one tape.

    That is the value loss (TD, plus continuity when its weight is
    positive) unless the objective is behavior cloning, the high policy in
    hierarchical mode, and always the low policy. Each input stack runs
    through each network once on the tape, over the rows the TD loss and
    the policies differentiate through, and at most once in plain NumPy,
    reusing the tape's values. The plain pass scores the AWR advantages
    and, with continuity, the TD pair and both continuity pairs (obs,
    rand_goal) and (next_obs, rand_goal) on every row, which gives v̄, δ
    and the rows whose hinge gap² − δ² is positive. Only those rows go on
    the tape: next_obs and rand_goal through one more pass per network, obs
    as row blocks of its TD latents, scored in the TD pair's tape call. A
    step with no active row records no continuity node. The loss is still
    (1/B)·Σ relu(gap² − δ²) over all B rows, since the other terms are 0.
    The tape computes in ``config.dtype`` and casts its constants (stacked
    inputs, TD target, regression weights, actions) to it. Each parameter
    buffer is checked for non-finite values once, before the tape reads it.
    """
    config = state.config
    hier = config.hierarchical
    bc = config.objective == "bc"
    continuity = not bc and config.continuity_weight > 0.0
    size = len(batch["obs"])
    for name, opt in state.opt.items():
        require_finite(state.buffers[name], opt.mean, "non-finite parameter")
    x_all = np.concatenate([state.normalize(batch[k]) for k in _INPUTS])
    tape = Tape(dtype=config.dtype)
    x_node = tape.constant(x_all, "inputs")
    spans = {k: (i * size, (i + 1) * size) for i, k in enumerate(_INPUTS)}
    tape_in = {k: (x_node, *span) for k, span in spans.items()}
    plain_in = {k: (x_all, *span) for k, span in spans.items()}
    gather = tape.take_rows  # stacks (node, lo, hi) blocks

    s_chain, g_chain = state.arch.chains(hier)
    rep = LiftedMlp(tape, state.rep, name="rep") if hier else None
    info: dict[str, float] = {}
    out: dict[str, Node] = {}
    params: dict[str, dict[str, Node]] = {}

    # rows that some loss differentiates through: one tape pass per network
    td_pairs = []
    nets = {"rep": rep}
    if not bc:
        td_pairs = [("obs", "value_goal")]
        lifted = state.arch.lift(tape)
        nets.update(lifted.nets)
        params["value"] = {f"value/{k}": n for k, n in lifted.tree().items()}
        if rep is not None:
            params["value"].update({f"rep/{k}": n for k, n in rep.tree("rep").items()})
    requests = [(s_chain, [s for s, _ in td_pairs]), (g_chain, [g for _, g in td_pairs])]
    if hier:
        requests.append((("rep",), ["subgoal"]))
    z = _encode(requests, nets, LiftedMlp.__call__, gather, tape_in)

    # rows only read as values: the TD target, the AWR advantages and, with
    # continuity, the TD pair and both continuity pairs on every row
    def target(chain):
        return tuple(n if n == "rep" else f"target.{n}" for n in chain)

    plain_pairs = []
    if hier:
        plain_pairs += [("subgoal", "policy_goal"), ("obs", "policy_goal")]
    if not bc:
        goal = "subgoal" if hier else "policy_goal"
        plain_pairs += [("next_obs", goal), ("obs", goal)]
    n_adv = len(plain_pairs) // 2
    if continuity:
        plain_pairs += [*td_pairs, ("obs", "rand_goal"), ("next_obs", "rand_goal")]
    requests = [(s_chain, [s for s, _ in plain_pairs]),
                (g_chain, [g for _, g in plain_pairs])]
    if not bc:
        requests += [(target(s_chain), ["next_obs"]), (target(g_chain), ["value_goal"])]
    plain_nets = dict(state.arch.nets, rep=state.rep)
    plain_nets.update({f"target.{k}": v for k, v in state.target_arch.nets.items()})
    zp = _encode(requests, plain_nets, mlp_apply, _gather_plain, plain_in,
                 done={k: (y.value, lo, hi) for k, (y, lo, hi) in z.items()})
    if plain_pairs:
        zs, zg = _pair_blocks(zp, plain_in, s_chain, g_chain, plain_pairs)
        scores = score(state.arch, _gather_plain(zs), _gather_plain(zg))
        plain_v = [scores[i * size:(i + 1) * size] for i in range(len(plain_pairs))]
    adv = [plain_v[2 * i] - plain_v[2 * i + 1] for i in range(n_adv)]

    if not bc:
        zs, zg = _pair_blocks(z, tape_in, s_chain, g_chain, td_pairs)
        n_active = 0
        if continuity:
            v_plain, v_obs, v_next = plain_v[2 * n_adv:]
            v_mean = float(v_plain.mean())
            delta = continuity_threshold(config.discount, v_mean)
            gap = v_obs - v_next
            active = gap * gap - np.asarray(delta * delta, gap.dtype) > 0.0
            rows = np.flatnonzero(active)
            n_active = len(rows)
        if n_active:
            # next_obs and rand_goal of the active rows through one more
            # pass per network; obs from the rows of its TD-pair latents
            x_act = tape.constant(np.concatenate([x_all[spans["next_obs"][0] + rows],
                                                  x_all[spans["rand_goal"][0] + rows]]),
                                  "active_inputs")
            act_in = {"next_obs": (x_act, 0, n_active),
                      "rand_goal": (x_act, n_active, 2 * n_active)}
            za = _encode([(s_chain, ["next_obs"]), (g_chain, ["rand_goal"])], nets,
                         LiftedMlp.__call__, gather, act_in)
            (s_next,), (g_rand,) = _pair_blocks(za, act_in, s_chain, g_chain,
                                                [("next_obs", "rand_goal")])
            src, lo, _ = zs[0]
            zs += [(src, lo + a, lo + b) for a, b in _runs(active)] + [s_next]
            zg += [g_rand, g_rand]
        v_all = _score(tape, lifted, gather(zs), gather(zg))
        v = gather([(v_all, 0, size)])
        if not continuity:
            v_mean = float(v.value.mean())
            delta = continuity_threshold(config.discount, v_mean)
        info.update(v_mean=v_mean, delta=delta, continuity_loss=0.0)
        zs, zg = _pair_blocks(zp, plain_in, target(s_chain), target(g_chain),
                              [("next_obs", "value_goal")])
        tv = score(state.target_arch, _gather_plain(zs), _gather_plain(zg))
        bootstrap = batch["reward"] + config.discount * (1.0 - batch["done"]) * tv
        err = tape.sub(tape.constant(bootstrap, "td_target"), v)
        weights = expectile_weights(err.value, config.expectile)
        out["value"] = tape.reduce_mean(
            tape.mul(tape.constant(weights), tape.square(err)))
        info["td_loss"] = float(out["value"].value)
        if n_active:
            mid = size + n_active
            gap = tape.sub(gather([(v_all, size, mid)]),
                           gather([(v_all, mid, mid + n_active)]))
            hinge = tape.relu(tape.sub(tape.square(gap), tape.constant(delta * delta)))
            cont = tape.mul(tape.reduce_sum(hinge), tape.constant(1.0 / size))
            info["continuity_loss"] = float(cont.value)
            out["value"] = tape.add(out["value"], tape.mul(
                tape.constant(config.continuity_weight), cont))

    obs = gather([tape_in["obs"]])
    if hier:
        rep_sub = gather([z[("rep", "subgoal")]])
        if not config.rep_grad_from_policy:
            rep_sub = tape.stop_gradient(rep_sub)
        out["high"], params["high"] = _policy_loss(
            tape, state.high, "high",
            tape.concat(obs, gather([tape_in["policy_goal"]])), rep_sub,
            awr_weights(adv[0], config.high_temp))
    if bc:
        weights, cond = np.ones(size), gather([tape_in["policy_goal"]])
    else:
        weights = awr_weights(adv[-1], config.low_temp)
        cond = rep_sub if hier else gather([tape_in["policy_goal"]])
    out["low"], params["low"] = _policy_loss(
        tape, state.low, "low", tape.concat(obs, cond),
        tape.constant(batch["action"], "action"), weights)
    return _Graph(tape, out, params, info)


def _check_finite(x: float, what: str, step: int) -> None:
    if not math.isfinite(x):
        raise GraphError(f"{what}: non-finite at training step {step}")


_LOSS_NAMES = {"value": "value_loss", "high": "high_policy_loss",
               "low": "low_policy_loss"}


def _metrics(graph: _Graph, step: int) -> dict[str, float]:
    """The row a step logs, without ``step``; a non-finite loss raises."""
    for name, node in graph.losses.items():
        _check_finite(float(node.value), _LOSS_NAMES[name], step)
    nan = float("nan")
    metrics = {"td_loss": nan, "continuity_loss": nan, "v_mean": nan, "delta": nan}
    metrics.update(graph.info)
    for name in ("high", "low"):
        node = graph.losses.get(name)
        metrics[_LOSS_NAMES[name]] = nan if node is None else float(node.value)
    return metrics


def step_losses(state: LearnerState, batch: dict) -> dict[str, float]:
    """The metrics row ``train_step`` would log for ``batch``, without ``step``.

    Updates nothing. The tape is released before returning, so the graph is
    freed at once instead of waiting for the cycle collector.
    """
    graph = _graph(state, batch)
    graph.tape.release()
    return _metrics(graph, state.step)


# ---- optimization step -----------------------------------------------------------------


def train_step(state: LearnerState, batch: dict) -> tuple[LearnerState, dict]:
    """One optimization step over all parameter groups, then target smoothing."""
    config = state.config
    graph = _graph(state, batch)
    metrics = _metrics(graph, state.step)
    tape = graph.tape
    total, *rest = graph.losses.values()
    for node in rest:
        total = tape.add(total, node)
    tape.backward(total)

    # one Adam step per group; the bottleneck's gradient sums every loss
    for name, leaves in graph.params.items():
        opt = state.opt[name]
        grad = np.concatenate([tape.grad(leaves[k]).ravel() for k in opt.mean])
        adam_step(state.buffers[name], grad, opt, config.lr)

    if config.objective != "bc":
        target = state.buffers["target"]
        polyak_update(target, state.buffers["value"][:target.size], config.target_rate)
    state.step += 1
    metrics["step"] = state.step
    return state, metrics


# ---- checkpoint trees --------------------------------------------------------------------


def state_tree(state: LearnerState) -> dict[str, np.ndarray]:
    """Flat named-tensor view of everything a checkpoint must restore."""
    value, *policies = state.groups().values()
    tree = dict(value)
    tree.update({f"target/{k}": v for k, v in state.target_arch.tree().items()})
    for params in reversed(policies):  # low, then high
        tree.update(params)
    for name, opt in state.opt.items():
        tree.update({f"opt_{name}/m/{k}": v for k, v in opt.mean.items()})
        tree.update({f"opt_{name}/v/{k}": v for k, v in opt.var.items()})
        tree[f"opt_{name}/count"] = np.array(float(opt.count))
    tree["norm/center"] = state.norm_center
    tree["norm/scale"] = state.norm_scale
    tree["step"] = np.array(float(state.step))
    return tree


def load_state_tree(state: LearnerState, tree: dict[str, np.ndarray]) -> LearnerState:
    """Fill a freshly initialized learner from a checkpoint tensor dict.

    Each tensor is cast to the learner's dtype, so a checkpoint written at
    either dtype loads. A checkpoint holding NaN or inf (an aborted run's),
    or a value the cast overflows, raises GraphError naming its first
    non-finite tensor.
    """
    own = state_tree(state)
    if set(own) != set(tree):
        missing = set(own) ^ set(tree)
        raise GraphError(f"checkpoint does not match configuration: {sorted(missing)[:4]}")
    for name, arr in own.items():
        with np.errstate(over="ignore"):  # beyond float32's range reads as inf
            src = np.asarray(tree[name], dtype=arr.dtype)
        if arr.shape != src.shape:
            raise GraphError(f"checkpoint tensor '{name}' has shape {src.shape}, "
                             f"expected {arr.shape}")
        if not np.isfinite(src).all():
            raise GraphError(f"checkpoint tensor '{name}' is non-finite")
        arr[...] = src  # counters are synthesized views; restored for real below
    for name, opt in state.opt.items():
        opt.count = int(tree[f"opt_{name}/count"])
    state.step = int(tree["step"])
    return state
