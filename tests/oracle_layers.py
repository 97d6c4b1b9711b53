"""The MLP layers, optimizer and step the library shipped before ``dense``.

A test-only reference, copied from the library as it was before each MLP
layer became one ``dense`` primitive and each Adam group one flat buffer:
the tape GELU node and its three-node matmul -> add -> GELU layer, the
plain GELU, the per-array Adam and Polyak updates over name -> array dicts,
and ``train_step`` built on them. The library must reproduce their bytes.
"""

from __future__ import annotations

import numpy as np

from mazegcrl.autodiff import (
    _GELU_C0,
    _GELU_C1,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    GraphError,
    Node,
    Tape,
)
from mazegcrl.training import LearnerState, _graph, _metrics

_GELU_K = _GELU_C0 * _GELU_C1


def gelu_value(x: np.ndarray) -> np.ndarray:
    """Forward GELU (tanh approximation), shared by tape and plain paths."""
    t = np.tanh(x * (_GELU_C0 + _GELU_K * (x * x)))
    t += 1.0
    t *= 0.5 * x
    return t


def tape_gelu(self: Tape, a: Node) -> Node:
    """``Tape.gelu``: one GELU node."""
    x = a.value
    x2 = x * x
    t = np.tanh(x * (_GELU_C0 + _GELU_K * x2))

    def backward(g):
        # d/dx [0.5*x*(1+t)] with t = tanh(x*(c0 + c0*c1*x^2))
        local = (1.0 - t * t) * (0.5 * _GELU_C0 + (1.5 * _GELU_K) * x2)
        local *= x
        local += 0.5 * (1.0 + t)
        self._accum(a, g * local)

    return self._register(0.5 * x * (1.0 + t), "gelu", (a,), backward)


def mlp_forward(ops, net, x):
    """Affine -> GELU per hidden layer, affine output, on a Tape or on arrays.

    On a tape each layer is a matmul, an add and a GELU node; on arrays it
    is ``np.matmul``, ``np.add`` and ``gelu_value``.
    """
    if isinstance(ops, Tape):
        matmul, add, gelu = ops.matmul, ops.add, lambda h: tape_gelu(ops, h)
    else:
        matmul, add, gelu = np.matmul, np.add, gelu_value
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = add(matmul(h, w), b)
        if i < last:
            h = gelu(h)
    return h


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float):
    """Bias-corrected Adam; parameter arrays are updated in place.

    lr = 0 is admitted so a training step can be exercised as a pure
    target-network update with every parameter frozen.
    """
    if lr < 0.0:
        raise ValueError("adam_step: lr must not be negative")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise GraphError(f"adam_step: non-finite gradient for '{name}'")
        if g.shape != params[name].shape:
            raise GraphError(f"adam_step: gradient shape mismatch for '{name}'")
    state.count += 1
    t = state.count
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    for name, g in grads.items():
        m = state.mean[name]
        v = state.var[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        params[name] -= lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
    return params, state


def polyak_update(target: dict[str, np.ndarray], online: dict[str, np.ndarray],
                  rate: float) -> dict[str, np.ndarray]:
    """target <- (1 - rate) * target + rate * online, elementwise, in place."""
    for name, src in online.items():
        dst = target[name]
        if dst.shape != src.shape:
            raise GraphError(f"polyak_update: shape mismatch for '{name}'")
        dst *= 1.0 - rate
        dst += rate * src
    return target


def train_step(state: LearnerState, batch: dict) -> tuple[LearnerState, dict]:
    """One optimization step over all parameter groups, then target smoothing.

    Adam and Polyak run per array, on the learner's named arrays. For the
    layers too to be the old ones, patch ``LiftedMlp.__call__`` and
    ``ARRAYS.dense`` (see ``patch_layers``).
    """
    config = state.config
    graph = _graph(state, batch)
    metrics = _metrics(graph, state.step)
    tape = graph.tape
    total, *rest = graph.losses.values()
    for node in rest:
        total = tape.add(total, node)
    tape.backward(total)
    grads = {group: {name: tape.grad(node) for name, node in leaves.items()}
             for group, leaves in graph.params.items()}

    # one Adam step per group; the bottleneck's gradient sums every loss
    groups = state.groups()
    for name, group_grads in grads.items():
        adam_step(groups[name], group_grads, state.opt[name], config.lr)

    if config.objective != "bc":
        polyak_update(state.target_arch.tree(), state.arch.tree(),
                      config.target_rate)
    state.step += 1
    metrics["step"] = state.step
    return state, metrics


def patch_layers(monkeypatch, autodiff) -> None:
    """Run every library MLP, on a tape and on arrays, through ``mlp_forward``."""
    monkeypatch.setattr(autodiff.LiftedMlp, "__call__",
                        lambda self, x: mlp_forward(self.tape, self, x))
    monkeypatch.setattr(autodiff.ARRAYS, "dense", lambda x, w, b, act: (
        gelu_value(np.add(np.matmul(x, w), b)) if act else np.add(np.matmul(x, w), b)))
