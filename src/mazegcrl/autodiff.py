"""Reverse-mode differentiation on dense floating-point arrays.

A ``Tape`` records primitive operations in execution order (which is a
topological order by construction), so the backward sweep is a single
reversed pass with no recursion. Only the primitives needed by the value
architectures and losses in this package are provided; this is not a
general-purpose autodiff engine.

A graph is acyclic: a node holds its tape's owner token, not the tape, and
a backward closure only its input nodes and arrays (it adds gradients with
``accumulate``). So reference counting frees a graph once the caller lets
go of it, whether or not a backward sweep ran.

``ARRAYS`` is the forward half of the primitives on plain arrays, under
the same names and signatures, so a forward written once against an
``ops`` argument runs on a tape (to be differentiated) or on arrays (read
only, nothing recorded). The MLP layer loop is written that way once, in
``mlp_forward``; ``mlp_apply`` and ``LiftedMlp`` call it. Each layer is one
``dense`` primitive, x @ w + b then GELU (not on the output layer): on a
tape one node that keeps only x @ w + b and the tanh, with the bytes of the
matmul -> add -> GELU nodes it replaced.

A tape computes in one dtype, ``Tape(dtype=np.float64)`` by default: it
casts leaves, constants and every recorded value to it, and its backward
closures allocate in it, so a float32 tape never promotes to float64.
``ARRAYS`` casts nothing; ``mlp_apply`` computes in its parameters' dtype.
Python scalars stay weak under NumPy's promotion rules, so constants written
as literals follow the array they meet. Non-finite values are rejected at
constants and at the output a backward sweep starts from. Leaves are not
checked: they are views of parameter buffers, and the training step checks
each buffer once (``require_finite``) before its tape reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = [
    "GraphError",
    "NonFiniteError",
    "Tape",
    "Node",
    "accumulate",
    "ARRAYS",
    "MlpParams",
    "AdamState",
    "init_mlp",
    "mlp_forward",
    "mlp_apply",
    "adam_step",
    "polyak_update",
    "gelu_value",
    "flatten",
    "require_finite",
]

# tanh approximation of GELU: 0.5*x*(1 + tanh(c0*(x + c1*x^3)))
_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715

# Added under the square root in L2-norm *gradients* only; the forward
# value stays exact so distances satisfy d(x, x) = 0 exactly.
NORM_GRAD_EPS = 1e-12


class GraphError(ValueError):
    """Shape mismatch, non-finite value, or tape misuse."""


class NonFiniteError(GraphError):
    """A NaN or infinity where a finite value is required."""


class Node:
    """One value in the graph, created through Tape methods."""

    __slots__ = ("owner", "value", "grad", "name", "needs_grad", "_backward")

    def __init__(self, owner, value, name, needs_grad, backward=None):
        self.owner = owner
        self.value = value
        self.grad = None
        self.name = name
        self.needs_grad = needs_grad
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.name}, shape={self.value.shape})"


_GELU_K = _GELU_C0 * _GELU_C1


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU (tanh approximation) of ``x`` and its t = tanh(x*(c0 + c0*c1*x^2))."""
    t = x * x
    t *= _GELU_K
    t += _GELU_C0
    t *= x
    np.tanh(t, out=t)
    out = t + 1.0
    out *= 0.5 * x
    return out, t


def gelu_value(x: np.ndarray) -> np.ndarray:
    """Forward GELU (tanh approximation), shared by tape and plain paths."""
    return _gelu(x)[0]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def accumulate(node: Node, grad: np.ndarray) -> None:
    """Add ``grad`` to ``node``'s gradient; backward closures call it."""
    if not node.needs_grad:
        return
    if node.grad is None:
        node.grad = grad.copy() if grad.base is not None else grad
    else:
        node.grad = node.grad + grad


class Tape:
    """Execution-ordered primitive graph with a single backward sweep."""

    def __init__(self, dtype=np.float64):
        self.nodes: list[Node] = []
        self.dtype = np.dtype(dtype)
        self._owner = object()  # held by this tape's nodes instead of the tape
        self._ran_backward = False

    # ---- node construction -------------------------------------------------

    def _cast(self, value) -> np.ndarray:
        return np.asarray(value, dtype=self.dtype)

    def _register(self, value, name, inputs, backward):
        needs = any(inp.needs_grad for inp in inputs)
        return self._node(self._cast(value), name, needs, backward if needs else None)

    def _check_same_tape(self, name, *nodes):
        for n in nodes:
            if n.owner is not self._owner:
                raise GraphError(f"{name}: input from a different tape")

    def _check_broadcast(self, name: str, a: Node, b: Node) -> None:
        self._check_same_tape(name, a, b)
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise GraphError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from None

    def leaf(self, value, name="leaf") -> Node:
        """Trainable input; gradient is accumulated here. Its value is not checked."""
        return self._node(self._cast(value), name, True)

    def constant(self, value, name="const") -> Node:
        """Input that never receives gradient."""
        value = self._cast(value)
        if not np.all(np.isfinite(value)):
            raise NonFiniteError(f"non-finite constant '{name}'")
        return self._node(value, name, False)

    def _node(self, value, name, needs_grad, backward=None):
        node = Node(self._owner, value, f"{name}#{len(self.nodes)}", needs_grad, backward)
        self.nodes.append(node)
        return node

    def primitive(self, value, inputs, backward, name="custom") -> Node:
        """Hook for caller-defined primitives with a hand-coded backward, which
        hands gradients to ``inputs`` with ``accumulate`` and holds no tape."""
        self._check_same_tape(name, *inputs)
        return self._register(value, name, inputs, backward)

    # ---- primitives ----------------------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        self._check_broadcast("add", a, b)

        def backward(g):
            accumulate(a, _unbroadcast(g, a.shape))
            accumulate(b, _unbroadcast(g, b.shape))

        return self._register(a.value + b.value, "add", (a, b), backward)

    def sub(self, a: Node, b: Node) -> Node:
        self._check_broadcast("sub", a, b)

        def backward(g):
            accumulate(a, _unbroadcast(g, a.shape))
            accumulate(b, _unbroadcast(-g, b.shape))

        return self._register(a.value - b.value, "sub", (a, b), backward)

    def mul(self, a: Node, b: Node) -> Node:
        self._check_broadcast("mul", a, b)

        def backward(g):
            if a.needs_grad:
                accumulate(a, _unbroadcast(g * b.value, a.shape))
            if b.needs_grad:
                accumulate(b, _unbroadcast(g * a.value, b.shape))

        return self._register(a.value * b.value, "mul", (a, b), backward)

    def neg(self, a: Node) -> Node:
        def backward(g):
            accumulate(a, -g)

        return self._register(-a.value, "neg", (a,), backward)

    def matmul(self, a: Node, b: Node) -> Node:
        self._check_same_tape("matmul", a, b)
        if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
            raise GraphError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")

        def backward(g):
            if a.needs_grad:
                accumulate(a, g @ b.value.T)
            if b.needs_grad:
                accumulate(b, a.value.T @ g)

        return self._register(a.value @ b.value, "matmul", (a, b), backward)

    def dense(self, x: Node, w: Node, b: Node, act: bool) -> Node:
        """One MLP layer as one node: x @ w + b, then the tanh-GELU if ``act``."""
        self._check_same_tape("dense", x, w, b)
        if (x.value.ndim != 2 or w.value.ndim != 2 or x.shape[1] != w.shape[0]
                or b.shape != w.shape[1:]):
            raise GraphError(f"dense: incompatible shapes {x.shape} @ {w.shape} + {b.shape}")
        pre = x.value @ w.value
        pre += b.value
        out, t = _gelu(pre) if act else (pre, None)

        def backward(g):
            if act:  # d/dx [0.5*x*(1+t)] with t = tanh(x*(c0 + c0*c1*x^2))
                local = t * t
                np.subtract(1.0, local, out=local)
                x2 = pre * pre
                x2 *= 1.5 * _GELU_K
                x2 += 0.5 * _GELU_C0
                local *= x2
                local *= pre
                np.add(t, 1.0, out=x2)
                x2 *= 0.5
                local += x2
                g = np.multiply(g, local, out=local)
            if b.needs_grad:
                accumulate(b, g.sum(axis=(0,)))
            if x.needs_grad:
                accumulate(x, g @ w.value.T)
            if w.needs_grad:
                accumulate(w, x.value.T @ g)

        return self._register(out, "dense", (x, w, b), backward)

    def concat(self, a: Node, b: Node) -> Node:
        """Column-wise concatenation of two matrices."""
        self._check_same_tape("concat", a, b)
        if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[0] != b.shape[0]:
            raise GraphError(f"concat: incompatible shapes {a.shape}, {b.shape}")
        na = a.shape[1]

        def backward(g):
            if a.needs_grad:
                accumulate(a, g[:, :na])
            if b.needs_grad:
                accumulate(b, g[:, na:])

        return self._register(np.concatenate([a.value, b.value], axis=1),
                              "concat", (a, b), backward)

    def slice_cols(self, a: Node, start: int, stop: int) -> Node:
        if a.value.ndim != 2 or not (0 <= start <= stop <= a.shape[1]):
            raise GraphError(f"slice_cols: bad range [{start}:{stop}] for shape {a.shape}")

        def backward(g):
            full = np.zeros_like(a.value)
            full[:, start:stop] = g
            accumulate(a, full)

        return self._register(a.value[:, start:stop].copy(), "slice_cols", (a,), backward)

    def take_rows(self, blocks) -> Node:
        """Rows src[lo:hi] of each (src, lo, hi) block, stacked in order.

        Blocks may come from several nodes and may repeat.
        """
        sources = list(dict.fromkeys(src for src, _, _ in blocks))
        self._check_same_tape("take_rows", *sources)
        for src, lo, hi in blocks:
            if src.value.ndim < 1 or not (0 <= lo <= hi <= src.shape[0]):
                raise GraphError(f"take_rows: bad range [{lo}:{hi}] for shape {src.shape}")
        if len(blocks) == 1:
            src, lo, hi = blocks[0]
            if (lo, hi) == (0, src.shape[0]):
                return src
            value = src.value[lo:hi]
        else:
            value = np.concatenate([src.value[lo:hi] for src, lo, hi in blocks])

        def backward(g):
            full = {src: np.zeros_like(src.value) for src in sources if src.needs_grad}
            at = 0
            for src, lo, hi in blocks:
                if src in full:
                    full[src][lo:hi] += g[at:at + hi - lo]
                at += hi - lo
            for src, grad in full.items():
                accumulate(src, grad)

        return self._register(value, "take_rows", sources, backward)

    def reshape(self, a: Node, shape: tuple) -> Node:
        if int(np.prod(shape)) != a.value.size:
            raise GraphError(f"reshape: cannot view {a.shape} as {shape}")

        def backward(g):
            accumulate(a, g.reshape(a.shape))

        return self._register(a.value.reshape(shape), "reshape", (a,), backward)

    def relu(self, a: Node) -> Node:
        """Positive part (x)+; subgradient 0 at the kink."""
        mask = a.value > 0.0

        def backward(g):
            accumulate(a, g * mask)

        return self._register(np.where(mask, a.value, 0.0), "relu", (a,), backward)

    def square(self, a: Node) -> Node:
        def backward(g):
            accumulate(a, g * (2.0 * a.value))

        return self._register(a.value * a.value, "square", (a,), backward)

    def exp(self, a: Node) -> Node:
        out = np.exp(a.value)

        def backward(g):
            accumulate(a, g * out)

        return self._register(out, "exp", (a,), backward)

    def sigmoid(self, a: Node) -> Node:
        out = 1.0 / (1.0 + np.exp(-a.value))

        def backward(g):
            accumulate(a, g * out * (1.0 - out))

        return self._register(out, "sigmoid", (a,), backward)

    def l2norm_rows(self, a: Node) -> Node:
        """Row-wise Euclidean norm of a matrix, shape (B, D) -> (B,).

        Forward is the exact norm; the backward denominator is padded by
        NORM_GRAD_EPS so coincident encoder outputs do not produce NaN.
        """
        if a.value.ndim != 2:
            raise GraphError(f"l2norm_rows: expected a matrix, got shape {a.shape}")
        sq = np.einsum("ij,ij->i", a.value, a.value)
        out = np.sqrt(sq)

        def backward(g):
            denom = np.sqrt(sq + NORM_GRAD_EPS)
            accumulate(a, (g / denom)[:, None] * a.value)

        return self._register(out, "l2norm_rows", (a,), backward)

    def reduce_sum(self, a: Node, axis: int | None = None) -> Node:
        dtype = self.dtype

        def backward(g):
            if axis is None:
                accumulate(a, np.full(a.shape, g, dtype=dtype))
            else:
                accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape))

        return self._register(a.value.sum(axis=axis), "sum", (a,), backward)

    def reduce_mean(self, a: Node) -> Node:
        n, dtype = a.value.size, self.dtype

        def backward(g):
            accumulate(a, np.full(a.shape, g / n, dtype=dtype))

        return self._register(a.value.mean(), "mean", (a,), backward)

    def reduce_max(self, a: Node, axis: int) -> Node:
        """Max over one axis; the subgradient goes to the first argmax."""
        out = a.value.max(axis=axis)
        idx = a.value.argmax(axis=axis)

        def backward(g):
            full = np.zeros_like(a.value)
            np.put_along_axis(full, np.expand_dims(idx, axis),
                              np.expand_dims(g, axis), axis=axis)
            accumulate(a, full)

        return self._register(out, "max", (a,), backward)

    def clip(self, a: Node, lo: float, hi: float) -> Node:
        inside = (a.value >= lo) & (a.value <= hi)

        def backward(g):
            accumulate(a, g * inside)

        return self._register(np.clip(a.value, lo, hi), "clip", (a,), backward)

    def stop_gradient(self, a: Node) -> Node:
        return self._node(a.value, "stopgrad", False)

    # ---- backward sweep ------------------------------------------------------

    def backward(self, output: Node, seed=None) -> None:
        """One reversed sweep, then the graph is released: it drops each node's
        closure and the node list, so only the nodes a caller holds stay alive,
        with their values and gradients (``grad``). A second sweep is an error."""
        if self._ran_backward:
            raise GraphError("backward: this tape's graph was released")
        if output.owner is not self._owner:
            raise GraphError("backward: output from a different tape")
        if seed is None:
            if output.value.size != 1:
                raise GraphError("backward: scalar output required when no seed given")
            seed = np.ones_like(output.value)
        else:
            seed = self._cast(seed)
            if seed.shape != output.value.shape:
                raise GraphError("backward: seed shape mismatch")
        if not np.all(np.isfinite(output.value)):
            raise NonFiniteError(f"non-finite output at node '{output.name}'")
        if output.needs_grad:
            output.grad = seed
        for node in reversed(self.nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
            node._backward = None
        self.nodes = []
        self._ran_backward = True

    def grad(self, node: Node) -> np.ndarray:
        if not self._ran_backward:
            raise GraphError("grad: backward has not been run on this tape")
        if node.grad is None:
            return np.zeros_like(node.value)
        return node.grad


# The forward half of the Tape primitives on plain arrays: same names, same
# signatures and the same forward arithmetic, so one function body runs on a
# tape or on arrays and gives the same bytes. Nothing is recorded or checked.
# ``dense`` looks ``gelu_value`` up at call time, so wrappers of it see calls.
def _dense_arrays(x, w, b, act):
    pre = x @ w
    pre += b
    return gelu_value(pre) if act else pre


ARRAYS = SimpleNamespace(
    constant=lambda value, name="const": value,
    add=np.add, sub=np.subtract, mul=np.multiply, neg=np.negative,
    reshape=np.reshape, dense=_dense_arrays,
    concat=lambda a, b: np.concatenate([a, b], axis=1),
    slice_cols=lambda a, start, stop: a[:, start:stop],
    relu=lambda a: np.where(a > 0.0, a, 0.0),
    sigmoid=lambda a: 1.0 / (1.0 + np.exp(-a)),
    l2norm_rows=lambda a: np.sqrt(np.einsum("ij,ij->i", a, a)),
    reduce_sum=lambda a, axis=None: a.sum(axis=axis),
    reduce_max=lambda a, axis: a.max(axis=axis),
)


# ---- dense networks -----------------------------------------------------------


@dataclass
class MlpParams:
    """Weights and biases of a GELU MLP; no activation after the last layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    def tree(self, prefix: str) -> dict[str, np.ndarray]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}.w{i}"] = w
            out[f"{prefix}.b{i}"] = b
        return out

    def bind(self, views) -> None:
        """Point each array, in ``tree`` order, at the next of the iterator ``views``."""
        for i in range(len(self.weights)):
            self.weights[i], self.biases[i] = next(views), next(views)


def init_mlp(rng: np.random.Generator, sizes: list[int],
             final_scale: float = 1.0, dtype=np.float64) -> MlpParams:
    """Fan-in-scaled uniform init; the last layer can be shrunk toward zero.

    ``sizes`` is [in, hidden..., out]; layer count must be >= 1. The draws
    are float64 whatever ``dtype``, so a float32 network is the float64 one
    rounded.
    """
    if len(sizes) < 2:
        raise ValueError("init_mlp: need at least input and output sizes")
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        fan_in = sizes[i]
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(sizes[i], sizes[i + 1]))
        b = rng.uniform(-bound, bound, size=(sizes[i + 1],))
        if i == len(sizes) - 2 and final_scale != 1.0:
            w *= final_scale
            b *= final_scale
        weights.append(w.astype(dtype, copy=False))
        biases.append(b.astype(dtype, copy=False))
    return MlpParams(weights, biases)


def mlp_forward(ops, net, x):
    """One ``dense`` per layer, GELU on all but the last, on ``ops`` (a Tape or ARRAYS).

    ``net`` is an ``MlpParams`` on arrays and a ``LiftedMlp`` on a tape.
    """
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        x = ops.dense(x, w, b, i < last)
    return x


def mlp_apply(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Plain ``mlp_forward`` in the parameters' dtype; checks the input shape."""
    x = np.asarray(x, dtype=params.weights[0].dtype)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise GraphError(f"mlp_apply: input shape {x.shape} does not match "
                         f"in_dim {params.in_dim}")
    return mlp_forward(ARRAYS, params, x)


class LiftedMlp:
    """Tape view of an MlpParams bundle."""

    def __init__(self, tape: Tape, params: MlpParams, trainable: bool = True,
                 name: str = "mlp"):
        make = tape.leaf if trainable else tape.constant
        self.tape = tape
        self.weights = [make(w, f"{name}.w{i}") for i, w in enumerate(params.weights)]
        self.biases = [make(b, f"{name}.b{i}") for i, b in enumerate(params.biases)]

    def __call__(self, x: Node) -> Node:
        return mlp_forward(self.tape, self, x)

    tree = MlpParams.tree  # the same names, here mapping to leaves


# ---- optimizer ------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def flatten(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One contiguous copy of ``arrays``, and a view of it shaped like each."""
    flat = np.concatenate([a.ravel() for a in arrays])
    views, at = [], 0
    for a in arrays:
        views.append(flat[at:at + a.size].reshape(a.shape))
        at += a.size
    return flat, views


def require_finite(flat: np.ndarray, parts: dict[str, np.ndarray], what: str):
    """Raise NonFiniteError "<what> '<name>'" naming the first of ``parts``, the
    named arrays laid out in turn in ``flat``, that holds a non-finite value."""
    finite = np.isfinite(flat)
    if not finite.all():
        ends = np.cumsum([p.size for p in parts.values()])
        name = list(parts)[np.searchsorted(ends, finite.argmin(), side="right")]
        raise NonFiniteError(f"{what} '{name}'")


@dataclass
class AdamState:
    """First/second moments of one parameter group, plus the shared step counter.

    ``m`` and ``v`` are flat; ``mean`` and ``var`` name a view of them per
    parameter, in the group's order.
    """

    m: np.ndarray
    v: np.ndarray
    mean: dict[str, np.ndarray]
    var: dict[str, np.ndarray]
    count: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        zeros = [np.zeros_like(a) for a in params.values()]
        (m, mean), (v, var) = flatten(zeros), flatten(zeros)
        return cls(m, v, dict(zip(params, mean)), dict(zip(params, var)))


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float):
    """Bias-corrected Adam on one flat group; ``param`` is updated in place.

    ``grad`` is laid out like ``param`` and ``state.m``. A non-finite
    gradient raises, naming the first parameter (in ``state.mean``) that
    holds one, before anything is updated. lr = 0 is admitted so a training
    step can be exercised as a pure target-network update with every
    parameter frozen.
    """
    if lr < 0.0:
        raise ValueError("adam_step: lr must not be negative")
    if grad.shape != param.shape or param.shape != state.m.shape:
        raise GraphError(f"adam_step: gradient shape mismatch, {grad.shape} "
                         f"for {param.shape}")
    require_finite(grad, state.mean, "adam_step: non-finite gradient for")
    state.count += 1
    t = state.count
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grad * grad)
    param -= lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
    return param, state


def polyak_update(target: np.ndarray, online: np.ndarray, rate: float) -> np.ndarray:
    """target <- (1 - rate) * target + rate * online, elementwise, in place."""
    if target.shape != online.shape:
        raise GraphError(f"polyak_update: shape mismatch {target.shape} vs {online.shape}")
    target *= 1.0 - rate
    target += rate * online
    return target
