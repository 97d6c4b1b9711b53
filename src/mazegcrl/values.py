"""Goal-conditioned value parameterizations: MLP, LAN, IQE, MRN, Hilbert.

All non-MLP kinds score a state/goal pair as the negative of a distance
between encoder outputs, so their values are never positive:

- LAN: separate state and goal encoders, negative Euclidean distance
  between them; asymmetric by construction.
- IQE: one shared encoder into K components of L interval endpoints; the
  component distance is the Lebesgue measure of the union of the intervals
  [u_j, max(u_j, v_j)], reduced by a maxmean with a learnable mixing weight.
- MRN: one shared encoder; symmetric Euclidean part plus an asymmetric
  max-of-positive-residuals part.
- Hilbert: one shared encoder, plain Euclidean distance (symmetric).

In hierarchical mode a low-dimensional goal representation acts as a
bottleneck: LAN applies it to the goal side only, the shared-encoder kinds
apply it to both inputs.

MRN and Hilbert read the encoder's outputs only through zs − zg, so the
last bias of ``phi`` cancels: its gradient is rounding noise (at init
below 1e-16 in float64, 1e-8 in float32) and Adam turns that into tiny
random steps. IQE's does not cancel coordinate by coordinate, since one
endpoint's bias moves one interval against the others; only its sum over
each component's L endpoints does. The bias is kept on purpose; removing
it would change the init draws and the checkpoint layout.

Each head is written once, in ``_score``, against the primitives of an
``ops`` argument: the training step runs it on a ``Tape`` over the
architecture's ``lift`` (the value being trained) and ``score`` on
``autodiff.ARRAYS`` (the TD target, the AWR advantages and every evaluation
value), so both compute the same bytes, in the parameters' dtype.
The IQE measure is the one primitive picked per backend: the tape node with
subgradients, or the bare sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (
    ARRAYS,
    LiftedMlp,
    MlpParams,
    Node,
    Tape,
    init_mlp,
    mlp_apply,
)
from .data import _number_error

__all__ = [
    "KINDS",
    "ValueArchitecture",
    "make_value_arch",
    "make_subgoal_rep",
    "value",
    "score",
    "interval_union_measure",
    "tensors_to_text",
    "tensors_from_text",
    "write_tensors",
    "read_tensors",
]

KINDS = ("MLP", "LAN", "IQE", "MRN", "Hilbert")

# shrink factor for the last encoder/trunk layer so values start near zero
HEAD_INIT_SCALE = 1e-2


@dataclass
class ValueArchitecture:
    """Tagged parameter bundle for one V(s, g) parameterization."""

    kind: str
    nets: dict[str, MlpParams]
    raw_alpha: np.ndarray | None = None      # IQE maxmean mixing (scalar)
    iqe_shape: tuple[int, int] | None = None  # (components K, intervals L)
    mrn_sym_dim: int | None = None

    def tree(self) -> dict[str, np.ndarray]:
        out = {}
        for name, net in self.nets.items():
            out.update(net.tree(name))
        if self.raw_alpha is not None:
            out["raw_alpha"] = self.raw_alpha
        return out

    def chains(self, bottleneck: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Networks states and goals pass through before the score, in order.

        ``"rep"`` names the goal bottleneck; the other names are keys of
        ``nets``. The MLP kind scores raw inputs and never uses the bottleneck.
        """
        if self.kind == "MLP":
            return (), ()
        pre = ("rep",) if bottleneck else ()
        if self.kind == "LAN":
            return ("phi_s",), (*pre, "phi_g")
        return (*pre, "phi"), (*pre, "phi")

    def lift(self, tape: Tape) -> "ValueArchitecture":
        """Tape view: ``LiftedMlp`` nets and a leaf ``raw_alpha``.

        Its ``tree()`` names each leaf as this architecture's ``tree()``
        names the array.
        """
        return replace(
            self, nets={k: LiftedMlp(tape, net, name=f"value.{k}")
                        for k, net in self.nets.items()},
            raw_alpha=(None if self.raw_alpha is None
                       else tape.leaf(self.raw_alpha, "value.raw_alpha")))

    def bind(self, views) -> None:
        """Point each array, in ``tree`` order, at the next of the iterator ``views``."""
        for net in self.nets.values():
            net.bind(views)
        if self.raw_alpha is not None:
            self.raw_alpha = next(views)


def make_value_arch(rng: np.random.Generator, kind: str, state_dim: int,
                    hidden: tuple[int, ...], *, goal_input_dim: int | None = None,
                    latent_dim: int = 64, iqe_components: int = 8,
                    iqe_intervals: int = 8, mrn_sym_dim: int = 32,
                    mrn_asym_dim: int = 32, dtype=np.float64) -> ValueArchitecture:
    """Build one architecture.

    ``goal_input_dim`` is the dimension the goal-side (or shared) encoder
    sees: the state dimension in flat mode, the subgoal-representation
    dimension in hierarchical mode. The MLP kind always consumes raw
    state/goal pairs and ignores it.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown value architecture '{kind}'")
    gdim = state_dim if goal_input_dim is None else goal_input_dim
    hidden = tuple(hidden)

    def head(in_dim, out_dim):
        return init_mlp(rng, [in_dim, *hidden, out_dim],
                        final_scale=HEAD_INIT_SCALE, dtype=dtype)

    if kind == "MLP":
        return ValueArchitecture(kind, {"trunk": head(2 * state_dim, 1)})
    if kind == "LAN":
        return ValueArchitecture(kind, {"phi_s": head(state_dim, latent_dim),
                                        "phi_g": head(gdim, latent_dim)})
    if kind == "IQE":
        phi = head(gdim, iqe_components * iqe_intervals)
        return ValueArchitecture(kind, {"phi": phi},
                                 raw_alpha=np.zeros((), dtype=dtype),
                                 iqe_shape=(iqe_components, iqe_intervals))
    if kind == "MRN":
        phi = head(gdim, mrn_sym_dim + mrn_asym_dim)
        return ValueArchitecture(kind, {"phi": phi}, mrn_sym_dim=mrn_sym_dim)
    return ValueArchitecture(kind, {"phi": head(gdim, latent_dim)})


def make_subgoal_rep(rng: np.random.Generator, state_dim: int,
                     hidden: tuple[int, ...], rep_dim: int = 10,
                     dtype=np.float64) -> MlpParams:
    """Goal-only bottleneck encoder used by the hierarchical stack."""
    return init_mlp(rng, [state_dim, *tuple(hidden), rep_dim], dtype=dtype)


# ---- IQE interval-union kernel (plain numpy) ---------------------------------------


def interval_union_measure(u: np.ndarray, v: np.ndarray):
    """Union measure of intervals [u_j, max(u_j, v_j)] per component.

    ``u`` and ``v`` have the same shape (B, K, L). Returns ``(measure,
    layout)``: the measure has shape (B, K); ``layout`` is the sorted layout
    ``(index, starts, v_sorted, ends, cover)``, each of shape (L, B·K) with one
    column per component. ``index`` holds the flat (B, K, L) positions in
    stable order of the starts, ``starts``/``v_sorted`` are ``u``/``v`` read
    through it, ``ends = max(starts, v_sorted)`` and ``cover[j]`` is the right
    edge covered before sorted interval j. No subgradient is built here; the
    tape primitive derives them from the layout inside its backward pass, so
    plain-NumPy scores never pay for them.

    Sorted interval j adds ``max(ends[j] - max(starts[j], cover[j]), 0)``, and
    the gains are summed in sorted order, in ``u``'s dtype. Summing the ±1
    coverage changes of the 2L sorted endpoints instead would add the same
    lengths in another order and change the last bits of the measures.
    """
    if np.ndim(u) != 3 or np.shape(u) != np.shape(v):
        raise ValueError("interval_union_measure expects two (B, K, L) arrays of "
                         f"one shape, got {np.shape(u)} and {np.shape(v)}")
    b, k, nl = u.shape
    bk = b * k
    order = np.argsort(u.reshape(bk, nl), axis=-1, kind="stable")
    index = np.add(order.T, np.arange(0, bk * nl, nl), order="C")
    starts = np.take(u, index)
    v_sorted = np.take(v, index)
    ends = np.maximum(starts, v_sorted)
    cover = np.empty_like(ends)
    cover[0] = -np.inf
    for j in range(1, nl):
        np.maximum(cover[j - 1], ends[j - 1], out=cover[j])
    gain = np.maximum(ends - np.maximum(starts, cover), 0.0)
    measure = np.zeros(bk, dtype=u.dtype)
    for row in gain:
        measure += row
    return measure.reshape(b, k), (index, starts, v_sorted, ends, cover)


# ---- heads: encode, then score in latent space ------------------------------------


def _run_chain(apply, nets: dict, chain: tuple[str, ...], x):
    for name in chain:
        x = apply(nets[name], x)
    return x


def _score(ops, arch: ValueArchitecture, zs, zg):
    """V from encoded states and goals, row by row; (B, ·) x (B, ·) -> (B,).

    The one definition of every head. ``ops`` is a ``Tape`` (``arch`` is a
    ``lift`` on it) or ``ARRAYS`` (``arch`` holds arrays).
    """
    if arch.kind == "MLP":
        trunk, x = arch.nets["trunk"], ops.concat(zs, zg)
        # each backend's MLP entry point, so wrappers counting passes see it
        out = trunk(x) if isinstance(ops, Tape) else mlp_apply(trunk, x)
        return ops.reshape(out, (out.shape[0],))
    if arch.kind == "IQE":
        kk, ll = arch.iqe_shape
        batch = zs.shape[0]
        measure = _iqe_measure(ops, ops.reshape(zs, (batch, kk, ll)),
                               ops.reshape(zg, (batch, kk, ll)))
        alpha = ops.sigmoid(arch.raw_alpha)
        one_minus = ops.sub(ops.constant(1.0), alpha)
        mx = ops.reduce_max(measure, axis=1)
        mean = ops.mul(ops.reduce_sum(measure, axis=1), ops.constant(1.0 / kk))
        return ops.neg(ops.add(ops.mul(alpha, mx), ops.mul(one_minus, mean)))
    if arch.kind == "MRN":
        d, width = arch.mrn_sym_dim, zs.shape[1]
        sym = ops.l2norm_rows(ops.sub(ops.slice_cols(zs, 0, d), ops.slice_cols(zg, 0, d)))
        resid = ops.relu(ops.sub(ops.slice_cols(zs, d, width),
                                 ops.slice_cols(zg, d, width)))
        return ops.neg(ops.add(sym, ops.reduce_max(resid, axis=1)))
    return ops.neg(ops.l2norm_rows(ops.sub(zs, zg)))  # LAN, Hilbert


def score(arch: ValueArchitecture, zs: np.ndarray, zg: np.ndarray) -> np.ndarray:
    """``_score`` on plain arrays: no tape, nothing recorded."""
    return _score(ARRAYS, arch, zs, zg)


def value(arch: ValueArchitecture, rep: MlpParams | None,
          s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """V(s, g) for batches (B, state_dim) x (B, state_dim) -> (B,), in the
    architecture's dtype: ``mlp_apply`` casts the inputs."""
    nets = dict(arch.nets, rep=rep)
    s_chain, g_chain = arch.chains(rep is not None)
    return score(arch, _run_chain(mlp_apply, nets, s_chain, s),
                 _run_chain(mlp_apply, nets, g_chain, g))


def _iqe_measure_node(tape: Tape, u: Node, v: Node) -> Node:
    """Interval-union measure as a custom primitive with exact subgradients."""
    measure, (index, starts, v_sorted, ends, cover) = interval_union_measure(
        u.value, v.value)

    def backward(g):
        nl, bk = starts.shape
        fresh = starts >= cover    # opens a new covered run: d/d start = -1
        moved = ends > cover       # pushes the covered edge right
        # flat sorted slot whose end is the covered edge before each step
        owner = np.empty((nl, bk), dtype=np.intp)
        owner[0] = np.arange(bk)
        for j in range(1, nl):
            owner[j] = np.where(moved[j - 1], owner[0] + (j - 1) * bk, owner[j - 1])
        # extending a run moves the edge off its owner's end
        taken = np.bincount(owner[moved & ~fresh], minlength=nl * bk)
        d_end = ((fresh | moved) - taken.reshape(nl, bk)).astype(tape.dtype)
        g = g.reshape(1, bk)
        # 0 - fresh keeps zeros +0.0; -1.0 * fresh would give -0.0 and so
        # flip the sign of zero gradients
        grad_start = g * np.subtract(0.0, fresh, dtype=tape.dtype)
        grad_end = g * d_end
        win_u = starts >= v_sorted
        grad_u = np.empty(nl * bk, dtype=tape.dtype)
        grad_v = np.empty(nl * bk, dtype=tape.dtype)
        grad_u[index] = grad_start + grad_end * win_u
        grad_v[index] = grad_end * ~win_u
        tape._accum(u, grad_u.reshape(u.shape))
        tape._accum(v, grad_v.reshape(v.shape))

    return tape.primitive(measure, (u, v), backward, name="iqe_union")


def _iqe_measure(ops, u, v):
    """Interval-union measure: the tape primitive on a tape, the sweep on arrays."""
    if isinstance(ops, Tape):
        return _iqe_measure_node(ops, u, v)
    return interval_union_measure(u, v)[0]


# ---- tensor-dict serialization --------------------------------------------------------


def _tensor_blocks(tree: dict[str, np.ndarray]):
    """One string per tensor: its header, then its rows in one format call."""
    for name in tree:
        arr = np.asarray(tree[name], dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError(f"tensor '{name}' has more than 2 dimensions")
        rows = arr.reshape(1, -1) if arr.ndim < 2 else arr
        row = " ".join(["%.17g"] * rows.shape[1]) + "\n"
        yield (" ".join([name] + [str(d) for d in arr.shape]) + "\n"
               + (row * len(rows)) % tuple(rows.ravel().tolist()))


def tensors_to_text(tree: dict[str, np.ndarray]) -> str:
    return "".join(_tensor_blocks(tree))


def tensors_from_text(text: str) -> dict[str, np.ndarray]:
    """Parse ``tensors_to_text``; a ValueError names the line and the tensor."""
    # only the final newline goes: a zero-size tensor's rows are empty lines
    lines = text.removesuffix("\n").split("\n")
    out: dict[str, np.ndarray] = {}
    pos = 0  # lines read
    while pos < len(lines):
        head = lines[pos].split()
        pos += 1
        if not head:
            raise ValueError(f"expected a tensor header at line {pos}")
        name = head[0]
        if len(head) > 3 or not all(d.isdecimal() for d in head[1:]):
            raise ValueError(f"tensor '{name}' header at line {pos}: expected at "
                             f"most two nonnegative integer dims, got "
                             f"{' '.join(head[1:])!r}")
        dims = tuple(map(int, head[1:]))
        n_rows, width = dims if len(dims) == 2 else (1, math.prod(dims))
        if pos + n_rows > len(lines):
            raise ValueError(f"tensor file ends at line {len(lines)}, inside "
                             f"tensor '{name}' (header at line {pos})")
        rows = [line.split() for line in lines[pos:pos + n_rows]]
        for k, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"line {pos + k + 1} has {len(row)} numbers, "
                                 f"expected {width}, in tensor '{name}'")
        try:
            flat = [float(x) for row in rows for x in row]
        except ValueError:
            raise _number_error(rows, pos + 1, f", in tensor '{name}'") from None
        out[name] = np.array(flat, dtype=np.float64).reshape(dims)
        pos += n_rows
    return out


def write_tensors(tree: dict[str, np.ndarray], path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_tensor_blocks(tree))


def read_tensors(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        return tensors_from_text(fh.read())
