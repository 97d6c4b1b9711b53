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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    GraphError,
    LiftedMlp,
    MlpParams,
    Node,
    Tape,
    init_mlp,
    mlp_apply,
)

__all__ = [
    "KINDS",
    "ValueArchitecture",
    "make_value_arch",
    "make_subgoal_rep",
    "value",
    "score",
    "LiftedValue",
    "iqe_distance",
    "mrn_distance",
    "hilbert_distance",
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

    def copy(self) -> "ValueArchitecture":
        return ValueArchitecture(
            kind=self.kind,
            nets={k: v.copy() for k, v in self.nets.items()},
            raw_alpha=None if self.raw_alpha is None else self.raw_alpha.copy(),
            iqe_shape=self.iqe_shape,
            mrn_sym_dim=self.mrn_sym_dim,
        )


def make_value_arch(rng: np.random.Generator, kind: str, state_dim: int,
                    hidden: tuple[int, ...], *, goal_input_dim: int | None = None,
                    latent_dim: int = 64, iqe_components: int = 8,
                    iqe_intervals: int = 8, mrn_sym_dim: int = 32,
                    mrn_asym_dim: int = 32) -> ValueArchitecture:
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
    if kind == "MLP":
        trunk = init_mlp(rng, [2 * state_dim, *hidden, 1], final_scale=HEAD_INIT_SCALE)
        return ValueArchitecture(kind, {"trunk": trunk})
    if kind == "LAN":
        phi_s = init_mlp(rng, [state_dim, *hidden, latent_dim],
                         final_scale=HEAD_INIT_SCALE)
        phi_g = init_mlp(rng, [gdim, *hidden, latent_dim],
                         final_scale=HEAD_INIT_SCALE)
        return ValueArchitecture(kind, {"phi_s": phi_s, "phi_g": phi_g})
    if kind == "IQE":
        out = iqe_components * iqe_intervals
        phi = init_mlp(rng, [gdim, *hidden, out], final_scale=HEAD_INIT_SCALE)
        return ValueArchitecture(kind, {"phi": phi},
                                 raw_alpha=np.zeros(()),
                                 iqe_shape=(iqe_components, iqe_intervals))
    if kind == "MRN":
        phi = init_mlp(rng, [gdim, *hidden, mrn_sym_dim + mrn_asym_dim],
                       final_scale=HEAD_INIT_SCALE)
        return ValueArchitecture(kind, {"phi": phi}, mrn_sym_dim=mrn_sym_dim)
    phi = init_mlp(rng, [gdim, *hidden, latent_dim], final_scale=HEAD_INIT_SCALE)
    return ValueArchitecture(kind, {"phi": phi})


def make_subgoal_rep(rng: np.random.Generator, state_dim: int,
                     hidden: tuple[int, ...], rep_dim: int = 10) -> MlpParams:
    """Goal-only bottleneck encoder used by the hierarchical stack."""
    return init_mlp(rng, [state_dim, *tuple(hidden), rep_dim])


# ---- distance kernels (plain numpy) ----------------------------------------------


def _row_norms(diff: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def interval_union_measure(u: np.ndarray, v: np.ndarray):
    """Union measure of intervals [u_j, max(u_j, v_j)] per component.

    Inputs have shape (B, K, L); returns (measure (B, K), aux) where aux
    carries the sweep-line bookkeeping the backward pass needs.
    """
    starts = u
    ends = np.maximum(u, v)
    order = np.argsort(starts, axis=-1, kind="stable")
    s_sorted = np.take_along_axis(starts, order, axis=-1)
    e_sorted = np.take_along_axis(ends, order, axis=-1)
    b, k, nl = u.shape
    measure = np.zeros((b, k))
    cover = np.full((b, k), -np.inf)      # right edge covered so far
    owner = np.zeros((b, k), dtype=np.int64)  # sorted index owning that edge
    d_end = np.zeros((b, k, nl))          # d measure / d e_sorted
    d_start = np.zeros((b, k, nl))        # d measure / d s_sorted
    rows, cols = np.indices((b, k))
    for j in range(nl):
        s_j = s_sorted[..., j]
        e_j = e_sorted[..., j]
        fresh = s_j >= cover
        extend = (~fresh) & (e_j > cover)
        measure += np.where(fresh, e_j - s_j, np.where(extend, e_j - cover, 0.0))
        d_end[..., j] += fresh | extend
        d_start[..., j] -= fresh
        if extend.any():
            r, c = rows[extend], cols[extend]
            d_end[r, c, owner[extend]] -= 1.0
        moved = e_j > cover
        cover = np.where(moved, e_j, cover)
        owner = np.where(moved, j, owner)
    aux = (order, np.asarray(u >= v), d_start, d_end)
    return measure, aux


def _iqe_reduce(measure: np.ndarray, raw_alpha: float) -> np.ndarray:
    alpha = 1.0 / (1.0 + np.exp(-raw_alpha))
    return alpha * measure.max(axis=1) + (1.0 - alpha) * measure.mean(axis=1)


def iqe_distance(u: np.ndarray, v: np.ndarray, raw_alpha: float = 0.0) -> float:
    """Maxmean-reduced interval quasimetric for one (K, L) endpoint pair."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 2:
        raise ValueError("iqe_distance expects matching (K, L) matrices")
    measure, _ = interval_union_measure(u[None], v[None])
    return float(_iqe_reduce(measure, raw_alpha)[0])


def mrn_distance(x: np.ndarray, y: np.ndarray, sym_dim: int) -> float:
    """Symmetric Euclidean part plus max of positive residuals."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or not 1 <= sym_dim < x.size:
        raise ValueError("mrn_distance expects equal vectors split by sym_dim")
    sym = float(np.sqrt(((x[:sym_dim] - y[:sym_dim]) ** 2).sum()))
    asym = float(np.maximum(x[sym_dim:] - y[sym_dim:], 0.0).max())
    return sym + asym


def hilbert_distance(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("hilbert_distance expects equal-length vectors")
    return float(np.sqrt(((x - y) ** 2).sum()))


# ---- heads: encode, then score in latent space ------------------------------------


def _run_chain(apply, nets: dict, chain: tuple[str, ...], x):
    for name in chain:
        x = apply(nets[name], x)
    return x


def score(arch: ValueArchitecture, zs: np.ndarray, zg: np.ndarray) -> np.ndarray:
    """V from encoded states and goals, row by row; (B, ·) x (B, ·) -> (B,)."""
    if arch.kind == "MLP":
        return mlp_apply(arch.nets["trunk"], np.concatenate([zs, zg], axis=1))[:, 0]
    if arch.kind == "IQE":
        kk, ll = arch.iqe_shape
        measure, _ = interval_union_measure(zs.reshape(-1, kk, ll),
                                            zg.reshape(-1, kk, ll))
        return -_iqe_reduce(measure, float(arch.raw_alpha))
    if arch.kind == "MRN":
        d = arch.mrn_sym_dim
        sym = _row_norms(zs[:, :d] - zg[:, :d])
        asym = np.maximum(zs[:, d:] - zg[:, d:], 0.0).max(axis=1)
        return -(sym + asym)
    return -_row_norms(zs - zg)  # LAN, Hilbert


def value(arch: ValueArchitecture, rep: MlpParams | None,
          s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """V(s, g) for batches (B, state_dim) x (B, state_dim) -> (B,)."""
    s = np.asarray(s, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    nets = dict(arch.nets, rep=rep)
    s_chain, g_chain = arch.chains(rep is not None)
    return score(arch, _run_chain(mlp_apply, nets, s_chain, s),
                 _run_chain(mlp_apply, nets, g_chain, g))


def _iqe_measure_node(tape: Tape, u: Node, v: Node) -> Node:
    """Interval-union measure as a custom primitive with exact subgradients."""
    measure, (order, win_u, d_start, d_end) = interval_union_measure(u.value, v.value)

    def backward(g):
        gs = g[..., None] * d_start
        ge = g[..., None] * d_end
        grad_starts = np.zeros_like(u.value)
        grad_ends = np.zeros_like(u.value)
        np.put_along_axis(grad_starts, order, gs, axis=-1)
        np.put_along_axis(grad_ends, order, ge, axis=-1)
        tape._accum(u, grad_starts + grad_ends * win_u)
        tape._accum(v, grad_ends * (~win_u))

    return tape.primitive(measure, (u, v), backward, name="iqe_union")


class LiftedValue:
    """Tape view of a ValueArchitecture (optionally with the goal bottleneck).

    Callers that encode inputs themselves run ``nets`` (and ``rep``) along
    ``arch.chains`` and score the latents with ``score``.
    """

    def __init__(self, tape: Tape, arch: ValueArchitecture,
                 rep: LiftedMlp | None = None, trainable: bool = True,
                 name: str = "value"):
        self.tape = tape
        self.arch = arch
        self.rep = rep
        self.nets = {k: LiftedMlp(tape, net, trainable=trainable, name=f"{name}.{k}")
                     for k, net in arch.nets.items()}
        self.raw_alpha = None
        if arch.raw_alpha is not None:
            make = tape.leaf if trainable else tape.constant
            self.raw_alpha = make(arch.raw_alpha, f"{name}.raw_alpha")

    def __call__(self, s: Node, g: Node) -> Node:
        nets = dict(self.nets, rep=self.rep)
        s_chain, g_chain = self.arch.chains(self.rep is not None)
        return self.score(_run_chain(LiftedMlp.__call__, nets, s_chain, s),
                          _run_chain(LiftedMlp.__call__, nets, g_chain, g))

    def score(self, zs: Node, zg: Node) -> Node:
        """Tape counterpart of ``score``."""
        t = self.tape
        kind = self.arch.kind
        if kind == "MLP":
            out = self.nets["trunk"](t.concat(zs, zg))
            return t.reshape(out, (out.value.shape[0],))
        if kind == "IQE":
            kk, ll = self.arch.iqe_shape
            batch = zs.value.shape[0]
            measure = _iqe_measure_node(
                t, t.reshape(zs, (batch, kk, ll)), t.reshape(zg, (batch, kk, ll)))
            alpha = t.sigmoid(self.raw_alpha)
            one_minus = t.sub(t.constant(1.0), alpha)
            mx = t.reduce_max(measure, axis=1)
            mean = t.mul(t.reduce_sum(measure, axis=1), t.constant(1.0 / kk))
            return t.neg(t.add(t.mul(alpha, mx), t.mul(one_minus, mean)))
        if kind == "MRN":
            d = self.arch.mrn_sym_dim
            sym = t.l2norm_rows(t.sub(t.slice_cols(zs, 0, d), t.slice_cols(zg, 0, d)))
            resid = t.relu(t.sub(t.slice_cols(zs, d, zs.value.shape[1]),
                                 t.slice_cols(zg, d, zg.value.shape[1])))
            return t.neg(t.add(sym, t.reduce_max(resid, axis=1)))
        return t.neg(t.l2norm_rows(t.sub(zs, zg)))  # LAN, Hilbert

    def tree(self, prefix: str) -> dict[str, Node]:
        out = {}
        for name, net in self.nets.items():
            out.update(net.tree(f"{prefix}/{name}"))
        if self.raw_alpha is not None:
            out[f"{prefix}/raw_alpha"] = self.raw_alpha
        return out


# ---- tensor-dict serialization --------------------------------------------------------


def tensors_to_text(tree: dict[str, np.ndarray]) -> str:
    lines = []
    for name in tree:
        arr = np.asarray(tree[name], dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError(f"tensor '{name}' has more than 2 dimensions")
        lines.append(" ".join([name] + [str(d) for d in arr.shape]))
        rows = arr.reshape(1, -1) if arr.ndim < 2 else arr
        for row in rows:
            lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def tensors_from_text(text: str) -> dict[str, np.ndarray]:
    lines = text.strip().split("\n")
    out: dict[str, np.ndarray] = {}
    pos = 0
    while pos < len(lines):
        head = lines[pos].split()
        name, dims = head[0], tuple(int(d) for d in head[1:])
        pos += 1
        n_rows = 1 if len(dims) < 2 else dims[0]
        values = []
        for _ in range(n_rows):
            values.extend(float(x) for x in lines[pos].split())
            pos += 1
        out[name] = np.array(values, dtype=np.float64).reshape(dims)
    return out


def write_tensors(tree: dict[str, np.ndarray], path) -> None:
    with open(path, "w") as fh:
        fh.write(tensors_to_text(tree))


def read_tensors(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        return tensors_from_text(fh.read())
