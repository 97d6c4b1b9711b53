"""Reference IQE interval-union kernel: the per-step sweep with eager subgradients.

Test-only copy of the sweep that builds ``d_start``/``d_end`` with fancy-index
writes at every step and the tape primitive that scatters them back with
``put_along_axis``. The library kernel must give the same measure and the
same input gradients, byte for byte.
"""

import numpy as np

from mazegcrl.autodiff import Node, Tape


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
