"""Reference plain-NumPy value heads and MLP forward, written out per kind.

Test-only copy of ``values.score`` (with ``_row_norms`` and ``_iqe_reduce``)
and ``autodiff.mlp_apply`` as they were before each head and the layer loop
were written once for the tape and for plain arrays. Training with these
patched in must give the same metrics, parameters and optimizer state as
training with the library, byte for byte.
"""

import numpy as np

from mazegcrl.autodiff import GraphError, MlpParams, gelu_value
from mazegcrl.values import ValueArchitecture, interval_union_measure


def mlp_apply(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Plain forward pass: affine -> GELU per hidden layer, affine output."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise GraphError(f"mlp_apply: input shape {x.shape} does not match "
                         f"in_dim {params.in_dim}")
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < last:
            h = gelu_value(h)
    return h


def _row_norms(diff: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _iqe_reduce(measure: np.ndarray, raw_alpha: float) -> np.ndarray:
    alpha = 1.0 / (1.0 + np.exp(-raw_alpha))
    return alpha * measure.max(axis=1) + (1.0 - alpha) * measure.mean(axis=1)


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
