"""Scalar distances for one state/goal latent pair: test-only oracles.

Each is the distance a value head scores one row by, written for a single
pair; ``iqe_distance`` runs the library's interval-union kernel.
"""

import numpy as np

from mazegcrl.values import interval_union_measure


def iqe_distance(u: np.ndarray, v: np.ndarray, raw_alpha: float = 0.0) -> float:
    """Maxmean-reduced interval quasimetric for one (K, L) endpoint pair."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 2:
        raise ValueError("iqe_distance expects matching (K, L) matrices")
    measure, _ = interval_union_measure(u[None], v[None])
    alpha = 1.0 / (1.0 + np.exp(-raw_alpha))
    return float(alpha * measure.max() + (1.0 - alpha) * measure.mean())


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
