"""Central-difference gradients, the oracle the tape's gradient tests check against."""

import numpy as np


def finite_diff_grad(fn, point: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, per coordinate."""
    if step <= 0.0:
        raise ValueError("finite_diff_grad: step must be positive")
    point = np.asarray(point, dtype=np.float64)
    flat = point.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(point.reshape(point.shape))
        flat[i] = orig - step
        lo = fn(point.reshape(point.shape))
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * step)
    return grad.reshape(point.shape)
