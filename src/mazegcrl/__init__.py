"""Offline goal-conditioned RL on point mazes.

Library layout:

- ``autodiff``: reverse-mode tape, dense nets, Adam
- ``maze``: deterministic point-mass maze environments and the BFS oracle
- ``data``: offline dataset collection and goal-sampling distributions
- ``values``: the five interchangeable value parameterizations
- ``training``: expectile TD, continuity regularization, AWR policy losses
- ``evaluation``: rollouts, order-consistency and landscape diagnostics
- ``cli``: experiment orchestration (gen-data / train / eval / ablate / landscape)
"""

import os
import sys

# Desk-scale matrices lose to BLAS thread-sync overhead, and the runtime
# contract is single-core; effective only if numpy is not yet loaded and
# the user has not chosen otherwise.
_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(v in os.environ for v in _PIN):
    import warnings

    warnings.warn("numpy was imported before mazegcrl, so its BLAS may run "
                  "several threads; set OPENBLAS_NUM_THREADS=1 or import "
                  "mazegcrl first", RuntimeWarning, stacklevel=2)
for _var in _PIN:
    os.environ.setdefault(_var, "1")


def _keep_freed_heap() -> None:
    """Keep freed memory in glibc's heap instead of returning it to the OS.

    A training step allocates a few MB of temporaries and frees them all
    when it returns. By default glibc then trims the top of the heap (and
    serves blocks over 128 KB from fresh mmaps), so the next step faults
    the same pages back in. Without these settings (batch 256, a 2-vCPU
    Linux VM), float64 MLP, LAN and IQE learners fault 900-2,000 pages a
    step and step 45-50 % slower; of the float32 learners only the IQE
    head faults, about 540 pages a step and 19 % slower. So the settings
    serve float64 learners above all: the test reference and
    ``train.dtype=float64`` reproductions. Fixed thresholds keep blocks
    under 32 MB in the heap and trim only above 256 MB of free top.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


if sys.platform.startswith("linux"):
    _keep_freed_heap()
del os, sys, _var, _PIN

__version__ = "0.1.0"
