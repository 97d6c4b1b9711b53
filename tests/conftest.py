import importlib.util
import os
import sys
from pathlib import Path

# must run before numpy loads its BLAS: the suite's runtime contracts are
# single-core, and threaded BLAS is slower at these matrix sizes anyway
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

# this checkout's src only when nothing else provides the package, so a
# PYTHONPATH naming another copy of the library puts that copy under test
if importlib.util.find_spec("mazegcrl") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
