import os
import sys
from pathlib import Path

# BLAS on one thread, as perfbench runs it: small products between Python-heavy
# steps otherwise pay for waking idle BLAS threads.  pytest loads this file
# before any test module imports numpy, so the settings take effect.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

# make oracles.py importable from any test module
sys.path.insert(0, str(Path(__file__).parent))
