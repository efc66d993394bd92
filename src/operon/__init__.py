"""Operator-network toolkit: two-step DeepONet training with trunk-basis
orthonormalization, synthetic Darcy-flow data, and constructive zero-loss
certificates."""

import os
import sys

# A process that loaded numpy before operon keeps the BLAS threads numpy
# started with; evaluate.generalization_sweep then spawns its workers
# instead of forking them.
NUMPY_LOADED_FIRST = "numpy" in sys.modules

# One BLAS thread, so seeded results are the same bytes on any core count.
# OpenBLAS reads these when numpy loads, so they are set here, before any
# submodule imports numpy; forked workers inherit the loaded BLAS and spawned
# ones these variables.
os.environ.update(
    dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
)

__version__ = "0.1.0"
