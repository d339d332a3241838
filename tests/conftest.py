"""Test-session setup shared by every module under ``tests``.

The BLAS thread pools are pinned to one thread before any test module
imports numpy, so plain ``pytest`` runs the same single-threaded LAPACK as
CI and the benchmark.  With threaded OpenBLAS, one stacked QR of a 200-arrow
block occasionally stalled for about a second, which a runtime budget reads
as a failure.  A value already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
