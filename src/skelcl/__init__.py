"""Cross-stream contrastive learning on skeleton sequences.

Importing the package sets `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS`
and `MKL_NUM_THREADS` to "1" where they are unset, before any of its
modules imports NumPy: at this package's shapes a BLAS thread pool does
not pay, and on a busy machine its threads can wait on each other a
hundredfold longer than the product takes.  One thread is also what the
benchmark measures.  A variable the caller set keeps its value.  The
limit: BLAS reads these once, when NumPy loads it, so a caller that
imported NumPy before this package keeps NumPy's setting.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"
