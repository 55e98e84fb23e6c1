"""Joint entity-relation triple extraction via relation-specific grid tagging.

A triple set is stored as boundary tags in an L x K x L grid (three corner
cells per triple), scored by a shared two-layer classifier over token-pair
embeddings, and decoded back to spans. The package covers corpus handling,
the tag codec, the scorer with exact gradients, mini-batch training, and a
micro-P/R/F1 evaluation harness with overlap-pattern breakdowns.
"""

import os

__version__ = "0.1.0"

# BLAS runs on one thread unless one of these is set; NumPy reads them when first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
