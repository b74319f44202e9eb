"""Desk-scale laboratory for outlier-exposure OOD detection.

Small dense models (an MLP backbone plus a linear or Gaussian
Mahalanobis head), the training criteria used for outlier exposure
(uniform-target cross-entropy, energy, and the in-distribution
compatible losses), hand-derived analytic gradients for all of them,
detector metrics with brute-force oracle twins, and the simulations
that exercise the gradient-sign, likelihood-ranking, and feature-shift
behaviour of each criterion.

Importing the package pins numpy's BLAS to one thread when the user has set
none of ``BLAS_THREAD_VARS`` and numpy is not loaded yet. At desk scale a
second BLAS thread saves little wall time and busy-waits between the small
matmuls, about doubling the CPU time of training. A value the user sets, before importing oodlab or
numpy, always wins. ``BLAS_THREADS_DEFAULTED`` records whether the package set
the default; ``run_meta.json`` reports it with the variables in force.
"""

import os
import sys

__version__ = "0.1.0"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A loaded BLAS has already read its thread count, so a variable set now would only mislead.
BLAS_THREADS_DEFAULTED = "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS)
if BLAS_THREADS_DEFAULTED:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
