"""Desk-scale diffusion-guidance laboratory on exact Gaussian mixtures.

Closed-form scores and denoising posteriors stand in for a learned
network, so guidance strategies and their theoretical properties (norm
bounds, outward drift, anomalous-diffusion intervals) can be measured
exactly and certified numerically.

Importing the package before numpy caps OpenBLAS at one thread for the
whole process, unless ``OPENBLAS_NUM_THREADS`` is already set: every BLAS
call here is a tiny product, so a worker pool only costs start-up time.

The root re-exports nothing: import each name from its module.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
