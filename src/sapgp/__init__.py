"""Matrix-free Gaussian-process inference with sketch-and-project solvers.

The package solves (K + lam I) W = Y through block access to the kernel
matrix only: exact sketch-and-project with optional tail averaging and exact
determinantal block sampling, an approximate accelerated variant built on
randomized Nystrom subspace preconditioning, stochastic dual descent and
Nystrom-preconditioned conjugate gradient baselines, pathwise-conditioning
posterior sampling, and a verification lab that certifies the solver's
subspace-convergence behavior empirically.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# Block-iterative solvers issue many small BLAS calls; a multi-threaded BLAS
# oversubscribes the package's own worker pool and slows those calls badly.
# Respected only if numpy has not been imported yet and the user has not set
# their own thread counts; numpy loaded first with none of them set warns.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in _sys.modules and not any(_var in _os.environ for _var in _BLAS_VARS):
    import warnings as _warnings

    _warnings.warn("numpy was imported before sapgp, so BLAS keeps its default thread count; "
                   "set OPENBLAS_NUM_THREADS=1 or import sapgp first", RuntimeWarning, stacklevel=2)
for _var in _BLAS_VARS:
    _os.environ.setdefault(_var, "1")
del _os, _sys, _var, _BLAS_VARS

from .config import RunConfig
from .data import Dataset, load_csv, standardize, train_test_split
from .dist import WorkerPool, col_dist_matmul, row_dist_matmul
from .dpp import DppModel, expected_projection_mc, lemma2_lower_bound, smoothed_condition
from .errors import (
    ConfigError,
    ContractError,
    NumericalError,
    ParseError,
    SapgpError,
    ValidationError,
    WorkerError,
)
from .gp import (
    ExactPrior,
    PosteriorSampleSet,
    RandomFeatureMap,
    RandomFeaturePrior,
    mean_nll,
    pathwise_sample,
    rmse,
)
from .kernels import DenseOracle, KernelOracle, KernelSpec, kernel_eval
from .randnla import NystromFactor, apply_inv, apply_inv_sqrt, rand_nystrom, rand_nystrom_retry, rand_power_stepsize
from .solvers import (
    AccelParams,
    SolveResult,
    adasap_solve,
    adasap_step,
    nesterov_update,
    pcg_solve,
    sap_solve,
    sap_step,
    sdd_solve,
    solve,
)
from .theory import (
    SpectralBasis,
    SyntheticSpectrumProblem,
    subspace_error,
    verify_lemma2,
    verify_linear_rate,
    verify_sublinear_iterations,
    verify_theorem1,
)
