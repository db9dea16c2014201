"""Iterative solvers for the regularized kernel system (K + lam I) W = Y.

All solvers consume an oracle (``kernels.KernelOracle`` or a dense test
oracle), touch the kernel matrix only through block products, and append to a
ConvergenceTrace. Budgets are expressed in passes over the kernel matrix;
one block iteration costs blocksize/n of a pass, one full matvec costs one.
The block solvers (sap, adasap, adasap_i, sdd) share one loop, ``_drive``,
which prepares each step's block one step ahead on the worker pool.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .config import SAMPLERS, resolve_blocksize, resolve_rank
from .dist import WorkerPool, col_dist_matmul
from .dist import row_dist_matmul  # noqa: F401  (re-exported; the benchmark tracer wraps it here)
from .dpp import SAMPLE_CHUNK
from .errors import ConfigError, ContractError, NumericalError
from .randnla import NystromFactor, apply_inv, rand_nystrom_retry, rand_power_stepsize
from .rng import substream

DIVERGENCE_FACTOR = 1e6
SDD_MOMENTUM = 0.9


# ---------------------------------------------------------------------------
# acceleration parameters and the Nesterov recurrence


@dataclass(frozen=True)
class AccelParams:
    """Momentum pair (mu, nu) with the derived step mixing coefficients."""

    mu: float
    nu: float

    def __post_init__(self):
        if not (self.mu > 0.0 and self.nu > 0.0):
            raise ContractError("acceleration parameters must be positive")

    @property
    def beta(self):
        return 1.0 - math.sqrt(self.mu / self.nu)

    @property
    def gamma(self):
        return 1.0 / math.sqrt(self.mu * self.nu)

    @property
    def alpha(self):
        return 1.0 / (1.0 + self.gamma * self.nu)


def resolve_accel(config, lam, n, blocksize):
    """Defaults: mu = lam, the system's regularizer, and nu = n / blocksize."""
    mu = lam if config.mu == "default" else float(config.mu)
    nu = n / blocksize if config.nu == "default" else float(config.nu)
    return AccelParams(mu, nu)


def nesterov_update(W, V, Z, block, direction, eta, beta, gamma, alpha, scratch):
    """One accelerated update in place; the Z blend uses the incoming V.

    W' = Z - eta D;  V' = beta V + (1-beta) Z - gamma eta D;
    Z' = alpha V + (1-alpha) W',

    where D is ``direction`` on the ``block`` rows and zero elsewhere. W, V, Z
    and ``scratch`` (same shape) must be distinct arrays; no other full-size
    array is allocated. Each term is formed in the order of the formula, and
    rows outside the block skip only the subtraction of an exact zero, so the
    bits are those of the out-of-place expression.
    """
    for a, b in itertools.combinations((W, V, Z, scratch), 2):
        if np.may_share_memory(a, b):
            raise ContractError("the accelerated update needs distinct W, V, Z and scratch arrays")
    np.multiply(V, alpha, out=scratch)          # alpha V, before V moves
    V *= beta
    np.multiply(Z, 1.0 - beta, out=W)           # the incoming W is not used
    V += W
    V[block] -= (gamma * eta) * direction
    np.copyto(W, Z)
    W[block] -= eta * direction
    np.multiply(W, 1.0 - alpha, out=Z)
    Z += scratch


# ---------------------------------------------------------------------------
# traces, tail averaging, results


@dataclass
class TraceRecord:
    iteration: int
    seconds: float
    passes: float
    residual: float
    stepsize: float


class ConvergenceTrace:
    """Append-only per-iteration log; exports the documented CSV schema."""

    COLUMNS = ("iter", "seconds", "passes", "residual", "stepsize")

    def __init__(self):
        self.records = []
        self._start = time.perf_counter()

    def record(self, iteration, passes, residual, stepsize):
        self.records.append(
            TraceRecord(
                iteration=iteration,
                seconds=time.perf_counter() - self._start,
                passes=passes,
                residual=residual,
                stepsize=stepsize,
            )
        )

    def residuals(self):
        return np.array([rec.residual for rec in self.records])

    def passes(self):
        return np.array([rec.passes for rec in self.records])

    def final_residual(self):
        for rec in reversed(self.records):
            if np.isfinite(rec.residual):
                return rec.residual
        return math.nan

    def passes_to(self, tol):
        """Pass count at which the recorded residual first reaches ``tol``."""
        for rec in self.records:
            if np.isfinite(rec.residual) and rec.residual <= tol:
                return rec.passes
        return math.inf

    def to_csv(self, path):
        with open(path, "w") as handle:
            handle.write(",".join(self.COLUMNS) + "\n")
            for rec in self.records:
                handle.write(
                    f"{rec.iteration},{rec.seconds!r},{rec.passes!r},"
                    f"{rec.residual!r},{rec.stepsize!r}\n"
                )


class TailAverager:
    """Streaming mean of iterates with indices in [ceil(T/2), T-1]."""

    def __init__(self, total_iters, shape):
        if total_iters < 2:
            raise ContractError("tail averaging needs at least two iterations")
        self.start = math.ceil(total_iters / 2)
        self.stop = total_iters - 1
        self._sum = np.zeros(shape)
        self.count = 0

    def add(self, index, iterate):
        if self.start <= index <= self.stop:
            self._sum += iterate
            self.count += 1

    def average(self):
        if self.count == 0:
            raise ContractError("empty tail-average window")
        return self._sum / self.count


@dataclass
class SolveResult:
    W: np.ndarray
    trace: ConvergenceTrace
    diverged: bool
    iterations: int
    passes: float


# ---------------------------------------------------------------------------
# shared plumbing


def budget_iterations(config, passes_per_iter):
    """``max_iters``, else enough iterations to spend ``max_passes`` (a
    RunConfig always has one of the two)."""
    if config.max_iters is not None:
        return config.max_iters
    return max(1, math.ceil(config.max_passes / passes_per_iter))


def _as_columns(Y, n):
    Y = np.asarray(Y, dtype=np.float64)
    vector = Y.ndim == 1
    Y2 = Y[:, None] if vector else Y
    if Y2.shape[0] != n:
        raise ContractError("right-hand side must have n rows")
    return np.ascontiguousarray(Y2), vector


def _relative_residual(oracle, W, Y, ynorm, pool=None):
    with np.errstate(over="ignore", invalid="ignore"):
        res = oracle.matmul(W, pool)
        res += oracle.lam * W
        res -= Y
        return float(np.linalg.norm(res) / ynorm)


def _uniform_block(seed, iteration, n, blocksize):
    rng = substream(seed, "block", iteration)
    return np.sort(rng.choice(n, size=blocksize, replace=False))


def _due(every, t, total):
    return t == total - 1 or every > 0 and (t + 1) % every == 0


def _drive(oracle, Y2, vector, config, blocksize, total, prepare, step, iterate, on_iterate,
           tail_average=False, pool=None):
    """The block-iteration loop shared by sap, adasap, adasap_i and sdd.

    ``prepare(t)`` returns what iteration t's block alone decides (never
    using the iterate or the pool); calls run one at a time, in order.
    ``step(prepared)`` runs the iteration, updating the array ``iterate`` in
    place, and returns its stepsize. On a pool of more than one worker,
    ``prepare(t+1)`` runs on the pool while step t runs; a stop discards it,
    and its exception is raised where step t+1 would run. A non-finite
    iterate after any step (recorded as an infinite residual) or a residual
    above DIVERGENCE_FACTOR stops the run as diverged. With ``tail_average``
    residuals and the tol test use the iterate that would be returned: the
    running tail average once its window opens. Residual checks run their
    full product on ``pool``.
    """
    n = oracle.n
    averager = TailAverager(total, Y2.shape) if tail_average else None
    ynorm = max(np.linalg.norm(Y2), np.finfo(np.float64).tiny)
    trace = ConvergenceTrace()
    diverged = False
    iters_done = 0

    def reported():
        if averager is not None and averager.count > 0:
            return averager.average()
        return iterate

    ahead = pool is not None and pool.num_workers > 1
    pending = None
    try:
        for t in range(total):
            prepared = prepare(t) if pending is None else pending.result()
            pending = pool.submit(prepare, t + 1) if ahead and t + 1 < total else None
            stepsize = step(prepared)
            iters_done = t + 1
            if averager is not None:
                averager.add(iters_done, iterate)
            if on_iterate is not None:
                on_iterate(iters_done, iterate)
            relres = math.nan
            if not np.isfinite(iterate).all():
                relres = math.inf
            elif _due(config.residual_every, t, total):
                relres = _relative_residual(oracle, reported(), Y2, ynorm, pool)
            trace.record(iters_done, iters_done * blocksize / n, relres, stepsize)
            if relres > DIVERGENCE_FACTOR:
                diverged = True
                break
            if config.tol is not None and relres <= config.tol:
                break
    finally:
        if pending is not None and not pending.cancel():
            pending.exception()  # wait for the unused look-ahead and drop its outcome
    W_out = reported()
    passes = iters_done * blocksize / n
    return SolveResult(W_out[:, 0] if vector else W_out, trace, diverged, iters_done, passes)


# ---------------------------------------------------------------------------
# exact sketch-and-project


def sap_step(oracle, W, Y, block, H, pool=None):
    """One exact projection step: zeroes the block rows of the residual.

    Solves H d = (K[B,:] + lam I[B,:]) W - Y[B] by LU, where H is
    K[B,B] + lam I, and subtracts d from the block rows of W in place.
    """
    grad = col_dist_matmul(oracle, W, block, pool) + oracle.lam * W[block] - Y[block]
    try:
        W[block] -= np.linalg.solve(H, grad)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "block system factorization failed; lam may be too small for float64"
        ) from exc


def sap_solve(oracle, Y, config, dpp_model=None, pool=None, on_iterate=None):
    """Exact sketch-and-project from W0 = 0 with optional tail averaging.

    ``config.sampler`` is "uniform" (without replacement) or "kdpp" (requires
    an exact ``dpp_model`` whose sample size plays the role of the blocksize).
    """
    n = oracle.n
    Y2, vector = _as_columns(Y, n)
    sampler = config.sampler
    if sampler not in SAMPLERS:
        raise ConfigError(f"unknown sampler {sampler!r}")
    if sampler == "kdpp":
        if dpp_model is None:
            raise ConfigError('run.sampler = "kdpp" needs a dpp_model')
        blocksize = dpp_model.sample_size
        if config.blocksize is not None and config.blocksize != blocksize:
            raise ConfigError("config blocksize disagrees with the DPP sample size")
    else:
        blocksize = resolve_blocksize(config, n)
    total = budget_iterations(config, blocksize / n)
    W = np.zeros((n, Y2.shape[1]))
    drawn = []

    def prepare(t):
        if sampler == "uniform":
            block = _uniform_block(config.seed, t, n, blocksize)
        else:
            # blocks never depend on the iterate: draw a chunk of them at once
            if t % SAMPLE_CHUNK == 0:
                ahead = range(t, min(t + SAMPLE_CHUNK, total))
                drawn[:] = dpp_model.sample_batch(substream(config.seed, "block", s) for s in ahead)
            block = drawn[t % SAMPLE_CHUNK]
        H = oracle.block(block)
        H[np.diag_indices_from(H)] += oracle.lam
        return block, H

    def step(prepared):
        sap_step(oracle, W, Y2, *prepared, pool)
        return 1.0

    return _drive(oracle, Y2, vector, config, blocksize, total, prepare, step, W, on_iterate,
                  tail_average=config.tail_average, pool=pool)


# ---------------------------------------------------------------------------
# approximate accelerated sketch-and-project


def _test_matrix(seed, dim, rank):
    """The solve's one orthonormal Nystrom test matrix, dim x rank."""
    return np.linalg.qr(substream(seed, "omega").standard_normal((dim, rank)))[0]


def adasap_prepare(oracle, config, t, blocksize, omega, kbb):
    """What iteration t's block alone decides: (block, factor, rho, stepsize).

    Phases: uniform block; K[B,B] into the b x b buffer ``kbb``; sketch
    K[B,B] @ omega with the solve's orthonormal test matrix; Nystrom factor
    with damping S_r + lam; powering. ``omega`` None is the identity
    preconditioner (ADASAP-I): no sketch, rho = 1.
    """
    n, lam = oracle.n, oracle.lam
    block = _uniform_block(config.seed, t, n, blocksize)
    Kbb = oracle.block(block, kbb)
    if omega is None:
        factor, rho = NystromFactor.empty(blocksize), 1.0
    else:
        factor = rand_nystrom_retry(Kbb @ omega, omega, omega.shape[1])
        rho = float(factor.S[-1]) + lam
    eta = rand_power_stepsize(lambda v: Kbb @ v + lam * v, factor, rho, iters=10,
                              seed=substream(config.seed, "power", t))
    return block, factor, rho, eta


def adasap_step(oracle, W, V, Z, scratch, Y, prepared, accel, pool=None):
    """One approximately preconditioned accelerated step: the block-row
    product at the extrapolated point Z, then the Nesterov update of W, V
    and Z in place (``nesterov_update``, which needs four distinct arrays).
    ``prepared`` is ``adasap_prepare``'s tuple. Returns the stepsize.
    """
    block, factor, rho, eta = prepared
    grad = col_dist_matmul(oracle, Z, block, pool) + oracle.lam * Z[block] - Y[block]
    nesterov_update(W, V, Z, block, apply_inv(factor, rho, grad), eta,
                    accel.beta, accel.gamma, accel.alpha, scratch)
    return eta


def adasap_solve(oracle, Y, config, identity_precond=False, pool=None, on_iterate=None,
                 accel=None):
    """Accelerated approximate sketch-and-project from W0 = 0.

    ``identity_precond=True`` gives the accelerated block coordinate descent
    ablation (subspace preconditioner replaced by the identity). ``accel``
    overrides the config-derived momentum coefficients.
    """
    n = oracle.n
    Y2, vector = _as_columns(Y, n)
    blocksize = resolve_blocksize(config, n)
    if accel is None:
        accel = resolve_accel(config, oracle.lam, n, blocksize)
    # blocks are drawn independently of omega, so one draw serves every step
    omega = None if identity_precond else _test_matrix(config.seed, blocksize,
                                                        resolve_rank(config, blocksize))
    total = budget_iterations(config, blocksize / n)
    W = np.zeros((n, Y2.shape[1]))
    V, Z, scratch = W.copy(), W.copy(), np.empty_like(W)
    kbb = np.empty((blocksize, blocksize))  # preparations never overlap: one buffer serves all
    return _drive(oracle, Y2, vector, config, blocksize, total,
                  lambda t: adasap_prepare(oracle, config, t, blocksize, omega, kbb),
                  lambda prepared: adasap_step(oracle, W, V, Z, scratch, Y2, prepared, accel, pool),
                  W, on_iterate, tail_average=config.tail_average, pool=pool)


# ---------------------------------------------------------------------------
# stochastic dual descent baseline


def sdd_solve(oracle, Y, config, pool=None, on_iterate=None):
    """Block stochastic dual descent with heavy-ball momentum and geometric
    iterate averaging.

    The raw block gradient is applied with stepsize scale/n, momentum 0.9,
    and averaging parameter 100/T. The reported iterate is the geometric
    average; divergence is detected by the shared block-solver loop.
    """
    n = oracle.n
    lam = oracle.lam
    Y2, vector = _as_columns(Y, n)
    blocksize = resolve_blocksize(config, n)
    total = budget_iterations(config, blocksize / n)
    eta = float(config.stepsize_scale) / n
    avg_weight = min(1.0, 100.0 / total)
    w = np.zeros_like(Y2)
    velocity = np.zeros_like(Y2)
    estimate = np.zeros_like(Y2)

    def step(block):
        with np.errstate(over="ignore", invalid="ignore"):
            grad = col_dist_matmul(oracle, w, block, pool) + lam * w[block] - Y2[block]
            velocity[...] *= SDD_MOMENTUM
            velocity[block] -= eta * grad
            w[...] += velocity
            estimate[...] += avg_weight * (w - estimate)
        return eta

    return _drive(oracle, Y2, vector, config, blocksize, total,
                  lambda t: _uniform_block(config.seed, t, n, blocksize), step,
                  estimate, on_iterate, pool=pool)


# ---------------------------------------------------------------------------
# preconditioned conjugate gradient baseline


def pcg_solve(oracle, Y, config, pool=None, on_iterate=None):
    """Conjugate gradient on (K + lam I) W = Y with a global rank-r Nystrom
    preconditioner; standard recurrences run per right-hand side.

    ``nystrom_rank`` 0 gives plain CG. Stops when every column reaches the
    tolerance (default 1e-6) or the iteration budget runs out: ``max_iters``,
    else ``ceil(max_passes)`` iterations.
    Passes count one per iteration plus one for the Nystrom sketch K @ Omega.
    The matvecs and the sketch run on ``pool``.
    """
    n = oracle.n
    lam = oracle.lam
    Y2, vector = _as_columns(Y, n)
    rank = config.nystrom_rank if config.nystrom_rank is not None else min(100, n)
    rank = int(rank)
    if rank < 0 or rank > n:
        raise ConfigError("pcg rank outside [0, n]")
    sketch_passes = 0.0
    if rank > 0:
        omega = _test_matrix(config.seed, n, rank)
        sketch = oracle.matmul(omega, pool)
        sketch_passes = 1.0
        factor = rand_nystrom_retry(sketch, omega, rank)
        rho = float(factor.S[-1]) + lam
    else:
        factor = NystromFactor.empty(n)
        rho = 1.0

    tol = config.tol if config.tol is not None else 1e-6
    total = budget_iterations(config, 1.0)

    X = np.zeros_like(Y2)
    R = Y2.copy()
    Zp = apply_inv(factor, rho, R)
    P = Zp.copy()
    rz = np.einsum("ij,ij->j", R, Zp)
    col_norms = np.maximum(np.linalg.norm(Y2, axis=0), np.finfo(np.float64).tiny)
    ynorm = max(np.linalg.norm(Y2), np.finfo(np.float64).tiny)
    trace = ConvergenceTrace()
    iters_done = 0
    for t in range(total):
        active = np.linalg.norm(R, axis=0) / col_norms > tol
        if not np.any(active):
            break
        AP = oracle.matmul(P, pool) + lam * P
        pap = np.einsum("ij,ij->j", P, AP)
        if np.any(pap[active] <= 0.0):
            raise NumericalError("conjugate gradient breakdown: p^T A p <= 0")
        alpha = np.where(active, rz / np.where(pap > 0.0, pap, 1.0), 0.0)
        X += alpha * P
        R -= alpha * AP
        Zp = apply_inv(factor, rho, R)
        rz_new = np.einsum("ij,ij->j", R, Zp)
        beta = np.where(active, rz_new / np.where(rz > 0.0, rz, 1.0), 0.0)
        P = Zp + beta * P
        rz = rz_new
        iters_done = t + 1
        if on_iterate is not None:
            on_iterate(iters_done, X)
        relres = float(np.linalg.norm(R) / ynorm)
        trace.record(iters_done, sketch_passes + iters_done, relres, math.nan)
    return SolveResult(
        X[:, 0] if vector else X, trace, False, iters_done, sketch_passes + iters_done
    )


# ---------------------------------------------------------------------------
# dispatch


def solve(oracle, Y, config, dpp_model=None, pool=None, on_iterate=None):
    """Run the solver selected by ``config.solver_id``; a setting that solver
    would ignore is a ConfigError."""
    config.reject_ignored()
    own_pool = None
    if pool is None and config.num_workers > 1:
        own_pool = pool = WorkerPool(config.num_workers)
    try:
        if config.solver_id == "sap":
            return sap_solve(oracle, Y, config, dpp_model=dpp_model, pool=pool,
                             on_iterate=on_iterate)
        if config.solver_id == "adasap":
            return adasap_solve(oracle, Y, config, pool=pool, on_iterate=on_iterate)
        if config.solver_id == "adasap_i":
            return adasap_solve(
                oracle, Y, config, identity_precond=True, pool=pool, on_iterate=on_iterate
            )
        if config.solver_id == "sdd":
            return sdd_solve(oracle, Y, config, pool=pool, on_iterate=on_iterate)
        if config.solver_id == "pcg":
            return pcg_solve(oracle, Y, config, pool=pool, on_iterate=on_iterate)
        raise ConfigError(f"unknown solver {config.solver_id!r}")
    finally:
        if own_pool is not None:
            own_pool.close()
