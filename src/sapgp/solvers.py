"""Iterative solvers for the regularized kernel system (K + lam I) W = Y.

All solvers consume an oracle (``kernels.KernelOracle`` or a dense test
oracle), touch the kernel matrix only through block products, and append to a
ConvergenceTrace. Budgets are expressed in passes over the kernel matrix;
one block iteration costs blocksize/n of a pass, one full matvec costs one.
All five solvers (sap, adasap, adasap_i, sdd, pcg) share one loop, ``_drive``,
which owns the budget, the trace, and the stop and divergence rules, and
prepares each step's block one step ahead on the worker pool. Each solver
carries the residual of what it reports: a block step reads its gradient from
the residual's block rows and its one kernel pass is the update of the
residual by the block columns of K + lam I; a ``pcg`` step is one full
product, and its recurrence residual is the carried one.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .config import resolve_blocksize, resolve_rank
from .dist import WorkerPool, col_dist_update
# re-exported; the benchmark tracer wraps them here
from .dist import col_dist_matmul, row_dist_matmul  # noqa: F401
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


def _check_distinct(arrays, message):
    for a, b in itertools.combinations(arrays, 2):
        if np.may_share_memory(a, b):
            raise ContractError(message)


def nesterov_update(W, V, Z, rows, direction, eta, beta, gamma, alpha):
    """One accelerated update in place; the Z blend uses the incoming V.

    W' = Z - eta D;  V' = beta V + (1-beta) Z - gamma eta D;
    Z' = alpha V + (1-alpha) W',

    where D is ``direction`` on ``rows`` and zero elsewhere. W, V and Z must
    be distinct arrays, and the incoming W is not read. Each term is formed
    in the order of the formula, and rows outside ``rows`` skip only the
    subtraction of an exact zero, so the bits are those of the out-of-place
    expression. The coefficients of each line sum to one, so residuals
    (K + lam I) X - Y follow the same update with direction (K + lam I) D:
    ``adasap_step`` calls it once on the iterates and on row tiles of their
    residuals, with one temporary the size of V.
    """
    _check_distinct((W, V, Z), "the accelerated update needs distinct W, V and Z arrays")
    alpha_v = V * alpha                         # before V moves
    V *= beta
    np.multiply(Z, 1.0 - beta, out=W)
    V += W
    V[rows] -= (gamma * eta) * direction
    np.copyto(W, Z)
    W[rows] -= eta * direction
    np.multiply(W, 1.0 - alpha, out=Z)
    Z += alpha_v


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
    """Streaming mean of iterates with indices in [ceil(T/2), T-1], and of
    their residuals when ``add`` is given them."""

    def __init__(self, total_iters, shape):
        if total_iters < 2:
            raise ContractError("tail averaging needs at least two iterations")
        self.start = math.ceil(total_iters / 2)
        self.stop = total_iters - 1
        self._sum = np.zeros(shape)
        self._residual_sum = np.zeros(shape)
        self.count = 0

    def add(self, index, iterate, residual=None):
        if self.start <= index <= self.stop:
            self._sum += iterate
            if residual is not None:
                self._residual_sum += residual
            self.count += 1

    def average(self):
        if self.count == 0:
            raise ContractError("empty tail-average window")
        return self._sum / self.count

    def residual_average(self):
        """The mean of the residuals added, i.e. the residual of ``average()``."""
        if self.count == 0:
            raise ContractError("empty tail-average window")
        return self._residual_sum / self.count


@dataclass
class SolveResult:
    """``true_checks`` counts the full products ``K @ W`` the loop ran to
    confirm a stop; ``max_residual_gap`` is the largest |carried - true|
    relative residual they found."""

    W: np.ndarray
    trace: ConvergenceTrace
    diverged: bool
    iterations: int
    passes: float
    true_checks: int = 0
    max_residual_gap: float = 0.0


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


def _norm_floor(Y):
    """||Y||, raised to the smallest normal float so a zero Y divides."""
    return float(max(np.linalg.norm(Y), np.finfo(np.float64).tiny))


def relative_residual(oracle, W, Y, pool=None):
    """||(K + lam I) W - Y|| / ||Y|| by one full product ``K @ W`` on ``pool``."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = oracle.matmul(W, pool)
        res += oracle.lam * W
        res -= Y
        return float(np.linalg.norm(res) / _norm_floor(Y))


def _sumsq(a):
    """Squared Frobenius norm of a C-contiguous array, as ``np.linalg.norm`` forms it."""
    flat = a.ravel()
    return float(flat @ flat)


def _uniform_block(seed, iteration, n, blocksize):
    rng = substream(seed, "block", iteration)
    return np.sort(rng.choice(n, size=blocksize, replace=False))


def _due(every, t, total):
    return t == total - 1 or every > 0 and (t + 1) % every == 0


def _drive(oracle, Y2, vector, config, blocksize, total, prepare, step, iterate, residual,
           on_iterate, pool=None, start_passes=0.0):
    """The iteration loop shared by sap, adasap, adasap_i, sdd and pcg.

    ``prepare(t)`` returns what iteration t's block alone decides (never
    using the iterate or the pool); calls run one at a time, in order.
    ``step(prepared)`` runs the iteration, updating in place the array
    ``iterate`` and its carried residual (K + lam I) iterate - Y, and returns
    (stepsize, squared norm of that residual). ``residual`` is the array that
    holds the residual; only tail averaging reads it (None without it). On a
    pool of more than one worker, ``prepare(t+1)`` runs on the pool while
    step t runs; a stop discards it, and its exception is raised where step
    t+1 would run. An iteration costs blocksize/n of a pass, on top of the
    ``start_passes`` spent before the first (pcg's Nystrom sketch).

    After every step the loop forms the carried relative residual of the
    reported iterate, at no kernel cost: the running tail average once its
    window opens (``config.tail_average``), else ``iterate``. A carried value
    at or below ``tol``, or above DIVERGENCE_FACTOR (or NaN), claims a stop,
    at any step. A claim is confirmed by one true residual, a full product on
    ``pool``, and the run stops only if that value confirms the stop. A claim
    on a step off the ``residual_every`` cadence is confirmed only while no
    confirm of this run has failed; after one has, only due rows confirm, so
    a run makes at most one true check more than a cadence-only rule would.
    Rows at the cadence, and the last row, record the carried value; the row
    of a confirmed step records the true one, and the other rows NaN. A
    non-finite iterate after any step stops the run as diverged at once,
    recorded as an infinite residual.
    """
    n = oracle.n
    averager = TailAverager(total, Y2.shape) if config.tail_average else None
    ynorm = _norm_floor(Y2)
    trace = ConvergenceTrace()
    diverged = False
    iters_done = 0
    true_checks = 0
    max_gap = 0.0

    def averaging():
        return averager is not None and averager.count > 0

    ahead = pool is not None and pool.num_workers > 1
    pending = None
    try:
        for t in range(total):
            prepared = prepare(t) if pending is None else pending.result()
            pending = pool.submit(prepare, t + 1) if ahead and t + 1 < total else None
            stepsize, sumsq = step(prepared)
            iters_done = t + 1
            if averager is not None:
                averager.add(iters_done, iterate, residual)
            if on_iterate is not None:
                on_iterate(iters_done, iterate)
            if not np.isfinite(iterate).all():
                relres = math.inf
            else:
                due = _due(config.residual_every, t, total)
                if averaging():
                    relres = float(np.linalg.norm(averager.residual_average()) / ynorm)
                else:
                    relres = math.sqrt(sumsq) / ynorm
                claim = (config.tol is not None and relres <= config.tol
                         or not relres <= DIVERGENCE_FACTOR)
                # the run goes on only past a failed confirm, so an earlier true
                # check means one has failed: from then on only due rows confirm
                if claim and (due or true_checks == 0):
                    true = relative_residual(
                        oracle, averager.average() if averaging() else iterate, Y2, pool)
                    true_checks += 1
                    max_gap = max(max_gap, abs(relres - true))
                    relres = true
                elif not due:
                    relres = math.nan
            trace.record(iters_done, start_passes + iters_done * blocksize / n, relres,
                         stepsize)
            if relres > DIVERGENCE_FACTOR:
                diverged = True
                break
            if config.tol is not None and relres <= config.tol:
                break
    finally:
        if pending is not None and not pending.cancel():
            pending.exception()  # wait for the unused look-ahead and drop its outcome
    W_out = averager.average() if averaging() else iterate
    passes = start_passes + iters_done * blocksize / n
    return SolveResult(W_out[:, 0] if vector else W_out, trace, diverged, iters_done, passes,
                       true_checks, max_gap)


# ---------------------------------------------------------------------------
# exact sketch-and-project


def sap_step(oracle, W, r, block, H, pool=None, block_rows=None):
    """One exact projection step: zeroes the block rows of the residual.

    ``r`` is the carried residual (K + lam I) W - Y. Solves H d = r[B] by LU,
    where H is K[B,B] + lam I, then in place subtracts d from the block rows
    of W and (K + lam I)[:, B] d from r, in one column pass on ``pool``.
    Returns ||r||^2 after the step.

    A 2-d ``block`` (m, b) gives column j of W its own block B_j, with H the
    stack (m, b, b) of the H_j and ``block_rows`` the stack (m, b, n) of the
    rows K[B_j, :]: one batched solve, then one batched product with
    ``block_rows`` in place of the column pass (``pool`` is not used), formed
    as the column pass forms it: K[:, B_j] d_j, plus lam d_j on the block
    rows, subtracted from column j of r.
    """
    def solve(rhs):
        try:
            return np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "block system factorization failed; lam may be too small for float64"
            ) from exc

    if block.ndim == 2:
        cols = np.arange(W.shape[1])[:, None]
        d = solve(r[block, cols][:, :, None])[:, :, 0]
        W[block, cols] -= d
        AD = (d[:, None, :] @ block_rows)[:, 0]
        AD[cols, block] += oracle.lam * d
        r -= AD.T
        return _sumsq(r)
    d = solve(r[block])
    W[block] -= d

    def update(rows, local, pos, AD):
        tile = r[rows]
        tile -= AD
        return _sumsq(tile)

    return col_dist_update(oracle, d, block, update, pool)


def sap_solve(oracle, Y, config, dpp_model=None, pool=None, on_iterate=None,
              column_seeds=None):
    """Exact sketch-and-project from W0 = 0 with optional tail averaging.

    Blocks are uniform (without replacement), or k-DPP samples of an exact
    ``dpp_model``, whose sample size plays the role of the blocksize. They
    are drawn from the substreams (``config.seed``, "block", t).

    ``column_seeds``, one seed per column of Y, runs the columns in lockstep:
    column j takes exact projection steps on its own block stream, the one a
    one-column solve with ``config.seed = column_seeds[j]`` draws, and
    ``config.seed`` is not read. All columns share the loop, so its rows, its
    ``tol`` stop and its budget are those of the whole Y. Each preparation
    gathers the block rows K[B_j, :] of every column once, m * b * n floats
    for m columns (6.5 MB at m = 100, b = 32, n = 256), and the look-ahead
    holds two preparations at once.
    """
    config.reject_ignored("sap")
    n = oracle.n
    Y2, vector = _as_columns(Y, n)
    if dpp_model is not None:
        blocksize = dpp_model.sample_size
        if config.blocksize is not None and config.blocksize != blocksize:
            raise ConfigError("config blocksize disagrees with the DPP sample size")
    else:
        blocksize = resolve_blocksize(config, n)
    seeds = [config.seed] if column_seeds is None else list(column_seeds)
    if column_seeds is not None and len(seeds) != Y2.shape[1]:
        raise ContractError(f"{len(seeds)} column seeds for {Y2.shape[1]} right-hand sides")
    total = budget_iterations(config, blocksize / n)
    W = np.zeros((n, Y2.shape[1]))
    r = -Y2
    diag = np.arange(blocksize)
    drawn = []

    def blocks_at(t):
        """Step t's block of every seed, (len(seeds), blocksize)."""
        if dpp_model is None:
            return np.stack([_uniform_block(seed, t, n, blocksize) for seed in seeds])
        # blocks never depend on the iterate: draw a chunk of steps at once,
        # seed after seed, so each internal chunk of the sampler is one seed's
        # SAMPLE_CHUNK steps
        if t % SAMPLE_CHUNK == 0:
            ahead = range(t, min(t + SAMPLE_CHUNK, total))
            batch = dpp_model.sample_batch(
                substream(seed, "block", s) for seed in seeds for s in ahead)
            drawn[:] = batch.reshape(len(seeds), len(ahead), blocksize).transpose(1, 0, 2)
        return np.ascontiguousarray(drawn[t % SAMPLE_CHUNK])

    def prepare(t):
        blocks = blocks_at(t)
        if column_seeds is None:
            H = oracle.block(blocks[0])
            H[diag, diag] += oracle.lam
            return blocks[0], H, None
        rows = oracle.tile(blocks.ravel(), range(n)).reshape(len(seeds), blocksize, n)
        H = np.take_along_axis(rows, blocks[:, None, :], axis=2)
        H += H.transpose(0, 2, 1)  # ufuncs read an overlapping input as a copy
        H *= 0.5
        H[:, diag, diag] += oracle.lam
        return blocks, H, rows

    def step(prepared):
        block, H, rows = prepared
        return 1.0, sap_step(oracle, W, r, block, H, pool, rows)

    return _drive(oracle, Y2, vector, config, blocksize, total, prepare, step, W, r,
                  on_iterate, pool=pool)


# ---------------------------------------------------------------------------
# approximate accelerated sketch-and-project


def _test_matrix(seed, dim, rank):
    """The solve's one orthonormal Nystrom test matrix, dim x rank."""
    return np.linalg.qr(substream(seed, "omega").standard_normal((dim, rank)))[0]


def _damped_nystrom(product, omega, lam, dim):
    """The preconditioner (factor, rho) of a PSD matrix M of size ``dim``,
    given ``product(omega) = M @ omega``: the Nystrom factor of that sketch,
    damped by rho = S_r + lam. ``omega`` None is the identity preconditioner:
    the rank-0 factor and rho = 1, with no product."""
    if omega is None:
        return NystromFactor.empty(dim), 1.0
    factor = rand_nystrom_retry(product(omega), omega, omega.shape[1])
    return factor, float(factor.S[-1]) + lam


def adasap_prepare(oracle, config, t, blocksize, omega, kbb):
    """What iteration t's block alone decides: (block, factor, rho, stepsize).

    Phases: uniform block; K[B,B] into the b x b buffer ``kbb``; sketch
    K[B,B] @ omega with the solve's orthonormal test matrix; its damped
    Nystrom factor (``_damped_nystrom``); powering. ``omega`` None is the
    identity preconditioner (ADASAP-I): no sketch, rho = 1.
    """
    n, lam = oracle.n, oracle.lam
    block = _uniform_block(config.seed, t, n, blocksize)
    Kbb = oracle.block(block, kbb)
    factor, rho = _damped_nystrom(lambda M: Kbb @ M, omega, lam, blocksize)
    eta = rand_power_stepsize(lambda v: Kbb @ v + lam * v, factor, rho, iters=10,
                              seed=substream(config.seed, "power", t))
    return block, factor, rho, eta


def adasap_step(oracle, W, V, Z, r_V, r_Z, prepared, accel, pool=None, r_W=None):
    """One approximately preconditioned accelerated step on carried residuals.

    ``r_V`` and ``r_Z`` are the residuals (K + lam I) X - Y of V and Z. The
    gradient is r_Z[B], and D its damped inverse apply. ``nesterov_update``
    moves W, V and Z once, with direction D on the block; one column pass on
    ``pool`` then runs it tile by tile on the residuals, with direction
    (K + lam I)[:, B] D. W's residual is formed tile by tile, into ``r_W`` if
    given. The arrays must be distinct. ``prepared`` is ``adasap_prepare``'s
    tuple. Returns (stepsize, ||r_W||^2).
    """
    arrays = (W, V, Z, r_V, r_Z) + (() if r_W is None else (r_W,))
    _check_distinct(arrays, "the accelerated step needs distinct iterate and residual arrays")
    block, factor, rho, eta = prepared
    D = apply_inv(factor, rho, r_Z[block])
    coeffs = (eta, accel.beta, accel.gamma, accel.alpha)
    nesterov_update(W, V, Z, block, D, *coeffs)

    def update(rows, local, pos, AD):
        tile = np.empty(AD.shape) if r_W is None else r_W[rows]
        nesterov_update(tile, r_V[rows], r_Z[rows], slice(None), AD, *coeffs)
        return _sumsq(tile)

    return eta, col_dist_update(oracle, D, block, update, pool)


def adasap_solve(oracle, Y, config, identity_precond=False, pool=None, on_iterate=None,
                 accel=None):
    """Accelerated approximate sketch-and-project from W0 = 0.

    ``identity_precond=True`` gives the accelerated block coordinate descent
    ablation (subspace preconditioner replaced by the identity). ``accel``
    overrides the config-derived momentum coefficients.
    """
    config.reject_ignored("adasap_i" if identity_precond else "adasap")
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
    V, Z = W.copy(), W.copy()
    r_V, r_Z = -Y2, -Y2
    r_W = -Y2 if config.tail_average else None  # the averager reads W's residual
    kbb = np.empty((blocksize, blocksize))  # preparations never overlap: one buffer serves all
    return _drive(oracle, Y2, vector, config, blocksize, total,
                  lambda t: adasap_prepare(oracle, config, t, blocksize, omega, kbb),
                  lambda prepared: adasap_step(oracle, W, V, Z, r_V, r_Z, prepared, accel, pool,
                                               r_W),
                  W, r_W, on_iterate, pool=pool)


# ---------------------------------------------------------------------------
# stochastic dual descent baseline


def _momentum_update(velocity, w, estimate, rows, direction, eta, avg_weight):
    """One heavy-ball step with geometric averaging, in place:

    velocity' = 0.9 velocity - eta D;  w' = w + velocity';
    estimate' = estimate + avg_weight (w' - estimate),

    where D is ``direction`` on ``rows`` and zero elsewhere. Applied to the
    system products ((K + lam I) velocity, and the residuals of w and
    estimate) with direction (K + lam I) D, it carries them too.
    """
    velocity *= SDD_MOMENTUM
    velocity[rows] -= eta * direction
    w += velocity
    estimate += avg_weight * (w - estimate)


def sdd_solve(oracle, Y, config, pool=None, on_iterate=None):
    """Block stochastic dual descent with heavy-ball momentum and geometric
    iterate averaging.

    The raw block gradient is applied with stepsize scale/n, momentum 0.9,
    and averaging parameter 100/T. The reported iterate is the geometric
    average. The gradient is read from the carried residual of w, and one
    column pass per step carries (K + lam I) velocity and the residuals of w
    and of the average; divergence is detected by the shared block-solver loop.
    """
    config.reject_ignored("sdd")
    n = oracle.n
    Y2, vector = _as_columns(Y, n)
    blocksize = resolve_blocksize(config, n)
    total = budget_iterations(config, blocksize / n)
    eta = float(config.stepsize_scale) / n
    avg_weight = min(1.0, 100.0 / total)
    w, velocity, estimate, A_velocity = (np.zeros_like(Y2) for _ in range(4))
    r_w, r_estimate = -Y2, -Y2

    def step(block):
        grad = r_w[block]

        def update(rows, local, pos, AD):
            with np.errstate(over="ignore", invalid="ignore"):
                _momentum_update(velocity[rows], w[rows], estimate[rows], local, grad[pos],
                                 eta, avg_weight)
                _momentum_update(A_velocity[rows], r_w[rows], r_estimate[rows], slice(None),
                                 AD, eta, avg_weight)
                return _sumsq(r_estimate[rows])

        with np.errstate(over="ignore", invalid="ignore"):
            return eta, col_dist_update(oracle, grad, block, update, pool)

    return _drive(oracle, Y2, vector, config, blocksize, total,
                  lambda t: _uniform_block(config.seed, t, n, blocksize), step,
                  estimate, r_estimate, on_iterate, pool=pool)


# ---------------------------------------------------------------------------
# preconditioned conjugate gradient baseline


def pcg_solve(oracle, Y, config, pool=None, on_iterate=None):
    """Conjugate gradient on (K + lam I) W = Y with a global rank-r Nystrom
    preconditioner, on the shared loop; standard recurrences run per
    right-hand side, and ``nystrom_rank`` 0 gives plain CG.

    The recurrence residual R = Y - (K + lam I) X is the carried residual (of
    opposite sign), so the loop's stop rules apply, with the tolerance 1e-6
    when ``tol`` is null. A column whose own relative residual is at or below
    the tolerance is frozen (its alpha and beta are 0). The budget is
    ``max_iters``, else ``ceil(max_passes)`` iterations. An iteration is one
    full product, so one pass; the sketch K @ Omega adds one pass before the
    first. The matvecs, the sketch and the true checks run on ``pool``.
    """
    config.reject_ignored("pcg")
    n, lam = oracle.n, oracle.lam
    Y2, vector = _as_columns(Y, n)
    rank = resolve_rank(config, n, lowest=0)  # rank 0 is plain CG
    omega = _test_matrix(config.seed, n, rank) if rank > 0 else None
    factor, rho = _damped_nystrom(lambda M: oracle.matmul(M, pool), omega, lam, n)
    if config.tol is None:
        config = replace(config, tol=1e-6)
    col_norms = np.maximum(np.linalg.norm(Y2, axis=0), np.finfo(np.float64).tiny)
    X = np.zeros_like(Y2)
    R = Y2.copy()
    P = apply_inv(factor, rho, R)
    rz = np.einsum("ij,ij->j", R, P)

    def step(_):
        nonlocal X, R, P, rz
        active = np.linalg.norm(R, axis=0) / col_norms > config.tol
        AP = oracle.matmul(P, pool) + lam * P
        pap = np.einsum("ij,ij->j", P, AP)
        if np.any(pap[active] <= 0.0):
            raise NumericalError("conjugate gradient breakdown: p^T A p <= 0")
        alpha = np.where(active, rz / np.where(active, pap, 1.0), 0.0)
        X += alpha * P
        R -= alpha * AP
        Zp = apply_inv(factor, rho, R)
        rz_new = np.einsum("ij,ij->j", R, Zp)
        beta = np.where(active, rz_new / np.where(rz > 0.0, rz, 1.0), 0.0)
        P = Zp + beta * P
        rz = rz_new
        return math.nan, _sumsq(R)

    return _drive(oracle, Y2, vector, config, n, budget_iterations(config, 1.0),
                  lambda t: None, step, X, None, on_iterate, pool=pool,
                  start_passes=0.0 if omega is None else 1.0)


# ---------------------------------------------------------------------------
# dispatch


def solve(oracle, Y, config, pool=None, on_iterate=None):
    """Run the solver selected by ``config.solver_id``; a setting that solver
    would ignore is a ConfigError."""
    entry = {"sap": sap_solve, "adasap": adasap_solve, "sdd": sdd_solve, "pcg": pcg_solve,
             "adasap_i": partial(adasap_solve, identity_precond=True)}.get(config.solver_id)
    if entry is None:
        raise ConfigError(f"unknown solver {config.solver_id!r}")
    own_pool = None
    if pool is None and config.num_workers > 1:
        own_pool = pool = WorkerPool(config.num_workers)
    try:
        return entry(oracle, Y, config, pool=pool, on_iterate=on_iterate)
    finally:
        if own_pool is not None:
            own_pool.close()
