"""Empirical certification of subspace-convergence behavior at desk scale.

Synthetic problems plant an exact eigenbasis and spectrum, so projections,
smoothed condition numbers, and weighted norms carry no eigensolver noise.
Expectation-style bounds are then checked against Monte-Carlo means over
independent solver runs (3-sigma slack on every comparison), with block
indices drawn from an exact fixed-size determinantal sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, kernel_from_dict
from .dpp import (
    DppModel,
    expected_projection_mc,
    lemma2_lower_bound,
    smoothed_condition,
)
from .errors import ContractError
from .gp import ExactPrior, pathwise_sample
from .kernels import DenseOracle, KernelOracle, cross_kernel
from .randnla import apply_inv, apply_inv_sqrt, rand_nystrom
from .rng import substream
from .solvers import sap_solve


# ---------------------------------------------------------------------------
# spectral basis and subspace error metrics


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of K (descending) plus lam; serves projections and
    weighted norms. The i-th spectral basis function k(., X) v_i / sqrt(lam_i)
    has unit RKHS norm."""

    kernel_eigvals: np.ndarray
    eigvecs: np.ndarray
    lam: float

    @property
    def n(self):
        return self.kernel_eigvals.size

    @property
    def system_eigvals(self):
        return self.kernel_eigvals + self.lam


@dataclass(frozen=True)
class SubspaceError:
    rkhs: float          # ||Q_l (w - w*)||^2_K
    regularized: float   # ||Q_l (w - w*)||^2_{K + lam I}


def subspace_error(basis, w, w_star, num_top):
    """Top-subspace error in both the RKHS and the regularized metric."""
    if not 1 <= num_top <= basis.n:
        raise ContractError("subspace size out of range")
    delta = basis.eigvecs[:, :num_top].T @ (np.asarray(w, dtype=np.float64) - w_star)
    head = delta**2
    return SubspaceError(
        rkhs=float(head @ basis.kernel_eigvals[:num_top]),
        regularized=float(head @ basis.system_eigvals[:num_top]),
    )


# ---------------------------------------------------------------------------
# synthetic planted problems


def _haar_orthogonal(rng, n):
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    return Q * np.sign(np.diag(R))


def _local_orthogonal(rng, n, support=40):
    """Block-diagonal Haar basis: eigenvectors supported on ``support``
    coordinates, interleaved so consecutive eigenvalues land in different
    blocks. Mimics the locally supported eigenfunctions of kernel matrices."""
    starts = range(0, n, support)
    V = np.zeros((n, n))
    for start in starts:
        stop = min(start + support, n)
        V[start:stop, start:stop] = _haar_orthogonal(rng, stop - start)
    # round robin over the blocks: the i-th column of each block, in block order
    order = [start + i for i in range(support) for start in starts if start + i < n]
    return V[:, order]


@dataclass
class SyntheticSpectrumProblem:
    """Planted system (K + lam I) w = y with known spectrum and eigenbasis."""

    basis: SpectralBasis
    oracle: DenseOracle
    w_star: np.ndarray
    y: np.ndarray

    @property
    def n(self):
        return self.basis.n

    @property
    def lam(self):
        return self.basis.lam

    @property
    def system_eigvals(self):
        return self.basis.system_eigvals

    @property
    def sol_norm_sq(self):
        """||y||^2 in the inverse-system metric, exactly y^T w*."""
        return float(self.y @ self.w_star)

    def dpp_model(self, sample_size):
        return DppModel(
            self.system_eigvals, self.basis.eigvecs, sample_size, validate=False
        )

    def with_response(self, seed, mode="gaussian"):
        """Same planted matrix with a freshly drawn right-hand side."""
        return _attach_response(self.basis, self.oracle, seed, mode)

    @classmethod
    def poly(cls, n, beta, lam, seed, response="planted", normalize="none", basis="haar"):
        """Polynomially decaying kernel spectrum i^(-beta) in a planted basis.

        ``basis`` is "haar" (global rotation) or "local" (block-diagonal
        rotations with locally supported eigenvectors, closer to kernel
        matrices). ``normalize="trace"`` rescales the spectrum so
        trace(K) = n, the normalization a unit-diagonal kernel matrix
        carries; ``"none"`` keeps the leading eigenvalue at 1.
        """
        if n < 2 or beta <= 0.0 or lam <= 0.0:
            raise ContractError("need n >= 2, beta > 0, lam > 0")
        if basis == "haar":
            V = _haar_orthogonal(substream(seed, "basis"), n)
        elif basis == "local":
            V = _local_orthogonal(substream(seed, "basis"), n)
        else:
            raise ContractError(f"unknown basis {basis!r}")
        kernel_eigs = np.arange(1, n + 1, dtype=np.float64) ** (-float(beta))
        if normalize == "trace":
            kernel_eigs = kernel_eigs * (n / kernel_eigs.sum())
        elif normalize != "none":
            raise ContractError(f"unknown normalization {normalize!r}")
        K = (V * kernel_eigs) @ V.T
        planted = SpectralBasis(kernel_eigs, V, float(lam))
        oracle = DenseOracle(K, float(lam))
        return _attach_response(planted, oracle, seed, response)


def _attach_response(basis, oracle, seed, mode):
    V = basis.eigvecs
    sys_eigs = basis.system_eigvals
    if mode == "planted":
        w_star = substream(seed, "wstar").standard_normal(basis.n)
        y = V @ (sys_eigs * (V.T @ w_star))
    elif mode == "gaussian":
        # y ~ N(0, K + lam I): a GP draw plus observation noise
        g = substream(seed, "y").standard_normal(basis.n)
        y = V @ (np.sqrt(sys_eigs) * (V.T @ g))
        w_star = V @ ((V.T @ y) / sys_eigs)
    else:
        raise ContractError(f"unknown response mode {mode!r}")
    return SyntheticSpectrumProblem(basis, oracle, w_star, y)


# ---------------------------------------------------------------------------
# grids and tail-averaged error collection


def log_grid(total):
    """Even grid {2, 4, 8, ...} up to ``total`` (included when even)."""
    points = []
    t = 2
    while t <= total:
        points.append(t)
        t *= 2
    if total >= 2 and total % 2 == 0 and total not in points:
        points.append(total)
    return points


def _trial_iterates(problems, model, grid, trial_seeds, tail, blocksize=None):
    """Zero-initialized exact solver runs to the last grid point, problem j
    as column j of one lockstep ``sap_solve`` on the block stream of
    ``trial_seeds[j]``, with k-DPP blocks of ``model`` (uniform blocks when it
    is None); the problems share one oracle. Returns, per grid point t, an
    n x trials array: the tail averages of w_{t/2}, ..., w_{t-1} (``tail``,
    from prefix sums S_j = w_1 + ... + w_j) or the iterates w_t."""
    oracle = problems[0].oracle
    if any(problem.oracle is not oracle for problem in problems):
        raise ContractError("lockstep trials need problems that share one oracle")
    Y = np.column_stack([problem.y for problem in problems])
    cumsum = np.zeros(Y.shape)
    snapshots = {0: np.zeros(Y.shape)}
    wanted = {t - 1 for t in grid} | {t // 2 - 1 for t in grid} if tail else set(grid)

    def on_iterate(idx, W):
        if tail:
            W = np.add(cumsum, W, out=cumsum)
        if idx in wanted:
            snapshots[idx] = W.copy()

    config = RunConfig(
        lam=oracle.lam,
        solver_id="sap",
        blocksize=blocksize,
        max_iters=grid[-1],
        residual_every=0,
    )
    sap_solve(oracle, Y, config, dpp_model=model, on_iterate=on_iterate,
              column_seeds=trial_seeds)
    if tail:
        return [(snapshots[t - 1] - snapshots[t // 2 - 1]) * (2.0 / t) for t in grid]
    return [snapshots[t] for t in grid]


def _trial_errors(problems, model, grid, seed, tail, error, blocksize=None):
    """errors[trial, grid point] = error(problem, iterate), one solver run per
    entry of ``problems`` on the substream ("trial", index) of ``seed``, all
    run in lockstep by one ``sap_solve``."""
    if not grid or len(problems) < 2:
        raise ContractError("need at least one grid point (iters >= 2) and trials >= 2")
    trial_seeds = [int(substream(seed, "trial", trial).integers(2**63))
                   for trial in range(len(problems))]
    iterates = _trial_iterates(problems, model, grid, trial_seeds, tail, blocksize)
    return np.array([[error(problem, w[:, trial]) for w in iterates]
                     for trial, problem in enumerate(problems)])


def _gridpoints(grid, errors, bounds):
    """Monte-Carlo mean and stderr per grid point; a point passes when its
    mean stays within its bound plus 3 stderr."""
    means = errors.mean(axis=0)
    stderrs = errors.std(axis=0, ddof=1) / math.sqrt(errors.shape[0])
    return [
        GridPoint(t, float(mean), float(se), float(bound), bool(mean <= bound + 3.0 * se))
        for t, mean, se, bound in zip(grid, means, stderrs, bounds)
    ]


# ---------------------------------------------------------------------------
# reports


@dataclass
class GridPoint:
    t: int
    mean: float
    stderr: float
    bound: float
    passed: bool

    def to_dict(self):
        return {
            "t": self.t,
            "mean": self.mean,
            "stderr": self.stderr,
            "bound": self.bound,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    name: str
    passed: bool
    gridpoints: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "suite": self.name,
            "pass": self.passed,
            "gridpoints": [g.to_dict() for g in self.gridpoints],
            "details": self.details,
        }

    def to_csv(self, path):
        with open(path, "w") as handle:
            handle.write("t,mean,stderr,bound,pass\n")
            for g in self.gridpoints:
                handle.write(f"{g.t},{g.mean!r},{g.stderr!r},{g.bound!r},{int(g.passed)}\n")


# ---------------------------------------------------------------------------
# expected-projection certification


def verify_lemma2(problem, half_blocksize, num_samples, seed, projection=None):
    """Check the expected-projection diagonalization and diagonal lower
    bounds under exact 2b-sized determinantal sampling.

    PASS requires every eigenbasis diagonal entry to clear its bound minus
    3 stderr and the largest off-diagonal entry to stay within 4 of the
    largest per-entry stderr.
    """
    model = problem.dpp_model(2 * half_blocksize)
    if projection is None:
        projection = expected_projection_mc(model, num_samples, seed, basis="eigen")
    diag = projection.diagonal()
    diag_se = projection.diagonal_stderr()
    sys_eigs = problem.system_eigvals
    n = problem.n
    bounds = np.array(
        [lemma2_lower_bound(sys_eigs, half_blocksize, j) for j in range(1, n + 1)]
    )
    diag_ok = diag >= bounds - 3.0 * diag_se
    off_mask = ~np.eye(n, dtype=bool)
    max_off = float(np.abs(projection.mean[off_mask]).max())
    max_off_se = float(projection.stderr[off_mask].max())
    off_ok = max_off <= 4.0 * max_off_se
    gridpoints = [
        GridPoint(j + 1, float(diag[j]), float(diag_se[j]), float(bounds[j]), bool(diag_ok[j]))
        for j in range(n)
    ]
    return VerificationReport(
        name="lemma2",
        passed=bool(diag_ok.all() and off_ok),
        gridpoints=gridpoints,
        details={
            "half_blocksize": half_blocksize,
            "num_samples": projection.num_samples,
            "max_offdiag": max_off,
            "max_offdiag_stderr": max_off_se,
            "offdiag_pass": bool(off_ok),
            "min_diagonal": float(diag.min()),
            "min_diagonal_lcb": projection.min_diagonal_lcb(3.0),
        },
    )


# ---------------------------------------------------------------------------
# two-phase tail-averaged bound


def theorem_bound(sys_eigs, half_blocksize, num_top, t, sol_norm_sq):
    """min{ 8 phi(b, l)/t, (1 - 1/(2 phi(b, n)))^{t/2} } * ||y||^2_inv.

    The second return flags which branch attains the min ("sublinear" or
    "linear")."""
    phi_top = smoothed_condition(sys_eigs, half_blocksize, num_top)
    phi_full = smoothed_condition(sys_eigs, half_blocksize, sys_eigs.size)
    sublinear = 8.0 * phi_top / t
    linear = (1.0 - 1.0 / (2.0 * phi_full)) ** (t / 2.0)
    branch = "sublinear" if sublinear <= linear else "linear"
    return min(sublinear, linear) * sol_norm_sq, branch


def verify_theorem1(problem, half_blocksize, num_top, trials, iters, seed, projection=None,
                    sampler="kdpp"):
    """Monte-Carlo check of the two-phase tail-averaged subspace bound.

    Runs ``trials`` independent zero-initialized exact solver runs with
    2b-sized determinantal blocks; at every even grid point the mean of
    ||Q_l (wbar_t - w*)||^2 in the regularized metric must not exceed the
    bound plus 3 stderr. Also records where the bound's min switches from the
    sublinear to the linear branch and whether the eigenvalue-gap hypothesis
    held on the estimated expected projection.

    ``num_top = n`` gives the full-space specialization, where the linear
    branch carries the bound. ``sampler="uniform"`` records the same curve as
    an ablation: the bound is proved for determinantal sampling only, so the
    report is informational and carries no pass verdict.
    """
    if not 1 <= num_top <= problem.n:
        raise ContractError("num_top out of range")
    model = problem.dpp_model(2 * half_blocksize) if sampler == "kdpp" else None
    grid = log_grid(iters)
    errors = _trial_errors(
        [problem] * trials, model, grid, seed, True,
        lambda p, w: subspace_error(p.basis, w, p.w_star, num_top).regularized,
        blocksize=2 * half_blocksize,
    )
    bounds, branches = zip(*(
        theorem_bound(problem.system_eigvals, half_blocksize, num_top, t, problem.sol_norm_sq)
        for t in grid
    ))
    crossover = next(
        (t for t, before, after in zip(grid[1:], branches, branches[1:])
         if before == "sublinear" and after == "linear"),
        None,
    )
    gridpoints = _gridpoints(grid, errors, bounds)
    assumption = None
    if projection is not None:
        diag = projection.diagonal()
        assumption = bool(diag[num_top - 1] >= 2.0 * diag.min())
    return VerificationReport(
        name="theorem1",
        passed=all(g.passed for g in gridpoints) if sampler == "kdpp" else True,
        gridpoints=gridpoints,
        details={
            "half_blocksize": half_blocksize,
            "num_top": num_top,
            "trials": trials,
            "iters": iters,
            "sampler": sampler,
            "bound_asserted": sampler == "kdpp",
            "crossover_iteration": crossover,
            "assumption_gap_held": assumption,
            "sol_norm_sq": problem.sol_norm_sq,
        },
    )


# ---------------------------------------------------------------------------
# plain linear rate


def verify_linear_rate(problem, half_blocksize, trials, iters, seed, projection=None,
                       projection_samples=2000):
    """Check that the mean squared system-metric error decays at least at the
    rate (1 - lam_hat)^t, with lam_hat the smallest expected-projection
    diagonal estimated from the Monte-Carlo projection (minus 3 stderr, so the
    reference rate is a high-confidence lower bound)."""
    model = problem.dpp_model(2 * half_blocksize)
    if projection is None:
        projection = expected_projection_mc(
            model, projection_samples, seed, basis="eigen"
        )
    lam_hat = max(projection.min_diagonal_lcb(3.0), 0.0)
    grid = log_grid(iters)
    errors = _trial_errors(
        [problem] * trials, model, grid, seed, False,
        lambda p, w: subspace_error(p.basis, w, p.w_star, p.n).regularized,
    )
    init = problem.sol_norm_sq
    gridpoints = _gridpoints(grid, errors, [(1.0 - lam_hat) ** t * init for t in grid])
    return VerificationReport(
        name="linear_rate",
        passed=all(g.passed for g in gridpoints),
        gridpoints=gridpoints,
        details={
            "half_blocksize": half_blocksize,
            "trials": trials,
            "iters": iters,
            "rate_estimate": lam_hat,
            "initial_error": init,
        },
    )


# ---------------------------------------------------------------------------
# Nystrom and pathwise-conditioning certification


def verify_nystrom(seed):
    """Factor exactness and damped-application identities on random blocks."""
    rng = substream(seed, "verify")
    dim = 48
    G = rng.standard_normal((dim, dim))
    M = G @ G.T / dim
    omega = rng.standard_normal((dim, dim))
    factor = rand_nystrom(M @ omega, omega, dim)
    recon = (factor.U * factor.S) @ factor.U.T
    recon_err = np.linalg.norm(recon - M) / np.linalg.norm(M)
    rho = 0.3
    vec = rng.standard_normal(dim)
    dense = np.linalg.solve(recon + rho * np.eye(dim), vec)
    inv_err = np.linalg.norm(apply_inv(factor, rho, vec) - dense) / np.linalg.norm(dense)
    twice = apply_inv_sqrt(factor, rho, apply_inv_sqrt(factor, rho, vec))
    sqrt_err = np.linalg.norm(twice - dense) / np.linalg.norm(dense)
    checks = {
        "full_rank_reconstruction": (float(recon_err), 1e-8),
        "apply_inv_vs_dense": (float(inv_err), 1e-10),
        "apply_inv_sqrt_squared": (float(sqrt_err), 1e-10),
    }
    passed = all(err <= tol for err, tol in checks.values())
    return VerificationReport(
        name="nystrom",
        passed=passed,
        details={key: {"error": err, "tolerance": tol} for key, (err, tol) in checks.items()},
    )


def verify_pathwise(seed):
    """Pathwise sample moments against the closed-form posterior (small n)."""
    rng = substream(seed, "verify")
    n, t, s, lam = 30, 5, 2000, 0.05
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    Xstar = rng.uniform(-2.0, 2.0, size=(t, 2))
    spec = kernel_from_dict({"family": "rbf", "lengthscales": [0.8, 0.8]})
    oracle = KernelOracle(spec, X, lam)
    y = rng.standard_normal(n)
    K = oracle.dense()
    cross = cross_kernel(spec, Xstar, X)
    A = K + lam * np.eye(n)
    exact_mean = cross @ np.linalg.solve(A, y)
    exact_cov = cross_kernel(spec, Xstar, Xstar) - cross @ np.linalg.solve(A, cross.T)

    prior = ExactPrior(spec, X, Xstar)

    def solve_fn(orc, rhs):
        return np.linalg.solve(A, rhs)

    samples = pathwise_sample(oracle, prior, y, s, seed, solve_fn, Xstar=Xstar)
    emp_mean = samples.sample_mean()
    emp_cov = samples.sample_covariance()
    mean_se = np.sqrt(np.diag(exact_cov) / s)
    mean_ok = np.all(np.abs(emp_mean - exact_mean) <= 4.0 * np.maximum(mean_se, 1e-12))
    var_prod = np.outer(np.diag(exact_cov), np.diag(exact_cov))
    cov_se = np.sqrt((var_prod + exact_cov**2) / s)
    cov_ok = np.all(np.abs(emp_cov - exact_cov) <= 4.0 * np.maximum(cov_se, 1e-12))
    return VerificationReport(
        name="pathwise",
        passed=bool(mean_ok and cov_ok),
        details={
            "mean_max_dev_sigmas": float(np.max(np.abs(emp_mean - exact_mean) / np.maximum(mean_se, 1e-12))),
            "cov_max_dev_sigmas": float(np.max(np.abs(emp_cov - exact_cov) / np.maximum(cov_se, 1e-12))),
            "num_samples": s,
        },
    )


# ---------------------------------------------------------------------------
# effective rank and iteration-count checks


def poly_effective_rank_report(beta, num_top, n, growth=4):
    """phi(2l, l) and phi(4l, l) for i^(-beta) spectra at sizes n and
    ``growth`` * n; bounded means the values differ by less than 10%."""
    details = {}
    for b_mult in (2, 4):
        small, large = (
            smoothed_condition(np.arange(1, size + 1, dtype=np.float64) ** (-beta),
                               b_mult * num_top, num_top)
            for size in (n, growth * n)
        )
        details[f"phi_b{b_mult}l"] = {
            "n": small, "grown": large, "bounded": abs(large - small) <= 0.1 * small,
        }
    return VerificationReport(
        name="effective_rank",
        passed=all(row["bounded"] for row in details.values()),
        details=details,
    )


def verify_sublinear_iterations(n, beta, lam, num_top, epsilon, constant, trials, seed):
    """Iteration-count check for the condition-number-free phase.

    With blocksize 4l (determinantal sample of that size), each trial draws a
    fresh GP-style response and succeeds when the tail-averaged top-l RKHS
    error falls below epsilon * ||proj_l m||^2 within
    ``constant * (n/l) / epsilon`` iterations.
    """
    base = SyntheticSpectrumProblem.poly(n, beta, lam, seed, response="gaussian")
    total = int(math.ceil(constant * (n / num_top) / epsilon / 2.0)) * 2
    model = base.dpp_model(4 * num_top)
    grid = log_grid(total)
    problems = [
        base.with_response(int(substream(seed, "response", trial).integers(2**63)))
        for trial in range(trials)
    ]
    errors = _trial_errors(
        problems, model, grid, seed, True,
        lambda p, w: subspace_error(p.basis, w, p.w_star, num_top).rkhs,
    )
    # epsilon times the top-l RKHS norm of the exact mean, ||proj_l m||^2
    targets = [
        epsilon * subspace_error(p.basis, p.w_star, np.zeros(p.n), num_top).rkhs
        for p in problems
    ]
    successes = int(sum((row <= target).any() for row, target in zip(errors, targets)))
    fraction = successes / trials
    return VerificationReport(
        name="sublinear_iterations",
        passed=fraction >= 0.9,
        details={
            "trials": trials,
            "successes": successes,
            "fraction": fraction,
            "iteration_budget": total,
            "constant": constant,
            "epsilon": epsilon,
        },
    )
