"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria compare Monte-Carlo means against closed-form bounds
with 3-sigma slack; equivalence criteria pin exact tolerances. Every test is
deterministic (fixed seeds throughout).
"""

import time

import numpy as np
import pytest

from sapgp import (
    KernelOracle,
    KernelSpec,
    RunConfig,
    WorkerPool,
    adasap_solve,
    apply_inv,
    apply_inv_sqrt,
    col_dist_matmul,
    pcg_solve,
    rand_nystrom,
    rand_power_stepsize,
    row_dist_matmul,
    sap_solve,
    sdd_solve,
)
from sapgp.dpp import expected_projection_mc
from sapgp.gp import ExactPrior, pathwise_sample
from sapgp.kernels import cross_kernel
from sapgp.rng import substream
from sapgp.theory import (
    SyntheticSpectrumProblem,
    verify_lemma2,
    verify_linear_rate,
    verify_sublinear_iterations,
    verify_theorem1,
)

# minutes of Monte Carlo: `pytest -m "not slow"` leaves the file out
pytestmark = pytest.mark.slow


def announce(number, passed, detail):
    line = f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def theorem_problem():
    # shared by the two-phase bound and the linear-rate criteria
    return SyntheticSpectrumProblem.poly(256, 2.0, 1e-4, seed=0)


@pytest.fixture(scope="module")
def theorem_projection(theorem_problem):
    model = theorem_problem.dpp_model(32)
    return expected_projection_mc(model, 2500, seed=1, basis="eigen")


def test_criterion_01_lemma2_certification():
    problem = SyntheticSpectrumProblem.poly(64, 2.0, 1e-3, seed=2)
    start = time.perf_counter()
    report = verify_lemma2(problem, half_blocksize=8, num_samples=5000, seed=3)
    elapsed = time.perf_counter() - start
    min_margin = min(
        (g.mean - (g.bound - 3.0 * g.stderr)) for g in report.gridpoints
    )
    announce(
        1,
        report.passed and elapsed < 300.0,
        f"diag min margin {min_margin:.2e}, max offdiag "
        f"{report.details['max_offdiag']:.2e} <= 4x stderr "
        f"{4 * report.details['max_offdiag_stderr']:.2e}, {elapsed:.0f}s",
    )


def test_criterion_02_theorem1_two_phase_bound(theorem_problem, theorem_projection):
    start = time.perf_counter()
    report = verify_theorem1(
        theorem_problem, half_blocksize=16, num_top=8, trials=100, iters=2000,
        seed=4, projection=theorem_projection,
    )
    elapsed = time.perf_counter() - start
    crossover = report.details["crossover_iteration"]
    announce(
        2,
        report.passed and crossover is not None and elapsed < 1800.0,
        f"bound held at {len(report.gridpoints)} grid points, crossover at "
        f"t={crossover}, gap hypothesis held={report.details['assumption_gap_held']}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_03_linear_rate(theorem_problem, theorem_projection):
    report = verify_linear_rate(
        theorem_problem, half_blocksize=16, trials=100, iters=512, seed=5,
        projection=theorem_projection,
    )
    announce(
        3,
        report.passed,
        f"rate estimate {report.details['rate_estimate']:.4f}, "
        f"{len(report.gridpoints)} grid points within 3 sigma",
    )


def test_criterion_04_solver_oracle_equivalence():
    rng = np.random.default_rng(6)
    # full-block exact step equals the direct solve
    n_small = 200
    Xs = rng.uniform(-1, 1, size=(n_small, 2))
    spec = KernelSpec("rbf", np.array([0.5, 0.5]), 1.0)
    oracle_small = KernelOracle(spec, Xs, 0.3)
    y_small = rng.standard_normal(n_small)
    cfg = RunConfig(lam=0.3, solver_id="sap", blocksize=n_small, max_iters=1)
    direct = np.linalg.solve(
        oracle_small.dense() + 0.3 * np.eye(n_small), y_small
    )
    sap_err = np.linalg.norm(sap_solve(oracle_small, y_small, cfg).W - direct)
    sap_err /= np.linalg.norm(direct)

    # well-conditioned n=500 system: every solver reaches 1e-4 in its budget
    n = 500
    X = rng.uniform(-1, 1, size=(n, 2))
    spec = KernelSpec("rbf", np.array([0.15, 0.15]), 1.0)
    lam = 8.0
    oracle = KernelOracle(spec, X, lam)
    y = rng.standard_normal(n)
    dense = np.linalg.solve(oracle.dense() + lam * np.eye(n), y)

    ada = adasap_solve(
        oracle, y, RunConfig(lam=lam, solver_id="adasap", max_passes=50,
                             residual_every=100, seed=7)
    )
    sdd = sdd_solve(
        oracle, y, RunConfig(lam=lam, solver_id="sdd", stepsize_scale=1.0,
                             max_passes=80, residual_every=100, seed=8)
    )
    pcg = pcg_solve(
        oracle, y, RunConfig(lam=lam, solver_id="pcg", nystrom_rank=100,
                             tol=1e-8, max_iters=n, seed=9)
    )
    pcg_vs_dense = np.linalg.norm(pcg.W - dense) / np.linalg.norm(dense)
    ok = (
        sap_err <= 1e-8
        and ada.trace.final_residual() <= 1e-4
        and sdd.trace.final_residual() <= 1e-4
        and pcg.trace.final_residual() <= 1e-4
        and pcg_vs_dense <= 1e-6
    )
    announce(
        4,
        ok,
        f"full-block sap {sap_err:.1e}; residuals ada {ada.trace.final_residual():.1e} "
        f"sdd {sdd.trace.final_residual():.1e} pcg {pcg.trace.final_residual():.1e}; "
        f"pcg vs dense {pcg_vs_dense:.1e}",
    )


def test_criterion_05_nystrom_and_woodbury():
    rng = np.random.default_rng(10)
    X = rng.uniform(-1, 1, size=(100, 2))
    oracle = KernelOracle(KernelSpec("rbf", np.array([0.6, 0.6]), 1.0), X, 1e-3)
    block = np.sort(rng.choice(100, 48, replace=False))
    Kbb = oracle.block(block)
    omega = rng.standard_normal((48, 48))
    factor = rand_nystrom(Kbb @ omega, omega, 48)
    recon = (factor.U * factor.S) @ factor.U.T
    recon_err = np.linalg.norm(recon - Kbb) / np.linalg.norm(Kbb)

    inv_err = 0.0
    sqrt_err = 0.0
    for dim, rank in ((16, 8), (48, 20), (64, 32)):
        G = rng.standard_normal((dim, dim))
        M = G @ G.T / dim
        om = rng.standard_normal((dim, rank))
        fac = rand_nystrom(M @ om, om, rank)
        rho = float(fac.S[-1]) + 0.05
        g = rng.standard_normal(dim)
        dense = np.linalg.solve(
            (fac.U * fac.S) @ fac.U.T + rho * np.eye(dim), g
        )
        got = apply_inv(fac, rho, g)
        inv_err = max(inv_err, np.linalg.norm(got - dense) / np.linalg.norm(dense))
        twice = apply_inv_sqrt(fac, rho, apply_inv_sqrt(fac, rho, g))
        sqrt_err = max(
            sqrt_err,
            np.linalg.norm(twice - got) / np.linalg.norm(dense),
        )
    ok = recon_err <= 1e-8 and inv_err <= 1e-10 and sqrt_err <= 1e-10
    announce(
        5,
        ok,
        f"rank-b reconstruction {recon_err:.1e}, apply_inv {inv_err:.1e}, "
        f"sqrt-squared {sqrt_err:.1e}",
    )


def test_criterion_06_randomized_powering():
    hits = 0
    trials = 100
    lam = 1e-2
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((16, 16))
        M = G @ G.T / 16
        omega = rng.standard_normal((16, 8))
        factor = rand_nystrom(M @ omega, omega, 8)
        rho = float(factor.S[-1]) + lam
        H = M + lam * np.eye(16)
        eta = rand_power_stepsize(
            lambda v: H @ v, factor, rho, iters=10, seed=substream(seed, "power")
        )
        w, V = np.linalg.eigh((factor.U * factor.S) @ factor.U.T + rho * np.eye(16))
        half = (V / np.sqrt(w)) @ V.T
        top = np.linalg.eigvalsh(half @ H @ half)[-1]
        if abs(eta - 1.0 / top) <= 0.1 / top:
            hits += 1
    announce(6, hits >= 95, f"stepsize within 10% of dense eigensolve on {hits}/100 seeds")


def test_criterion_07_pathwise_conditioning():
    rng = np.random.default_rng(11)
    n, t, s, lam = 30, 5, 2000, 0.05
    X = rng.uniform(-2, 2, size=(n, 2))
    Xstar = rng.uniform(-2, 2, size=(t, 2))
    spec = KernelSpec("rbf", np.array([0.8, 0.8]), 1.0)
    oracle = KernelOracle(spec, X, lam)
    y = rng.standard_normal(n)
    K = oracle.dense()
    A = K + lam * np.eye(n)
    cross = cross_kernel(spec, Xstar, X)
    exact_mean = cross @ np.linalg.solve(A, y)
    exact_cov = cross_kernel(spec, Xstar, Xstar) - cross @ np.linalg.solve(A, cross.T)

    cfg = RunConfig(lam=lam, solver_id="sap", blocksize=n, max_iters=1, residual_every=0)

    def solve_fn(orc, rhs):
        return sap_solve(orc, rhs, cfg).W

    prior = ExactPrior(spec, X, Xstar)
    out = pathwise_sample(oracle, prior, y, s, seed=12, solve_fn=solve_fn, Xstar=Xstar)
    emp_mean = out.sample_mean()
    emp_cov = out.sample_covariance()
    mean_se = np.sqrt(np.diag(exact_cov) / s)
    mean_dev = np.max(np.abs(emp_mean - exact_mean) / mean_se)
    var = np.diag(exact_cov)
    cov_se = np.sqrt((np.outer(var, var) + exact_cov**2) / s)
    cov_dev = np.max(np.abs(emp_cov - exact_cov) / cov_se)
    announce(
        7,
        mean_dev <= 4.0 and cov_dev <= 4.0,
        f"mean max dev {mean_dev:.2f} sigma, covariance max dev {cov_dev:.2f} sigma "
        f"(s={s})",
    )


def test_criterion_08_distributed_equivalence():
    rng = np.random.default_rng(13)
    n = 64
    X = rng.standard_normal((n, 3))
    oracle = KernelOracle(KernelSpec("matern32", np.ones(3), 1.0), X, 0.2)
    W = rng.standard_normal((n, 4))
    block = np.sort(rng.choice(n, 20, replace=False))
    omega = rng.standard_normal((20, 6))
    col_ref = col_dist_matmul(oracle, W, block)
    row_ref = row_dist_matmul(oracle, omega, block)
    max_diff = 0.0
    timings = {}
    for workers in (1, 2, 4):
        with WorkerPool(workers) as pool:
            t0 = time.perf_counter()
            col = col_dist_matmul(oracle, W, block, pool)
            t_col = time.perf_counter() - t0
            t0 = time.perf_counter()
            row = row_dist_matmul(oracle, omega, block, pool)
            t_row = time.perf_counter() - t0
        timings[workers] = (t_col, t_row)
        max_diff = max(
            max_diff,
            float(np.abs(col - col_ref).max()),
            float(np.abs(row - row_ref).max()),
        )
    timing_str = ", ".join(
        f"w={w}: col {c * 1e3:.2f}ms row {r * 1e3:.2f}ms" for w, (c, r) in timings.items()
    )
    announce(8, max_diff == 0.0, f"max abs diff {max_diff}; phase timings {timing_str}")


def test_criterion_09_ill_conditioned_ordering():
    passes = {"adasap": [], "adasap_i": [], "sdd1": []}
    divergences = 0
    for seed in range(5):
        problem = SyntheticSpectrumProblem.poly(
            2000, 3.0, 1e-6, seed=seed, normalize="trace", basis="local"
        )
        oracle, y = problem.oracle, problem.y
        base = dict(lam=1e-6, max_passes=60.0, residual_every=5, seed=seed)
        ada = adasap_solve(oracle, y, RunConfig(solver_id="adasap", **base))
        ada_i = adasap_solve(
            oracle, y, RunConfig(solver_id="adasap_i", **base), identity_precond=True
        )
        sdd1 = sdd_solve(
            oracle, y, RunConfig(solver_id="sdd", stepsize_scale=1.0, **base)
        )
        sdd100 = sdd_solve(
            oracle, y,
            RunConfig(solver_id="sdd", stepsize_scale=100.0, lam=1e-6,
                      max_passes=60.0, residual_every=1, seed=seed),
        )
        passes["adasap"].append(ada.trace.passes_to(1e-3))
        passes["adasap_i"].append(ada_i.trace.passes_to(1e-3))
        passes["sdd1"].append(sdd1.trace.passes_to(1e-3))
        divergences += int(sdd100.diverged)
    med = {k: float(np.median(v)) for k, v in passes.items()}
    ok = (
        med["adasap"] < med["adasap_i"]
        and med["adasap"] < med["sdd1"]
        and divergences == 5
    )
    announce(
        9,
        ok,
        f"median passes to 1e-3: adasap {med['adasap']:.2f}, "
        f"adasap_i {med['adasap_i']:.2f}, sdd1 {med['sdd1']}, "
        f"sdd100 diverged {divergences}/5",
    )


def test_criterion_10_sublinear_iteration_count():
    start = time.perf_counter()
    report = verify_sublinear_iterations(
        n=512, beta=2.0, lam=1e-4, num_top=8, epsilon=0.1, constant=8.0,
        trials=20, seed=14,
    )
    elapsed = time.perf_counter() - start
    announce(
        10,
        report.passed,
        f"{report.details['successes']}/20 trials reached 0.1 of the target "
        f"subspace norm within {report.details['iteration_budget']} iterations, "
        f"{elapsed:.0f}s",
    )
