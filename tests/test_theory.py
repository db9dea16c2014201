import numpy as np
import pytest

from sapgp import ContractError, DenseOracle, RunConfig, sap_solve
from sapgp.dpp import expected_projection_mc, smoothed_condition
from sapgp.rng import substream
from sapgp.theory import (
    SpectralBasis,
    SyntheticSpectrumProblem,
    _trial_errors,
    log_grid,
    poly_effective_rank_report,
    subspace_error,
    theorem_bound,
    verify_lemma2,
    verify_linear_rate,
    verify_sublinear_iterations,
    verify_theorem1,
)


def small_problem(n=32, beta=2.0, lam=1e-2, seed=0, **kw):
    return SyntheticSpectrumProblem.poly(n, beta, lam, seed, **kw)


# ---------------------------------------------------------------------------
# planted problems and the spectral basis


def test_planted_spectrum_exact():
    problem = small_problem(n=40)
    A = problem.oracle.K + problem.lam * np.eye(40)
    eigs = np.sort(np.linalg.eigvalsh(A))[::-1]
    assert np.abs(eigs - problem.system_eigvals).max() <= 1e-10


def test_planted_solution_consistent():
    problem = small_problem()
    A = problem.oracle.K + problem.lam * np.eye(problem.n)
    assert np.abs(A @ problem.w_star - problem.y).max() <= 1e-10
    assert problem.sol_norm_sq == pytest.approx(problem.w_star @ A @ problem.w_star)


def test_gaussian_response_mode():
    problem = small_problem(response="gaussian")
    A = problem.oracle.K + problem.lam * np.eye(problem.n)
    assert np.abs(A @ problem.w_star - problem.y).max() <= 1e-10


def test_local_basis_orthogonal():
    problem = small_problem(n=100, basis="local")
    V = problem.basis.eigvecs
    assert np.abs(V.T @ V - np.eye(100)).max() <= 1e-10


def test_spectral_basis_functions_unit_norm():
    problem = small_problem(n=24)
    K = problem.oracle.K
    V = problem.basis.eigvecs
    lams = problem.basis.kernel_eigvals
    for j in range(24):
        coeff = V[:, j] / np.sqrt(lams[j])
        assert coeff @ K @ coeff == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# subspace error metric


def test_subspace_error_zero_at_solution():
    problem = small_problem()
    err = subspace_error(problem.basis, problem.w_star, problem.w_star, 5)
    assert err.rkhs == 0.0 and err.regularized == 0.0


def test_subspace_error_full_projection_is_total_error():
    problem = small_problem()
    rng = np.random.default_rng(1)
    w = problem.w_star + rng.standard_normal(problem.n)
    err = subspace_error(problem.basis, w, problem.w_star, problem.n)
    A = problem.oracle.K + problem.lam * np.eye(problem.n)
    delta = w - problem.w_star
    assert err.regularized == pytest.approx(delta @ A @ delta, rel=1e-10)


def test_subspace_error_top_eigenvector():
    problem = small_problem()
    v1 = problem.basis.eigvecs[:, 0]
    w = problem.w_star + v1
    top = subspace_error(problem.basis, w, problem.w_star, 1)
    assert top.regularized == pytest.approx(problem.system_eigvals[0])
    assert top.rkhs == pytest.approx(problem.basis.kernel_eigvals[0])
    full = subspace_error(problem.basis, w, problem.w_star, problem.n)
    assert full.regularized == pytest.approx(top.regularized)


def test_subspace_error_contraction():
    problem = small_problem()
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = problem.w_star + rng.standard_normal(problem.n)
        for ell in (1, 4, 16, problem.n):
            err = subspace_error(problem.basis, w, problem.w_star, ell)
            full = subspace_error(problem.basis, w, problem.w_star, problem.n)
            assert err.regularized <= full.regularized + 1e-12
            assert err.rkhs <= err.regularized


def test_rkhs_identity_against_function_space():
    # || proj_l(m') - proj_l(m_n) ||_H^2 computed through kernel inner
    # products agrees with the coefficient-space formula
    problem = small_problem(n=30, lam=0.05)
    K = problem.oracle.K
    basis = problem.basis
    rng = np.random.default_rng(3)
    w = problem.w_star + rng.standard_normal(30)
    delta = w - problem.w_star
    ell = 7
    fs = 0.0
    for j in range(ell):
        inner = (delta @ K @ basis.eigvecs[:, j]) / np.sqrt(basis.kernel_eigvals[j])
        fs += inner**2
    err = subspace_error(basis, w, problem.w_star, ell)
    assert abs(fs - err.rkhs) <= 1e-10 * max(1.0, fs)


# ---------------------------------------------------------------------------
# bounds and grids


def test_log_grid_even():
    assert log_grid(2000) == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2000]
    assert log_grid(16) == [2, 4, 8, 16]


def test_theorem_bound_monotone_in_t():
    problem = small_problem(n=64, lam=1e-3)
    values = []
    for t in range(2, 400, 2):
        bound, _ = theorem_bound(problem.system_eigvals, 8, 4, t, 1.0)
        values.append(bound)
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_effective_rank_poly_decay():
    spectrum = np.arange(1, 1001, dtype=np.float64) ** -2.0
    grown = np.arange(1, 4001, dtype=np.float64) ** -2.0
    small = smoothed_condition(spectrum, 20, 10)
    large = smoothed_condition(grown, 20, 10)
    assert abs(large - small) < 0.1 * small
    report = poly_effective_rank_report(2.0, 10, 1000)
    assert report.passed


def test_effective_rank_geometric_decay_vanishes():
    spectrum = 0.5 ** np.arange(400)
    values = [smoothed_condition(spectrum, 2 * ell, ell) for ell in (2, 8, 32)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-8


def test_smoothed_condition_full_blocksize_zero():
    spectrum = np.arange(1, 51, dtype=np.float64) ** -2.0
    assert smoothed_condition(spectrum, 50, 1) == 0.0


# ---------------------------------------------------------------------------
# verification suites (small smoke configurations)


def test_verify_lemma2_small():
    problem = small_problem(n=32, beta=2.0, lam=1e-3, seed=4)
    report = verify_lemma2(problem, half_blocksize=4, num_samples=1000, seed=4)
    assert report.passed


def test_verify_lemma2_flat_spectrum_symmetry():
    # flat spectrum: every diagonal entry of the expected projection is 2b/n
    n, half = 24, 3
    basis = SpectralBasis(np.full(n, 2.0), np.eye(n), 1e-12)
    problem = SyntheticSpectrumProblem(
        basis, DenseOracle(2.0 * np.eye(n), 1e-12), np.zeros(n), np.zeros(n)
    )
    model = problem.dpp_model(2 * half)
    est = expected_projection_mc(model, 1500, seed=5, basis="eigen")
    diag = est.diagonal()
    expected = 2 * half / n
    assert np.all(np.abs(diag - expected) <= 4 * est.diagonal_stderr() + 1e-9)


def test_verify_lemma2_near_low_rank():
    # spectrum with a hard drop at rank b: diagonal entries near 1 up front
    n, half = 24, 4
    eigs = np.concatenate([np.linspace(4.0, 2.0, 2 * half), np.full(n - 2 * half, 1e-12)])
    basis = SpectralBasis(eigs, np.eye(n), 0.0)
    # system eigenvalues equal `eigs` here (lam folded in already)
    model = __import__("sapgp").DppModel(eigs, np.eye(n), 2 * half)
    est = expected_projection_mc(model, 800, seed=6, basis="eigen")
    assert est.diagonal()[: 2 * half].min() > 0.9


def test_verify_theorem1_small():
    problem = small_problem(n=64, beta=2.0, lam=1e-3, seed=7)
    report = verify_theorem1(
        problem, half_blocksize=8, num_top=4, trials=12, iters=128, seed=7
    )
    assert report.passed
    assert report.gridpoints[0].t == 2


def test_verify_theorem1_rejects_out_of_range_subspace():
    problem = small_problem(n=32)
    with pytest.raises(ContractError):
        verify_theorem1(problem, half_blocksize=4, num_top=33, trials=2, iters=8, seed=0)


def test_verify_theorem1_full_space_linear_branch():
    # num_top = n: Q_n = I, the linear branch carries the bound
    problem = small_problem(n=48, beta=2.0, lam=1e-2, seed=12)
    report = verify_theorem1(
        problem, half_blocksize=8, num_top=48, trials=10, iters=64, seed=12
    )
    assert report.passed


def test_verify_theorem1_uniform_ablation_not_asserted():
    problem = small_problem(n=48, beta=2.0, lam=1e-2, seed=13)
    report = verify_theorem1(
        problem, half_blocksize=8, num_top=4, trials=5, iters=32, seed=13,
        sampler="uniform",
    )
    assert report.passed  # informational: no bound verdict for uniform blocks
    assert report.details["bound_asserted"] is False
    assert len(report.gridpoints) > 0


def test_verify_linear_rate_small():
    problem = small_problem(n=48, beta=2.0, lam=1e-2, seed=8)
    report = verify_linear_rate(
        problem, half_blocksize=6, trials=16, iters=96, seed=8,
        projection_samples=600,
    )
    assert report.passed
    assert 0.0 < report.details["rate_estimate"] < 1.0


def test_verify_linear_rate_near_full_blocks():
    # 2b = n - 2: the expected projection is close to the identity and the
    # error collapses within a handful of iterations
    problem = small_problem(n=16, beta=2.0, lam=1e-2, seed=14)
    report = verify_linear_rate(
        problem, half_blocksize=7, trials=12, iters=8, seed=14,
        projection_samples=500,
    )
    assert report.passed
    assert report.details["rate_estimate"] > 0.6
    assert report.gridpoints[-1].mean <= 1e-6 * report.details["initial_error"]


def test_verify_sublinear_iterations_small():
    report = verify_sublinear_iterations(
        n=64, beta=2.0, lam=1e-3, num_top=2, epsilon=0.25, constant=8.0,
        trials=6, seed=9,
    )
    assert report.details["successes"] >= 5


def per_trial_errors(problems, model, grid, seed, tail, error):
    """``_trial_errors`` as one one-column ``sap_solve`` per trial."""
    rows = []
    for trial, problem in enumerate(problems):
        trial_seed = int(substream(seed, "trial", trial).integers(2**63))
        iterates = [np.zeros(problem.n)]
        config = RunConfig(lam=problem.lam, solver_id="sap", max_iters=grid[-1],
                           residual_every=0, seed=trial_seed)
        sap_solve(problem.oracle, problem.y, config, dpp_model=model,
                  on_iterate=lambda idx, W: iterates.append(W[:, 0].copy()))
        if tail:
            walls = [sum(iterates[t // 2:t]) / (t - t // 2) for t in grid]
        else:
            walls = [iterates[t] for t in grid]
        rows.append([error(problem, w) for w in walls])
    return np.array(rows)


@pytest.mark.parametrize("tail", [True, False])
def test_trial_errors_match_one_solve_per_trial(tail):
    # fresh responses on one planted matrix, as the iteration-count check builds them
    base = small_problem(n=64, lam=1e-3, seed=5, response="gaussian")
    problems = [base.with_response(int(substream(5, "response", trial).integers(2**63)))
                for trial in range(3)]
    model = base.dpp_model(8)
    grid = log_grid(40)

    def error(p, w):
        return subspace_error(p.basis, w, p.w_star, 4).rkhs

    lockstep = _trial_errors(problems, model, grid, 6, tail, error)
    reference = per_trial_errors(problems, model, grid, 6, tail, error)
    assert lockstep.shape == (3, len(grid))
    np.testing.assert_allclose(lockstep, reference, rtol=1e-9, atol=0.0)


def test_lockstep_trials_need_problems_on_one_oracle():
    problems = [small_problem(seed=1), small_problem(seed=2)]
    with pytest.raises(ContractError, match="share one oracle"):
        _trial_errors(problems, None, log_grid(4), 0, False, lambda p, w: 0.0, blocksize=4)


def test_report_serialization(tmp_path):
    problem = small_problem(n=32, seed=10)
    report = verify_lemma2(problem, half_blocksize=4, num_samples=400, seed=10)
    report.to_csv(tmp_path / "r.csv")
    import json

    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["suite"] == "lemma2"
    assert "pass" in payload
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "t,mean,stderr,bound,pass"
    assert len(lines) == 33
