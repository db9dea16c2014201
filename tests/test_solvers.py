from types import SimpleNamespace

import numpy as np
import pytest

from sapgp import (
    AccelParams,
    ContractError,
    DenseOracle,
    KernelOracle,
    KernelSpec,
    NystromFactor,
    RunConfig,
    adasap_solve,
    adasap_step,
    nesterov_update,
    pcg_solve,
    sap_solve,
    sap_step,
    sdd_solve,
    solve,
)
from sapgp.dist import TILE
from sapgp.randnla import rand_power_stepsize
from sapgp.rng import substream
from sapgp.solvers import SolverState, TailAverager, resolve_accel
from sapgp.theory import SyntheticSpectrumProblem


def rbf_oracle(n, lam, seed=0, ls=0.5, d=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    spec = KernelSpec("rbf", np.full(d, ls), 1.0)
    return KernelOracle(spec, X, lam), rng


def system_matrix(oracle):
    return oracle.dense() + oracle.lam * np.eye(oracle.n)


# ---------------------------------------------------------------------------
# accelerated update pieces


def test_accel_params_equal_pair():
    params = AccelParams(0.25, 0.25)
    assert params.beta == 0.0
    assert params.gamma == pytest.approx(4.0)
    assert params.alpha == pytest.approx(0.5)


def test_accel_params_positive():
    with pytest.raises(ContractError):
        AccelParams(0.0, 1.0)


def updated(W, V, Z, block, d, eta, beta, gamma, alpha):
    """Copies of (W, V, Z) after the in-place ``nesterov_update``."""
    Wn, Vn, Zn = W.copy(), V.copy(), Z.copy()
    nesterov_update(Wn, Vn, Zn, block, d, eta, beta, gamma, alpha, np.empty_like(W))
    return Wn, Vn, Zn


def test_nesterov_degenerate_coefficients():
    rng = np.random.default_rng(0)
    W, V, Z, D = (rng.standard_normal((6, 2)) for _ in range(4))
    Wn, Vn, Zn = updated(W, V, Z, np.arange(6), D, 0.7, beta=1.0, gamma=0.0, alpha=0.0)
    assert np.array_equal(Vn, V)
    assert np.allclose(Wn, Z - 0.7 * D)
    assert np.array_equal(Zn, Wn)


def test_nesterov_zero_direction_fixed_point():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((5, 1))
    Wn, Vn, Zn = updated(W, W, W, np.arange(5), np.zeros_like(W), 1.0, 0.5, 2.0, 0.3)
    assert np.allclose(Wn, W) and np.allclose(Vn, W) and np.allclose(Zn, W)


def nesterov_reference(W, V, Z, direction, eta, beta, gamma, alpha):
    """The out-of-place update over a full-size direction (zero off the block)."""
    W_next = Z - eta * direction
    V_next = beta * V + (1.0 - beta) * Z - (gamma * eta) * direction
    Z_next = alpha * V + (1.0 - alpha) * W_next
    return W_next, V_next, Z_next


@pytest.mark.parametrize("seed", range(8))
def test_nesterov_in_place_matches_out_of_place(seed):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 40), rng.integers(1, 4)
    W, V, Z = (rng.standard_normal((n, m)) for _ in range(3))
    block = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    d = rng.standard_normal((block.size, m))
    accel = AccelParams(rng.uniform(1e-4, 1.0), rng.uniform(1.0, 50.0))
    eta = rng.uniform(0.1, 2.0)
    coeffs = (eta, accel.beta, accel.gamma, accel.alpha)
    direction = np.zeros_like(W)
    direction[block] = d
    want = nesterov_reference(W, V, Z, direction, *coeffs)
    got = updated(W, V, Z, block, d, *coeffs)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()  # every row, inside the block or not


def test_nesterov_rejects_aliased_arrays():
    W = np.zeros((4, 1))
    with pytest.raises(ContractError):
        nesterov_update(W, W, W, np.arange(2), np.ones((2, 1)), 1.0, 0.5, 2.0, 0.3, W.copy())
    with pytest.raises(ContractError):
        nesterov_update(W, W.copy(), W.copy(), np.arange(2), np.ones((2, 1)), 1.0, 0.5, 2.0,
                        0.3, W[:, :1])


def test_tail_average_batch_and_streaming():
    rng = np.random.default_rng(2)
    iterates = [rng.standard_normal((4, 2)) for _ in range(9)]
    total = 10  # window = indices 5..9 -> here iterates 5..8 exist plus 9th
    averager = TailAverager(total, (4, 2))
    for idx, w in enumerate(iterates, start=1):
        averager.add(idx, w)
    batch = np.mean(iterates[4:9], axis=0)  # indices 5..9
    assert np.abs(averager.average() - batch).max() < 1e-12


def test_tail_average_two_term_window():
    a, b = np.full((2, 1), 3.0), np.full((2, 1), 5.0)
    averager = TailAverager(4, (2, 1))
    for idx, w in [(1, np.zeros((2, 1))), (2, a), (3, b)]:
        averager.add(idx, w)
    assert np.allclose(averager.average(), 4.0)


def test_tail_average_constant_iterates():
    w = np.ones((3, 1))
    averager = TailAverager(6, (3, 1))
    for idx in range(1, 7):
        averager.add(idx, w)
    assert np.allclose(averager.average(), w)


def test_tail_average_empty_window():
    averager = TailAverager(4, (2, 1))
    averager.add(1, np.ones((2, 1)))  # before the window opens at index 2
    with pytest.raises(ContractError):
        averager.average()


# ---------------------------------------------------------------------------
# exact sketch-and-project


def test_sap_full_block_is_direct_solve():
    oracle, rng = rbf_oracle(30, 0.3)
    Y = rng.standard_normal((30, 2))
    state = SolverState.zeros(30, 2)
    sap_step(oracle, state, np.arange(30), Y)
    ref = np.linalg.solve(system_matrix(oracle), Y)
    assert np.linalg.norm(state.W - ref) / np.linalg.norm(ref) <= 1e-8


def test_sap_single_point_system():
    oracle, rng = rbf_oracle(1, 0.2, d=1)
    Y = np.array([[2.0]])
    state = SolverState.zeros(1, 1)
    sap_step(oracle, state, np.array([0]), Y)
    assert state.W[0, 0] == pytest.approx(2.0 / (1.0 + 0.2))


def test_sap_step_annihilates_block_residual():
    oracle, rng = rbf_oracle(50, 0.1)
    Y = rng.standard_normal((50, 1))
    A = system_matrix(oracle)
    state = SolverState.zeros(50, 1)
    state.W[:] = rng.standard_normal((50, 1))
    block = np.sort(rng.choice(50, 12, replace=False))
    sap_step(oracle, state, block, Y)
    residual = A @ state.W - Y
    assert np.abs(residual[block]).max() <= 1e-8 * np.linalg.norm(Y)


def test_sap_state_aliases_without_acceleration():
    state = SolverState.zeros(5, 1)
    assert state.V is state.W and state.Z is state.W


def test_sap_zero_rhs_stays_zero():
    oracle, _ = rbf_oracle(20, 0.5)
    cfg = RunConfig(lam=0.5, solver_id="sap", blocksize=5, max_iters=30, residual_every=10)
    res = sap_solve(oracle, np.zeros(20), cfg)
    assert np.all(res.W == 0.0)
    assert res.trace.final_residual() == 0.0


def test_sap_converges_and_median_residual_monotone():
    n, lam = 100, 0.5
    finals = []
    traces = []
    for seed in range(20):
        oracle, rng = rbf_oracle(n, lam, seed=seed)
        y = rng.standard_normal(n)
        cfg = RunConfig(
            lam=lam, solver_id="sap", blocksize=20, max_iters=500, seed=seed,
            residual_every=25,
        )
        res = sap_solve(oracle, y, cfg)
        finals.append(res.trace.final_residual())
        residuals = res.trace.residuals()
        traces.append(residuals[np.isfinite(residuals)])
    assert np.median(finals) < 1e-4
    median_curve = np.median(np.vstack(traces), axis=0)
    assert np.all(np.diff(median_curve) <= 1e-12)


def test_sap_expected_error_monotone():
    # median over seeds of the squared system-norm error is nonincreasing
    problem = SyntheticSpectrumProblem.poly(60, 2.0, 1e-2, seed=3)
    A = problem.oracle.K + problem.lam * np.eye(60)
    errors = []
    for seed in range(30):
        cfg = RunConfig(lam=problem.lam, solver_id="sap", blocksize=10,
                        max_iters=120, seed=seed, residual_every=0)
        trail = []
        sap_solve(problem.oracle, problem.y, cfg,
                  on_iterate=lambda t, W: trail.append(
                      float((W[:, 0] - problem.w_star) @ (A @ (W[:, 0] - problem.w_star)))))
        errors.append(trail)
    median = np.median(np.array(errors), axis=0)
    assert np.all(np.diff(median) <= 1e-10 * median[0])


def test_sap_tail_average_of_constant_tail():
    oracle, rng = rbf_oracle(15, 0.5)
    y = rng.standard_normal(15)
    # full blocks: converged after step one, so every windowed iterate equals
    # the solution and the tail average matches it
    cfg = RunConfig(lam=0.5, solver_id="sap", blocksize=15, max_iters=6,
                    tail_average=True, residual_every=0)
    res = sap_solve(oracle, y, cfg)
    ref = np.linalg.solve(system_matrix(oracle), y)
    assert np.linalg.norm(res.W - ref) / np.linalg.norm(ref) < 1e-10


def _kdpp_reference(problem, model, seed, iters, tol=None):
    """k-DPP SAP one step at a time, each block drawn on its own: W and the
    relative residual after every step, stopping once it reaches ``tol``."""
    Y = problem.y[:, None]
    ynorm = max(np.linalg.norm(Y), np.finfo(np.float64).tiny)
    state = SolverState.zeros(problem.n, 1)
    residuals = []
    for t in range(iters):
        block = model.sample(substream(seed, "block", t))
        sap_step(problem.oracle, state, block, Y)
        res = problem.oracle.matmul(state.W) + problem.oracle.lam * state.W - Y
        residuals.append(float(np.linalg.norm(res) / ynorm))
        if tol is not None and residuals[-1] <= tol:
            break
    return state.W[:, 0], np.array(residuals)


@pytest.mark.parametrize("iters", [5, 16, 37])
def test_sap_kdpp_matches_one_block_at_a_time(iters):
    problem = SyntheticSpectrumProblem.poly(64, 2.0, 1e-3, seed=3)
    model = problem.dpp_model(8)
    cfg = RunConfig(lam=1e-3, solver_id="sap", sampler="kdpp", max_iters=iters,
                    residual_every=1, seed=7)
    res = sap_solve(problem.oracle, problem.y, cfg, sampler="kdpp", dpp_model=model)
    W_ref, residuals = _kdpp_reference(problem, model, 7, iters)
    assert res.iterations == iters
    assert np.array_equal(res.W, W_ref)
    assert np.array_equal(res.trace.residuals(), residuals)


def test_sap_kdpp_tol_stop_mid_chunk_matches_one_block_at_a_time():
    problem = SyntheticSpectrumProblem.poly(64, 2.0, 1e-3, seed=3)
    model = problem.dpp_model(8)
    _, full = _kdpp_reference(problem, model, 7, 60)
    # the first iteration whose residual is a new minimum past step 16,
    # at a position inside the second chunk
    stop = next(t for t in range(17, 60) if full[t] < full[:t].min() and (t + 1) % 16)
    tol = float(full[stop])
    cfg = RunConfig(lam=1e-3, solver_id="sap", sampler="kdpp", max_iters=60,
                    residual_every=1, seed=7, tol=tol)
    res = sap_solve(problem.oracle, problem.y, cfg, sampler="kdpp", dpp_model=model)
    W_ref, residuals = _kdpp_reference(problem, model, 7, 60, tol=tol)
    assert res.iterations == stop + 1 == residuals.size
    assert np.array_equal(res.W, W_ref)
    assert np.array_equal(res.trace.residuals(), residuals)


@pytest.mark.parametrize("solver_id", ["sap", "adasap"])
def test_tail_average_trace_reports_returned_iterate(solver_id):
    oracle, rng = rbf_oracle(200, 1e-2)
    y = rng.standard_normal(200)
    cfg = RunConfig(lam=1e-2, solver_id=solver_id, blocksize=20, max_iters=40,
                    tail_average=True, residual_every=1)
    res = solve(oracle, y, cfg)
    relres = np.linalg.norm(oracle.matmul(res.W) + 1e-2 * res.W - y) / np.linalg.norm(y)
    assert abs(res.trace.final_residual() - relres) <= 1e-12


# ---------------------------------------------------------------------------
# approximate accelerated variant


def test_adasap_pooled_residual_checks_match_serial():
    oracle, rng = rbf_oracle(2 * 256 + 40, 1e-2)
    y = rng.standard_normal(oracle.n)
    kw = dict(lam=1e-2, solver_id="adasap", blocksize=50, nystrom_rank=20, tol=0.2,
              residual_every=3, max_passes=30, seed=4)
    pooled = solve(oracle, y, RunConfig(num_workers=2, **kw))
    serial = solve(oracle, y, RunConfig(num_workers=1, **kw))
    assert not pooled.diverged and pooled.passes < 30  # stopped by tol
    assert pooled.iterations == serial.iterations
    W = pooled.W[:, None]
    res = oracle.matmul(W) + oracle.lam * W - y[:, None]
    assert pooled.trace.final_residual() == float(np.linalg.norm(res) / np.linalg.norm(y))
    assert np.array_equal(pooled.W, serial.W)
    assert np.array_equal(pooled.trace.residuals(), serial.trace.residuals(), equal_nan=True)


def test_adasap_full_rank_matches_sap_direction():
    # rank-deficient block: the Nystrom damping vanishes, so the step equals
    # the exact projection step scaled by the (near-one) stepsize
    rng = np.random.default_rng(4)
    n = 24
    G = rng.standard_normal((n, n - 4))
    oracle = DenseOracle(G @ G.T, 0.4)
    y = rng.standard_normal((n, 1))
    cfg = RunConfig(lam=0.4, solver_id="adasap", blocksize=n, nystrom_rank=n,
                    max_iters=1, mu=1.0, nu=1.0, residual_every=0)
    accel = resolve_accel(cfg, n, n)
    state = SolverState.zeros(n, 1, accelerated=True)
    state, eta, block = adasap_step(oracle, state, y, cfg, accel)
    assert abs(eta - 1.0) <= 1e-6
    sap_state = SolverState.zeros(n, 1)
    sap_step(oracle, sap_state, np.arange(n), y)
    ada_dir = state.W[:, 0]
    sap_dir = sap_state.W[:, 0]
    cosine = ada_dir @ sap_dir / (np.linalg.norm(ada_dir) * np.linalg.norm(sap_dir))
    assert cosine >= 1.0 - 1e-8


def test_adasap_step_rejects_an_aliased_state():
    oracle, rng = rbf_oracle(30, 0.3, seed=6)
    y = rng.standard_normal((30, 1))
    cfg = RunConfig(lam=0.3, solver_id="adasap", blocksize=6, max_iters=1)
    accel = resolve_accel(cfg, 30, 6)
    plain = SolverState.zeros(30, 1)  # V and Z alias W
    with pytest.raises(ContractError):
        adasap_step(oracle, plain, y, cfg, accel)
    aliased = SolverState.zeros(30, 1, accelerated=True)
    aliased.scratch = aliased.V
    with pytest.raises(ContractError):
        adasap_step(oracle, aliased, y, cfg, accel)


def test_adasap_step_reuses_or_replaces_its_block_buffer():
    oracle, rng = rbf_oracle(40, 0.3, seed=7)
    y = rng.standard_normal((40, 2))
    cfg = RunConfig(lam=0.3, solver_id="adasap", blocksize=8, nystrom_rank=4, max_iters=1)
    accel = resolve_accel(cfg, 40, 8)
    fresh = SolverState.zeros(40, 2, accelerated=True)
    adasap_step(oracle, fresh, y, cfg, accel)
    for stale in (np.full((8, 8), np.nan), np.full((5, 5), np.nan)):
        state = SolverState.zeros(40, 2, accelerated=True)
        state.kbb = stale
        adasap_step(oracle, state, y, cfg, accel)
        assert state.kbb.shape == (8, 8)
        assert np.array_equal(state.W, fresh.W) and np.array_equal(state.Z, fresh.Z)


def test_adasap_identity_equals_plain_block_descent():
    oracle, rng = rbf_oracle(40, 0.3, seed=5)
    y = rng.standard_normal(40)
    cfg = RunConfig(lam=0.3, solver_id="adasap_i", blocksize=8, max_iters=25,
                    seed=11, residual_every=0)
    plain = SimpleNamespace(beta=1.0, gamma=0.0, alpha=0.0)
    res = adasap_solve(oracle, y, cfg, identity_precond=True, accel=plain)
    # reference: plain block coordinate descent drawing the same substreams
    w = np.zeros(40)
    lam = 0.3
    for t in range(25):
        block = np.sort(substream(11, "block", t).choice(40, 8, replace=False))
        Kbb = oracle.block(block)
        grad = oracle.matmul(w)[block] + lam * w[block] - y[block]
        eta = rand_power_stepsize(
            lambda v: Kbb @ v + lam * v,
            NystromFactor.empty(8), 1.0, seed=substream(11, "power", t),
        )
        w[block] -= eta * grad
    assert np.abs(res.W - w).max() <= 1e-12


def test_adasap_converges_to_constructed_solution():
    oracle, _ = rbf_oracle(200, 1.0, seed=6, ls=0.4)
    ones = np.ones(200)
    y = oracle.matmul(ones) + 1.0 * ones
    cfg = RunConfig(lam=1.0, solver_id="adasap", blocksize=25, nystrom_rank=25,
                    max_iters=200, residual_every=20)
    res = adasap_solve(oracle, y, cfg)
    assert np.linalg.norm(res.W - ones) / np.linalg.norm(ones) <= 1e-3


@pytest.mark.parametrize("residual_every", [0, 300])
def test_adasap_divergence_detected_between_residual_checks(residual_every):
    # an oversized momentum pair overflows the iterates long before a residual is due
    oracle, rng = rbf_oracle(200, 1e-2)
    y = rng.standard_normal(200)
    cfg = RunConfig(lam=1e-2, solver_id="adasap", blocksize=20, nystrom_rank=10,
                    mu=10.0, nu=0.01, max_iters=300, residual_every=residual_every)
    with np.errstate(over="ignore", invalid="ignore"):
        res = adasap_solve(oracle, y, cfg)
    assert res.diverged
    assert res.iterations < 300
    assert res.trace.records[-1].residual == np.inf


def test_solver_dispatch_unknown():
    oracle, rng = rbf_oracle(10, 0.5)
    cfg = RunConfig(lam=0.5, max_iters=2)
    cfg.solver_id = "nope"
    with pytest.raises(Exception):
        solve(oracle, rng.standard_normal(10), cfg)


# ---------------------------------------------------------------------------
# stochastic dual descent baseline


def test_sdd_zero_stepsize_freezes():
    oracle, rng = rbf_oracle(30, 0.5)
    y = rng.standard_normal(30)
    cfg = RunConfig(lam=0.5, solver_id="sdd", stepsize_scale=0.0, blocksize=5,
                    max_iters=50, residual_every=10)
    res = sdd_solve(oracle, y, cfg)
    assert np.all(res.W == 0.0)
    assert not res.diverged


def test_sdd_converges_on_well_conditioned_problem():
    # near-diagonal kernel, lam = 1: residual drops 10x within 50 passes
    oracle, rng = rbf_oracle(100, 1.0, seed=7, ls=0.05)
    y = rng.standard_normal(100)
    cfg = RunConfig(lam=1.0, solver_id="sdd", stepsize_scale=1.0, blocksize=10,
                    max_passes=50.0, residual_every=50)
    res = sdd_solve(oracle, y, cfg)
    assert res.trace.final_residual() < 0.1
    assert not res.diverged


def test_sdd_divergence_detector():
    problem = SyntheticSpectrumProblem.poly(
        400, 3.0, 1e-6, seed=8, normalize="trace", basis="local"
    )
    cfg = RunConfig(lam=1e-6, solver_id="sdd", stepsize_scale=100.0,
                    max_passes=40.0, residual_every=1)
    res = sdd_solve(problem.oracle, problem.y, cfg)
    assert res.diverged


def test_sdd_divergence_detected_without_residual_checks():
    oracle, rng = rbf_oracle(200, 1e-3)
    y = rng.standard_normal(200)
    cfg = RunConfig(lam=1e-3, solver_id="sdd", stepsize_scale=1000.0, blocksize=20,
                    max_passes=60.0, residual_every=0)
    res = sdd_solve(oracle, y, cfg)
    assert res.diverged
    assert res.iterations < 600
    assert res.trace.records[-1].residual == np.inf


# ---------------------------------------------------------------------------
# preconditioned conjugate gradient baseline


def test_pcg_identity_system_one_iteration():
    n = 40
    oracle = DenseOracle(np.zeros((n, n)), 1.0)  # system matrix is exactly I
    y = np.random.default_rng(9).standard_normal((n, 2))
    cfg = RunConfig(lam=1.0, solver_id="pcg", nystrom_rank=0, max_iters=10)
    res = pcg_solve(oracle, y, cfg)
    assert res.iterations == 1
    assert np.linalg.norm(res.W - y) <= 1e-12


def test_pcg_rank_zero_matches_plain_cg():
    oracle, rng = rbf_oracle(60, 0.8, seed=10)
    y = rng.standard_normal(60)
    # few enough iterations that roundoff chaos near the noise floor cannot
    # separate two algebraically identical recurrences
    cfg = RunConfig(lam=0.8, solver_id="pcg", nystrom_rank=0, max_iters=8, tol=1e-14)
    res = pcg_solve(oracle, y, cfg)
    x = np.zeros(60)
    r = y.copy()
    p = r.copy()
    rs = r @ r
    for _ in range(res.iterations):
        Ap = oracle.matmul(p) + 0.8 * p
        alpha = rs / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
    assert np.linalg.norm(res.W - x) <= 1e-10 * max(1.0, np.linalg.norm(x))


def test_pcg_matches_dense_solve():
    oracle, rng = rbf_oracle(200, 0.05, seed=11)
    y = rng.standard_normal((200, 2))
    cfg = RunConfig(lam=0.05, solver_id="pcg", nystrom_rank=50, tol=1e-8, max_iters=200)
    res = pcg_solve(oracle, y, cfg)
    ref = np.linalg.solve(system_matrix(oracle), y)
    assert np.linalg.norm(res.W - ref) / np.linalg.norm(ref) <= 1e-6


@pytest.mark.parametrize("rank, sketch_passes", [(0, 0.0), (20, 1.0)])
def test_pcg_passes_count_the_sketch(rank, sketch_passes):
    oracle, rng = rbf_oracle(200, 1e-2)
    y = rng.standard_normal(200)
    cfg = RunConfig(lam=1e-2, solver_id="pcg", nystrom_rank=rank, max_iters=14, tol=1e-14)
    res = pcg_solve(oracle, y, cfg)
    assert res.iterations == 14
    assert res.passes == 14.0 + sketch_passes
    assert np.array_equal(res.trace.passes(), np.arange(1, 15) + sketch_passes)


# ---------------------------------------------------------------------------
# trace export


def test_trace_csv_schema(tmp_path):
    oracle, rng = rbf_oracle(20, 0.5)
    cfg = RunConfig(lam=0.5, solver_id="sap", blocksize=5, max_iters=8, residual_every=2)
    res = sap_solve(oracle, rng.standard_normal(20), cfg)
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,seconds,passes,residual,stepsize"
    assert len(lines) == 9
    seconds = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a <= b for a, b in zip(seconds, seconds[1:]))


# ---------------------------------------------------------------------------
# edge sizes: n near the tile width, b = n, rank = b


@pytest.mark.parametrize("solver_id", ["sap", "adasap"])
@pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
def test_edge_sizes_full_block_bitwise_across_workers(solver_id, n):
    oracle, rng = rbf_oracle(n, 1e-2, seed=n)
    Y = rng.standard_normal((n, 2))
    kw = dict(lam=1e-2, solver_id=solver_id, blocksize=n, nystrom_rank=n, max_iters=3,
              residual_every=1, seed=5)
    serial = solve(oracle, Y, RunConfig(num_workers=1, **kw))
    pooled = solve(oracle, Y, RunConfig(num_workers=2, **kw))
    assert not serial.diverged and serial.iterations == 3 and serial.passes == 3.0
    assert np.array_equal(pooled.W, serial.W)
    assert np.array_equal(pooled.trace.residuals(), serial.trace.residuals())
    res = oracle.matmul(serial.W) + oracle.lam * serial.W - Y
    assert serial.trace.final_residual() == float(np.linalg.norm(res) / np.linalg.norm(Y))
