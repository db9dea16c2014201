import json
import math
import re
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sapgp import (
    AccelParams,
    ConfigError,
    ContractError,
    DenseOracle,
    DppModel,
    KernelOracle,
    KernelSpec,
    NumericalError,
    NystromFactor,
    RunConfig,
    WorkerPool,
    adasap_solve,
    adasap_step,
    nesterov_update,
    pcg_solve,
    relative_residual,
    sap_solve,
    sap_step,
    sdd_solve,
    solve,
)
from sapgp import cli, solvers
from sapgp.dist import TILE
from sapgp.randnla import rand_power_stepsize
from sapgp.rng import substream
from sapgp.solvers import TailAverager, _drive, adasap_prepare, resolve_accel
from sapgp.theory import SyntheticSpectrumProblem


def rbf_oracle(n, lam, seed=0, ls=0.5, d=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    spec = KernelSpec("rbf", np.full(d, ls), 1.0)
    return KernelOracle(spec, X, lam), rng


def system_matrix(oracle):
    return oracle.dense() + oracle.lam * np.eye(oracle.n)


# the solvers that read each setting outside the group every solver reads, and
# a value other than its default
READ_BY = {
    "blocksize": (("sap", "adasap", "adasap_i", "sdd"), 4),
    "nystrom_rank": (("adasap", "pcg"), 2),
    "tail_average": (("sap", "adasap", "adasap_i"), True),
    "mu": (("adasap", "adasap_i"), 2.0),
    "nu": (("adasap", "adasap_i"), 3.0),
    "stepsize_scale": (("sdd",), 1.0),
}
IGNORED = [(solver, key) for key, (readers, _) in READ_BY.items()
           for solver in ("sap", "adasap", "adasap_i", "sdd", "pcg") if solver not in readers]


def config_for(solver_id, **settings):
    """``RunConfig(solver_id=solver_id, **settings)`` without the settings of
    READ_BY that ``solver_id`` does not read."""
    return RunConfig(solver_id=solver_id, **{key: value for key, value in settings.items()
                                             if key not in READ_BY or solver_id in READ_BY[key][0]})


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
    nesterov_update(Wn, Vn, Zn, block, d, eta, beta, gamma, alpha)
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
        nesterov_update(W, W, W, np.arange(2), np.ones((2, 1)), 1.0, 0.5, 2.0, 0.3)
    with pytest.raises(ContractError):
        nesterov_update(W, W.copy(), W[:, :1], np.arange(2), np.ones((2, 1)), 1.0, 0.5, 2.0,
                        0.3)


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


def true_residual(oracle, W, Y):
    return oracle.matmul(W) + oracle.lam * W - Y


def exact_step(oracle, W, Y, block):
    """One ``sap_step`` from W, its residual formed by a full product."""
    sap_step(oracle, W, true_residual(oracle, W, Y), block,
             oracle.block(block) + oracle.lam * np.eye(block.size))


def orthonormal(dim, rank, seed=0):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, rank)))[0]


def test_sap_full_block_is_direct_solve():
    oracle, rng = rbf_oracle(30, 0.3)
    Y = rng.standard_normal((30, 2))
    W = np.zeros((30, 2))
    exact_step(oracle, W, Y, np.arange(30))
    ref = np.linalg.solve(system_matrix(oracle), Y)
    assert np.linalg.norm(W - ref) / np.linalg.norm(ref) <= 1e-8


def test_sap_single_point_system():
    oracle, rng = rbf_oracle(1, 0.2, d=1)
    Y = np.array([[2.0]])
    W = np.zeros((1, 1))
    exact_step(oracle, W, Y, np.array([0]))
    assert W[0, 0] == pytest.approx(2.0 / (1.0 + 0.2))


def test_sap_step_annihilates_block_residual():
    oracle, rng = rbf_oracle(50, 0.1)
    Y = rng.standard_normal((50, 1))
    A = system_matrix(oracle)
    W = rng.standard_normal((50, 1))
    block = np.sort(rng.choice(50, 12, replace=False))
    exact_step(oracle, W, Y, block)
    residual = A @ W - Y
    assert np.abs(residual[block]).max() <= 1e-8 * np.linalg.norm(Y)


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
    """k-DPP SAP one step at a time, each block drawn on its own, carrying the
    residual as the solver does: W and the recorded relative residual after
    every step. A carried value at or below ``tol`` is replaced by the true
    one, which stops the run if it reaches ``tol`` too."""
    oracle = problem.oracle
    Y = problem.y[:, None]
    W = np.zeros((problem.n, 1))
    r = -Y
    residuals = []
    for t in range(iters):
        block = model.sample(substream(seed, "block", t))
        H = oracle.block(block) + oracle.lam * np.eye(block.size)
        residuals.append(math.sqrt(sap_step(oracle, W, r, block, H)) / np.linalg.norm(Y))
        if tol is not None and residuals[-1] <= tol:
            residuals[-1] = relative_residual(oracle, W, Y)
            if residuals[-1] <= tol:
                break
    return W[:, 0], np.array(residuals)


@pytest.mark.parametrize("iters", [5, 16, 37])
def test_sap_kdpp_matches_one_block_at_a_time(iters):
    problem = SyntheticSpectrumProblem.poly(64, 2.0, 1e-3, seed=3)
    model = problem.dpp_model(8)
    cfg = RunConfig(lam=1e-3, solver_id="sap", max_iters=iters, residual_every=1, seed=7)
    res = sap_solve(problem.oracle, problem.y, cfg, dpp_model=model)
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
    cfg = RunConfig(lam=1e-3, solver_id="sap", max_iters=60, residual_every=1, seed=7,
                    tol=tol)
    res = sap_solve(problem.oracle, problem.y, cfg, dpp_model=model)
    W_ref, residuals = _kdpp_reference(problem, model, 7, 60, tol=tol)
    assert res.iterations == stop + 1 == residuals.size
    assert np.array_equal(res.W, W_ref)
    assert np.array_equal(res.trace.residuals(), residuals)


def test_sap_blocksize_must_match_the_dpp_sample_size():
    oracle, rng = rbf_oracle(10, 0.5)
    model = DppModel(np.ones(10), np.eye(10), 4)
    cfg = RunConfig(lam=0.5, solver_id="sap", blocksize=5, max_iters=2)
    with pytest.raises(ConfigError, match="disagrees with the DPP sample size"):
        sap_solve(oracle, rng.standard_normal(10), cfg, dpp_model=model)


def sap_with_blocks(monkeypatch, *args, **kwargs):
    """``sap_solve``'s result and the block of every step, as ``sap_step`` gets it."""
    seen = []
    step = solvers.sap_step

    def recording(oracle, W, r, block, *rest):
        seen.append(block.copy())
        return step(oracle, W, r, block, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "sap_step", recording)
        return sap_solve(*args, **kwargs), np.array(seen)


LOCKSTEP_SEEDS = [7, 0, 2**62 + 3]


@pytest.mark.parametrize("sampler", ["kdpp", "uniform"])
def test_lockstep_columns_draw_their_own_blocks_and_match_one_column_solves(
        monkeypatch, sampler):
    # 37 steps: two full DPP chunks of 16 and a partial last one
    problem = SyntheticSpectrumProblem.poly(256, 2.0, 1e-4, seed=0)
    model = problem.dpp_model(32) if sampler == "kdpp" else None
    Y = np.random.default_rng(1).standard_normal((256, len(LOCKSTEP_SEEDS)))
    cfg = RunConfig(lam=1e-4, solver_id="sap", blocksize=32, max_iters=37,
                    residual_every=1, seed=123)
    res, blocks = sap_with_blocks(monkeypatch, problem.oracle, Y, cfg, dpp_model=model,
                                  column_seeds=LOCKSTEP_SEEDS)
    assert res.iterations == 37 and res.passes == 37 * 32 / 256
    assert blocks.shape == (37, len(LOCKSTEP_SEEDS), 32)
    for j, seed in enumerate(LOCKSTEP_SEEDS):
        one, own = sap_with_blocks(monkeypatch, problem.oracle, Y[:, j],
                                   replace(cfg, seed=seed), dpp_model=model)
        assert np.array_equal(blocks[:, j], own)
        assert np.abs(res.W[:, j] - one.W).max() <= 1e-11 * np.abs(one.W).max()


def test_lockstep_needs_one_seed_per_column():
    problem = SyntheticSpectrumProblem.poly(64, 2.0, 1e-3, seed=3)
    cfg = RunConfig(lam=1e-3, solver_id="sap", blocksize=8, max_iters=2)
    with pytest.raises(ContractError, match="2 column seeds for 3 right-hand sides"):
        sap_solve(problem.oracle, np.ones((64, 3)), cfg, column_seeds=[1, 2])


def test_lockstep_look_ahead_is_bitwise():
    problem = SyntheticSpectrumProblem.poly(256, 2.0, 1e-4, seed=0)
    model = problem.dpp_model(32)
    Y = np.random.default_rng(2).standard_normal((256, len(LOCKSTEP_SEEDS)))
    cfg = RunConfig(lam=1e-4, solver_id="sap", max_iters=37, residual_every=1)
    serial = sap_solve(problem.oracle, Y, cfg, dpp_model=model, column_seeds=LOCKSTEP_SEEDS)
    with WorkerPool(2) as pool:
        pooled = sap_solve(problem.oracle, Y, cfg, dpp_model=model, pool=pool,
                           column_seeds=LOCKSTEP_SEEDS)
    assert np.array_equal(pooled.W, serial.W)
    assert np.array_equal(pooled.trace.residuals(), serial.trace.residuals())


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
    accel = resolve_accel(cfg, oracle.lam, n, n)
    W, V, Z = (np.zeros((n, 1)) for _ in range(3))
    prepared = adasap_prepare(oracle, cfg, 0, n, orthonormal(n, n), np.empty((n, n)))
    eta, _ = adasap_step(oracle, W, V, Z, -y, -y, prepared, accel)
    assert abs(eta - 1.0) <= 1e-6
    W_sap = np.zeros((n, 1))
    exact_step(oracle, W_sap, y, np.arange(n))
    ada_dir = W[:, 0]
    sap_dir = W_sap[:, 0]
    cosine = ada_dir @ sap_dir / (np.linalg.norm(ada_dir) * np.linalg.norm(sap_dir))
    assert cosine >= 1.0 - 1e-8


def test_adasap_step_rejects_an_aliased_state():
    oracle, rng = rbf_oracle(30, 0.3, seed=6)
    y = rng.standard_normal((30, 1))
    cfg = RunConfig(lam=0.3, solver_id="adasap", blocksize=6, max_iters=1)
    accel = resolve_accel(cfg, oracle.lam, 30, 6)
    prepared = adasap_prepare(oracle, cfg, 0, 6, orthonormal(6, 6), np.empty((6, 6)))
    W, V, Z = (np.zeros((30, 1)) for _ in range(3))
    with pytest.raises(ContractError):
        adasap_step(oracle, W, W, W, -y, -y, prepared, accel)  # V and Z alias W
    with pytest.raises(ContractError):
        adasap_step(oracle, W, V, Z, V, -y, prepared, accel)  # r_V aliases V


@pytest.mark.parametrize("lam", [1e-15, 4 * np.finfo(np.float64).eps])
@pytest.mark.parametrize("solver_id", ["sap", "adasap", "adasap_i", "sdd", "pcg"])
def test_lam_near_eps_on_identical_points(solver_id, lam):
    # K[B,B] is the all-ones matrix: a block solve sees lam alone on its null space
    oracle = KernelOracle(KernelSpec("rbf", [1.0]), np.zeros((3, 2)), lam)
    cfg = config_for(solver_id, lam=lam, blocksize=3, max_iters=20, seed=1)
    y = np.array([1.0, -2.0, 0.5])
    try:
        result = solve(oracle, y, cfg)
    except NumericalError:
        return
    assert result.diverged or np.isfinite(result.W).all()
    if solver_id == "pcg":
        # the recurrence residual falls to rounding while the true one stalls:
        # every stop the carried value claims is confirmed, so the last row is true
        assert result.trace.records[-1].residual == relative_residual(oracle, result.W, y)
        # a NaN from the second CG product (call 1 is the sketch) makes that
        # step's X NaN, which ends the run as diverged with no further product
        counting = CountingOracle(oracle, nan_at=3)
        planted = solve(counting, y, cfg)
        assert planted.diverged and planted.iterations == 2
        assert planted.true_checks == 0 and counting.matmuls == 3
        assert planted.trace.records[-1].residual == np.inf


def test_adasap_default_mu_is_the_systems_lam():
    oracle, rng = rbf_oracle(300, 0.1, seed=2)
    y = rng.standard_normal(300)
    base = dict(solver_id="adasap", blocksize=30, nystrom_rank=10, max_iters=40,
                residual_every=0, seed=3)
    matching = adasap_solve(oracle, y, RunConfig(lam=0.1, **base))
    default = adasap_solve(oracle, y, RunConfig(**base))  # config lam 1e-3, unused
    assert np.array_equal(matching.W, default.W)


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


def assert_confirmed_divergence(oracle, y, res, before):
    """A divergence stop on a step off the row cadence, before step ``before``:
    one true check, whose finite value above 1e6 is the last row."""
    assert res.diverged and res.iterations < before
    assert res.true_checks == 1
    last = res.trace.records[-1].residual
    assert math.isfinite(last) and last > solvers.DIVERGENCE_FACTOR
    assert last == relative_residual(oracle, res.W, y)
    assert np.isnan(res.trace.residuals()[:-1]).all()


@pytest.mark.parametrize("residual_every", [0, 300])
def test_adasap_divergence_detected_between_residual_checks(residual_every):
    # an oversized momentum pair blows the carried residual up long before a
    # residual is due; the step it passes 1e6 is confirmed, before the iterates
    # overflow (at step 208, where a cadence-only rule stopped)
    oracle, rng = rbf_oracle(200, 1e-2)
    y = rng.standard_normal(200)
    cfg = RunConfig(lam=1e-2, solver_id="adasap", blocksize=20, nystrom_rank=10,
                    mu=10.0, nu=0.01, max_iters=300, residual_every=residual_every)
    with np.errstate(over="ignore", invalid="ignore"):
        res = adasap_solve(oracle, y, cfg)
    assert_confirmed_divergence(oracle, y, res, before=208)


def test_solver_dispatch_unknown():
    oracle, rng = rbf_oracle(10, 0.5)
    cfg = RunConfig(lam=0.5, max_iters=2)
    cfg.solver_id = "nope"
    with pytest.raises(Exception):
        solve(oracle, rng.standard_normal(10), cfg)


@pytest.mark.parametrize("solver_id", ["sdd", "pcg"])
def test_solve_rejects_tail_average_the_solver_ignores(solver_id):
    oracle, rng = rbf_oracle(10, 0.5)
    cfg = RunConfig(lam=0.5, solver_id=solver_id, tail_average=True, max_iters=2)
    message = rf"^run\.tail_average = true is ignored by solver '{solver_id}'"
    with pytest.raises(ConfigError, match=message):
        solve(oracle, rng.standard_normal(10), cfg)


@pytest.mark.parametrize("entry, setting, message", [
    (sdd_solve, dict(solver_id="sdd", tail_average=True), r"^run\.tail_average = true"),
    (pcg_solve, dict(solver_id="pcg", tail_average=True), r"^run\.tail_average = true"),
])
def test_entry_points_reject_settings_they_ignore(entry, setting, message):
    oracle, rng = rbf_oracle(10, 0.5)
    cfg = RunConfig(lam=0.5, max_iters=2, **setting)
    with pytest.raises(ConfigError, match=message):
        entry(oracle, rng.standard_normal(10), cfg)


ENTRY_POINTS = {"sap": sap_solve, "adasap": adasap_solve,
                "adasap_i": lambda *args: adasap_solve(*args, identity_precond=True),
                "sdd": sdd_solve, "pcg": pcg_solve}


def ignored_message(solver, key):
    readers, value = READ_BY[key]
    return (rf"^run\.{key} = {json.dumps(value)} is ignored by solver '{solver}'; "
            rf"only {', '.join(readers)} read it$")


@pytest.mark.parametrize("solver, key", IGNORED)
def test_every_entry_point_rejects_each_setting_it_ignores(solver, key):
    oracle, rng = rbf_oracle(10, 0.5)
    cfg = RunConfig(lam=0.5, solver_id=solver, max_iters=2, **{key: READ_BY[key][1]})
    for entry in (ENTRY_POINTS[solver], solve):
        with pytest.raises(ConfigError, match=ignored_message(solver, key)):
            entry(oracle, rng.standard_normal(10), cfg)


@pytest.mark.parametrize("solver, key", IGNORED)
def test_cli_rejects_each_setting_its_solver_ignores(tmp_path, capsys, solver, key):
    value = json.dumps(READ_BY[key][1])
    out = tmp_path / "out"
    code = cli.main(["--out", str(out), "--set", "problem.n=50", "--set",
                     f"run.solver_id={solver}", "--set", f"run.{key}={value}", "solve"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and re.match(ignored_message(solver, key), err[0].removeprefix("error: "))
    assert not out.exists()


def test_entry_point_check_follows_the_function_not_solver_id():
    # adasap_solve with identity_precond runs adasap_i, whatever solver_id says
    oracle, rng = rbf_oracle(10, 0.5)
    cfg = RunConfig(lam=0.5, solver_id="sdd", blocksize=4, max_iters=2, tail_average=True)
    result = adasap_solve(oracle, rng.standard_normal(10), cfg, identity_precond=True)
    assert result.iterations == 2


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
    assert_confirmed_divergence(oracle, y, res, before=224)


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


def test_pcg_rank_above_n_names_the_setting():
    oracle, rng = rbf_oracle(10, 0.5)
    cfg = RunConfig(lam=0.5, solver_id="pcg", nystrom_rank=11, max_iters=2)
    with pytest.raises(ConfigError, match=r"nystrom_rank 11 outside \[0, 10\]"):
        pcg_solve(oracle, rng.standard_normal(10), cfg)


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


def solve_on(oracle, Y, config, workers, on_iterate=None):
    """``solve`` with no pool (``workers`` None) or a pool of that many workers."""
    if workers is None:
        return solve(oracle, Y, config, on_iterate=on_iterate)
    with WorkerPool(workers) as pool:
        return solve(oracle, Y, config, pool=pool, on_iterate=on_iterate)


def assert_bitwise_for_every_pool(oracle, Y, config):
    """W, every trace residual and stepsize equal with no pool and with a
    pool of 1, 2 or 4 workers (the look-ahead runs on 2 and 4); returns the
    run without a pool."""
    serial = solve_on(oracle, Y, config, None)
    for workers in (1, 2, 4):
        pooled = solve_on(oracle, Y, config, workers)
        assert np.array_equal(pooled.W, serial.W)
        assert np.array_equal(pooled.trace.residuals(), serial.trace.residuals())
        assert [r.stepsize for r in pooled.trace.records] == [
            r.stepsize for r in serial.trace.records]
    return serial


@pytest.mark.parametrize("solver_id", ["sap", "adasap", "adasap_i", "sdd"])
@pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
def test_edge_sizes_full_block_bitwise_across_workers(solver_id, n):
    oracle, rng = rbf_oracle(n, 1e-2, seed=n)
    Y = rng.standard_normal((n, 2))
    config = config_for(solver_id, lam=1e-2, blocksize=n, nystrom_rank=n, max_iters=3,
                        residual_every=1, seed=5, stepsize_scale=1.0)
    serial = assert_bitwise_for_every_pool(oracle, Y, config)
    assert not serial.diverged and serial.iterations == 3 and serial.passes == 3.0
    # a budget stop keeps the carried residual in its last row: no full product ran
    assert serial.true_checks == 0
    gap = abs(serial.trace.final_residual() - relative_residual(oracle, serial.W, Y))
    assert gap <= rounding_floor(oracle, np.linalg.norm(serial.W), Y)


# ---------------------------------------------------------------------------
# carried residuals


def rounding_floor(oracle, xnorm, Y):
    """eps ||K + lam I||_2 ||X|| / ||Y||: the rounding error of one true
    relative residual of an iterate of norm ``xnorm``, which bounds how well
    a carried residual can be checked."""
    anorm = np.linalg.norm(oracle.dense(), 2) + oracle.lam
    return np.finfo(np.float64).eps * anorm * xnorm / np.linalg.norm(Y)


CARRIED_CASES = [(TILE - 1, TILE - 1), (TILE + 1, TILE + 1), (2 * TILE + 1, 50)]


@pytest.mark.parametrize("n, blocksize", CARRIED_CASES)
@pytest.mark.parametrize("solver_id, tail_average", [
    ("sap", False), ("sap", True), ("adasap", False), ("adasap", True),
    ("adasap_i", False), ("adasap_i", True), ("sdd", False)])
def test_carried_rows_match_true_residuals(solver_id, tail_average, n, blocksize):
    # every row is carried (no tol, no divergence), and each one agrees with the
    # true residual of the iterate the solver would return after that step
    oracle, rng = rbf_oracle(n, 1e-2, seed=n)
    Y = rng.standard_normal((n, 2))
    iters = 6 if blocksize == n else 40
    config = config_for(solver_id, lam=1e-2, blocksize=blocksize,
                        nystrom_rank=min(blocksize, 30), max_iters=iters, residual_every=1,
                        seed=2, stepsize_scale=1.0, tail_average=tail_average)
    averager = TailAverager(iters, Y.shape)
    true, xnorm = [], 0.0

    def on_iterate(index, X):
        nonlocal xnorm
        averager.add(index, X)
        if tail_average and averager.count:
            X = averager.average()
        true.append(relative_residual(oracle, X, Y))
        xnorm = max(xnorm, np.linalg.norm(X))

    serial = solve_on(oracle, Y, config, None, on_iterate)
    assert serial.true_checks == 0 and serial.iterations == iters
    carried = serial.trace.residuals()
    assert np.abs(carried - np.array(true)).max() <= rounding_floor(oracle, xnorm, Y)
    pooled = solve_on(oracle, Y, config, 2)
    assert np.array_equal(pooled.trace.residuals(), carried)
    assert np.array_equal(pooled.W, serial.W)


class CountingOracle:
    """A kernel oracle that counts its full products ``matmul``; call number
    ``nan_at`` (1-based) returns NaN."""

    def __init__(self, inner, nan_at=None):
        self.inner, self.n, self.lam = inner, inner.n, inner.lam
        self.tile, self.block = inner.tile, inner.block
        self.matmuls, self.nan_at = 0, nan_at

    def matmul(self, M, pool=None):
        self.matmuls += 1
        product = self.inner.matmul(M, pool)
        if self.matmuls == self.nan_at:
            product[:] = np.nan
        return product


@pytest.mark.parametrize("solver_id", ["adasap", "pcg"])
def test_tol_stop_makes_one_true_check(solver_id):
    inner, rng = rbf_oracle(600, 1e-2, seed=8)
    oracle = CountingOracle(inner)
    y = rng.standard_normal(600)
    config = config_for(solver_id, lam=1e-2, blocksize=60, nystrom_rank=30, tol=0.05,
                        max_passes=40, residual_every=10, seed=3)
    result = solve(oracle, y, config)
    assert not result.diverged and result.passes < 40  # stopped by tol
    assert result.true_checks == 1
    # pcg's sketch and CG products are full products too, one per pass
    solver_products = result.passes if solver_id == "pcg" else 0
    assert oracle.matmuls == solver_products + result.true_checks
    # the stopping row is the true residual of the returned iterate
    assert result.trace.final_residual() == relative_residual(inner, result.W, y)
    assert result.trace.final_residual() <= 0.05
    assert 0.0 <= result.max_residual_gap <= rounding_floor(inner, np.linalg.norm(result.W), y)


@pytest.mark.parametrize("claimed, row", [(0.0, 1.0), (1e20, 1.0)])
def test_failed_confirm_records_the_true_value_and_goes_on(claimed, row):
    # a step that claims a residual far from the truth: W stays 0, so the true
    # relative residual is 1; step 1 confirms the claimed stop off the cadence
    # and fails, and from then on only the due rows confirm it, each failing
    oracle, rng = rbf_oracle(20, 0.5)
    Y2 = rng.standard_normal((20, 1))
    W = np.zeros((20, 1))
    config = RunConfig(lam=0.5, max_iters=6, residual_every=2, tol=0.5)
    result = _drive(oracle, Y2, False, config, 5, 6, lambda t: None,
                    lambda prepared: (1.0, claimed), W, None, None)
    assert not result.diverged and result.iterations == 6
    assert result.true_checks == 4
    assert result.max_residual_gap == abs(math.sqrt(claimed) / np.linalg.norm(Y2) - row)
    residuals = result.trace.residuals()
    assert np.array_equal(residuals[[0, 1, 3, 5]], [row] * 4)
    assert np.isnan(residuals[[2, 4]]).all()


@pytest.mark.parametrize("solver_id", ["sap", "adasap"])
def test_tol_met_between_rows_stops_at_that_step(solver_id):
    # tol is tested at every step: the run ends at the first step whose carried
    # residual meets it, between two rows of the cadence, with one true check
    inner, rng = rbf_oracle(600, 1e-2, seed=8)
    y = rng.standard_normal(600)
    config = config_for(solver_id, lam=1e-2, blocksize=60, nystrom_rank=30, tol=0.05,
                        max_passes=40, residual_every=10, seed=3)
    rows = solve(inner, y, replace(config, tol=None, residual_every=1)).trace.residuals()
    first = int(np.argmax(rows <= 0.05)) + 1
    oracle = CountingOracle(inner)
    result = solve(oracle, y, config)
    assert not result.diverged
    assert result.iterations == first and first % 10 != 0
    assert result.true_checks == oracle.matmuls == 1
    assert result.trace.final_residual() == relative_residual(inner, result.W, y) <= 0.05
    assert result.passes == result.iterations * 60 / 600


def test_false_claim_between_rows_runs_one_off_cadence_confirm():
    # W stays 0, so the true relative residual is 1 and every claimed stop is
    # false. The first claim, at step 3, is confirmed off the cadence and
    # fails; after that only the due row 10 confirms, and steps 7 and 8 do not
    inner, rng = rbf_oracle(20, 0.5)
    oracle = CountingOracle(inner)
    Y2 = rng.standard_normal((20, 1))
    honest = float(np.sum(Y2 ** 2))
    config = RunConfig(lam=0.5, max_iters=12, residual_every=5, tol=0.5)
    result = _drive(oracle, Y2, False, config, 5, 12, lambda t: t + 1,
                    lambda step: (1.0, 0.0 if step in (3, 7, 8, 10) else honest),
                    np.zeros((20, 1)), None, None)
    assert not result.diverged and result.iterations == 12
    assert result.true_checks == oracle.matmuls == 2
    rows = result.trace.residuals()
    assert np.array_equal(rows[[2, 9]], [1.0, 1.0])
    assert np.isfinite(rows[[4, 11]]).all()  # due rows without a claim: carried
    assert np.isnan(np.delete(rows, [2, 4, 9, 11])).all()


# ---------------------------------------------------------------------------
# look-ahead block preparation


@pytest.mark.parametrize("solver_id", ["sap", "adasap", "adasap_i", "sdd", "pcg"])
def test_look_ahead_bitwise_for_every_pool(solver_id):
    # distinct blocks, sketches and power starts at every step
    oracle, rng = rbf_oracle(600, 1e-2, seed=3)
    config = config_for(solver_id, lam=1e-2, blocksize=60, nystrom_rank=30, max_iters=12,
                        residual_every=1, seed=5, stepsize_scale=1.0)
    assert assert_bitwise_for_every_pool(oracle, rng.standard_normal((600, 2)),
                                         config).iterations == 12


class SlowBlocks:
    """A kernel oracle whose ``block`` sleeps, and raises NumericalError on
    call number ``fail_at`` (0-based); each sap step's preparation calls it once.
    ``tile`` sleeps ``tile_delay``, so a step's column pass takes that long."""

    def __init__(self, inner, delay=0.0, fail_at=None, tile_delay=0.0):
        self.inner, self.delay, self.fail_at = inner, delay, fail_at
        self.tile_delay = tile_delay
        self.n, self.lam = inner.n, inner.lam
        self.matmul = inner.matmul
        self.calls = 0

    def tile(self, rows, cols):
        time.sleep(self.tile_delay)
        return self.inner.tile(rows, cols)

    def block(self, block):
        call, self.calls = self.calls, self.calls + 1
        time.sleep(self.delay)
        if call == self.fail_at:
            raise NumericalError(f"planted failure in block call {call}")
        return self.inner.block(block)


class RecordingPool(WorkerPool):
    def __init__(self, num_workers):
        super().__init__(num_workers)
        self.futures = []

    def submit(self, fn, *args):
        future = super().submit(fn, *args)
        self.futures.append(future)
        return future


def tol_first_met_at(oracle, y, config, step):
    """A ``tol`` that the carried residual of ``config``'s run first meets
    after ``step`` steps: between that row and the smallest row before it."""
    probe = solve(oracle, y, replace(config, tol=None, max_iters=step, residual_every=1))
    rows = probe.trace.residuals()
    assert rows[-1] < rows[:-1].min()
    return math.sqrt(rows[-1] * rows[:-1].min())


def test_tol_stop_leaves_no_running_look_ahead():
    inner, _ = rbf_oracle(300, 1e-2)
    y = np.ones(300)  # the carried residual falls over the first steps
    oracle = SlowBlocks(inner, delay=0.2)
    config = RunConfig(lam=1e-2, solver_id="sap", blocksize=30, max_iters=50,
                       residual_every=3)
    config = replace(config, tol=tol_first_met_at(inner, y, config, 3))
    pool = RecordingPool(2)
    result = solve(oracle, y, config, pool=pool)
    assert result.iterations == 3
    assert len(pool.futures) == 3  # prepare(1), prepare(2) and the unused prepare(3)
    assert all(future.done() for future in pool.futures)
    pool.close()
    assert pool._executor is None


@pytest.mark.parametrize("workers", [None, 1, 2, 4])
def test_failed_preparation_raises_at_its_own_step(workers):
    inner, rng = rbf_oracle(300, 1e-2)
    y = rng.standard_normal(300)
    fail_at = 4
    seen = []
    config = RunConfig(lam=1e-2, solver_id="sap", blocksize=30, max_iters=20,
                       residual_every=0)
    oracle = SlowBlocks(inner, fail_at=fail_at)
    with pytest.raises(NumericalError, match="planted failure in block call 4"):
        solve_on(oracle, y, config, workers, on_iterate=lambda i, W: seen.append(i))
    assert seen == [1, 2, 3, 4]  # steps 0..3 ran, step 4 did not
    # a tol stop at step 3 discards the failing prepare(4) without raising; the
    # slow column pass of step 3 gives the look-ahead time to start prepare(4)
    ones = np.ones(300)  # the carried residual falls over the first steps
    stopping = replace(config, tol=tol_first_met_at(inner, ones, config, fail_at),
                       residual_every=fail_at)
    oracle = SlowBlocks(inner, fail_at=fail_at, tile_delay=0.05)
    result = solve_on(oracle, ones, stopping, workers)
    assert result.iterations == fail_at
    assert oracle.calls == (fail_at + 1 if workers and workers > 1 else fail_at)
