import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sapgp import ContractError, KernelOracle, KernelSpec, RunConfig, pcg_solve
from sapgp.gp import (
    ExactPrior,
    RandomFeatureMap,
    RandomFeaturePrior,
    mean_nll,
    pathwise_sample,
    rmse,
)
from sapgp.dist import TILE
from sapgp.kernels import cross_kernel, kernel_eval
from sapgp.rng import substream


def make_points(rng, n, d=2, scale=2.0):
    return rng.uniform(-scale, scale, size=(n, d))


def dense_solver(spec, X, lam):
    K = cross_kernel(spec, X, X)
    A = K + lam * np.eye(X.shape[0])

    def solve_fn(oracle, rhs):
        return np.linalg.solve(A, rhs)

    return solve_fn, A


# ---------------------------------------------------------------------------
# random features


def test_feature_covariance_matches_kernel():
    spec = KernelSpec("rbf", np.array([1.0]), 1.0)
    rfm = RandomFeatureMap.sample(spec, 1, 2048, seed=0)
    # pair at distance sqrt(2 ln 2): true kernel value is 1/2
    x = np.array([[0.0], [np.sqrt(2.0 * np.log(2.0))]])
    true = kernel_eval(spec, x[0], x[1])
    draws = 2000
    theta = substream(3, "theta").standard_normal((rfm.num_features, draws))
    values = rfm.features(x) @ theta
    estimate = np.mean(values[0] * values[1])
    assert abs(estimate - true) <= 0.05 * spec.variance


def test_prior_variance_at_a_point():
    spec = KernelSpec("matern32", np.array([0.8, 1.2]), 1.5)
    rfm = RandomFeatureMap.sample(spec, 2, 2048, seed=1)
    x = np.array([[0.4, -0.3]])
    draws = 2000
    theta = substream(4, "theta").standard_normal((rfm.num_features, draws))
    values = (rfm.features(x) @ theta)[0]
    assert abs(np.mean(values**2) - 1.5) <= 0.05 * 1.5


@pytest.mark.parametrize("family", ["rbf", "matern32", "matern52"])
def test_feature_map_kernel_estimate_concentrates(family):
    spec = KernelSpec(family, np.array([0.9, 0.9]), 1.0)
    rng = np.random.default_rng(5)
    X = make_points(rng, 12)
    K = cross_kernel(spec, X, X)
    errs = []
    for q, seed in ((256, 0), (4096, 1)):
        rfm = RandomFeatureMap.sample(spec, 2, q, seed=seed)
        phi = rfm.features(X)
        errs.append(np.abs(phi @ phi.T - K).max())
    assert errs[1] < errs[0]


# ---------------------------------------------------------------------------
# posterior mean


def test_posterior_mean_zero_targets():
    rng = np.random.default_rng(7)
    spec = KernelSpec("rbf", np.array([0.7, 0.7]), 1.0)
    X = make_points(rng, 25)
    oracle = KernelOracle(spec, X, 0.2)
    solve_fn, _ = dense_solver(spec, X, 0.2)
    weights = solve_fn(oracle, np.zeros(25))
    assert np.all(oracle.cross_matmul(make_points(rng, 4), weights) == 0.0)


def test_posterior_mean_interpolates_at_tiny_noise():
    rng = np.random.default_rng(8)
    # well-separated 1-d grid
    X = np.linspace(0.0, 10.0, 30)[:, None]
    spec = KernelSpec("rbf", np.array([0.6]), 1.0)
    lam = 1e-10
    oracle = KernelOracle(spec, X, lam)
    y = np.sin(X[:, 0])
    solve_fn, _ = dense_solver(spec, X, lam)
    weights = solve_fn(oracle, y)
    assert np.abs(oracle.cross_matmul(X, weights) - y).max() <= 1e-4 * np.abs(y).max()


def test_posterior_mean_matches_dense_small():
    rng = np.random.default_rng(9)
    spec = KernelSpec("matern52", np.array([1.1, 0.9]), 1.3)
    X = make_points(rng, 50)
    Xs = make_points(rng, 6)
    lam = 0.3
    oracle = KernelOracle(spec, X, lam)
    y = rng.standard_normal(50)
    cfg = RunConfig(lam=lam, solver_id="pcg", nystrom_rank=20, tol=1e-12, max_iters=100)
    weights = pcg_solve(oracle, y, cfg).W
    K = cross_kernel(spec, X, X)
    ref = cross_kernel(spec, Xs, X) @ np.linalg.solve(K + lam * np.eye(50), y)
    assert np.abs(oracle.cross_matmul(Xs, weights) - ref).max() <= 1e-6


# ---------------------------------------------------------------------------
# pathwise conditioning


def test_pathwise_sample_mean_converges_to_posterior_mean():
    rng = np.random.default_rng(10)
    spec = KernelSpec("rbf", np.array([0.8, 0.8]), 1.0)
    X = make_points(rng, 40)
    Xs = make_points(rng, 5)
    lam = 0.1
    oracle = KernelOracle(spec, X, lam)
    y = rng.standard_normal(40)
    solve_fn, A = dense_solver(spec, X, lam)
    rfm = RandomFeatureMap.sample(spec, 2, 1024, seed=3)
    prior = RandomFeaturePrior(rfm, X, Xs)
    s = 256
    out = pathwise_sample(oracle, prior, y, s, seed=12, solve_fn=solve_fn, Xstar=Xs)
    ref = cross_kernel(spec, Xs, X) @ np.linalg.solve(A, y)
    stderr = out.sample_values.std(axis=1, ddof=1) / np.sqrt(s)
    assert np.all(np.abs(out.sample_mean() - ref) <= 4.0 * stderr)
    # the mean system solved in the same batch matches exactly
    assert np.abs(out.mean_values - ref).max() <= 1e-8


def test_pathwise_sample_covariance_matches_posterior():
    rng = np.random.default_rng(11)
    spec = KernelSpec("rbf", np.array([0.9, 0.9]), 1.0)
    X = make_points(rng, 30)
    Xs = make_points(rng, 5)
    lam = 0.05
    oracle = KernelOracle(spec, X, lam)
    y = rng.standard_normal(30)
    solve_fn, A = dense_solver(spec, X, lam)
    prior = ExactPrior(spec, X, Xs)
    s = 2000
    out = pathwise_sample(oracle, prior, y, s, seed=13, solve_fn=solve_fn, Xstar=Xs)
    cross = cross_kernel(spec, Xs, X)
    cov_ref = cross_kernel(spec, Xs, Xs) - cross @ np.linalg.solve(A, cross.T)
    emp = out.sample_covariance()
    var = np.diag(cov_ref)
    stderr = np.sqrt((np.outer(var, var) + cov_ref**2) / s)
    assert np.all(np.abs(emp - cov_ref) <= 4.0 * np.maximum(stderr, 1e-12))


def test_pathwise_samples_are_functions():
    # each sample evaluates anywhere via its prior feature weights plus the
    # representer weights; at the cached test points the two paths agree
    rng = np.random.default_rng(14)
    spec = KernelSpec("rbf", np.array([1.0, 1.0]), 1.0)
    X = make_points(rng, 20)
    Xs = make_points(rng, 4)
    oracle = KernelOracle(spec, X, 0.1)
    y = rng.standard_normal(20)
    solve_fn, _ = dense_solver(spec, X, 0.1)
    rfm = RandomFeatureMap.sample(spec, 2, 128, seed=5)
    prior = RandomFeaturePrior(rfm, X, Xs)
    out = pathwise_sample(oracle, prior, y, 3, seed=15, solve_fn=solve_fn, Xstar=Xs)
    rebuilt = rfm.features(Xs) @ out.prior_weights + cross_kernel(spec, Xs, X) @ out.sample_weights
    assert np.abs(rebuilt - out.sample_values).max() < 1e-10


def test_pathwise_single_sample_reproducible():
    rng = np.random.default_rng(12)
    spec = KernelSpec("rbf", np.array([1.0, 1.0]), 1.0)
    X = make_points(rng, 15)
    Xs = make_points(rng, 3)
    oracle = KernelOracle(spec, X, 0.2)
    y = rng.standard_normal(15)
    solve_fn, _ = dense_solver(spec, X, 0.2)
    rfm = RandomFeatureMap.sample(spec, 2, 64, seed=4)
    prior = RandomFeaturePrior(rfm, X, Xs)
    a = pathwise_sample(oracle, prior, y, 1, seed=20, solve_fn=solve_fn, Xstar=Xs)
    b = pathwise_sample(oracle, prior, y, 1, seed=20, solve_fn=solve_fn, Xstar=Xs)
    assert np.array_equal(a.sample_values, b.sample_values)


# ---------------------------------------------------------------------------
# the streamed random-feature prior

STREAM_SIZES = (TILE - 1, TILE, TILE + 1, 2 * TILE + 1)


def test_features_match_the_closed_form():
    rng = np.random.default_rng(21)
    spec = KernelSpec("matern32", np.array([0.7, 1.1, 1.3]), 1.6)
    rfm = RandomFeatureMap.sample(spec, 3, 333, seed=8)
    X = make_points(rng, 300, d=3)
    scale = math.sqrt(2.0 * rfm.variance / rfm.num_features)
    assert np.array_equal(rfm.features(X), scale * np.cos(X @ rfm.frequencies.T + rfm.phases))


@pytest.mark.parametrize("n", STREAM_SIZES)
def test_draw_state_equals_the_whole_feature_product(n):
    # the infer default: 2,048 features of 4 inputs
    rng = np.random.default_rng(n)
    spec = KernelSpec("rbf", np.ones(4), 1.0)
    rfm = RandomFeatureMap.sample(spec, 4, 2048, seed=n)
    X, Xs = make_points(rng, n, d=4), make_points(rng, n + 3, d=4)
    f_train, f_test, theta = RandomFeaturePrior(rfm, X, Xs).draw_state(7, 5)
    assert np.array_equal(theta, np.random.default_rng(7).standard_normal((2048, 5)))
    assert np.array_equal(f_train, rfm.features(X) @ theta)
    assert np.array_equal(f_test, rfm.features(Xs) @ theta)


def test_isotropic_spec_features_equal_its_repeated_twin():
    rng = np.random.default_rng(24)
    X, Xs = make_points(rng, 50, d=3), make_points(rng, 7, d=3)
    one = RandomFeaturePrior(RandomFeatureMap.sample(KernelSpec("rbf", [0.8]), 3, 16, 0), X, Xs)
    twin = RandomFeatureMap.sample(KernelSpec("rbf", np.full(3, 0.8)), 3, 16, 0)
    assert np.array_equal(one.rfm.features(X), twin.features(X))
    assert np.array_equal(one.rfm.features(Xs), twin.features(Xs))


def test_feature_map_rejects_lengthscales_of_another_dimension():
    with pytest.raises(ContractError):
        RandomFeatureMap.sample(KernelSpec("rbf", np.ones(2)), 3, 16, 0)


def test_prior_rejects_points_of_the_wrong_dimension():
    rfm = RandomFeatureMap.sample(KernelSpec("rbf", np.ones(2), 1.0), 2, 16, seed=0)
    with pytest.raises(ContractError):
        RandomFeaturePrior(rfm, np.zeros((5, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("n", (TILE - 1, 2 * TILE + 1))
def test_tiled_zeta_equals_one_draw(n):
    rng = np.random.default_rng(22)
    spec = KernelSpec("rbf", np.ones(2), 1.0)
    X, Xs = make_points(rng, n), make_points(rng, 4)
    y = rng.standard_normal(n)
    lam, s, seed = 0.07, 3, 31
    prior = RandomFeaturePrior(RandomFeatureMap.sample(spec, 2, 64, seed=2), X, Xs)
    seen = []

    def solve_fn(oracle, rhs):
        seen.append(rhs.copy())
        return np.zeros_like(rhs)

    pathwise_sample(SimpleNamespace(lam=lam), prior, y, s, seed, solve_fn,
                    cross=lambda W: np.zeros((4, W.shape[1])))
    f_train, _, _ = prior.draw_state(substream(seed, "prior"), s)
    zeta = math.sqrt(lam) * substream(seed, "zeta").standard_normal((n, s))
    want = np.concatenate([y[:, None], y[:, None] - f_train - zeta], axis=1)
    assert np.array_equal(seen[0], want)


def pathwise_peak_bytes(num_features, n, t, s):
    rng = np.random.default_rng(23)
    spec = KernelSpec("rbf", np.ones(4), 1.0)
    X, Xs = make_points(rng, n, d=4), make_points(rng, t, d=4)
    y = rng.standard_normal(n)
    rfm = RandomFeatureMap.sample(spec, 4, num_features, seed=3)
    tracemalloc.start()
    try:
        prior = RandomFeaturePrior(rfm, X, Xs)
        pathwise_sample(SimpleNamespace(lam=0.1), prior, y, s, 5, lambda o, rhs: rhs,
                        cross=lambda W: np.zeros((t, W.shape[1])))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pathwise_memory_does_not_grow_with_the_feature_count():
    n, t, s = 16 * TILE, 4 * TILE, 8
    small = pathwise_peak_bytes(256, n, t, s)
    large = pathwise_peak_bytes(4096, n, t, s)
    # one row tile of features (TILE x q) is the only q-sized array; holding
    # phi(X) at 4,096 features would add n * 3,840 * 8 bytes = 126 MB
    one_tile = TILE * (4096 - 256) * 8
    assert large - small <= one_tile + 4096 * s * 8 + (1 << 20)


# ---------------------------------------------------------------------------
# metrics


def test_rmse_cases():
    truth = np.array([1.0, 2.0, 3.0])
    assert rmse(truth, truth) == 0.0
    assert rmse(truth + 0.5, truth) == pytest.approx(0.5)


def test_mean_nll_standard_normal_point():
    val = mean_nll(np.zeros(1), np.ones(1), np.zeros(1))
    assert val == pytest.approx(0.5 * np.log(2.0 * np.pi), rel=1e-12)


def test_mean_nll_clamps_bad_variance():
    with pytest.warns(RuntimeWarning):
        val = mean_nll(np.zeros(2), np.array([1.0, -1.0]), np.zeros(2))
    assert np.isfinite(val)
