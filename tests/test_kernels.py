import math

import numpy as np
import pytest

from sapgp import ContractError, KernelOracle, KernelSpec, WorkerPool, col_dist_matmul, kernel_eval
from sapgp.dist import TILE
from sapgp.kernels import DenseOracle, _family_values, cross_kernel


def rbf_spec(d=2, ls=1.0, var=1.0):
    return KernelSpec("rbf", np.full(d, ls), var)


def dense_reference(spec, X):
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = kernel_eval(spec, X[i], X[j])
    return K


def test_zero_distance_gives_variance():
    x = np.array([0.3, -1.2])
    for family in ("rbf", "matern32", "matern52"):
        spec = KernelSpec(family, np.array([0.7, 1.3]), 2.5)
        assert kernel_eval(spec, x, x) == pytest.approx(2.5)


def test_rbf_value():
    spec = KernelSpec("rbf", np.array([1.0]), 1.0)
    val = kernel_eval(spec, np.array([0.0]), np.array([np.sqrt(2.0)]))
    assert val == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_matern_values_closed_form():
    for family, form in [
        ("matern32", lambda r: (1 + np.sqrt(3) * r) * np.exp(-np.sqrt(3) * r)),
        ("matern52", lambda r: (1 + np.sqrt(5) * r + 5 * r**2 / 3) * np.exp(-np.sqrt(5) * r)),
    ]:
        spec = KernelSpec(family, np.array([2.0]), 1.5)
        for dist in (0.5, 1.0, 3.0):
            r = dist / 2.0
            got = kernel_eval(spec, np.array([0.0]), np.array([dist]))
            assert got == pytest.approx(1.5 * form(r), rel=1e-12)


def test_matern32_monotone_decay():
    spec = KernelSpec("matern32", np.array([1.0]), 1.0)
    vals = [kernel_eval(spec, np.zeros(1), np.array([r])) for r in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_eval_symmetric():
    rng = np.random.default_rng(0)
    spec = KernelSpec("matern52", np.array([0.5, 2.0, 1.0]), 1.2)
    for _ in range(10):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)


def test_dimension_mismatch():
    spec = rbf_spec(2)
    with pytest.raises(ContractError):
        kernel_eval(spec, np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("family", ["rbf", "matern32", "matern52"])
def test_block_oracles_match_dense(family):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((60, 3))
    spec = KernelSpec(family, np.array([0.9, 1.4, 0.6]), 1.3)
    oracle = KernelOracle(spec, X, 0.1)
    K = dense_reference(spec, X)
    M = rng.standard_normal((60, 4))
    B = np.sort(rng.choice(60, 17, replace=False))
    got = col_dist_matmul(oracle, M, B)
    ref = K[B] @ M
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    got_bb = oracle.block(B)
    assert np.abs(got_bb - K[np.ix_(B, B)]).max() <= 1e-12


def test_block_rows_times_zero_matrix():
    rng = np.random.default_rng(2)
    oracle = KernelOracle(rbf_spec(), rng.standard_normal((20, 2)), 0.5)
    out = col_dist_matmul(oracle, np.zeros((20, 2)), np.array([3, 5]))
    assert np.all(out == 0.0)


def test_block_rows_times_basis_vector():
    rng = np.random.default_rng(3)
    oracle = KernelOracle(rbf_spec(var=1.7), rng.standard_normal((3, 2)), 0.5)
    e0 = np.zeros(3)
    e0[0] = 1.0
    out = col_dist_matmul(oracle, e0, np.array([0]))
    assert out[0] == pytest.approx(1.7, abs=0.0)  # the exact diagonal entry


def test_block_block_exact_symmetry_and_diag():
    rng = np.random.default_rng(4)
    spec = rbf_spec(var=2.0)
    oracle = KernelOracle(spec, rng.standard_normal((30, 2)), 0.1)
    B = np.arange(30)
    K = oracle.block(B)
    assert np.abs(K - K.T).max() == 0.0
    assert np.all(np.diag(K) == 2.0)


def test_full_kernel_psd():
    rng = np.random.default_rng(5)
    for family in ("rbf", "matern32", "matern52"):
        spec = KernelSpec(family, np.array([0.8, 0.8]), 1.0)
        oracle = KernelOracle(spec, rng.standard_normal((25, 2)), 1e-3)
        K = oracle.dense()
        assert np.linalg.eigvalsh(K).min() >= -1e-10


def test_duplicate_block_index_rejected():
    rng = np.random.default_rng(6)
    oracle = KernelOracle(rbf_spec(), rng.standard_normal((10, 2)), 0.5)
    with pytest.raises(ContractError):
        oracle.block(np.array([1, 1, 2]))


@pytest.mark.parametrize("cols", [None, 3], ids=["vector", "cols3"])
@pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
def test_matmul_matches_dense(n, cols):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((n, 2))
    oracle = KernelOracle(rbf_spec(), X, 0.5)
    K = oracle.dense()
    M = rng.standard_normal(n if cols is None else (n, cols))
    serial = oracle.matmul(M)
    assert serial.shape == M.shape
    assert np.abs(serial - K @ M).max() < 1e-10
    for workers in (1, 2, 3):
        with WorkerPool(workers) as pool:
            assert np.array_equal(oracle.matmul(M, pool), serial)


def reference_family_values(family, variance, sq):
    """The out-of-place closed forms the in-place transform must reproduce."""
    sq = np.maximum(sq, 0.0)
    if family == "rbf":
        return variance * np.exp(-0.5 * sq)
    rho = np.sqrt(sq)
    if family == "matern32":
        arg = math.sqrt(3.0) * rho
        return variance * (1.0 + arg) * np.exp(-arg)
    arg = math.sqrt(5.0) * rho
    return variance * (1.0 + arg + (5.0 / 3.0) * sq) * np.exp(-arg)


@pytest.mark.parametrize("family", ["rbf", "matern32", "matern52"])
def test_family_values_bitwise_match_closed_forms(family):
    rng = np.random.default_rng(10)
    sq = rng.uniform(0.0, 40.0, size=(37, 29))
    sq[0, :5] = 0.0
    sq[1, :5] = -rng.uniform(0.0, 1e-12, size=5)  # rounding below zero: clamped
    sq[2, :5] = [1e-300, 1e-16, 1.0, 1e3, 1e6]
    ref = reference_family_values(family, 1.7, sq.copy())
    assert np.array_equal(_family_values(family, 1.7, sq.copy()), ref)


@pytest.mark.parametrize("family", ["rbf", "matern32", "matern52"])
@pytest.mark.parametrize("overlap", ["disjoint", "partial", "identical"])
def test_tile_equal_indices_are_exactly_variance(family, overlap):
    rng = np.random.default_rng(11)
    oracle = KernelOracle(KernelSpec(family, np.array([0.9, 1.4]), 1.7),
                          rng.standard_normal((50, 2)) * 10.0, 0.1)
    rows = rng.permutation(50)[:20]
    cols = {"disjoint": np.setdiff1d(np.arange(50), rows)[:15],
            "partial": np.concatenate([rows[5:12], np.setdiff1d(np.arange(50), rows)[:6]]),
            "identical": rows}[overlap]
    tile = oracle.tile(rows, cols)
    equal = rows[:, None] == cols[None, :]
    assert equal.any() == (overlap != "disjoint")
    assert np.all(tile[equal] == 1.7)
    assert np.all(tile[~equal] < 1.7)


def test_cross_matmul_matches_dense():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 2))
    Xs = rng.standard_normal((7, 2))
    spec = rbf_spec(ls=0.7)
    oracle = KernelOracle(spec, X, 0.5)
    W = rng.standard_normal(40)
    ref = cross_kernel(spec, Xs, X) @ W
    assert np.abs(oracle.cross_matmul(Xs, W) - ref).max() < 1e-12


def test_dense_oracle_roundtrip():
    rng = np.random.default_rng(9)
    G = rng.standard_normal((12, 12))
    K = G @ G.T
    oracle = DenseOracle(K, 0.2)
    B = np.array([0, 4, 7])
    assert np.allclose(oracle.block(B), K[np.ix_(B, B)])
    assert np.abs(oracle.K - oracle.K.T).max() == 0.0
