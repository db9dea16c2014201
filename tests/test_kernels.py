import math

import numpy as np
import pytest

from sapgp import ContractError, KernelOracle, KernelSpec, WorkerPool, col_dist_matmul, kernel_eval
from sapgp.dist import TILE, tile_ranges
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


@pytest.mark.parametrize("b", [1, 127, 128, 129, 300, 800])
@pytest.mark.parametrize("order", ["sorted", "unsorted"])
def test_block_is_the_symmetrized_tile_bit_for_bit(b, order):
    rng = np.random.default_rng(b)
    oracle = KernelOracle(rbf_spec(d=3, ls=0.7, var=1.7), rng.standard_normal((900, 3)), 0.1)
    B = rng.choice(900, size=b, replace=False)
    if order == "sorted":
        B = np.sort(B)
    T = oracle.tile(B, B)
    want = (T + T.T) * 0.5
    K = oracle.block(B)
    assert np.array_equal(K, want)
    assert np.array_equal(K, K.T) and np.all(np.diag(K) == 1.7)
    buffer = np.full((b, b), np.nan)
    assert oracle.block(B, buffer) is buffer and np.array_equal(buffer, want)


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
@pytest.mark.parametrize("overlap", ["disjoint", "partial", "identical", "contiguous",
                                     "noncontiguous", "unsorted"])
def test_tile_equal_indices_are_exactly_variance(family, overlap):
    rng = np.random.default_rng(11)
    oracle = KernelOracle(KernelSpec(family, np.array([0.9, 1.4]), 1.7),
                          rng.standard_normal((50, 2)) * 10.0, 0.1)
    rows = rng.permutation(50)[:20]
    lo, hi = np.sort(rows)[[3, 15]]  # rows at both ends of the column span
    cols = {"disjoint": np.setdiff1d(np.arange(50), rows)[:15],
            "partial": np.concatenate([rows[5:12], np.setdiff1d(np.arange(50), rows)[:6]]),
            "identical": rows,
            # a range, as every product passes: all rows inside it are hits
            "contiguous": np.arange(lo, hi + 1),
            # sorted with gaps: rows inside the span that are not in cols
            "noncontiguous": np.union1d(np.arange(lo, hi + 1, 3), [hi]),
            "unsorted": np.concatenate([[hi], rng.permutation(np.arange(lo + 1, hi))[:9],
                                        [lo]])}[overlap]
    tile = oracle.tile(rows, cols)
    equal = rows[:, None] == cols[None, :]
    assert equal.any() == (overlap != "disjoint")
    assert np.all(tile[equal] == 1.7)
    assert np.all(tile[~equal] < 1.7)
    if overlap == "contiguous":  # also each row at either end of a range
        for r in range(50):
            for span in (np.arange(max(r - 4, 0), r + 1), np.arange(r, min(r + 5, 50))):
                assert oracle.tile([r], span)[0, span == r] == 1.7


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


def parent_sq_dists(za, zb):
    """The earlier two-pass formula ``(|za|^2 + |zb|^2) - 2 za zb^T``, kept as
    the reference for the one-GEMM tile, and the norm sums that scale its error."""
    ra = np.einsum("ij,ij->i", za, za)
    rb = np.einsum("ij,ij->i", zb, zb)
    sq = ra[:, None] + rb[None, :]
    sq -= 2.0 * za @ zb.T
    return sq, ra[:, None] + rb[None, :]


@pytest.mark.parametrize("family", ["rbf", "matern32", "matern52"])
@pytest.mark.parametrize("layout", ["duplicates", "near", "offset"])
def test_tile_matches_two_pass_distances(family, layout):
    rng = np.random.default_rng(12)
    ls, var = np.array([0.7, 1.3, 0.9]), 1.6
    X = rng.standard_normal((90, 3))
    if layout == "duplicates":
        X[30:60] = X[:30]  # equal points under different indices
    elif layout == "near":
        X[30:60] = X[:30] + 1e-9 * rng.standard_normal((30, 3))
    else:
        X += 1e3  # norms far above the distances
    oracle = KernelOracle(KernelSpec(family, ls, var), X, 0.1)
    rows = rng.permutation(90)[:40]
    cols = np.arange(20, 75)
    sq, norms = parent_sq_dists(X[rows] / ls, X[cols] / ls)
    sq[rows[:, None] == cols[None, :]] = 0.0
    ref = reference_family_values(family, var, sq)
    # |dk/dsq| <= 1.5 var for the three families, plus rounding of the values
    eps = np.finfo(np.float64).eps
    bound = 1.5 * var * 8 * eps * norms + 8 * eps * var
    got = oracle.tile(rows, cols)
    assert np.all(np.abs(got - ref) <= bound)
    if layout != "offset":
        assert np.abs(got - ref).max() <= 1e-14


@pytest.mark.parametrize("family", ["rbf", "matern32", "matern52"])
def test_cross_matmul_matches_cross_kernel_over_tiles(family):
    rng = np.random.default_rng(13)
    X = rng.standard_normal((2 * TILE + 1, 3))
    Xs = rng.standard_normal((33, 3))
    spec = KernelSpec(family, np.array([0.8, 1.1, 1.5]), 1.4)
    oracle = KernelOracle(spec, X, 0.5)
    W = rng.standard_normal((2 * TILE + 1, 5))
    ref = cross_kernel(spec, Xs, X) @ W
    got = oracle.cross_matmul(Xs, W)
    assert got.shape == (33, 5)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    vec = oracle.cross_matmul(Xs, W[:, 0])
    assert vec.shape == (33,) and np.abs(vec - ref[:, 0]).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("cols", ["contiguous", "single", "noncontiguous", "unsorted",
                                  "repeated", "negative"])
def test_dense_oracle_tile_slice_equals_gather(cols):
    rng = np.random.default_rng(14)
    G = rng.standard_normal((40, 40))
    oracle = DenseOracle(G @ G.T, 0.1)
    rows = rng.permutation(40)[:13]
    cols = {"contiguous": np.arange(7, 31), "single": np.array([5]),
            "noncontiguous": np.array([1, 2, 3, 5, 6]),
            "unsorted": np.array([9, 8, 10, 11]), "repeated": np.array([4, 4, 5]),
            "negative": np.array([-3, -2, -1])}[cols]
    before = oracle.K.copy()
    tile = oracle.tile(rows, cols)
    assert np.array_equal(tile, before[np.ix_(rows, cols)])
    tile[:] = 0.0  # a copy: writing to it leaves the oracle's matrix alone
    assert np.array_equal(oracle.K, before)


def test_dense_oracle_tile_range_past_the_end_is_an_index_error():
    oracle = DenseOracle(np.eye(6), 0.1)
    with pytest.raises(IndexError):
        oracle.tile(np.arange(2), np.array([5, 6]))


def test_cross_matmul_rejects_a_weight_array_without_n_rows():
    rng = np.random.default_rng(15)
    n = 300
    X = rng.standard_normal((n, 2))
    oracle = KernelOracle(rbf_spec(), X, 0.1)
    for W in (np.ones(n + 5), np.ones((n - 1, 2)), np.float64(1.0)):
        with pytest.raises(ContractError, match="W must have n rows"):
            oracle.cross_matmul(X[:2], W)


def test_tile_rejects_out_of_range_indices():
    # a negative index used to reach the point from the end, while the
    # equal-index mask compared raw values: tile([-17], [283]) missed the variance
    n, k = 300, 17
    X = np.random.default_rng(0).standard_normal((n, 2)) * 10.0
    oracle = KernelOracle(KernelSpec("matern32", np.ones(2)), X, 0.1)
    assert oracle.tile([n - k], [n - k])[0, 0] == 1.0
    for rows, cols in (([-k], [n - k]), ([n], [0]), ([0], [n]), ([0, 1], [2, -1]), ([], [n]),
                       ([n], [])):
        with pytest.raises(ContractError, match="out of range"):
            oracle.tile(rows, cols)
    assert oracle.tile([], [0, 1]).shape == (0, 2) and oracle.tile([3], []).shape == (1, 0)


def test_tile_of_an_index_array_with_itself():
    # the same array as rows and cols takes the diagonal fast path only when
    # strictly increasing; repeated indices still give the variance at every
    # equal pair (point 283 here is one whose GEMM self-distance is not 0)
    n = 300
    X = np.random.default_rng(0).standard_normal((n, 2)) * 10.0
    oracle = KernelOracle(KernelSpec("matern32", np.ones(2)), X, 0.1)
    ordered = np.sort(np.random.default_rng(16).permutation(n)[:40])
    assert np.array_equal(oracle.tile(ordered, ordered), oracle.tile(ordered, ordered.copy()))
    for rows in (np.array([5, 283, 283]), np.array([283, 5, 283])):
        tile = oracle.tile(rows, rows)
        equal = rows[:, None] == rows[None, :]
        assert np.all(tile[equal] == 1.0) and np.all(tile[~equal] < 1.0)


def test_dense_oracle_block_is_the_gather_and_fills_a_buffer():
    rng = np.random.default_rng(17)
    G = rng.standard_normal((40, 40))
    oracle = DenseOracle(G @ G.T, 0.1)
    for B in (np.array([3, 9, 10, 31]), np.array([31, 3, 10, 9])):
        gathered = oracle.K[np.ix_(B, B)]
        # the column-tile gather made symmetric gives these bits too
        assert np.array_equal(oracle.block(B), (gathered.T + gathered) * 0.5)
        buffer = np.full((4, 4), np.nan)
        assert oracle.block(B, buffer) is buffer and np.array_equal(buffer, gathered)


def parent_tile_sq(aug, rows, cols):
    """The earlier per-tile GEMM: the column operand ``[-2z, 1, |z|^2]`` formed from
    the gathered ``[z, |z|^2, 1]`` rows on every call; kept as the reference."""
    b = aug[cols]
    rhs = b * -2.0
    rhs[:, -2:] = b[:, :-3:-1]
    return aug[rows] @ rhs.T


@pytest.mark.parametrize("family", ["rbf", "matern32", "matern52"])
@pytest.mark.parametrize("variance", [1.0, 1.7])
@pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
def test_range_tile_is_the_index_array_tile(family, variance, n):
    rng = np.random.default_rng(18)
    oracle = KernelOracle(KernelSpec(family, np.array([0.9, 1.4]), variance),
                          rng.standard_normal((n, 2)) * 3.0, 0.1)
    spans = [range(start, stop) for start, stop in tile_ranges(n)] + [range(n // 3, n - 5)]
    for cols in spans:
        ends = [cols.start, cols.stop - 1] + [i for i in (cols.start - 1, cols.stop) if 0 <= i < n]
        for rows in (np.sort(rng.choice(n, 40, replace=False)), rng.permutation(n)[:40],
                     range(n // 4, n // 4 + 60), np.union1d(ends, rng.choice(n, 9)),
                     rng.permutation(np.union1d(ends, rng.choice(n, 9)))):
            tile = oracle.tile(rows, cols)
            rows_array, cols_array = np.asarray(rows), np.asarray(cols)
            assert np.array_equal(tile, oracle.tile(rows_array, cols_array))
            equal = rows_array[:, None] == cols_array[None, :]
            assert np.all(tile[equal] == variance) and np.all(tile[~equal] < variance)
            if family == "rbf":  # min(t, 0) on the GEMM's -0.5 * sq: the parent's bits
                sq = parent_tile_sq(oracle._aug, rows_array, cols_array)
                ref = variance * np.exp(-0.5 * np.maximum(sq, 0.0))
                ref[equal] = variance
                assert np.array_equal(tile, ref)


def test_tile_rejects_ranges_outside_the_points():
    n, k = 300, 17
    oracle = KernelOracle(rbf_spec(), np.random.default_rng(0).standard_normal((n, 2)), 0.1)
    for bad in (range(-1, k), range(0, n + 1)):
        with pytest.raises(ContractError, match="out of range"):
            oracle.tile(bad, range(k))
        with pytest.raises(ContractError, match="out of range"):
            oracle.tile(np.arange(k), bad)
    assert oracle.tile(range(n - 1, n), range(0, 0)).shape == (1, 0)
    assert oracle.tile(range(0, n), range(n - 1, n))[n - 1, 0] == 1.0


def test_products_hand_tile_ranges(monkeypatch):
    rng = np.random.default_rng(19)
    n = 2 * TILE + 1
    oracle = KernelOracle(rbf_spec(var=1.7), rng.standard_normal((n, 2)), 0.1)
    W = rng.standard_normal((n, 2))
    block = np.sort(rng.choice(n, 50, replace=False))
    expected = (col_dist_matmul(oracle, W, block), oracle.matmul(W))
    calls = []
    tile = KernelOracle.tile

    def spy(self, rows, cols, out=None):
        calls.append((type(rows), type(cols), len(rows) * len(cols)))
        return tile(self, rows, cols, out)

    monkeypatch.setattr(KernelOracle, "tile", spy)
    assert np.array_equal(col_dist_matmul(oracle, W, block), expected[0])
    assert calls == [(np.ndarray, range, 50 * (stop - start))
                     for start, stop in tile_ranges(n)]
    calls.clear()
    assert np.array_equal(oracle.matmul(W), expected[1])
    assert len(calls) == 6 and all(call[:2] == (range, range) for call in calls)
    assert sum(call[2] for call in calls) == (n * n + sum(
        (stop - start) ** 2 for start, stop in tile_ranges(n))) // 2


def test_dense_oracle_range_tile_is_a_copy_of_the_slice():
    rng = np.random.default_rng(20)
    G = rng.standard_normal((40, 40))
    oracle = DenseOracle(G @ G.T, 0.1)
    rows = rng.permutation(40)[:13]
    before = oracle.K.copy()
    tile = oracle.tile(rows, range(7, 31))
    assert np.array_equal(tile, before[np.ix_(rows, np.arange(7, 31))])
    tile[:] = 0.0
    assert np.array_equal(oracle.K, before)
    with pytest.raises(IndexError):  # past the end: the gather's error, as for index arrays
        oracle.tile(rows, range(35, 41))
