import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapgp import ContractError, NystromFactor, apply_inv, apply_inv_sqrt, rand_nystrom, rand_power_stepsize
from sapgp import randnla
from sapgp.rng import substream


def random_psd(rng, dim, scale=1.0):
    G = rng.standard_normal((dim, dim))
    return scale * (G @ G.T) / dim


def build_factor(rng, M, rank):
    omega = rng.standard_normal((M.shape[0], rank))
    return rand_nystrom(M @ omega, omega, rank)


def dense_from(factor):
    return (factor.U * factor.S) @ factor.U.T


def test_identity_sketch_unit_spectrum():
    rng = np.random.default_rng(0)
    omega = rng.standard_normal((24, 6))
    factor = rand_nystrom(omega.copy(), omega, 6)  # M = I
    assert np.abs(factor.S - 1.0).max() < 1e-8
    proj = factor.U @ factor.U.T
    assert np.abs(proj @ proj - proj).max() < 1e-10


def test_full_rank_sketch_exact():
    rng = np.random.default_rng(1)
    M = random_psd(rng, 20)
    factor = build_factor(rng, M, 20)
    err = np.linalg.norm(dense_from(factor) - M) / np.linalg.norm(M)
    assert err <= 1e-8


def test_zero_matrix_clamps_to_zero():
    rng = np.random.default_rng(2)
    factor = rand_nystrom(np.zeros((10, 3)), rng.standard_normal((10, 3)), 3)
    assert np.all(factor.S == 0.0)


def test_orthonormal_columns():
    rng = np.random.default_rng(3)
    factor = build_factor(rng, random_psd(rng, 30), 10)
    gram = factor.U.T @ factor.U
    assert np.linalg.norm(gram - np.eye(10)) <= 1e-8
    assert np.abs(gram - np.eye(10)).max() <= 1e-10


def test_eigenvalue_interlacing():
    rng = np.random.default_rng(4)
    M = random_psd(rng, 40)
    true_eigs = np.sort(np.linalg.eigvalsh(M))[::-1]
    shift = np.finfo(np.float64).eps * 40 * np.trace(M)  # generous slack
    for rank in (5, 15, 40):
        factor = build_factor(rng, M, rank)
        assert np.all(factor.S <= true_eigs[:rank] + shift + 1e-12)
        assert np.all(factor.S >= 0.0)


def test_monotone_in_rank_with_nested_sketch():
    rng = np.random.default_rng(5)
    M = random_psd(rng, 32)
    omega = rng.standard_normal((32, 32))
    sketch = M @ omega
    errs = []
    for rank in (4, 8, 16, 32):
        factor = rand_nystrom(sketch, omega, rank)
        errs.append(np.linalg.norm(dense_from(factor) - M))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def test_shift_escalation_on_singular_gram():
    # numerically singular M with a square omega: the default trace shift can
    # leave the Gram indefinite; escalation must recover a usable factor
    from sapgp import NumericalError
    from sapgp.randnla import rand_nystrom_retry

    x = np.linspace(0.0, 12.5, 60)[:, None]
    M = np.exp(-0.5 * (x - x.T) ** 2)  # smooth kernel block, rank ~ 20
    rng = np.random.default_rng(21)
    omega = rng.standard_normal((60, 60))
    try:
        factor = rand_nystrom(M @ omega, omega, 60)
    except NumericalError:
        factor = rand_nystrom_retry(M @ omega, omega, 60)
    recon = (factor.U * factor.S) @ factor.U.T
    assert np.linalg.norm(recon - M) / np.linalg.norm(M) < 1e-6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.data())
def test_square_orthonormal_sketch_of_a_rank_deficient_matrix(dim, data):
    # rank = b with an exactly singular M: the first shift suffices for an
    # orthonormal omega. A rank-1 M can still fail it (3 of 200,000 random
    # draws, single-thread OpenBLAS), which rand_nystrom_retry recovers; the
    # cases are fixed so that the run is reproducible.
    rank_m = data.draw(st.integers(0, dim - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((dim, rank_m)) * 10.0 ** rng.uniform(-3.0, 3.0, size=rank_m)
    M = G @ G.T
    omega, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    factor = rand_nystrom(M @ omega, omega, dim)
    assert np.linalg.norm(dense_from(factor) - M) <= 1e-10 * np.linalg.norm(M)
    assert np.abs(factor.U.T @ factor.U - np.eye(dim)).max() <= 1e-10


def record_routes(monkeypatch):
    """A list that gets "gram" or "svd" for each factor rand_nystrom forms."""
    routes = []
    gram_route = randnla._gram_eigenpairs

    def recorded(half):
        U, sig2 = gram_route(half)
        routes.append("gram" if U is not None else "svd")
        return U, sig2

    monkeypatch.setattr(randnla, "_gram_eigenpairs", recorded)
    return routes


def test_rank_deficient_square_sketch_takes_the_svd_route(monkeypatch):
    # the Gram route's U = F V / sigma is not orthonormal when F is rank
    # deficient; the guard hands such factors to the thin SVD
    routes = record_routes(monkeypatch)
    rng = np.random.default_rng(12)
    for dim, rank_m in ((20, 1), (20, 5), (30, 29), (8, 0)):
        G = rng.standard_normal((dim, rank_m))
        M = G @ G.T
        omega, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        factor = rand_nystrom(M @ omega, omega, dim)
        assert np.abs(factor.U.T @ factor.U - np.eye(dim)).max() <= 1e-10
        assert np.linalg.norm(dense_from(factor) - M) <= 1e-10 * np.linalg.norm(M)
    assert routes == ["svd"] * 4


def matern_block(rng, dim, scale):
    x = rng.standard_normal((dim, 4)) * scale
    dist = np.sqrt(3.0) * np.linalg.norm(x[:, None] - x[None], axis=-1)
    return (1.0 + dist) * np.exp(-dist)


@pytest.mark.parametrize("make, rank", [
    (lambda rng: random_psd(rng, 60), 20),
    (lambda rng: random_psd(rng, 60), 60),
    (lambda rng: matern_block(rng, 200, 1.0), 50),
    (lambda rng: matern_block(rng, 120, 0.5), 30),
])
def test_gram_route_matches_the_thin_svd_route(monkeypatch, make, rank):
    rng = np.random.default_rng(13)
    M = make(rng)
    omega, _ = np.linalg.qr(rng.standard_normal((M.shape[0], rank)))
    sketch = M @ omega
    routes = record_routes(monkeypatch)
    factor = rand_nystrom(sketch, omega, rank)
    assert routes == ["gram"]
    monkeypatch.setattr(randnla, "_gram_eigenpairs", lambda half: (None, None))
    ref = rand_nystrom(sketch, omega, rank)
    assert np.abs(factor.S - ref.S).max() <= 1e-12 * ref.S[0]
    v = rng.standard_normal((M.shape[0], 3))
    for lam in (1e-2 * ref.S[0], 1e-6 * ref.S[0]):
        rho = ref.S[-1] + lam
        for apply in (apply_inv, apply_inv_sqrt):
            want = apply(ref, rho, v)
            assert np.linalg.norm(apply(factor, rho, v) - want) <= 1e-9 * np.linalg.norm(want)


def test_rank_deficient_omega_rejected():
    rng = np.random.default_rng(6)
    M = random_psd(rng, 12)
    omega = rng.standard_normal((12, 4))
    omega[:, 3] = omega[:, 2]
    with pytest.raises(ContractError):
        rand_nystrom(M @ omega, omega, 4)


def test_apply_inv_matches_dense():
    rng = np.random.default_rng(7)
    for dim, rank in ((8, 3), (32, 10), (64, 20)):
        factor = build_factor(rng, random_psd(rng, dim), rank)
        rho = 0.4
        g = rng.standard_normal(dim)
        dense = np.linalg.solve(dense_from(factor) + rho * np.eye(dim), g)
        got = apply_inv(factor, rho, g)
        assert np.linalg.norm(got - dense) / np.linalg.norm(dense) <= 1e-10


def test_apply_inv_empty_factor_and_zero_vector():
    factor = NystromFactor.empty(6)
    g = np.arange(6.0)
    assert np.allclose(apply_inv(factor, 2.0, g), g / 2.0)
    assert np.all(apply_inv(factor, 2.0, np.zeros(6)) == 0.0)


def test_apply_inv_handles_zero_modes():
    rng = np.random.default_rng(8)
    U, _ = np.linalg.qr(rng.standard_normal((10, 3)))
    factor = NystromFactor(U, np.array([2.0, 1.0, 0.0]))
    rho = 0.5
    g = rng.standard_normal(10)
    dense = np.linalg.solve(dense_from(factor) + rho * np.eye(10), g)
    assert np.linalg.norm(apply_inv(factor, rho, g) - dense) < 1e-10


def test_apply_inv_sqrt_branches():
    rng = np.random.default_rng(9)
    U, _ = np.linalg.qr(rng.standard_normal((12, 4)))
    s = 1.5
    factor = NystromFactor(U, np.full(4, s))
    rho = 0.25
    in_range = U @ rng.standard_normal(4)
    got = apply_inv_sqrt(factor, rho, in_range)
    assert np.allclose(got, in_range / np.sqrt(s + rho))
    full = rng.standard_normal(12)
    perp = full - U @ (U.T @ full)
    assert np.allclose(apply_inv_sqrt(factor, rho, perp), perp / np.sqrt(rho))


def test_apply_inv_sqrt_squares_to_inverse():
    rng = np.random.default_rng(10)
    factor = build_factor(rng, random_psd(rng, 16), 6)
    rho = 0.7
    v = rng.standard_normal(16)
    twice = apply_inv_sqrt(factor, rho, apply_inv_sqrt(factor, rho, v))
    assert np.linalg.norm(twice - apply_inv(factor, rho, v)) <= 1e-10


@st.composite
def damped_factors(draw):
    """(factor, rho, rhs): orthonormal U of any rank, a descending spectrum
    whose tail may be exact zeros (the pruned modes), rho over four decades."""
    dim = draw(st.integers(1, 40))
    rank = draw(st.integers(0, dim))
    zeros = draw(st.integers(0, rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _ = np.linalg.qr(rng.standard_normal((dim, rank)))
    positive = 10.0 ** rng.uniform(-6.0, 2.0, size=rank - zeros)
    S = np.concatenate([np.sort(positive)[::-1], np.zeros(zeros)])
    rho = 10.0 ** draw(st.floats(-2.0, 2.0))
    cols = draw(st.sampled_from([None, 1, 3]))
    rhs = rng.standard_normal(dim if cols is None else (dim, cols))
    return NystromFactor(U, S), rho, rhs


def dense_system(factor, rho):
    return dense_from(factor) + rho * np.eye(factor.dim)


def condition(factor, rho):
    return (factor.S.max(initial=0.0) + rho) / rho


@settings(max_examples=60, deadline=None)
@given(damped_factors())
def test_apply_inv_matches_dense_solve(case):
    factor, rho, g = case
    want = np.linalg.solve(dense_system(factor, rho), g)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow or invalid value
        got = apply_inv(factor, rho, g)
    assert got.shape == g.shape
    tol = 1e-13 * condition(factor, rho) * max(factor.dim, 1)
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@settings(max_examples=60, deadline=None)
@given(damped_factors())
def test_apply_inv_sqrt_matches_dense_root(case):
    factor, rho, v = case
    evals, evecs = np.linalg.eigh(dense_system(factor, rho))
    want = evecs @ ((evecs.T @ v).T / np.sqrt(evals)).T
    got = apply_inv_sqrt(factor, rho, v)
    assert got.shape == v.shape
    tol = 1e-13 * condition(factor, rho) * max(factor.dim, 1)
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def test_stepsize_scalar_operator():
    eta = rand_power_stepsize(lambda v: 2.0 * v, NystromFactor.empty(8), 1.0, seed=0)
    assert eta == pytest.approx(0.5, rel=1e-12)


def test_stepsize_perfect_preconditioner():
    rng = np.random.default_rng(11)
    factor = build_factor(rng, random_psd(rng, 16), 8)
    rho = 0.3
    dense = dense_from(factor) + rho * np.eye(16)
    eta = rand_power_stepsize(lambda v: dense @ v, factor, rho, seed=1)
    assert abs(eta - 1.0) <= 1e-6


def test_stepsize_close_to_dense_top_eigenvalue():
    hits = 0
    trials = 60
    lam = 1e-2
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        M = random_psd(rng, 16)
        factor = build_factor(rng, M, 8)
        rho = factor.S[-1] + lam
        H = M + lam * np.eye(16)
        eta = rand_power_stepsize(
            lambda v: H @ v, factor, rho, iters=10, seed=substream(seed, "power")
        )
        w, V = np.linalg.eigh(dense_from(factor) + rho * np.eye(16))
        half = (V / np.sqrt(w)) @ V.T
        top = np.linalg.eigvalsh(half @ H @ half)[-1]
        if abs(eta - 1.0 / top) <= 0.1 / top:
            hits += 1
    assert hits >= round(0.95 * trials)
