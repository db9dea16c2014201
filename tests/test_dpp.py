import itertools

import numpy as np
import pytest

from sapgp import ContractError, DppModel, expected_projection_mc, lemma2_lower_bound, smoothed_condition
from sapgp.dpp import elementary_symmetric, log_elementary_symmetric


def random_psd(rng, n, jitter=0.3):
    G = rng.standard_normal((n, n))
    return G @ G.T + jitter * np.eye(n)


def test_elementary_symmetric_recurrence():
    rng = np.random.default_rng(0)
    vals = rng.uniform(0.1, 2.0, size=9)
    table = elementary_symmetric(vals, 4)
    for order in range(1, 5):
        for m in range(1, 10):
            expected = table[order, m - 1] + vals[m - 1] * table[order - 1, m - 1]
            assert table[order, m] == expected


def test_log_table_agrees_with_linear():
    rng = np.random.default_rng(1)
    vals = rng.uniform(0.5, 1.5, size=12)
    lin = elementary_symmetric(vals, 5)
    log = log_elementary_symmetric(np.log(vals), 5)
    mask = lin > 0
    assert np.abs(np.exp(log[mask]) / lin[mask] - 1.0).max() < 1e-10


def test_two_point_marginals():
    # K = diag(3, 1), size-1 sample: P({0}) = 3/4
    model = DppModel(np.array([3.0, 1.0]), np.eye(2), 1)
    draws = 100_000
    rng = np.random.default_rng(2)
    hits = sum(model.sample(rng)[0] == 0 for _ in range(draws))
    p_hat = hits / draws
    sigma = np.sqrt(0.75 * 0.25 / draws)
    assert abs(p_hat - 0.75) <= 3 * sigma


def test_full_size_sample_is_everything():
    rng = np.random.default_rng(3)
    A = random_psd(rng, 5)
    model = DppModel.from_matrix(A, 5)
    assert np.array_equal(model.sample(0), np.arange(5))


def test_exhaustive_determinant_frequencies():
    rng = np.random.default_rng(4)
    A = random_psd(rng, 4)
    model = DppModel.from_matrix(A, 2)
    weights = {}
    for subset in itertools.combinations(range(4), 2):
        weights[subset] = np.linalg.det(A[np.ix_(subset, subset)])
    total = sum(weights.values())
    draws = 30_000
    counts = dict.fromkeys(weights, 0)
    gen = np.random.default_rng(5)
    for _ in range(draws):
        counts[tuple(model.sample(gen))] += 1
    for subset, weight in weights.items():
        p = weight / total
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(counts[subset] / draws - p) <= 3.5 * sigma


def test_sample_size_bounds():
    rng = np.random.default_rng(6)
    A = random_psd(rng, 6)
    with pytest.raises(ContractError):
        DppModel.from_matrix(A, 7)
    with pytest.raises(ContractError):
        DppModel.from_matrix(A, 0)


def test_sampled_projection_is_projection():
    rng = np.random.default_rng(7)
    A = random_psd(rng, 12)
    model = DppModel.from_matrix(A, 4)
    block = model.sample(8)
    proj = model.projection_matrix(block)
    assert np.linalg.norm(proj @ proj - proj) <= 1e-8
    assert np.trace(proj) == pytest.approx(4.0, abs=1e-8)
    eigs = np.linalg.eigvalsh(proj)
    assert eigs.min() >= -1e-8 and eigs.max() <= 1 + 1e-8


def test_expected_projection_identity_case():
    # A = I, n = 3, size-2 samples: E[proj] = (2/3) I by symmetry
    model = DppModel(np.ones(3), np.eye(3), 2)
    est = expected_projection_mc(model, 4000, seed=9)
    for i in range(3):
        assert abs(est.mean[i, i] - 2.0 / 3.0) <= 3 * max(est.stderr[i, i], 1e-12) + 1e-9
    off = ~np.eye(3, dtype=bool)
    assert np.abs(est.mean[off]).max() <= 4 * max(est.stderr[off].max(), 1e-12)


def test_expected_projection_mc_scaling():
    rng = np.random.default_rng(10)
    A = random_psd(rng, 8)
    model = DppModel.from_matrix(A, 2)
    small = expected_projection_mc(model, 300, seed=1, basis="eigen")
    large = expected_projection_mc(model, 4800, seed=2, basis="eigen")
    off = ~np.eye(8, dtype=bool)
    # stderr shrinks like 1/sqrt(samples): factor 16 in count -> factor ~4
    ratio = small.stderr[off].mean() / large.stderr[off].mean()
    assert 2.5 < ratio < 6.5


def test_lemma2_lower_bound_values():
    flat = np.full(4, 2.0)
    assert lemma2_lower_bound(flat, 1, 1) == pytest.approx(0.25)
    spectrum = np.array([4.0, 2.0, 1.0, 1.0])
    assert lemma2_lower_bound(spectrum, 2, 2) == pytest.approx(2.0 / 3.0)
    low_rank = np.array([3.0, 1.0, 0.0, 0.0])
    assert lemma2_lower_bound(low_rank, 2, 1) == 1.0


def test_smoothed_condition_values():
    spectrum = np.array([4.0, 2.0, 1.0, 1.0])
    assert smoothed_condition(spectrum, 2, 2) == pytest.approx(0.5)
    assert smoothed_condition(spectrum, 4, 1) == 0.0


def test_smoothed_condition_monotone_in_index():
    rng = np.random.default_rng(11)
    spectrum = np.sort(rng.uniform(0.1, 5.0, size=20))[::-1]
    vals = [smoothed_condition(spectrum, 5, p) for p in range(1, 21)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_smoothed_condition_poly_decay_bounded():
    # phi(2l, l) stays O(1) as n grows for i^(-2) spectra
    vals = []
    for n in (100, 400, 1600):
        spectrum = np.arange(1, n + 1, dtype=np.float64) ** -2.0
        vals.append(smoothed_condition(spectrum, 4, 2))
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[2] < 2.0


def test_extreme_spread_uses_log_path():
    n = 40
    eigs = np.geomspace(1.0, 1e-16, n)
    model = DppModel(eigs, np.eye(n), 6)
    sample = model.sample(3)
    assert model.es_table is None and model.log_es_table is not None
    assert sample.size == 6
    # heavily weighted to the leading indices
    assert sample.min() < 10


def test_sampler_deterministic_in_seed():
    rng = np.random.default_rng(12)
    A = random_psd(rng, 10)
    model = DppModel.from_matrix(A, 3)
    assert np.array_equal(model.sample(42), model.sample(42))
    assert not all(
        np.array_equal(model.sample(s), model.sample(s + 1))
        for s in range(5)
    )
