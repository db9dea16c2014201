import itertools

import numpy as np
import pytest

from sapgp import ContractError, DppModel, expected_projection_mc, lemma2_lower_bound, smoothed_condition
from sapgp.dpp import SAMPLE_CHUNK, log_elementary_symmetric
from sapgp.rng import as_generator, substream
from sapgp.theory import SyntheticSpectrumProblem


def random_psd(rng, n, jitter=0.3):
    G = rng.standard_normal((n, n))
    return G @ G.T + jitter * np.eye(n)


def eigh_model(A, sample_size):
    """The exact k-DPP of a symmetric positive definite matrix."""
    w, V = np.linalg.eigh(A)
    return DppModel(w[::-1].copy(), V[:, ::-1].copy(), sample_size, validate=False)


def elementary_symmetric(values, order):
    """Table E[l, m] = e_l(values[0..m-1]): the linear-space reference."""
    values = np.asarray(values, dtype=np.float64).ravel()
    n = values.size
    table = np.zeros((order + 1, n + 1))
    table[0, :] = 1.0
    for m in range(1, n + 1):
        table[1:, m] = table[1:, m - 1] + values[m - 1] * table[:-1, m - 1]
    return table


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
    hits = int(np.sum(model.sample_batch([rng] * draws)[:, 0] == 0))
    p_hat = hits / draws
    sigma = np.sqrt(0.75 * 0.25 / draws)
    assert abs(p_hat - 0.75) <= 3 * sigma


def test_full_size_sample_is_everything():
    rng = np.random.default_rng(3)
    A = random_psd(rng, 5)
    model = eigh_model(A, 5)
    assert np.array_equal(model.sample(0), np.arange(5))


def test_exhaustive_determinant_frequencies():
    rng = np.random.default_rng(4)
    A = random_psd(rng, 4)
    model = eigh_model(A, 2)
    weights = {}
    for subset in itertools.combinations(range(4), 2):
        weights[subset] = np.linalg.det(A[np.ix_(subset, subset)])
    total = sum(weights.values())
    draws = 30_000
    counts = dict.fromkeys(weights, 0)
    gen = np.random.default_rng(5)
    for row in model.sample_batch([gen] * draws):
        counts[tuple(row)] += 1
    for subset, weight in weights.items():
        p = weight / total
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(counts[subset] / draws - p) <= 3.5 * sigma


def test_sample_size_bounds():
    rng = np.random.default_rng(6)
    A = random_psd(rng, 6)
    with pytest.raises(ContractError):
        eigh_model(A, 7)
    with pytest.raises(ContractError):
        eigh_model(A, 0)


def test_sampled_projection_is_projection():
    rng = np.random.default_rng(7)
    A = random_psd(rng, 12)
    model = eigh_model(A, 4)
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
    model = eigh_model(A, 2)
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
    assert sample.size == 6
    # heavily weighted to the leading indices
    assert sample.min() < 10


def test_sampler_deterministic_in_seed():
    rng = np.random.default_rng(12)
    A = random_psd(rng, 10)
    model = eigh_model(A, 3)
    assert np.array_equal(model.sample(42), model.sample(42))
    assert not all(
        np.array_equal(model.sample(s), model.sample(s + 1))
        for s in range(5)
    )


# ---------------------------------------------------------------------------
# the batched sampler against the one-sample chain rule it replaced


def serial_sample(model, seed):
    """Kulesza & Taskar Alg. 1 one sample at a time: phase-1 uniforms, then
    one uniform per chain-rule step (the sampler before batching)."""
    if model._ratios is None:
        model._build_ratios()
    rng = as_generator(seed)
    n, k = model.eigvals.size, model.sample_size
    uniforms = rng.random(n)
    remaining, selected, m = k, [], n
    while remaining > 0:
        if m == remaining:
            selected.extend(range(m - 1, -1, -1))
            break
        if uniforms[n - m] < model._ratios[remaining][m]:
            selected.append(m - 1)
            remaining -= 1
        m -= 1
    V = model.eigvecs[:, selected]
    norms = np.einsum("ij,ij->i", V, V)
    coeffs = np.empty((n, k))
    chosen = np.empty(k, dtype=np.intp)
    for it in range(k):
        np.clip(norms, 0.0, None, out=norms)
        total = norms.sum()
        cdf = np.cumsum(norms)
        j = int(np.searchsorted(cdf, rng.random() * total, side="right"))
        j = min(j, n - 1)
        if norms[j] <= 0.0:
            j = int(np.argmax(norms))
        chosen[it] = j
        denom = np.sqrt(norms[j])
        col = V @ V[j]
        if it:
            col -= coeffs[:, :it] @ coeffs[j, :it]
        col /= denom
        coeffs[:, it] = col
        norms -= col * col
        norms[j] = 0.0
    return np.sort(chosen)


def _random_model(n, k, seed):
    A = random_psd(np.random.default_rng(seed), n)
    return eigh_model(A, k)


def _log_path_model():
    n = 60
    Q, _ = np.linalg.qr(np.random.default_rng(13).standard_normal((n, n)))
    model = DppModel(np.geomspace(1.0, 1e-16, n), Q, 6, validate=False)
    model._build_ratios()
    return model


BATCH_CASES = {
    "criterion2_n256_k32": lambda: SyntheticSpectrumProblem.poly(256, 2.0, 1e-4, seed=0).dpp_model(32),
    "k1": lambda: _random_model(40, 1, 14),
    "k_equals_n": lambda: _random_model(24, 24, 15),
    "criterion1_n64_k16": lambda: SyntheticSpectrumProblem.poly(64, 2.0, 1e-3, seed=2).dpp_model(16),
    "criterion10_n512_k32": lambda: SyntheticSpectrumProblem.poly(
        512, 2.0, 1e-4, seed=14, response="gaussian").dpp_model(32),
    "log_space_path": _log_path_model,
    # coordinate eigenvectors: norms fall to exact zeros and E holds exact zeros
    "identity_basis": lambda: DppModel(np.geomspace(1, 1e-12, 64), np.eye(64), 12),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_sample_batch_matches_serial_chain_rule(case):
    model = BATCH_CASES[case]()
    keys = [(s, t) for s in range(5) for t in range(100)]
    batch = model.sample_batch(substream(s, "block", t) for s, t in keys)
    assert batch.shape == (500, model.sample_size)
    for row, (s, t) in zip(batch, keys):
        assert np.array_equal(row, serial_sample(model, substream(s, "block", t)))
    shared = model.sample_batch([np.random.default_rng(16)] * 40)
    gen = np.random.default_rng(16)
    for row in shared:
        assert np.array_equal(row, serial_sample(model, gen))


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_chosen_rows_of_selected_eigenvectors_have_full_rank(case):
    # a projection DPP sample spans the chosen eigenvectors: V[chosen, selected]
    # is k x k and nonsingular
    model = BATCH_CASES[case]()
    n, k = model.eigvals.size, model.sample_size
    batch = model.sample_batch(substream(21, "block", t) for t in range(64))
    for t, row in enumerate(batch):
        selected = model._select_eigenvectors(substream(21, "block", t).random(n))
        assert np.linalg.matrix_rank(model.eigvecs[np.ix_(row, selected)]) == k


def test_sample_is_one_row_of_a_batch():
    model = _random_model(30, 5, 17)
    seeds = list(range(SAMPLE_CHUNK + 3))
    batch = model.sample_batch(seeds)
    for seed, row in zip(seeds, batch):
        assert np.array_equal(model.sample(seed), row)


def test_sample_batch_empty():
    model = _random_model(10, 3, 18)
    out = model.sample_batch([])
    assert out.shape == (0, 3)


def test_expected_projection_mc_generator_seed_unchanged():
    model = _random_model(12, 3, 19)
    est = expected_projection_mc(model, 50, np.random.default_rng(20), basis="eigen")
    gen = np.random.default_rng(20)
    total = np.zeros((12, 12))
    total_sq = np.zeros((12, 12))
    for _ in range(50):
        proj = model.projection_matrix(serial_sample(model, gen), "eigen")
        total += proj
        total_sq += proj * proj
    mean = total / 50
    stderr = np.sqrt(np.maximum(total_sq / 50 - mean * mean, 0.0) / 50)
    assert np.array_equal(est.mean, mean)
    assert np.array_equal(est.stderr, stderr)
