"""Exact fixed-size determinantal point process sampling over row indices.

The two-phase exact sampler follows Kulesza & Taskar: an eigenvector subset
of fixed size is drawn with the elementary-symmetric backward recursion, then
a sequential Gram-Schmidt chain rule samples the projection DPP on the chosen
eigenvectors. The chain rule works in eigen-coordinates, as their Alg. 1
does: it keeps the chosen directions as a k x k basis and never forms the
n x k coefficients of the projection kernel. Subset probabilities are exactly
proportional to the principal minors det(A[B, B]).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ContractError, NumericalError
from .rng import as_generator

SAMPLE_CHUNK = 16  # samples whose chain rules run in lockstep


def log_elementary_symmetric(log_values, order):
    """Table L[l, m] = log e_l(values[0..m-1]) for l <= order, m <= len(values),
    from the logs of the values: the elementary-symmetric recursion in log space."""
    log_values = np.asarray(log_values, dtype=np.float64).ravel()
    n = log_values.size
    table = np.full((order + 1, n + 1), -np.inf)
    table[0, :] = 0.0
    for m in range(1, n + 1):
        table[1:, m] = np.logaddexp(
            table[1:, m - 1], log_values[m - 1] + table[:-1, m - 1]
        )
    return table


def lemma2_lower_bound(spectrum, half_blocksize, index):
    """Lower bound lam_j / (lam_j + tail/b) on the j-th expected-projection
    eigenvalue under a 2b-sized determinantal sample (1-based j)."""
    spectrum = np.asarray(spectrum, dtype=np.float64).ravel()
    if not 1 <= index <= spectrum.size:
        raise ContractError("index out of range")
    tail = float(spectrum[half_blocksize:].sum())
    lam_j = float(spectrum[index - 1])
    return lam_j / (lam_j + tail / half_blocksize)


def smoothed_condition(spectrum, blocksize, index):
    """Smoothed condition number: mean tail mass below ``blocksize`` relative
    to the ``index``-th eigenvalue (1-based), i.e. (1/b) sum_{i>b} lam_i/lam_p."""
    spectrum = np.asarray(spectrum, dtype=np.float64).ravel()
    if not 1 <= index <= spectrum.size or blocksize < 1:
        raise ContractError("index or blocksize out of range")
    tail = float(spectrum[blocksize:].sum())
    return tail / (blocksize * float(spectrum[index - 1]))


class DppModel:
    """Eigendecomposition-backed exact fixed-size DPP sampler.

    ``eigvals``/``eigvecs`` describe the positive definite matrix A (columns
    of ``eigvecs`` are eigenvectors, eigenvalues sorted descending);
    ``sample_size`` is the fixed subset size.
    """

    def __init__(self, eigvals, eigvecs, sample_size, validate=True):
        eigvals = np.asarray(eigvals, dtype=np.float64).ravel()
        eigvecs = np.asarray(eigvecs, dtype=np.float64)
        n = eigvals.size
        if eigvecs.shape != (n, n):
            raise ContractError("eigvecs must be square and match eigvals")
        if np.any(eigvals <= 0.0):
            raise ContractError("eigenvalues must be positive (use K + lam I)")
        if np.any(np.diff(eigvals) > 0.0):
            raise ContractError("eigenvalues must be sorted descending")
        if not 1 <= int(sample_size) <= n:
            raise ContractError("sample size must lie in [1, n]")
        if validate:
            probe = np.random.default_rng(0).standard_normal((n, 3))
            err = np.abs(eigvecs @ (eigvecs.T @ probe) - probe).max()
            if err > 1e-8:
                raise ContractError("eigvecs are not orthonormal to 1e-8")
        self.eigvals = eigvals
        self.eigvecs = eigvecs
        self.sample_size = int(sample_size)
        self._ratios = None
        self._eigvecs_t = None  # eigenvectors as contiguous rows, built by the first sample
        self._half = {}

    # -- phase 1: eigenvector-subset selection ------------------------------

    def _build_ratios(self):
        """Acceptance ratios R[l][m] = lam_m e_{l-1}(m-1) / e_l(m).

        Built once from the log-space recursion, which no spread of the
        spectrum overflows; values are normalized by the largest eigenvalue.
        """
        k = self.sample_size
        n = self.eigvals.size
        logs = np.log(self.eigvals / self.eigvals[0])
        table = log_elementary_symmetric(logs, k)
        with np.errstate(invalid="ignore"):
            ratios = np.exp(logs[None, :] + table[:-1, :-1] - table[1:, 1:])
        # pad so R[l][m] indexes with 1-based l and m; force the must-take boundary
        full = np.zeros((k + 1, n + 1))
        full[1:, 1:] = np.nan_to_num(ratios, nan=0.0, posinf=0.0)
        for l in range(1, k + 1):
            full[l, l] = 1.0
        self._ratios = [row.tolist() for row in full]

    def _select_eigenvectors(self, uniforms):
        """Eigenvector indices (descending) chosen by ``n`` phase-1 uniforms."""
        if self._ratios is None:
            self._build_ratios()
        ratios = self._ratios
        n = self.eigvals.size
        uniforms = uniforms.tolist()
        remaining = self.sample_size
        selected = []
        m = n
        while remaining > 0:
            if m == remaining:
                selected.extend(range(m - 1, -1, -1))
                break
            if uniforms[n - m] < ratios[remaining][m]:
                selected.append(m - 1)
                remaining -= 1
            m -= 1
        return selected

    # -- phase 2: projection DPP on the selected eigenvectors ---------------

    def _chain_rule(self, selected, uniforms):
        """Gram-Schmidt chain rule in eigen-coordinates, in lockstep over a chunk.

        ``selected`` holds each sample's k eigenvector indices and ``uniforms``
        its k chain-rule uniforms, one row per sample. Index i is the point
        V[:, i] in R^k, its entries in the chosen eigenvectors, and
        ``norms[i]`` is its squared distance from the span of the directions
        kept so far, the rows of E. Each step picks j by the CDF of ``norms``,
        keeps e = (V[:, j] - E^T E V[:, j]) / sqrt(norms[j]) and subtracts
        (e V)^2 from ``norms``. Per chunk this holds V (chunk, k, n) and E
        (chunk, k, k). Every row gets the same operations, in the same order
        and on the same memory layout, as a sample drawn alone, so rows do not
        depend on the chunk they share.
        """
        count, k = selected.shape
        n = self.eigvals.size
        if self._eigvecs_t is None:
            self._eigvecs_t = np.ascontiguousarray(self.eigvecs.T)
        rows = np.arange(count)
        V = self._eigvecs_t[selected]
        norms = np.einsum("cki,cki->ci", V, V)
        E = np.empty((count, k, k))
        chosen = np.empty((count, k), dtype=np.intp)
        for it in range(k):
            np.maximum(norms, 0.0, out=norms)
            total = norms.sum(axis=1)
            if (total <= 0.0).any():
                raise NumericalError("projection sampler ran out of mass")
            cdf = norms.cumsum(axis=1)
            # searchsorted(cdf, u * total, side="right") on each row
            j = (cdf <= (uniforms[:, it] * total)[:, None]).sum(axis=1)
            np.minimum(j, n - 1, out=j)
            empty = norms[rows, j] <= 0.0
            if empty.any():
                j[empty] = np.argmax(norms[empty], axis=1)
            chosen[:, it] = j
            e = V[rows, :, j]
            if it:
                kept = E[:, :it]
                e -= (kept.transpose(0, 2, 1) @ (kept @ e[:, :, None]))[:, :, 0]
            e /= np.sqrt(norms[rows, j])[:, None]
            E[:, it] = e
            col = (e[:, None, :] @ V)[:, 0]
            norms -= col * col
            norms[rows, j] = 0.0
        return np.sort(chosen, axis=1)

    def sample_batch(self, seeds):
        """One exact sample per seed: sorted index rows, shape (number of seeds, k).

        Each sample draws ``rng.random(n)`` for its eigenvector subset and then
        ``rng.random(k)`` for its chain rule, in seed order, so a Generator
        passed as several seeds feeds its samples the stream they would draw
        one by one. Seeds are read and the chain rule run one chunk of
        SAMPLE_CHUNK samples at a time.
        """
        n, k = self.eigvals.size, self.sample_size
        seeds = iter(seeds)
        rows = [np.empty((0, k), dtype=np.intp)]
        while chunk := list(itertools.islice(seeds, SAMPLE_CHUNK)):
            selected = np.empty((len(chunk), k), dtype=np.intp)
            uniforms = np.empty((len(chunk), k))
            for row, seed in enumerate(chunk):
                rng = as_generator(seed)
                selected[row] = self._select_eigenvectors(rng.random(n))
                uniforms[row] = rng.random(k)
            rows.append(self._chain_rule(selected, uniforms))
        return np.concatenate(rows)

    def sample(self, seed):
        """One exact sample: a sorted index array of size ``sample_size``."""
        return self.sample_batch([seed])[0]

    # -- projections ---------------------------------------------------------

    def _half_matrix(self, basis):
        if basis not in self._half:
            sqrt_vals = np.sqrt(self.eigvals)
            if basis == "standard":
                self._half[basis] = (self.eigvecs * sqrt_vals) @ self.eigvecs.T
            elif basis == "eigen":
                self._half[basis] = (self.eigvecs * sqrt_vals).T
            else:
                raise ContractError(f"unknown basis {basis!r}")
        return self._half[basis]

    def projection_matrix(self, block, basis="standard"):
        """A^{1/2} S^T (S A S^T)^+ S A^{1/2} for one index block (dense)."""
        block = np.asarray(block, dtype=np.intp)
        half = self._half_matrix(basis)[:, block]
        VB = self.eigvecs[block, :]
        core = (VB * self.eigvals) @ VB.T
        w, Q = np.linalg.eigh(0.5 * (core + core.T))
        cutoff = self.eigvals.size * np.finfo(np.float64).eps * max(w[-1], 0.0)
        keep = w > cutoff
        G = half @ (Q[:, keep] / np.sqrt(w[keep]))
        return G @ G.T


class ProjectionEstimate:
    """Monte-Carlo mean of the sampled projection with per-entry stderr."""

    def __init__(self, mean, stderr, num_samples):
        self.mean = mean
        self.stderr = stderr
        self.num_samples = num_samples

    def diagonal(self):
        return np.diag(self.mean)

    def diagonal_stderr(self):
        return np.diag(self.stderr)

    def min_diagonal_lcb(self, sigmas=3.0):
        """Conservative lower bound on the smallest expected-projection
        eigenvalue: min over diagonal entries minus ``sigmas`` stderr."""
        return float(np.min(self.diagonal() - sigmas * self.diagonal_stderr()))


def expected_projection_mc(model, num_samples, seed, basis="standard"):
    """Monte-Carlo average of the sampled projection over exact DPP draws.

    ``basis="eigen"`` accumulates V^T Pi V directly, which is what the
    expected-projection diagonalization checks need.
    """
    n = model.eigvals.size
    if n > 512:
        raise ContractError("expected projection estimation is dense work (n <= 512)")
    if num_samples < 2:
        raise ContractError("need at least two samples for standard errors")
    total = np.zeros((n, n))
    total_sq = np.zeros((n, n))
    for block in model.sample_batch(_spawn_seed(seed, i) for i in range(num_samples)):
        proj = model.projection_matrix(block, basis)
        total += proj
        total_sq += proj * proj
    mean = total / num_samples
    var = np.maximum(total_sq / num_samples - mean * mean, 0.0)
    stderr = np.sqrt(var / num_samples)
    return ProjectionEstimate(mean, stderr, num_samples)


def _spawn_seed(seed, index):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.SeedSequence((int(seed), int(index)))
