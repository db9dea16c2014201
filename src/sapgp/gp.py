"""GP priors, pathwise-conditioning samples with the posterior mean, and metrics.

Pathwise conditioning turns a prior draw f and noise zeta ~ N(0, lam I) into
a posterior sample via a single regularized solve:

    f_post(Xs) = f(Xs) + k(Xs, X) (K + lam I)^{-1} (y - f(X) - zeta)

using the prior cross-covariance k(Xs, X) in the update term (Wilson et al.,
"Efficiently sampling functions from Gaussian process posteriors").
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dist import tile_ranges
from .errors import ContractError
from .kernels import cross_kernel
from .rng import as_generator, substream

VARIANCE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# random features


@dataclass(frozen=True)
class RandomFeatureMap:
    """Cosine feature map whose inner products estimate the kernel.

    Frequencies follow the kernel's spectral density (Gaussian for the RBF
    family, multivariate-t with 3 or 5 degrees of freedom for the Matern
    halves), phases are uniform on [0, 2pi).
    """

    frequencies: np.ndarray
    phases: np.ndarray
    variance: float

    @property
    def num_features(self):
        return self.frequencies.shape[0]

    @classmethod
    def sample(cls, spec, d, num_features, seed):
        """Features for d-dimensional points; one lengthscale serves every dimension."""
        if spec.lengthscales.size not in (1, d):
            raise ContractError(f"lengthscales of size {spec.lengthscales.size} do not match d={d}")
        rng = as_generator(seed)
        normal = rng.standard_normal((num_features, d))
        if spec.family == "rbf":
            freq = normal
        elif spec.family == "matern32":
            freq = normal * np.sqrt(3.0 / rng.chisquare(3.0, size=(num_features, 1)))
        elif spec.family == "matern52":
            freq = normal * np.sqrt(5.0 / rng.chisquare(5.0, size=(num_features, 1)))
        else:
            raise ContractError(f"no spectral sampler for family {spec.family!r}")
        freq = freq / spec.lengthscales
        phases = rng.uniform(0.0, 2.0 * np.pi, size=num_features)
        return cls(freq, phases, spec.variance)

    def _points(self, X):
        """X as a float64 point matrix of the map's input dimension."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.frequencies.shape[1]:
            raise ContractError("point dimension does not match the feature map")
        return X

    def features(self, X):
        X = self._points(X)
        scale = math.sqrt(2.0 * self.variance / self.num_features)
        phi = X @ self.frequencies.T
        phi += self.phases
        np.cos(phi, out=phi)
        phi *= scale
        return phi


# ---------------------------------------------------------------------------
# prior samplers over fixed train/test locations


class RandomFeaturePrior:
    """Batched prior draws at fixed train/test points via random features.

    The feature matrices are never held: ``draw_state`` evaluates
    phi(X[rows]) @ theta one row tile at a time, so memory is O((n + t) s)
    plus one tile of features, whatever the number of features q. The values
    equal the whole-matrix product phi(X) @ theta wherever the BLAS gives a
    row tile the bits it gives those rows inside the whole product.
    """

    def __init__(self, rfm, X, Xstar):
        self.rfm = rfm
        self.X = rfm._points(X)
        self.Xstar = rfm._points(Xstar)

    def draw_state(self, seed, num_samples):
        """(train values, test values, feature-space weights q x s)."""
        theta = as_generator(seed).standard_normal((self.rfm.num_features, num_samples))
        return self._values(self.X, theta), self._values(self.Xstar, theta), theta

    def _values(self, X, theta):
        out = np.empty((X.shape[0], theta.shape[1]))
        for start, stop in tile_ranges(X.shape[0]):
            out[start:stop] = self.rfm.features(X[start:stop]) @ theta
        return out


class ExactPrior:
    """Exact joint GP prior over train and test points (desk-scale only).

    Used where the pathwise identity is checked against the closed-form
    posterior: the random-feature approximation error would not be covered by
    Monte-Carlo error bars.
    """

    def __init__(self, spec, X, Xstar, jitter=1e-10):
        X = np.asarray(X, dtype=np.float64)
        Xstar = np.asarray(Xstar, dtype=np.float64)
        joint = np.vstack([X, Xstar])
        if joint.shape[0] > 4096:
            raise ContractError("exact prior is dense work")
        cov = cross_kernel(spec, joint, joint)
        cov[np.diag_indices_from(cov)] += jitter * spec.variance
        self._chol = np.linalg.cholesky(cov)
        self._n = X.shape[0]

    def draw_state(self, seed, num_samples):
        draws = self._chol @ as_generator(seed).standard_normal(
            (self._chol.shape[0], num_samples)
        )
        return draws[: self._n], draws[self._n :], None


# ---------------------------------------------------------------------------
# pathwise posterior samples


@dataclass
class PosteriorSampleSet:
    """Pathwise posterior draws at the test points plus the mean system.

    ``prior_weights`` holds the feature-space weights of the prior draws
    (q x s) when the prior is feature-based, so each posterior sample stays a
    function: sample_j(X) = phi(X) @ prior_weights[:, j] + k(X, .) @
    sample_weights[:, j]. Exact priors leave it None (samples are pinned to
    the test points).
    """

    mean_weights: np.ndarray        # (n,)
    sample_weights: np.ndarray      # (n, s)
    mean_values: np.ndarray         # (t,)
    sample_values: np.ndarray       # (t, s)
    prior_weights: np.ndarray | None = None

    @property
    def num_samples(self):
        return self.sample_values.shape[1]

    def sample_mean(self):
        return self.sample_values.mean(axis=1)

    def sample_variance(self):
        return self.sample_values.var(axis=1, ddof=1)

    def sample_covariance(self):
        return np.cov(self.sample_values, ddof=1)

    def predictive_variance(self, lam):
        """Per-point Gaussian predictive variance: sample variance plus the
        likelihood variance."""
        return self.sample_variance() + lam


def pathwise_sample(oracle, prior, y, num_samples, seed, solve_fn, Xstar=None, cross=None):
    """Draw pathwise-conditioned posterior samples at the test points.

    All sample systems and the mean system are solved as one multi-RHS batch
    (num_samples + 1 columns). ``prior`` provides batched train/test values;
    ``cross`` overrides the k(Xstar, X) product for oracles without points.
    """
    if num_samples < 1:
        raise ContractError("need at least one posterior sample")
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.shape[0]
    f_train, f_test, prior_weights = prior.draw_state(
        substream(seed, "prior"), num_samples
    )
    rhs = np.empty((n, num_samples + 1))
    rhs[:, 0] = y
    np.subtract(y[:, None], f_train, out=rhs[:, 1:])
    del f_train
    # the noise zeta ~ N(0, lam I) is drawn in row tiles from one stream; a
    # Generator fills rows in order, so the tiles read the values of one draw
    zeta_rng = substream(seed, "zeta")
    scale = math.sqrt(oracle.lam)
    for start, stop in tile_ranges(n):
        rhs[start:stop, 1:] -= scale * zeta_rng.standard_normal((stop - start, num_samples))
    weights = solve_fn(oracle, rhs)
    if cross is None:
        def cross(W):
            return oracle.cross_matmul(Xstar, W)
    evals = cross(weights)
    return PosteriorSampleSet(
        mean_weights=weights[:, 0],
        sample_weights=weights[:, 1:],
        mean_values=evals[:, 0],
        sample_values=f_test + evals[:, 1:],
        prior_weights=prior_weights,
    )


# ---------------------------------------------------------------------------
# metrics


def rmse(pred, truth):
    pred = np.asarray(pred, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    if pred.shape != truth.shape:
        raise ContractError("prediction/truth lengths differ")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def mean_nll(mean_pred, var_pred, truth):
    """Mean Gaussian negative log-likelihood over test points.

    Non-positive variances are clamped at 1e-12 (a RuntimeWarning counts the
    clamped entries).
    """
    mean_pred = np.asarray(mean_pred, dtype=np.float64).ravel()
    var_pred = np.asarray(var_pred, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    if not (mean_pred.shape == var_pred.shape == truth.shape):
        raise ContractError("metric inputs must share length")
    bad = var_pred < VARIANCE_FLOOR
    if np.any(bad):
        warnings.warn(
            f"clamped {int(bad.sum())} non-positive predictive variances",
            RuntimeWarning,
        )
        var_pred = np.maximum(var_pred, VARIANCE_FLOOR)
    nll = 0.5 * np.log(2.0 * np.pi * var_pred) + (truth - mean_pred) ** 2 / (2.0 * var_pred)
    return float(nll.mean())
