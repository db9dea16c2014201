"""Randomized Nystrom factors, damped applications, and powering.

The factor (U, S) approximates a PSD matrix M as U diag(S) U^T, following the
numerically stable sketch route of Tropp et al. (shift, Cholesky, the factor
F = sketch chol^-T, its eigenpairs, shift removal). The eigenpairs come from
the r x r Gram matrix F^T F = V diag(sigma^2) V^T as U = F V / sigma; when that
U is not orthonormal to ORTHONORMAL_TOL (a rank-deficient or badly conditioned
F), the same call takes them from the thin SVD of F instead. Applications
always damp the factor as U diag(S) U^T + rho*I with rho > 0, by the closed
form for orthonormal U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .rng import as_generator

SHIFT_ESCALATIONS = (1.0, 1e4, 1e8)  # multiples of the eps trace shift
ORTHONORMAL_TOL = 1e-12  # max |U^T U - I| the Gram route must meet, else thin SVD


@dataclass(frozen=True)
class NystromFactor:
    """Eigenpair factor: U (dim x rank, orthonormal columns), S descending >= 0."""

    U: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=np.float64)
        S = np.asarray(self.S, dtype=np.float64).ravel()
        if U.ndim != 2 or U.shape[1] != S.shape[0]:
            raise ContractError("U columns must match S length")
        if S.size and (np.any(S < 0.0) or np.any(np.diff(S) > 0.0)):
            raise ContractError("S must be nonnegative and sorted descending")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "S", S)

    @property
    def dim(self):
        return self.U.shape[0]

    @property
    def rank(self):
        return self.S.shape[0]

    @classmethod
    def empty(cls, dim):
        """Rank-0 factor; damped applications reduce to scaling by rho."""
        return cls(np.zeros((dim, 0)), np.zeros(0))


def rand_nystrom(sketch, omega, rank, shift_scale=1.0):
    """Stable randomized Nystrom approximation from a sketch M @ omega.

    The caller guarantees ``sketch = M @ omega`` for a symmetric PSD M and a
    full-column-rank test matrix omega. Returns (U, S) with the stabilizing
    shift removed from S (clamped at zero). ``shift_scale`` multiplies the
    machine-epsilon trace shift; the default suffices unless M is numerically
    singular and omega is nearly square.
    """
    sketch = np.asarray(sketch, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if sketch.shape != omega.shape or sketch.ndim != 2:
        raise ContractError("sketch and omega must share shape (dim, columns)")
    dim, cols = omega.shape
    if not 1 <= rank <= cols or rank > dim:
        raise ContractError("need 1 <= rank <= number of sketch columns <= dim")
    sketch = sketch[:, :rank]
    omega = omega[:, :rank]

    gram = omega.T @ sketch
    gram = 0.5 * (gram + gram.T)
    shift = shift_scale * np.finfo(np.float64).eps * float(np.trace(gram))
    if shift < 0.0:
        raise NumericalError("sketch Gram has negative trace; M is not PSD")

    shifted = gram + shift * (omega.T @ omega)
    if not shifted.any():
        # M = 0 sketch: factor is exactly zero
        half = np.zeros((dim, rank))
    else:
        try:
            chol = np.linalg.cholesky(shifted)  # lower: chol @ chol.T = shifted
        except np.linalg.LinAlgError as exc:
            if np.linalg.matrix_rank(omega) < rank:
                raise ContractError("test matrix omega is rank deficient") from exc
            raise NumericalError(
                "Cholesky of the shifted Gram failed; retry with a larger shift"
            ) from exc
        half = sketch @ np.linalg.inv(chol).T  # sketch @ chol^-T

    U, sig2 = _gram_eigenpairs(half)
    if U is None:
        U, sig, _ = np.linalg.svd(half, full_matrices=False)
        sig2 = sig * sig
    S = np.maximum(sig2 - shift, 0.0)
    return NystromFactor(U, S)


def _gram_eigenpairs(half):
    """(U, sigma^2) of half = U diag(sigma) V^T from eigh(half^T half), sigma
    descending, or (None, None) when U = half V / sigma is not orthonormal to
    ORTHONORMAL_TOL (one r x r GEMM checks it)."""
    evals, V = np.linalg.eigh(half.T @ half)
    sig2, V = evals[::-1], V[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        U = (half @ V) / np.sqrt(sig2)
        err = np.abs(U.T @ U - np.eye(U.shape[1])).max()
    if not err <= ORTHONORMAL_TOL:
        return None, None
    return U, sig2


def rand_nystrom_retry(sketch, omega, rank):
    """rand_nystrom, escalating the shift through SHIFT_ESCALATIONS when the Gram
    Cholesky reports indefiniteness (numerically singular M, near-square omega)."""
    last = None
    for scale in SHIFT_ESCALATIONS:
        try:
            return rand_nystrom(sketch, omega, rank, shift_scale=scale)
        except NumericalError as exc:
            last = exc
    raise last


def _apply_damped(factor, rho, v, root):
    """(U S U^T + rho I)^-p v = U ((S + rho)^-p - rho^-p) U^T v + v rho^-p for
    p = 1/2 if ``root`` else 1: two products with U, exact because U has
    orthonormal columns. A rank-0 factor gives v / rho^p."""
    if not rho > 0.0:
        raise ContractError("rho must be positive")
    v = np.asarray(v, dtype=np.float64)
    damp = np.sqrt(rho) if root else rho
    if factor.rank == 0:
        return v / damp
    U = factor.U
    Utv = U.T @ v
    scale = 1.0 / (np.sqrt(factor.S + rho) if root else factor.S + rho) - 1.0 / damp
    scaled = Utv * scale[:, None] if v.ndim == 2 else Utv * scale
    return U @ scaled + v / damp


def apply_inv(factor, rho, g):
    """(U S U^T + rho I)^{-1} g = U (S+rho)^{-1} U^T g + (g - U U^T g)/rho."""
    return _apply_damped(factor, rho, g, root=False)


# perfbench/tracing.py counts Woodbury fallbacks through this name; there are none
apply_inv_plain = apply_inv


def apply_inv_sqrt(factor, rho, v):
    """(U S U^T + rho I)^{-1/2} v = U (S+rho)^{-1/2} U^T v + (v - U U^T v)/sqrt(rho)."""
    return _apply_damped(factor, rho, v, root=True)


def rand_power_stepsize(h_apply, factor, rho, iters=10, seed=0):
    """Reciprocal top eigenvalue of (P + rho I)^{-1/2} H (P + rho I)^{-1/2}.

    ``h_apply`` is the symmetric PSD action v -> H v; the preconditioner P is
    the (damped) Nystrom factor. Runs normalized power iterations and takes
    the Rayleigh product of the last unit iterate with its image before
    normalization, per Kuczynski & Wozniakowski style randomized powering.
    """
    if iters < 1:
        raise ContractError("need at least one power iteration")
    rng = as_generator(seed)
    v = rng.standard_normal(factor.dim)
    norm = np.linalg.norm(v)
    if norm == 0.0:  # probability zero; reseed once
        v = rng.standard_normal(factor.dim)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise NumericalError("power iteration start vector is zero")
    v = v / norm
    estimate = None
    for _ in range(iters):
        image = apply_inv_sqrt(factor, rho, v)
        image = h_apply(image)
        image = apply_inv_sqrt(factor, rho, image)
        estimate = float(v @ image)
        norm = np.linalg.norm(image)
        if norm == 0.0:
            raise NumericalError("power iteration collapsed to zero")
        v = image / norm
    if estimate is None or estimate <= 0.0:
        raise NumericalError("nonpositive Rayleigh estimate; H is not PSD")
    return 1.0 / estimate
