"""Kernel families and matrix-free block access to K = k(X, X).

Solvers never materialize the kernel matrix: they see it through row-block
and block-block tiles served by an oracle. A dense path exists below
``DENSE_LIMIT`` so tests can compare against explicit matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dist
from .errors import ContractError, ValidationError

FAMILIES = ("rbf", "matern32", "matern52")
DENSE_LIMIT = 4096

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family with per-dimension (ARD) lengthscales and variance."""

    family: str
    lengthscales: np.ndarray
    variance: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractError(f"unknown kernel family {self.family!r}")
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=np.float64))
        if ls.ndim != 1 or not np.all(np.isfinite(ls)) or np.any(ls <= 0.0):
            raise ContractError("lengthscales must be positive finite reals")
        if not np.isfinite(self.variance) or self.variance <= 0.0:
            raise ContractError("variance must be positive")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "variance", float(self.variance))


def _scale(spec, X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ContractError("points must form a 2-d array")
    d = X.shape[1]
    ls = spec.lengthscales
    if ls.size not in (1, d):
        raise ContractError(f"lengthscales of size {ls.size} do not match d={d}")
    return X / ls


def _family_values(family, variance, sq):
    """Kernel values from scaled squared distances (clamped at zero).

    Works in place: ``sq`` is overwritten and returned. Each family keeps the
    operation order of its closed form, ``variance*exp(-0.5*sq)``,
    ``(variance*(1+arg))*exp(-arg)`` and
    ``(variance*((1+arg)+(5/3)*sq))*exp(-arg)``, so the values are bitwise
    those of the out-of-place expressions.
    """
    np.maximum(sq, 0.0, out=sq)
    if family == "rbf":
        sq *= -0.5
        np.exp(sq, out=sq)
        sq *= variance
        return sq
    if family == "matern32":
        np.sqrt(sq, out=sq)
        sq *= _SQRT3
        decay = np.negative(sq)
        np.exp(decay, out=decay)
        sq += 1.0
        sq *= variance
        sq *= decay
        return sq
    arg = np.sqrt(sq)
    arg *= _SQRT5
    decay = np.negative(arg)
    np.exp(decay, out=decay)
    arg += 1.0
    sq *= 5.0 / 3.0
    sq += arg
    sq *= variance
    sq *= decay
    return sq


def _augment(spec, X):
    """Scaled points ``z = X / lengthscales`` as rows ``[z, |z|^2, 1]``."""
    z = _scale(spec, X)
    norms = np.einsum("ij,ij->i", z, z)[:, None]
    return np.hstack([z, norms, np.ones_like(norms)])


def _values(spec, a, b):
    """k between augmented points: ``a @ [-2z, 1, |z|^2].T``, the right side formed
    from ``b``, is the squared distance matrix in one GEMM, turned into k in place."""
    rhs = b * -2.0
    rhs[:, -2:] = b[:, :-3:-1]  # [1, |z|^2]: the last two columns of b, reversed
    return _family_values(spec.family, spec.variance, a @ rhs.T)


def kernel_eval(spec, x, y):
    """Single kernel value k(x, y)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape != y.shape:
        raise ContractError("point dimensions do not match")
    za = _scale(spec, x[None, :])[0]
    zb = _scale(spec, y[None, :])[0]
    diff = za - zb
    sq = np.array([[float(diff @ diff)]])
    return float(_family_values(spec.family, spec.variance, sq)[0, 0])


def cross_kernel(spec, Xa, Xb):
    """Dense cross matrix k(Xa, Xb)."""
    return _values(spec, _augment(spec, Xa), _augment(spec, Xb))


class KernelOracle:
    """Lazy evaluator for tiles of K = k(X, X); shares X read-only.

    ``lam`` is housed here so callers can form products with K + lam*I.
    """

    def __init__(self, spec, X, lam):
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[0] < 1:
            raise ContractError("X must be a non-empty 2-d array")
        if not np.all(np.isfinite(X)):
            raise ValidationError("non-finite training inputs")
        if not lam > 0.0:
            raise ContractError("likelihood variance lam must be positive")
        self.spec = spec
        self.X = X
        self.lam = float(lam)
        self._aug = _augment(spec, X)

    @property
    def n(self):
        return self.X.shape[0]

    def tile(self, rows, cols):
        """Dense K[rows, cols] from one GEMM; equal row/col indices (sought among
        rows within the span of ``cols``) give exactly the kernel variance."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        out = _values(self.spec, self._aug[rows], self._aug[cols])
        if cols.size:
            hit = np.flatnonzero((rows >= cols.min()) & (rows <= cols.max()))
            i, j = np.nonzero(rows[hit, None] == cols[None, :])
            out[hit[i], j] = self.spec.variance
        return out

    def block(self, block):
        """Dense ``dist.symmetrize(K[block, block])``: symmetric to the last bit,
        its diagonal exactly the kernel variance."""
        block = dist.check_indices(block, self.n)
        return dist.symmetrize(self.tile(block, block))

    def dense(self):
        """Full K for test oracles; refuses above DENSE_LIMIT."""
        if self.n > DENSE_LIMIT:
            raise ContractError(f"dense kernel matrix refused for n={self.n}")
        return self.block(np.arange(self.n))

    def matmul(self, M, pool=None):
        """K @ M without materializing K, evaluating each tile pair once.

        Only tiles K[i, j] with j >= i are evaluated; an off-diagonal tile is
        used twice, as K_ij M_j for row tile i and as K_ij^T M_i for row tile
        j. One task on ``pool`` (a ``dist.WorkerPool``, or None for serial)
        takes row tile k and its mirror T-1-k, so tasks do equal work; it
        sums its contributions into one n x m array, and the tasks' arrays
        are folded in task order as they arrive, so the result is
        bit-identical for every worker count.
        """
        M = np.asarray(M, dtype=np.float64)
        vector = M.ndim == 1
        M2 = M[:, None] if vector else M
        if M2.shape[0] != self.n:
            raise ContractError("M must have n rows")
        tiles = dist.tile_ranges(self.n)
        count = len(tiles)

        def task(k):
            acc = np.zeros_like(M2)
            for i in sorted({k, count - 1 - k}):
                start, stop = tiles[i]
                rows = np.arange(start, stop)
                for cstart, cstop in tiles[i:]:
                    tile = self.tile(rows, np.arange(cstart, cstop))
                    acc[start:stop] += tile @ M2[cstart:cstop]
                    if cstart != start:
                        acc[cstart:cstop] += tile.T @ M2[start:stop]
            return acc

        out = np.zeros_like(M2)
        for part in dist._ordered(pool, (count + 1) // 2, task):
            out += part
        return out[:, 0] if vector else out

    def cross_matmul(self, Xstar, W):
        """k(Xstar, X) @ W, tiled over training points."""
        W = np.asarray(W, dtype=np.float64)
        zs = _augment(self.spec, Xstar)
        out = np.zeros(zs.shape[:1] + W.shape[1:])
        for start, stop in dist.tile_ranges(self.n):
            out += _values(self.spec, zs, self._aug[start:stop]) @ W[start:stop]
        return out


class DenseOracle:
    """Dense symmetric matrix behind the same tile contract (synthetic tests)."""

    def __init__(self, K, lam):
        K = np.asarray(K, dtype=np.float64)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ContractError("K must be square")
        if not lam > 0.0:
            raise ContractError("likelihood variance lam must be positive")
        # exact symmetry regardless of how K was assembled
        upper = np.triu(K)
        self.K = upper + np.triu(K, 1).T
        self.lam = float(lam)

    @property
    def n(self):
        return self.K.shape[0]

    def tile(self, rows, cols):
        """K[rows, cols]; an ascending in-range run of ``cols`` is served as a slice."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        if cols.size and np.all(np.diff(cols) == 1) and 0 <= cols[0] and cols[-1] < self.n:
            return self.K[rows, cols[0]:cols[-1] + 1]
        return self.K[np.ix_(rows, cols)]

    def block(self, block):
        block = dist.check_indices(block, self.n)
        return self.K[np.ix_(block, block)]

    def dense(self):
        return self.K

    def matmul(self, M, pool=None):
        """K @ M; ``pool`` is accepted for the oracle contract and unused."""
        return self.K @ np.asarray(M, dtype=np.float64)

    def cross_matmul(self, Xstar, W):
        raise ContractError("a dense test oracle has no input points")

