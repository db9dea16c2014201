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
SYMMETRIZE_WIDTH = 128  # square blocks of the in-place symmetrization in ``block``

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
# The column operand carries a scale s, so the GEMM gives s times the squared
# distances: -0.5 (a power of two, so exact) puts rbf's exponent in the GEMM.
_SCALE = {"rbf": -0.5, "matern32": 1.0, "matern52": 1.0}


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
    """Kernel values from scaled squared distances ``sq`` (clamped at zero), in place,
    bitwise those of the closed forms ``variance*exp(-0.5*sq)``,
    ``(variance*(1+arg))*exp(-arg)`` and ``(variance*((1+arg)+(5/3)*sq))*exp(-arg)``."""
    sq *= _SCALE[family]
    return _gemm_values(family, variance, sq)


def _gemm_values(family, variance, t):
    """``_family_values`` of ``t = s * sq`` (s from ``_SCALE``), in place, with the
    same bits: rbf's ``-0.5*max(sq, 0)`` is ``min(t, 0)`` exactly, and a variance
    of exactly 1.0 multiplies nothing, so its pass is skipped."""
    if family == "rbf":
        np.minimum(t, 0.0, out=t)
        np.exp(t, out=t)
        return t if variance == 1.0 else np.multiply(t, variance, out=t)
    if family == "matern32":  # -arg first: 1 - (-arg) is 1 + arg exactly
        np.maximum(t, 0.0, out=t)
        np.sqrt(t, out=t)
        t *= -_SQRT3
        decay = np.exp(t)
        np.subtract(1.0, t, out=t)
    else:
        arg = np.sqrt(np.maximum(t, 0.0, out=t))
        arg *= -_SQRT5
        decay = np.exp(arg)
        np.subtract(1.0, arg, out=arg)
        t *= 5.0 / 3.0
        t += arg
    if variance != 1.0:
        t *= variance
    t *= decay
    return t


def _augment(spec, X):
    """GEMM operands of the scaled points ``z = X / lengthscales``: rows ``a = [z, |z|^2, 1]``
    and columns ``c = s * [-2z, 1, |z|^2]`` (s from ``_SCALE``), so ``a @ c.T`` is s * sq."""
    z = _scale(spec, X)
    norms = np.einsum("ij,ij->i", z, z)[:, None]
    a = np.hstack([z, norms, np.ones_like(norms)])
    s = _SCALE[spec.family]
    c = a * (-2.0 * s)
    c[:, -2:] = a[:, :-3:-1] * s  # [1, |z|^2]: the last two columns of a, reversed
    return a, c


def _values(spec, a, c, out=None):
    """k between rows ``a`` and columns ``c``: one GEMM into ``out``, transformed in place."""
    return _gemm_values(spec.family, spec.variance, np.matmul(a, c.T, out=out))


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


def _key(index, n):
    """``(key, lo, hi)``: a unit-step range as a slice (a view), else an index array (a
    gather), spanning ``lo..hi`` (``hi < lo`` if empty); an index outside [0, n) raises."""
    if isinstance(index, range) and index.step == 1:
        index, lo, hi = slice(index.start, index.stop), index.start, index.stop - 1
    else:
        index = np.asarray(index, dtype=np.intp)
        lo, hi = (index.min(), index.max()) if index.size else (0, -1)
    if lo <= hi and (lo < 0 or hi >= n):
        raise ContractError("tile index out of range")
    return index, lo, hi


def cross_kernel(spec, Xa, Xb):
    """Dense cross matrix k(Xa, Xb)."""
    return _values(spec, _augment(spec, Xa)[0], _augment(spec, Xb)[1])


def _symmetrize(tile):
    """``(tile + tile^T) * 0.5`` in place, bit for bit, in square blocks of
    SYMMETRIZE_WIDTH: the mirror of each upper block is read while it is in
    cache, and only a diagonal block, whose transpose overlaps it, is copied."""
    size = tile.shape[0]
    for start in range(0, size, SYMMETRIZE_WIDTH):
        rows = slice(start, start + SYMMETRIZE_WIDTH)
        diag = tile[rows, rows]
        np.add(diag, diag.T, out=diag)  # ufuncs read an overlapping input as a copy
        diag *= 0.5
        for cstart in range(start + SYMMETRIZE_WIDTH, size, SYMMETRIZE_WIDTH):
            cols = slice(cstart, cstart + SYMMETRIZE_WIDTH)
            upper = tile[rows, cols]
            upper += tile[cols, rows].T
            upper *= 0.5
            tile[cols, rows] = upper.T
    return tile


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
        self._aug, self._col = _augment(spec, X)

    @property
    def n(self):
        return self.X.shape[0]

    def tile(self, rows, cols, out=None):
        """Dense K[rows, cols] (index arrays or ranges) by one GEMM, into ``out`` if given.
        Equal row/col indices give the variance exactly: on the diagonal when ``rows is
        cols`` strictly increases (a sorted ``block``), else for each row r in cols' span
        ``lo..hi``, at column ``r - lo`` of a range or by comparison with an array."""
        rows, _, _ = _key(rows, self.n)
        cols, lo, hi = _key(cols, self.n)
        out = _values(self.spec, self._aug[rows], self._col[cols], out)
        rows = np.arange(rows.start, rows.stop) if isinstance(rows, slice) else rows
        if rows is cols and np.all(rows[1:] > rows[:-1]):
            np.fill_diagonal(out, self.spec.variance)
            return out
        hit = np.flatnonzero((rows >= lo) & (rows <= hi))
        if isinstance(cols, slice):
            out[hit, rows[hit] - lo] = self.spec.variance
        else:
            i, j = np.nonzero(rows[hit, None] == cols[None, :])
            out[hit[i], j] = self.spec.variance
        return out

    def block(self, block, out=None):
        """Dense K[block, block] as ``(T + T^T) * 0.5``, into ``out`` (b x b) if
        given: symmetric to the last bit, its diagonal exactly the kernel
        variance; one GEMM if sorted."""
        block = dist.check_indices(block, self.n)
        return _symmetrize(self.tile(block, block, out))

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
                for cstart, cstop in tiles[i:]:
                    tile = self.tile(range(start, stop), range(cstart, cstop))
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
        if W.shape[:1] != (self.n,):
            raise ContractError("W must have n rows")
        zs = _augment(self.spec, Xstar)[0]
        out = np.zeros(zs.shape[:1] + W.shape[1:])
        for start, stop in dist.tile_ranges(self.n):
            out += _values(self.spec, zs, self._col[start:stop]) @ W[start:stop]
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
        """A copy of K[rows, cols]; an in-range unit-step ``range`` of cols is read as a slice."""
        rows = np.asarray(rows, dtype=np.intp)
        if isinstance(cols, range) and cols.step == 1 and 0 <= cols.start <= cols.stop <= self.n:
            return self.K[rows, cols.start:cols.stop]
        return self.K[np.ix_(rows, np.asarray(cols, dtype=np.intp))]

    def block(self, block, out=None):
        block = dist.check_indices(block, self.n)
        return np.positive(self.K[np.ix_(block, block)], out=out)  # an exact copy into out

    def dense(self):
        return self.K

    def matmul(self, M, pool=None):
        """K @ M; ``pool`` is accepted for the oracle contract and unused."""
        return self.K @ np.asarray(M, dtype=np.float64)

    def cross_matmul(self, Xstar, W):
        raise ContractError("a dense test oracle has no input points")

