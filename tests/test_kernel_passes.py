"""Property tests: each kernel tile is evaluated once per use, with the same
bits for every worker count.

Sizes straddle the tile width, blocks run up to b = n and arrive unsorted.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sapgp import KernelOracle, KernelSpec, RunConfig, WorkerPool, col_dist_matmul, sap_solve
from sapgp.dist import TILE, tile_ranges
from sapgp.kernels import FAMILIES, DenseOracle
from sapgp.rng import substream

SIZES = (TILE - 1, TILE, TILE + 1, 2 * TILE + 1)
VARIANCE = 1.7
PROPERTY = settings(max_examples=20, deadline=None)


def kernel_oracle(family, n, seed):
    rng = np.random.default_rng(seed)
    spec = KernelSpec(family, np.array([0.9, 1.4]), VARIANCE)
    return KernelOracle(spec, rng.standard_normal((n, 2)), 0.1), rng


@st.composite
def block_problems(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.sampled_from(SIZES))
    b = draw(st.one_of(st.just(n), st.integers(1, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    oracle, rng = kernel_oracle(family, n, seed)
    block = rng.permutation(n)[:b]  # unsorted
    W = rng.standard_normal((n, draw(st.integers(1, 3))))
    return oracle, block, W


@PROPERTY
@given(block_problems())
def test_block_product_and_block_bitwise_across_workers(problem):
    oracle, block, W = problem
    b = block.size
    product = col_dist_matmul(oracle, W, block)
    Kbb = oracle.block(block)
    buffer = np.full((b, b), np.nan)
    assert oracle.block(block, buffer) is buffer and np.array_equal(buffer, Kbb)
    assert np.array_equal(Kbb, Kbb.T)
    assert np.all(np.diag(Kbb) == VARIANCE)
    # K[B,B] gathered from the product's column tiles agrees to rounding
    gathered = np.hstack([oracle.tile(block, np.arange(start, stop))
                          for start, stop in tile_ranges(oracle.n)])[:, block]
    assert np.abs(Kbb - gathered).max() <= 1e-14
    # a sorted block's diagonal fast path gives the generic equal-index mask's bits
    ordered = np.sort(block)
    generic = oracle.tile(ordered, ordered.copy())
    assert np.array_equal(oracle.block(ordered), (generic.T + generic) * 0.5)
    for workers in (1, 2, 4):
        with WorkerPool(workers) as pool:
            assert np.array_equal(col_dist_matmul(oracle, W, block, pool), product)


@PROPERTY
@given(st.sampled_from(FAMILIES), st.sampled_from(SIZES), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 1, 3]))
def test_symmetric_pair_matmul(family, n, seed, cols):
    oracle, rng = kernel_oracle(family, n, seed)
    M = rng.standard_normal(n if cols is None else (n, cols))
    serial = oracle.matmul(M)
    assert serial.shape == M.shape
    ref = oracle.dense() @ M
    assert np.abs(serial - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    for workers in (1, 2, 3, 4):
        with WorkerPool(workers) as pool:
            assert np.array_equal(oracle.matmul(M, pool), serial)


def reference_sap(oracle, Y, blocksize, iters, seed):
    """Sketch-and-project written out: K[B,B] from ``oracle.block``, no look-ahead."""
    n = oracle.n
    W = np.zeros_like(Y)
    for t in range(iters):
        block = np.sort(substream(seed, "block", t).choice(n, size=blocksize, replace=False))
        grad = col_dist_matmul(oracle, W, block) + oracle.lam * W[block] - Y[block]
        H = oracle.block(block)
        H[np.diag_indices_from(H)] += oracle.lam
        W[block] -= np.linalg.solve(H, grad)
    return W


@PROPERTY
@given(st.sampled_from(SIZES), st.integers(0, 2**32 - 1), st.data())
def test_dense_sap_matches_block_reference(n, seed, data):
    b = data.draw(st.one_of(st.just(n), st.integers(1, n)))
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    oracle = DenseOracle(G @ G.T / n, 1e-2)
    Y = rng.standard_normal((n, 2))
    iters = 12
    config = RunConfig(lam=1e-2, solver_id="sap", blocksize=b, max_iters=iters,
                       residual_every=0, seed=seed % 1000)
    result = sap_solve(oracle, Y, config)
    assert np.array_equal(result.W, reference_sap(oracle, Y, b, iters, seed % 1000))
