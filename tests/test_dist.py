import sys

import numpy as np
import pytest

from sapgp import ContractError, KernelOracle, KernelSpec, WorkerPool, col_dist_matmul, row_dist_matmul
from sapgp.dist import partition, tile_ranges
from sapgp.errors import WorkerError


def make_oracle(n=64, seed=0):
    rng = np.random.default_rng(seed)
    spec = KernelSpec("rbf", np.array([0.8, 0.8]), 1.0)
    return KernelOracle(spec, rng.standard_normal((n, 2)), 0.3), rng


def test_partition_properties():
    for size in (0, 1, 5, 17, 100, 257):
        for parts in (1, 2, 3, 4, 7):
            ranges = partition(size, parts)
            sizes = [stop - start for start, stop in ranges]
            assert sum(sizes) == size
            assert ranges[0][0] == 0 and ranges[-1][1] == size
            covered = [i for start, stop in ranges for i in range(start, stop)]
            assert covered == list(range(size))
            nonzero = [s for s in sizes if size >= parts] or sizes
            assert max(sizes) - min(nonzero) <= 1


def test_tile_ranges_bounded():
    for size in (1, 255, 256, 257, 1000):
        ranges = tile_ranges(size)
        assert all(stop - start <= 256 for start, stop in ranges)
        assert ranges[-1][1] == size


def test_col_dist_bitwise_across_worker_counts():
    oracle, rng = make_oracle(300)
    W = rng.standard_normal((300, 3))
    B = np.sort(rng.choice(300, 40, replace=False))
    serial = col_dist_matmul(oracle, W, B)
    for workers in (1, 2, 4):
        with WorkerPool(workers) as pool:
            out = col_dist_matmul(oracle, W, B, pool)
        assert np.abs(out - serial).max() == 0.0


def test_row_dist_bitwise_across_worker_counts():
    oracle, rng = make_oracle(600)
    B = np.sort(rng.choice(600, 520, replace=False))  # spans several row tiles
    omega = rng.standard_normal((520, 5))
    serial = row_dist_matmul(oracle, omega, B)
    for workers in (1, 2, 4):
        with WorkerPool(workers) as pool:
            out = row_dist_matmul(oracle, omega, B, pool)
        assert np.abs(out - serial).max() == 0.0


def test_col_dist_zero_input():
    oracle, rng = make_oracle(50)
    B = np.arange(10)
    out = col_dist_matmul(oracle, np.zeros((50, 2)), B)
    assert np.all(out == 0.0)


def test_col_dist_matches_dense():
    oracle, rng = make_oracle(64)
    K = oracle.dense()
    W = rng.standard_normal((64, 2))
    B = np.sort(rng.choice(64, 9, replace=False))
    with WorkerPool(4) as pool:
        out = col_dist_matmul(oracle, W, B, pool)
    assert np.abs(out - K[B] @ W).max() < 1e-12


def test_row_dist_single_column_matches_block():
    oracle, rng = make_oracle(80)
    B = np.sort(rng.choice(80, 30, replace=False))
    omega = rng.standard_normal(30)
    with WorkerPool(3) as pool:
        out = row_dist_matmul(oracle, omega, B, pool)
    assert np.abs(out - oracle.block(B) @ omega).max() < 1e-12


def test_worker_failure_aborts_with_id():
    class BrokenOracle:
        n = 700

        lam = 0.1

        def tile(self, rows, cols):
            if cols[0] >= 256:
                raise RuntimeError("boom")
            return np.zeros((len(rows), len(cols)))

    with WorkerPool(2) as pool:
        with pytest.raises(WorkerError, match="worker"):
            col_dist_matmul(BrokenOracle(), np.zeros((700, 1)), np.array([0, 1]), pool)


def test_index_validation():
    oracle, _ = make_oracle(20)
    with pytest.raises(ContractError):
        col_dist_matmul(oracle, np.zeros((20, 1)), np.array([0, 0]))
    with pytest.raises(ContractError):
        col_dist_matmul(oracle, np.zeros((20, 1)), np.array([25]))


def test_block_out_is_symmetrized_from_the_column_tiles():
    class Asymmetric:  # K[i, j] = i + 2 j: no symmetry to inherit
        n = 300

        def tile(self, rows, cols):
            return rows[:, None] + 2.0 * cols[None, :]

    B = np.array([250, 3, 17, 299, 0])  # unsorted, in both column tiles
    H = np.empty((5, 5))
    out = col_dist_matmul(Asymmetric(), np.ones(300), B, block_out=H)
    T = B[:, None] + 2.0 * B[None, :]
    assert np.array_equal(H, (T + T.T) * 0.5)
    assert np.array_equal(out, col_dist_matmul(Asymmetric(), np.ones(300), B))


def test_block_out_stress_more_workers_than_cores():
    # workers write disjoint columns of one shared block_out; a lost or
    # misplaced write shows as a difference from the serial pass
    oracle, rng = make_oracle(2100)
    B = rng.permutation(2100)[:700]
    W = rng.standard_normal((2100, 2))
    ref_bb = np.empty((700, 700))
    ref = col_dist_matmul(oracle, W, B, block_out=ref_bb)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WorkerPool(8) as pool:
            for _ in range(3):
                got_bb = np.full((700, 700), np.nan)
                got = col_dist_matmul(oracle, W, B, pool, block_out=got_bb)
                assert np.array_equal(got, ref)
                assert np.array_equal(got_bb, ref_bb)
    finally:
        sys.setswitchinterval(interval)
