import sys
from concurrent.futures import Future

import numpy as np
import pytest

from sapgp import ContractError, KernelOracle, KernelSpec, WorkerPool, col_dist_matmul, row_dist_matmul
from sapgp.dist import _claimed, check_indices, col_dist_update, partition, tile_ranges
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


def test_check_indices_proves_a_sorted_block_unique_without_np_unique(monkeypatch):
    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called on a strictly increasing block")

    monkeypatch.setattr(np, "unique", no_unique)
    for block in ([0, 3, 17, 250, 299], [7], list(range(300))):
        assert np.array_equal(check_indices(np.array(block), 300), block)


@pytest.mark.parametrize("block, message", [
    ([250, 3, 17, 299, 0], None),       # unsorted, valid: np.unique proves it
    ([3, 3, 9], "duplicate"),           # sorted but not strictly increasing
    ([9, 3, 9], "duplicate"),
    ([0, 3, 300], "out of range"),      # strictly increasing, last past the end
    ([-1, 3, 9], "out of range"),       # strictly increasing, first negative
    ([300, 3, 3], "out of range"),      # range is checked before duplicates
    ([5, -2, 5], "out of range"),
    ([], "empty"),
])
def test_check_indices_errors(block, message):
    if message is None:
        assert np.array_equal(check_indices(block, 300), block)
    else:
        with pytest.raises(ContractError, match=message):
            check_indices(block, 300)


class CountingPool(WorkerPool):
    """A pool that counts the tasks handed to it."""

    def __init__(self, num_workers):
        super().__init__(num_workers)
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        return super().submit(fn, *args)


def run_update(oracle, D, block, pool=None):
    """One column pass subtracting (K + lam I)[:, B] D from a fixed array."""
    target = np.arange(oracle.n * D.shape[1], dtype=np.float64).reshape(oracle.n, -1) / oracle.n

    def update(rows, local, pos, AD):
        tile = target[rows]
        tile -= AD
        return float(tile.ravel() @ tile.ravel())

    return col_dist_update(oracle, D, block, update, pool), target


@pytest.mark.parametrize("n, b", [
    (700, 300),    # 3 tiles of width TILE
    (1300, 100),   # b < TILE: 3 tiles of width 2 * TILE
    (2100, 120),   # b < TILE: 5 tiles of width 2 * TILE
    (90, 20),      # one widened tile
])
def test_col_dist_update_bitwise_across_worker_counts(n, b):
    oracle, rng = make_oracle(n)
    block = np.sort(rng.choice(n, b, replace=False))
    D = rng.standard_normal((b, 2))
    total, target = run_update(oracle, D, block)
    K = oracle.dense()
    want = np.arange(n * 2, dtype=np.float64).reshape(n, 2) / n - K[:, block] @ D
    want[block] -= oracle.lam * D
    assert np.abs(target - want).max() < 1e-12
    assert total == pytest.approx(float(np.sum(target * target)), rel=1e-12)
    for workers in (1, 2, 3, 4):
        with CountingPool(workers) as pool:
            pooled, pooled_target = run_update(oracle, D, block, pool)
        assert pooled == total
        assert np.array_equal(pooled_target, target)
        assert pool.submitted <= workers


class InlinePool(WorkerPool):
    """A pool whose tasks run to completion when submitted, one after another."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class FailingOracle:
    """Columns [256 * fail, 256 * (fail + 1)) raise; records the tiles asked for."""

    n = 256 * 6
    lam = 0.1

    def __init__(self, fail):
        self.fail = fail
        self.starts = []

    def tile(self, rows, cols):
        self.starts.append(cols[0])
        if cols[0] == 256 * self.fail:
            raise RuntimeError("boom")
        return np.zeros((len(rows), len(cols)))


def test_col_dist_update_failure_names_the_tile():
    oracle = FailingOracle(fail=2)
    block = np.arange(300)  # tiles of width TILE: six of them
    with WorkerPool(2) as pool:
        with pytest.raises(WorkerError, match="task 2 failed: boom"):
            col_dist_update(oracle, np.ones((300, 1)), block, lambda *args: 0.0, pool)


def test_col_dist_update_claims_no_tile_after_a_failure():
    oracle = FailingOracle(fail=2)
    block = np.arange(300)
    with InlinePool(3) as pool:
        with pytest.raises(WorkerError, match="task 2 failed"):
            col_dist_update(oracle, np.ones((300, 1)), block, lambda *args: 0.0, pool)
    # the first claimer takes tiles 0, 1 and 2 and fails; the others claim nothing
    assert oracle.starts == [0, 256, 512]


def test_claimers_take_every_tile_once_under_fast_thread_switching():
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CountingPool(6) as pool:  # more workers than cores
            for _ in range(20):
                calls.clear()
                results = _claimed(pool, 300, lambda i: calls.append(i) or i * i)
                assert results == [i * i for i in range(300)]
                assert sorted(calls) == list(range(300))
    finally:
        sys.setswitchinterval(interval)
    assert pool.submitted == 20 * 6
