"""Worker-pool partitioned kernel products with a fixed reduction order.

Partial products are always computed at a fixed tile granularity and combined
in ascending task order, so a product is bit-identical for every worker
count: changing ``num_workers`` only changes which tasks each worker executes,
never the arithmetic.
"""

from __future__ import annotations

import collections
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ContractError, WorkerError

# Column/row tile width; also the unit of work handed to the pool.
TILE = 256


def partition(size, parts):
    """Split ``range(size)`` into ``parts`` contiguous ranges, sizes differing
    by at most one. Returns a list of (start, stop) pairs covering [0, size)."""
    if size < 0 or parts < 1:
        raise ContractError("partition needs size >= 0 and parts >= 1")
    parts = min(parts, max(size, 1))
    base, extra = divmod(size, parts)
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def tile_ranges(size, width=TILE):
    """The fixed decomposition of ``range(size)`` into tiles of at most
    ``width`` (worker-count free)."""
    return partition(size, max(1, math.ceil(size / width)))


class WorkerPool:
    """Thread pool executing whole tiles; results reduced in tile order."""

    def __init__(self, num_workers=1):
        if int(num_workers) < 1:
            raise ContractError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self._executor = None

    def _ensure_executor(self):
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.num_workers)
        return self._executor

    def submit(self, fn, *args):
        """Run ``fn(*args)`` on a pool thread; returns its future."""
        return self._ensure_executor().submit(fn, *args)

    def close(self):
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _ordered(pool, count, task):
    """Yield ``task(i)`` for i in 0..count-1, in order.

    On a pool each task is one future, and at most two per worker are queued
    or finished ahead of the consumer, so a caller that folds each result as
    it arrives holds O(workers) results at once. A failing task aborts the
    whole call.
    """
    if pool is None or pool.num_workers == 1 or count <= 1:
        for i in range(count):
            yield task(i)
        return
    executor = pool._ensure_executor()
    window = 2 * pool.num_workers
    futures = collections.deque()
    submitted = 0
    try:
        for i in range(count):
            while submitted < count and len(futures) < window:
                futures.append(executor.submit(task, submitted))
                submitted += 1
            try:
                result = futures.popleft().result()
            except Exception as exc:  # abort, naming the task
                raise WorkerError(f"worker task {i} failed: {exc}") from exc
            yield result
    finally:
        for fut in futures:
            fut.cancel()


def check_indices(block, n):
    """Validate a row-index block: in range, no duplicates (no ``np.unique`` if sorted)."""
    block = np.asarray(block, dtype=np.intp).ravel()
    if block.size == 0:
        raise ContractError("empty index block")
    increasing = bool(np.all(block[1:] > block[:-1]))
    lo, hi = (block[0], block[-1]) if increasing else (block.min(), block.max())
    if lo < 0 or hi >= n:
        raise ContractError("block index out of range")
    if not increasing and np.unique(block).size != block.size:
        raise ContractError("duplicate index in block")
    return block


def col_dist_matmul(oracle, W, block, pool=None):
    """K[block, :] @ W via column tiles, summed in ascending tile order."""
    n = oracle.n
    block = check_indices(block, n)
    W = np.asarray(W, dtype=np.float64)
    vector = W.ndim == 1
    W2 = W[:, None] if vector else W
    if W2.shape[0] != n:
        raise ContractError("W must have n rows")
    tiles = tile_ranges(n)

    def task(i):
        start, stop = tiles[i]
        return oracle.tile(block, range(start, stop)) @ W2[start:stop]

    out = np.zeros((block.size, W2.shape[1]))
    for part in _ordered(pool, len(tiles), task):
        out += part
    return out[:, 0] if vector else out


def col_dist_update(oracle, D, block, update, pool=None):
    """Hand each column tile of (K + lam I)[:, block] @ D to ``update``.

    The column tiles K[block, rows] of ``col_dist_matmul``, used the other way
    round: ``update(rows, local, pos, AD)`` gets ``rows`` as a slice and
    AD = (K + lam I)[rows, block] @ D, formed as (D^T K[block, rows])^T plus
    ``lam D[pos]`` on the rows ``local`` = ``block[pos] - rows.start`` that
    the block shares with the tile (``lam`` is ``oracle.lam``). A block
    shorter than TILE gets tiles TILE // b times as wide, so each task still
    covers about TILE x TILE entries. Calls run as tasks on ``pool``, so
    ``update`` must write only its own rows. The floats they return are
    summed in ascending tile order, so the sum is bit-identical for every
    worker count.
    """
    n = oracle.n
    block = check_indices(block, n)
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != block.size:
        raise ContractError("D must be 2-d with one row per block index")
    tiles = tile_ranges(n, TILE * max(1, TILE // block.size))

    def task(i):
        start, stop = tiles[i]
        AD = (D.T @ oracle.tile(block, range(start, stop))).T
        pos = np.flatnonzero((block >= start) & (block < stop))
        local = block[pos] - start
        AD[local] += oracle.lam * D[pos]
        return update(slice(start, stop), local, pos, AD)

    total = 0.0
    for part in _ordered(pool, len(tiles), task):
        total += part
    return total


def row_dist_matmul(oracle, omega, block, pool=None):
    """K[block, block] @ omega via row tiles, concatenated in tile order."""
    n = oracle.n
    block = check_indices(block, n)
    omega = np.asarray(omega, dtype=np.float64)
    vector = omega.ndim == 1
    om2 = omega[:, None] if vector else omega
    if om2.shape[0] != block.size:
        raise ContractError("omega must have one row per block index")
    tiles = tile_ranges(block.size)

    def task(i):
        start, stop = tiles[i]
        return oracle.tile(block[start:stop], block) @ om2

    out = np.vstack(list(_ordered(pool, len(tiles), task)))
    return out[:, 0] if vector else out
