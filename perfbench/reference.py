"""A fixed reference kernel that measures how fast the host is running now.

A shared host's speed drifts by a quarter or more within minutes, and the
drift reaches every run of the benchmark alike.  The timed loop therefore
runs this kernel between operations, outside their timed regions, and
``op_p50_rel`` reports the median operation time in units of the kernel's
median time in the same run.  A change to ``repro`` moves the operations
and not the kernel; a slower host moves both.

The kernel imports nothing from ``repro``, so no change to the program can
move it.  Its work is the array work the update operations spend most of
their time on: a stable argsort with a scatter-add, sparse matrix-vector
products and an ``einsum`` block product.  Over eleven runs of one seed on a
shared 2-core VM, dividing by it cut the quartile spread of the median
update from 0.128 to 0.055.  A pure-Python part (splitting text lines into
dictionaries) tracked neither the updates nor the derives and was left out.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

__all__ = ["SHARE", "ReferenceKernel"]

#: share of the timed loop's operation time spent running the kernel
SHARE = 0.1

_SEED = 12345
_USERS = 3000
_KEYS = 200_000
_NNZ = 300_000
_MATVECS = 10


class ReferenceKernel:
    """Seeded inputs built once; :meth:`run` times one pass over them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(_SEED)
        self._keys = rng.integers(0, 10**9, _KEYS)
        self._weights = rng.random(_KEYS)
        rows = rng.integers(0, _USERS, _NNZ)
        cols = rng.integers(0, _USERS, _NNZ)
        self._matrix = sp.csr_matrix((rng.random(_NNZ), (rows, cols)), shape=(_USERS, _USERS))
        self._vector = rng.random(_USERS)
        self._left = rng.random((256, 12))
        self._right = rng.random((12, _USERS))
        self.run()  # warm-up: first-touch pages

    def run(self) -> float:
        """Seconds one pass takes."""
        begin = time.perf_counter()
        order = np.argsort(self._keys, kind="stable")
        buckets = np.zeros(4096)
        np.add.at(buckets, self._keys[order] % 4096, self._weights[order])
        vector = self._vector
        for _ in range(_MATVECS):
            vector = self._matrix.T @ vector
            vector /= vector.sum()
        np.einsum("mc,cn->mn", self._left, self._right, optimize=False)
        return time.perf_counter() - begin
