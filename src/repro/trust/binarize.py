"""Converting continuous trust values into a binary web of trust (§IV.C).

The ground-truth web of trust is binary, so the paper converts each user's
continuous trust row into binary decisions: user *i* is judged to trust user
*j* iff ``T-hat_ij`` is within the top ``k_i`` per cent of *i*'s derived
connections.  ``k_i`` is the user's **generousness** -- the fraction of
their direct connections they explicitly trust:

.. math::

    k_i = \\frac{|R_i \\cap T_i|}{|R_i|}

Applying the *same* per-user ``k_i`` to both the model and the baseline
makes the comparison fair while respecting that some users hand out trust
freely and others almost never.
"""

# repro: hot-path

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.common.arrays import FloatArray, IntArray
from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix

__all__ = ["generousness", "binarize_top_k"]


def generousness(
    connections: UserPairMatrix, ground_truth: UserPairMatrix
) -> dict[str, float]:
    """Per-user trust generousness ``k_i = |R_i ∩ T_i| / |R_i|``.

    Users with no direct connections get ``k_i = 0`` (no evidence of any
    willingness to trust): they are left out of the result, and
    :func:`binarize_top_k` reads a missing user as its ``default_k``.
    Both counts come from one join of the two matrices' flat keys.
    """
    if connections.users != ground_truth.users:
        raise ValidationError("connection and ground-truth matrices must share a user axis")
    n = len(connections.users)
    keys = connections.support_keys()
    if not keys.size:
        return {}
    shared = np.intersect1d(keys, ground_truth.support_keys(), assume_unique=True)
    connected = np.bincount(keys // n, minlength=n)
    trusted = np.bincount(shared // n, minlength=n)
    sources = np.flatnonzero(connected)
    labels = connections.users.labels
    return {
        labels[i]: t / c
        for i, t, c in zip(
            sources.tolist(), trusted[sources].tolist(), connected[sources].tolist()
        )
    }


def binarize_top_k(
    matrix: UserPairMatrix,
    k_by_user: Mapping[str, float],
    *,
    default_k: float = 0.0,
) -> UserPairMatrix:
    """Binarise each row of ``matrix`` at the user's top-``k`` fraction.

    For user *i* with ``n_i`` stored entries, the ``round(k_i * n_i)``
    highest-valued entries become 1; everything else is dropped.  Ties at
    the cut are resolved in favour of earlier axis positions (stable), the
    way a site would cut a ranked list: one stable sort orders every row
    by value, descending, keeping row-major (axis) order among equal
    values, so equal matrices always binarise identically regardless of
    the order their entries were stored in.

    Parameters
    ----------
    matrix:
        Continuous trust values (e.g. ``T-hat`` or baseline ``B``).
    k_by_user:
        Per-user fractions in ``[0, 1]`` (missing users fall back to
        ``default_k``; users off the matrix's axis are ignored).

    Returns
    -------
    UserPairMatrix
        A binary matrix whose stored entries all have value 1.0.
    """
    for user, k in k_by_user.items():
        if not 0.0 <= k <= 1.0:
            raise ValidationError(f"k for user {user!r} must be in [0, 1], got {k!r}")
    if not 0.0 <= default_k <= 1.0:
        raise ValidationError(f"default_k must be in [0, 1], got {default_k!r}")

    users = matrix.users
    n = len(users)
    keys = matrix.support_keys()
    if not keys.size:
        return UserPairMatrix(users)
    k_by_row = np.full(n, default_k, dtype=np.float64)
    for user, k in k_by_user.items():
        if user in users:
            k_by_row[users.position(user)] = k
    rows = keys // n
    counts = np.bincount(rows, minlength=n)
    keep = _round_half_up(k_by_row * counts)
    # keys are row-major sorted, so the row-primary stable sort leaves every
    # entry in its own row's block: its rank is its offset in that block
    order = np.lexsort((-matrix.values(), rows))
    row_start = np.cumsum(counts) - counts
    rank = np.arange(keys.size) - row_start[rows]
    selected = np.zeros(keys.size, dtype=bool)
    selected[order[rank < keep[rows]]] = True
    kept = keys[selected]
    return UserPairMatrix.from_flat_sorted(users, kept, np.ones(kept.size))


def _round_half_up(x: FloatArray) -> IntArray:
    """Round to nearest integer, halves up, with float-noise tolerance."""
    return (x + 0.5 + 1e-9).astype(np.int64)
