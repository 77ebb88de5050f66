"""EigenTrust (Kamvar, Schlosser & Garcia-Molina 2003).

A *global* trust model: normalise each user's outgoing trust to sum 1,
then find the principal left eigenvector of the resulting stochastic
matrix, mixed with a pre-trust distribution for irreducibility:

.. math::

    t^{(k+1)} = (1 - a) \\cdot C^T t^{(k)} + a \\cdot p

where ``C`` is the row-normalised trust matrix, ``p`` the pre-trust
distribution and ``a`` the mixing weight.  The result ranks every node by
community-wide trust (the paper's §II: global models "rank all nodes with
a universal trust value").

The iteration runs on the sparse CSR view of the trust web -- pass a
:class:`repro.matrix.UserPairMatrix` to reuse its cached CSR directly; a
:class:`networkx.DiGraph` is accepted for compatibility and converted
once.
"""

# repro: hot-path

from __future__ import annotations

import warnings
from typing import Mapping

import numpy as np
from scipy import sparse

from repro import obs
from repro.common.arrays import BoolArray, FloatArray
from repro.common.errors import ValidationError
from repro.common.validation import require_fraction, require_positive
from repro.matrix import LabelIndex, UserPairMatrix
from repro.propagation._adjacency import TrustWeb, as_pair_matrix
from repro.propagation.scores import PropagationScores

__all__ = ["eigen_trust"]


def eigen_trust(
    web: TrustWeb,
    *,
    weight_key: str = "trust",
    pretrust: dict[str, float] | None = None,
    alpha: float = 0.15,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
    initial: Mapping[str, float] | FloatArray | None = None,
) -> PropagationScores:
    """Compute global EigenTrust values for every node.

    Parameters
    ----------
    web:
        The trust web: a :class:`repro.matrix.UserPairMatrix` (fast path)
        or a weighted :class:`networkx.DiGraph`.
    pretrust:
        Prior trust distribution (defaults to uniform).  Values are
        normalised to sum 1; nodes absent from the mapping get 0.
    alpha:
        Weight of the pre-trust mixing (0 = pure eigenvector, needs a
        strongly connected graph to be well-defined).
    initial:
        Optional warm-start vector -- either a ``{node: score}`` mapping
        (missing nodes get 0) or a dense array aligned with the matrix's
        user axis.  It is normalised to sum 1 and replaces the default
        start ``t = p``.  The fixed point is unique for ``alpha > 0``, so
        a warm start changes the iteration count, not the limit; the
        incremental engine feeds the previous scores back in to save
        sweeps.  Ignored when it has no positive mass.

    Returns
    -------
    PropagationScores
        Trust per node, summing to 1; usable as a ``{node: trust}``
        mapping, with the dense vector on :meth:`~PropagationScores.scores_array`
        (empty graph -> empty scores).  Carries convergence telemetry
        (``converged`` / ``iterations`` / ``residual``); hitting the
        ``max_iterations`` cap emits a :class:`RuntimeWarning` and returns
        the unconverged scores with ``converged=False`` instead of raising.
    """
    require_fraction("alpha", alpha)
    require_positive("tolerance", tolerance)
    require_positive("max_iterations", max_iterations)

    matrix = as_pair_matrix(web, weight_key=weight_key)
    users = matrix.users
    n = len(users)
    if n == 0:
        return PropagationScores(LabelIndex(()), np.zeros(0))

    with obs.span("propagation.eigentrust", users=n):
        spread_op, dangling = _dense_spread(matrix)

        p = _pretrust_vector(pretrust, users)
        t = _initial_vector(initial, users, p)
        converged = False
        iterations = 0
        residual = float("inf")
        for iterations in range(1, max_iterations + 1):
            # dangling users are treated as trusting the pre-trusted peers
            spread = spread_op @ t + p * float(t[dangling].sum())
            new_t = (1.0 - alpha) * spread + alpha * p
            total = new_t.sum()
            if total > 0:
                new_t = new_t / total
            residual = float(np.abs(new_t - t).max())
            t = new_t
            if residual < tolerance:
                converged = True
                break
        obs.convergence(
            "propagation.eigentrust",
            iterations=iterations,
            residual=residual,
            tolerance=tolerance,
            converged=converged,
        )
        if not converged:
            warnings.warn(
                f"EigenTrust stopped at the max_iterations cap ({max_iterations}) "
                f"with residual {residual:.3e} > tolerance {tolerance:.3e}; "
                f"returning the unconverged scores (converged=False)",
                RuntimeWarning,
                stacklevel=2,
            )
        return PropagationScores(
            users, t, converged=converged, iterations=iterations, residual=residual
        )


def _dense_spread(matrix: UserPairMatrix) -> tuple[sparse.csr_matrix, BoolArray]:
    """The spread operator ``C^T`` as a CSR, plus the dangling-row mask."""
    with obs.span("propagation.eigentrust.operator"):
        adjacency = matrix.csr()
        if adjacency.nnz and adjacency.data.size and float(adjacency.data.min()) < 0.0:
            raise ValidationError("EigenTrust requires non-negative edge weights")
        row_sums = np.asarray(adjacency.sum(axis=1)).ravel()
        dangling: BoolArray = row_sums == 0.0
        inverse = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, row_sums))
        # column-oriented form of the row-normalised matrix, so each sweep
        # is one sparse mat-vec; scaling the CSR data directly multiplies
        # the same inverse[i] * a_ij products a diagonal matmul would,
        # without paying a sparse-sparse product to do it
        scale = np.repeat(inverse, np.diff(adjacency.indptr))
        spread_op = sparse.csr_matrix(
            (adjacency.data * scale, adjacency.indices, adjacency.indptr),
            shape=adjacency.shape,
        ).T.tocsr()
        return spread_op, dangling


def _initial_vector(
    initial: Mapping[str, float] | FloatArray | None,
    users: LabelIndex,
    p: FloatArray,
) -> FloatArray:
    """Resolve the warm-start vector; fall back to ``p`` (the cold start)."""
    if initial is None:
        return p.copy()
    n = len(users)
    if isinstance(initial, np.ndarray):
        if initial.shape != (n,):
            raise ValidationError(
                f"initial vector must have shape ({n},), got {initial.shape}"
            )
        t = initial.astype(np.float64, copy=True)
    else:
        t = np.zeros(n)
        for node, value in initial.items():
            if node in users:
                t[users.position(node)] = value
    if np.any(t < 0.0):
        raise ValidationError("initial scores must be non-negative")
    total = t.sum()
    if not np.isfinite(total):
        # a NaN or inf score, or finite scores whose sum overflows
        raise ValidationError("initial scores must be finite with a finite total")
    if total <= 0.0:
        return p.copy()
    return t / total


def _pretrust_vector(pretrust: dict[str, float] | None, users: LabelIndex) -> FloatArray:
    n = len(users)
    if pretrust is None:
        return np.full(n, 1.0 / n)
    p = np.zeros(n)
    for node, value in pretrust.items():
        if node not in users:
            raise ValidationError(f"pretrust names unknown node {node!r}")
        if value < 0:
            raise ValidationError("pretrust values must be non-negative")
        p[users.position(node)] = value
    total = p.sum()
    if not np.isfinite(total):
        # a NaN or inf value, or finite values whose sum overflows
        raise ValidationError("pretrust values must be finite with a finite total")
    if total <= 0:
        raise ValidationError("pretrust must have positive total mass")
    return p / total
