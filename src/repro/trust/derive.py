"""Deriving the degree-of-trust matrix ``T-hat`` (paper eq. 5).

.. math::

    \\hat{T}_{ij} = \\frac{\\sum_c A_{ic} E_{jc}}{\\sum_c A_{ic}}

Row ``i`` of ``T-hat`` is an affinity-weighted average of user *j*'s
per-category expertise: an expert in categories that matter to *i* earns a
high degree of trust from *i*.  ``T-hat_ij = 0`` means the categories *i*
cares about and the categories *j* is expert in do not overlap.

Implementation notes
--------------------
The full matrix is the product ``W @ E.T`` where ``W`` is ``A`` with rows
normalised to sum 1 (zero-affinity rows stay zero).  For large communities
the product is computed in row blocks and only entries above ``min_value``
are stored, keeping memory proportional to the stored result rather than
``U^2``.

Every block product goes through :func:`_block_product`, a non-BLAS einsum
whose reduction order per output element is the fixed category sweep
``c = 0..C-1`` regardless of the operand shapes.  BLAS gemm does not give
that guarantee -- it dispatches different micro-kernels (and different
accumulation orders) by shape, so a 2-row or 7-column slice of the product
can differ in the last ulp from the same entries of the full product.
The fixed-order kernel is what lets :meth:`TrustDeriver.derive_region`
recompute an arbitrary subset of rows/columns **bitwise identical** to the
full :meth:`TrustDeriver.derive` -- the contract the incremental
:class:`repro.engine.Engine` is built on.  With the small category counts
of this problem (C ~ 12) the einsum is also at least as fast as gemm.
"""

# repro: hot-path

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, IntArray
from repro.common.errors import ValidationError
from repro.common.validation import require_non_negative, require_positive
from repro.matrix import UserCategoryMatrix, UserPairMatrix

__all__ = ["TrustDeriver", "derive_trust"]


def _block_product(weights: FloatArray, e_transposed: FloatArray) -> FloatArray:
    """``weights @ e_transposed`` with a shape-independent reduction order.

    The non-optimised einsum path accumulates every output element over
    ``c = 0..C-1`` in sequence, so any row/column subset of the product is
    bitwise equal to the same entries of the full product (see the module
    notes); keep :func:`repro.perf.reference.reference_derive_trust` on the
    identical expression.
    """
    return np.einsum("mc,cn->mn", weights, e_transposed, optimize=False)


@dataclass(frozen=True)
class TrustDeriver:
    """Configured derivation of ``T-hat`` from ``A`` and ``E``.

    Parameters
    ----------
    min_value:
        Entries with derived trust less than or equal to this threshold are
        not stored.  The default ``0.0`` stores every strictly-positive
        degree of trust, matching the paper's reading that a zero degree
        means "no category overlap", i.e. no derived connection.
    include_self:
        Whether to store the diagonal ``T-hat_ii``.  The paper's web of
        trust has no self-edges; the default drops them.
    block_size:
        Number of truster rows processed per dense block.
    """

    min_value: float = 0.0
    include_self: bool = False
    block_size: int = 512

    def __post_init__(self) -> None:
        require_non_negative("min_value", self.min_value)
        require_positive("block_size", self.block_size)

    def derive(
        self,
        affiliation: UserCategoryMatrix,
        expertise: UserCategoryMatrix,
    ) -> UserPairMatrix:
        """Compute ``T-hat`` for every user pair (eq. 5).

        Both matrices must share identical user and category axes.
        """
        _require_aligned(affiliation, expertise)
        users = affiliation.users
        with obs.span(
            "derive.trust",
            users=len(users),
            categories=len(affiliation.categories),
            block_size=self.block_size,
        ):
            a_values = affiliation.values_view()
            e_transposed = expertise.values_view().T.copy()  # C x U, contiguous

            row_sums = a_values.sum(axis=1)
            active_rows = np.nonzero(row_sums > 0.0)[0]

            result = UserPairMatrix(users)
            stored = 0
            blocks = 0
            for start in range(0, len(active_rows), self.block_size):
                blocks += 1
                block_rows = active_rows[start : start + self.block_size]
                weights = a_values[block_rows, :] / row_sums[block_rows, None]
                block = _block_product(weights, e_transposed)  # block x U
                mask = block > self.min_value
                if not self.include_self:
                    mask[np.arange(block_rows.size), block_rows] = False
                local, cols = np.nonzero(mask)
                if local.size:
                    result.set_block(block_rows[local], cols, block[local, cols])
                    stored += int(local.size)
            obs.add("derive.blocks", blocks)
            obs.add("derive.entries_stored", stored)
            return result

    def derive_region(
        self,
        affiliation: UserCategoryMatrix,
        expertise: UserCategoryMatrix,
        *,
        rows: IntArray,
        cols: IntArray,
    ) -> UserPairMatrix:
        """Recompute ``T-hat`` on ``(rows x all) | (all x cols)`` only.

        ``rows`` are source positions whose affinity row changed, ``cols``
        target positions whose expertise row changed; entries outside the
        union region cannot have moved (eq. 5 reads exactly ``A[i, :]`` and
        ``E[j, :]``).  Every stored entry is **bitwise identical** to what
        a full :meth:`derive` of the same inputs stores -- both run the
        fixed-reduction-order :func:`_block_product` per element -- which
        is what lets :class:`repro.engine.Engine` patch its cached matrix
        instead of rebuilding it.
        """
        _require_aligned(affiliation, expertise)
        users = affiliation.users
        n = len(users)
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        cols = np.unique(np.asarray(cols, dtype=np.int64))
        for name, positions in (("rows", rows), ("cols", cols)):
            if positions.size and (positions[0] < 0 or positions[-1] >= n):
                raise ValidationError(
                    f"{name} positions must lie in [0, {n}); got "
                    f"[{positions[0]}, {positions[-1]}]"
                )
        with obs.span("derive.region", users=n, rows=rows.size, cols=cols.size):
            a_values = affiliation.values_view()
            e_transposed = expertise.values_view().T.copy()  # C x U, contiguous
            row_sums = a_values.sum(axis=1)
            active = row_sums > 0.0

            result = UserPairMatrix(users)
            stored = 0
            # pass 1: changed source rows, full width (inactive rows store
            # nothing in a full derive either)
            source_rows = rows[active[rows]]
            for start in range(0, len(source_rows), self.block_size):
                block_rows = source_rows[start : start + self.block_size]
                weights = a_values[block_rows, :] / row_sums[block_rows, None]
                block = _block_product(weights, e_transposed)
                mask = block > self.min_value
                if not self.include_self:
                    mask[np.arange(block_rows.size), block_rows] = False
                local, col_idx = np.nonzero(mask)
                if local.size:
                    result.set_block(
                        block_rows[local], col_idx, block[local, col_idx]
                    )
                    stored += int(local.size)
            # pass 2: changed target columns, on the active rows pass 1
            # did not already cover
            if cols.size:
                rest = np.setdiff1d(
                    np.nonzero(active)[0], source_rows, assume_unique=True
                )
                col_block = cols
                padded = False
                if col_block.size == 1 and n >= 2:
                    # a one-column product dispatches a different numpy
                    # inner loop than a multi-column one; compute a second
                    # column and drop it
                    col_block = np.asarray(
                        [col_block[0], (col_block[0] + 1) % n], dtype=np.int64
                    )
                    padded = True
                e_cols = np.ascontiguousarray(e_transposed[:, col_block])
                for start in range(0, len(rest), self.block_size):
                    block_rows = rest[start : start + self.block_size]
                    weights = a_values[block_rows, :] / row_sums[block_rows, None]
                    block = _block_product(weights, e_cols)
                    if padded:
                        block = block[:, :1]
                    mask = block > self.min_value
                    if not self.include_self:
                        mask &= block_rows[:, None] != cols[None, :]
                    local, col_idx = np.nonzero(mask)
                    if local.size:
                        result.set_block(
                            block_rows[local], cols[col_idx], block[local, col_idx]
                        )
                        stored += int(local.size)
            obs.add("derive.entries_stored", stored)
            return result

    def derive_for_pairs(
        self,
        affiliation: UserCategoryMatrix,
        expertise: UserCategoryMatrix,
        pairs: set[tuple[str, str]],
    ) -> UserPairMatrix:
        """Compute ``T-hat`` only on a given support set of pairs.

        Useful for evaluating eq. 5 against relations that are only defined
        on observed pairs (e.g. the direct-connection relation ``R``).
        Entries are stored even when zero, so the support is preserved.
        """
        _require_aligned(affiliation, expertise)
        users = affiliation.users
        with obs.span("derive.pairs", users=len(users), pairs=len(pairs)):
            a_values = affiliation.values_view()
            e_values = expertise.values_view()
            row_sums = a_values.sum(axis=1)

            result = UserPairMatrix(users)
            pair_list = list(pairs)
            if not pair_list:
                return result
            sources = users.positions(s for s, _ in pair_list)
            targets = users.positions(t for _, t in pair_list)
            if not self.include_self:
                off_diagonal = sources != targets
                sources, targets = sources[off_diagonal], targets[off_diagonal]
            if not sources.size:
                return result
            # gathered-row dot products: one einsum over the whole support set
            numerators = np.einsum("kc,kc->k", a_values[sources], e_values[targets])
            denominators = row_sums[sources]
            active = denominators > 0.0
            values = np.where(
                active, numerators / np.where(active, denominators, 1.0), 0.0
            )
            result.set_block(sources, targets, values)
            obs.add("derive.entries_stored", int(sources.size))
            return result


def derive_trust(
    affiliation: UserCategoryMatrix,
    expertise: UserCategoryMatrix,
    *,
    min_value: float = 0.0,
    include_self: bool = False,
) -> UserPairMatrix:
    """Functional shorthand for :meth:`TrustDeriver.derive`."""
    deriver = TrustDeriver(min_value=min_value, include_self=include_self)
    return deriver.derive(affiliation, expertise)


def _require_aligned(affiliation: UserCategoryMatrix, expertise: UserCategoryMatrix) -> None:
    if affiliation.users != expertise.users:
        raise ValidationError("affiliation and expertise must share the same user axis")
    if affiliation.categories != expertise.categories:
        raise ValidationError("affiliation and expertise must share the same category axis")
