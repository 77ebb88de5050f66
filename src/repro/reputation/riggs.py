"""The review-quality / rater-reputation fixed point (paper eqs. 1-2).

Within one category, let ``rho_ij`` be the rating rater *i* gave review *j*.
The two coupled equations are

.. math::

    q(r_j) = \\frac{\\sum_{i \\in U(r_j)} rep(u_i) \\cdot \\rho_{ij}}
                   {\\sum_{i \\in U(r_j)} rep(u_i)}

    rep(u_i) = \\Big(1 - \\frac{1}{n_i + 1}\\Big)
               \\Big(1 - \\frac{\\sum_{j \\in R(u_i)} |q(r_j) - \\rho_{ij}|}{n_i}\\Big)

where ``n_i`` is the number of reviews rater *i* rated in the category.  We
iterate the pair of updates from ``rep = 1`` until the largest change in any
quality or reputation value falls below ``tolerance``.

One sweep loop (:func:`_segmented_solve`) serves every caller.  It runs
any number of categories at once on flat (rater, review) incidence arrays,
so each sweep is O(number of ratings).  :func:`solve_all_categories` feeds
it a community's columnar ratings -- every category, or a chosen few --
and :func:`solve_category` feeds it one category's triples as a single
segment.
"""

# repro: hot-path

from __future__ import annotations

from collections.abc import Mapping as _Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Protocol, Sequence, overload

import numpy as np

from repro import obs
from repro.common.arrays import BoolArray, FloatArray, IntArray, concat_ranges
from repro.common.errors import ConvergenceError, ValidationError
from repro.common.validation import (
    require_fraction,
    require_in_range,
    require_positive,
)
from repro.matrix.labels import LabelIndex

__all__ = [
    "RiggsConfig",
    "CategoryFixedPoint",
    "BatchedFixedPoints",
    "ColumnarRatings",
    "LazyFixedPoints",
    "solve_category",
    "solve_all_categories",
    "experience_discount",
]


class ColumnarRatings(Protocol):
    """Structural input of :func:`solve_all_categories`.

    Anything shaped like :class:`repro.community.CommunityColumns`
    qualifies: label axes, a category-major global review axis and
    category-major rating columns.  Declared as a protocol so this module
    stays import-independent of the community layer.
    """

    users: LabelIndex
    categories: LabelIndex
    review_ids: tuple[str, ...]
    review_category_idx: IntArray
    srt_rater_idx: IntArray
    srt_review_idx: IntArray
    srt_values: FloatArray
    rating_cat_starts: IntArray


@overload
def experience_discount(n: int) -> float: ...


@overload
def experience_discount(n: IntArray | FloatArray) -> FloatArray: ...


def experience_discount(n: IntArray | FloatArray | int) -> FloatArray | float:
    """The paper's activity discount ``1 - 1/(n+1)``.

    Maps 1 activity event to 0.5, 9 events to 0.9, and approaches 1 as the
    user becomes more active, "compensating for less experience".
    """
    result = 1.0 - 1.0 / (np.asarray(n, dtype=np.float64) + 1.0)
    if isinstance(n, (int, np.integer)):
        return float(result)
    return result


@dataclass(frozen=True)
class RiggsConfig:
    """Knobs of the fixed-point solver.

    Parameters
    ----------
    tolerance:
        Convergence threshold on the L-infinity change of qualities and
        reputations between sweeps.
    max_iterations:
        Iteration budget; exceeding it raises :class:`ConvergenceError`.
    damping:
        Fraction of the *previous* reputation kept each sweep
        (``0`` = plain iteration).  Rarely needed; exposed for adversarial
        inputs.
    initial_reputation:
        Starting rater reputation.  The paper does not specify one; ``1.0``
        makes the first quality estimate the plain mean of ratings.
    weight_by_rater_reputation:
        Ablation A1: when ``False``, eq. 1 degrades to the unweighted mean
        of received ratings (rater reputations are still computed, but do
        not influence quality).
    experience_discount_enabled:
        Ablation A2: when ``False``, the ``1 - 1/(n+1)`` factor of eq. 2 is
        dropped.
    """

    tolerance: float = 1e-9
    max_iterations: int = 500
    damping: float = 0.0
    initial_reputation: float = 1.0
    weight_by_rater_reputation: bool = True
    experience_discount_enabled: bool = True

    def __post_init__(self) -> None:
        require_positive("tolerance", self.tolerance)
        require_positive("max_iterations", self.max_iterations)
        require_in_range("damping", self.damping, 0.0, 1.0)
        require_fraction("initial_reputation", self.initial_reputation)


@dataclass(frozen=True)
class CategoryFixedPoint:
    """Converged qualities and rater reputations for one category.

    Attributes
    ----------
    review_quality:
        ``{review_id: quality}`` for every review that received at least one
        rating in the category.
    rater_reputation:
        ``{rater_id: reputation}`` for every user who rated at least one
        review in the category.
    iterations:
        Sweeps performed until convergence.
    residual:
        Final L-infinity change (``<= tolerance``).
    """

    review_quality: dict[str, float]
    rater_reputation: dict[str, float]
    iterations: int
    residual: float
    rating_counts: dict[str, int] = field(default_factory=dict)


#: label of the single category :func:`solve_category` solves
_ONE = "category"


@dataclass(frozen=True)
class _TripleColumns:
    """One category's indexed triples as a :class:`ColumnarRatings` view."""

    users: LabelIndex
    categories: LabelIndex
    review_ids: tuple[str, ...]
    review_category_idx: IntArray
    srt_rater_idx: IntArray
    srt_review_idx: IntArray
    srt_values: FloatArray
    rating_cat_starts: IntArray


def solve_category(
    ratings: Iterable[tuple[str, str, float]],
    config: RiggsConfig | None = None,
    *,
    warm_start: Mapping[str, float] | None = None,
) -> CategoryFixedPoint:
    """Solve eqs. 1-2 for one category.

    The one-segment case of :func:`solve_all_categories`: the triples are
    indexed in first-appearance order and solved by the same sweep loop.

    Parameters
    ----------
    ratings:
        ``(rater_id, review_id, value)`` triples -- every helpfulness rating
        given in the category.  Values must lie in ``[0, 1]``; a
        ``(rater, review)`` pair may appear at most once.
    config:
        Solver configuration (defaults to :class:`RiggsConfig`).
    warm_start:
        Optional ``{rater_id: reputation}`` starting point (e.g. the
        previous fixed point, for incremental recomputation after a few
        new ratings).  Raters absent from the mapping start at
        ``config.initial_reputation``; values are clipped to ``[0, 1]``.

    Returns
    -------
    CategoryFixedPoint
        Converged qualities (one per rated review) and reputations (one per
        active rater).

    Raises
    ------
    ConvergenceError
        If ``config.max_iterations`` sweeps do not reach ``tolerance``.
    ValidationError
        On malformed input (duplicate pairs, out-of-range values).
    """
    rater_ids, review_ids, rater_idx, review_idx, values = _index_triples(list(ratings))
    view = _TripleColumns(
        users=LabelIndex(rater_ids),
        categories=LabelIndex([_ONE]),
        review_ids=tuple(review_ids),
        review_category_idx=np.zeros(len(review_ids), dtype=np.int64),
        srt_rater_idx=rater_idx,
        srt_review_idx=review_idx,
        srt_values=values,
        rating_cat_starts=np.array([0, len(values)], dtype=np.int64),
    )
    seeds = {_ONE: warm_start} if warm_start else None
    return solve_all_categories(view, config, warm_start=seeds).fixed_point(_ONE)


# --------------------------------------------------------------------------- internals


def _index_triples(
    triples: Sequence[tuple[str, str, float]],
) -> tuple[list[str], list[str], IntArray, IntArray, FloatArray]:
    rater_pos: dict[str, int] = {}
    review_pos: dict[str, int] = {}
    seen_pairs: set[tuple[str, str]] = set()
    rater_idx = np.empty(len(triples), dtype=np.int64)
    review_idx = np.empty(len(triples), dtype=np.int64)
    values = np.empty(len(triples), dtype=np.float64)
    for k, (rater, review, value) in enumerate(triples):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"rating value must be a number, got {value!r}")
        if not 0.0 <= float(value) <= 1.0:
            raise ValidationError(f"rating value must lie in [0, 1], got {value!r}")
        pair = (rater, review)
        if pair in seen_pairs:
            raise ValidationError(f"duplicate rating for pair {pair!r}")
        seen_pairs.add(pair)
        rater_idx[k] = rater_pos.setdefault(rater, len(rater_pos))
        review_idx[k] = review_pos.setdefault(review, len(review_pos))
        values[k] = float(value)
    return (
        list(rater_pos),
        list(review_pos),
        rater_idx,
        review_idx,
        values,
    )


# ----------------------------------------------------------------- batched solver


@dataclass(frozen=True)
class BatchedFixedPoints:
    """The solved categories' fixed points on shared flat arrays.

    Slots are grouped by category: ``review_slot_cat`` / ``rater_slot_cat``
    are nondecreasing *compact* segment indices (one per solved category
    that has ratings; ``nonempty_categories`` maps them back to positions
    on the category axis).  ``solved`` marks the categories the call
    covered.  :meth:`fixed_point` materialises the dict form of one
    category on demand; the arrays are the fast path for matrix assembly.
    """

    categories: tuple[str, ...]
    users: LabelIndex
    review_ids: tuple[str, ...]
    solved: BoolArray
    nonempty_categories: IntArray
    rated_review_idx: IntArray
    quality: FloatArray
    review_slot_cat: IntArray
    rater_slot_user: IntArray
    rater_slot_cat: IntArray
    reputation: FloatArray
    rater_counts: IntArray
    iterations: IntArray
    residuals: FloatArray

    @property
    def rater_slot_category_idx(self) -> IntArray:
        """Category-axis position of every rater slot."""
        return self.nonempty_categories[self.rater_slot_cat]

    @property
    def review_slot_category_idx(self) -> IntArray:
        """Category-axis position of every review slot."""
        return self.nonempty_categories[self.review_slot_cat]

    def fixed_point(self, category_id: str) -> CategoryFixedPoint:
        """The dict-form :class:`CategoryFixedPoint` of one solved category."""
        try:
            c = self.categories.index(category_id)
        except ValueError:
            raise ValidationError(f"unknown category {category_id!r}") from None
        if not self.solved[c]:
            raise ValidationError(f"category {category_id!r} was not solved")
        compact = np.flatnonzero(self.nonempty_categories == c)
        if not len(compact):
            return CategoryFixedPoint(
                review_quality={}, rater_reputation={}, iterations=0, residual=0.0
            )
        k = int(compact[0])
        a, b = np.searchsorted(self.review_slot_cat, [k, k + 1])
        ua, ub = np.searchsorted(self.rater_slot_cat, [k, k + 1])
        labels = self.users.labels
        raters = [labels[u] for u in self.rater_slot_user[ua:ub].tolist()]
        return CategoryFixedPoint(
            review_quality=dict(
                zip(
                    [self.review_ids[g] for g in self.rated_review_idx[a:b].tolist()],
                    self.quality[a:b].tolist(),
                )
            ),
            rater_reputation=dict(zip(raters, self.reputation[ua:ub].tolist())),
            iterations=int(self.iterations[c]),
            residual=float(self.residuals[c]),
            rating_counts=dict(zip(raters, self.rater_counts[ua:ub].tolist())),
        )


class LazyFixedPoints(_Mapping[str, CategoryFixedPoint]):
    """``{category_id: CategoryFixedPoint}`` view over batched solves.

    Building every category's dicts up front costs more than the batched
    sweeps themselves, and most callers only touch the matrices.  This
    mapping materialises a category through
    :meth:`BatchedFixedPoints.fixed_point` on first access and caches it,
    so ``result.fixed_points["movies"]`` behaves exactly like the eager
    dict while unaccessed categories stay as arrays.
    """

    __slots__ = ("_batches", "_cache")

    def __init__(self, batches: Mapping[str, BatchedFixedPoints]) -> None:
        """``batches`` maps every category to the batch that solved it."""
        self._batches = batches
        self._cache: dict[str, CategoryFixedPoint] = {}

    def __getitem__(self, category_id: str) -> CategoryFixedPoint:
        if category_id not in self._cache:
            batch = self._batches[category_id]
            self._cache[category_id] = batch.fixed_point(category_id)
        return self._cache[category_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._batches)

    def __len__(self) -> int:
        return len(self._batches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LazyFixedPoints({len(self)} categories)"


def solve_all_categories(
    columns: ColumnarRatings,
    config: RiggsConfig | None = None,
    *,
    categories: Iterable[str] | None = None,
    warm_start: Mapping[str, Mapping[str, float]] | None = None,
) -> BatchedFixedPoints:
    """Solve eqs. 1-2 for every category in shared batched sweeps.

    Parameters
    ----------
    columns:
        A columnar ratings view -- anything shaped like
        :class:`repro.community.CommunityColumns`: ``users`` /
        ``categories`` label axes, a category-major global review axis
        (``review_ids``, ``review_category_idx``) and category-major rating
        columns (``srt_rater_idx``, ``srt_review_idx``, ``srt_values``,
        ``rating_cat_starts``).
    categories:
        Solve only these categories (any order; default: all).  Only their
        ``srt_*`` rows are read, so the cost scales with their ratings, not
        with the community.  Asking the result for any other category
        raises :class:`ValidationError`.
    warm_start:
        Optional ``{category_id: {rater_id: reputation}}`` starting points
        (e.g. each category's previous fixed point).  A seeded rater starts
        at its seed clipped to ``[0, 1]``, every other rater at
        ``config.initial_reputation``; ``step1.warm_start_hits`` counts
        the seeded raters.

    Returns
    -------
    BatchedFixedPoints
        Per-slot arrays plus per-category iteration counts and residuals.
        Every category's fixed point is bitwise identical to solving it
        alone: the sweeps reduce over globally flattened incidence arrays
        whose per-category segments preserve rating insertion order, and
        converged categories are masked out of later sweeps so their
        values (and iteration counts) freeze exactly where a lone solve
        would stop.

    Raises
    ------
    ConvergenceError
        If any category fails to reach ``tolerance`` within
        ``config.max_iterations`` sweeps.
    ValidationError
        On an unknown category, out-of-range values or a duplicate
        ``(rater, review)`` pair.
    """
    cfg = config or RiggsConfig()
    labels = tuple(columns.categories)
    starts = np.asarray(columns.rating_cat_starts, dtype=np.int64)
    if categories is None:
        chosen = np.arange(len(labels), dtype=np.int64)
    else:
        try:
            chosen = np.unique(columns.categories.positions(categories))
        except KeyError as exc:
            raise ValidationError(str(exc.args[0])) from None
    rows_per_cat = starts[chosen + 1] - starts[chosen]
    nonempty = chosen[rows_per_cat > 0]
    rows_per_cat = rows_per_cat[rows_per_cat > 0]
    num_users = len(columns.users)
    solved = np.zeros(len(labels), dtype=bool)
    solved[chosen] = True
    iterations = np.zeros(len(labels), dtype=np.int64)
    residuals = np.zeros(len(labels), dtype=np.float64)

    if len(nonempty) == 0:
        return BatchedFixedPoints(
            categories=labels,
            users=columns.users,
            review_ids=tuple(columns.review_ids),
            solved=solved,
            nonempty_categories=nonempty,
            rated_review_idx=np.empty(0, dtype=np.int64),
            quality=np.empty(0),
            review_slot_cat=np.empty(0, dtype=np.int64),
            rater_slot_user=np.empty(0, dtype=np.int64),
            rater_slot_cat=np.empty(0, dtype=np.int64),
            reputation=np.empty(0),
            rater_counts=np.empty(0, dtype=np.int64),
            iterations=iterations,
            residuals=residuals,
        )

    num_rows = int(rows_per_cat.sum())
    with obs.span("step1.solve_all", categories=len(nonempty), ratings=num_rows):
        lo, hi = int(starts[nonempty[0]]), int(starts[nonempty[-1] + 1])
        # one contiguous block of rows (all categories, or adjacent ones) is
        # a slice; scattered categories are gathered
        rows: slice | IntArray = (
            slice(lo, hi)
            if hi - lo == num_rows
            else concat_ranges(starts[nonempty], starts[nonempty + 1])
        )
        rater_pos = np.asarray(columns.srt_rater_idx[rows], dtype=np.int64)
        review_pos = np.asarray(columns.srt_review_idx[rows], dtype=np.int64)
        values = np.asarray(columns.srt_values[rows], dtype=np.float64)
        _validate_rating_arrays(rater_pos, review_pos, values, len(columns.review_ids))

        # compact segment index (position in `nonempty`) per rating row
        row_cat = np.repeat(np.arange(len(nonempty), dtype=np.int64), rows_per_cat)

        # review slots: the rated reviews in axis order; the rows of one
        # category stay inside its block of the category-major review axis
        first = int(review_pos.min())
        rated, review_slot = _number_keys(
            review_pos - first, int(review_pos.max()) - first + 1
        )
        rated += first
        review_slot_cat = np.searchsorted(nonempty, columns.review_category_idx[rated])

        # rater slots: one per (category, rater) incidence, in key order
        uniq_keys, rater_slot = _number_keys(
            row_cat * np.int64(num_users) + rater_pos, len(nonempty) * num_users
        )
        rater_slot_cat = uniq_keys // num_users
        rater_slot_user = uniq_keys % num_users

        reputation = np.full(len(uniq_keys), cfg.initial_reputation, dtype=np.float64)
        if warm_start:
            seeds = [warm_start.get(labels[c]) for c in nonempty.tolist()]
            user_labels = columns.users.labels
            warm_hits = 0
            for slot, (k, user) in enumerate(
                zip(rater_slot_cat.tolist(), rater_slot_user.tolist())
            ):
                seed = seeds[k]
                previous = seed.get(user_labels[user]) if seed else None
                if previous is not None:
                    reputation[slot] = min(1.0, max(0.0, float(previous)))
                    warm_hits += 1
            obs.add("step1.warm_start_hits", warm_hits)

        quality, reputation, counts, seg_iterations, seg_residuals = _segmented_solve(
            rater_slot,
            review_slot,
            values,
            num_rater_slots=len(uniq_keys),
            num_review_slots=len(rated),
            row_cat=row_cat,
            rater_slot_cat=rater_slot_cat,
            review_slot_cat=review_slot_cat,
            num_segments=len(nonempty),
            cfg=cfg,
            reputation=reputation,
        )
    iterations[nonempty] = seg_iterations
    residuals[nonempty] = seg_residuals
    if obs.tracing_active():
        # per-category convergence telemetry (the batched solver converges
        # or raises, so these records always carry converged=True)
        for c in nonempty.tolist():
            obs.convergence(
                "step1.riggs",
                iterations=int(iterations[c]),
                residual=float(residuals[c]),
                tolerance=cfg.tolerance,
                converged=True,
                category=labels[c],
            )
            obs.observe("step1.sweeps", float(iterations[c]))
    return BatchedFixedPoints(
        categories=labels,
        users=columns.users,
        review_ids=tuple(columns.review_ids),
        solved=solved,
        nonempty_categories=nonempty,
        rated_review_idx=rated,
        quality=quality,
        review_slot_cat=review_slot_cat,
        rater_slot_user=rater_slot_user,
        rater_slot_cat=rater_slot_cat,
        reputation=reputation,
        rater_counts=counts,
        iterations=iterations,
        residuals=residuals,
    )


def _number_keys(keys: IntArray, size: int) -> tuple[IntArray, IntArray]:
    """The distinct ``keys`` ascending, and each key's rank among them.

    The result of ``np.unique(keys, return_inverse=True)`` for keys in
    ``[0, size)``, through a dense table instead of a sort: ``size`` is a
    block of the review axis or a (category, user) grid no larger than E.
    """
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


def _validate_rating_arrays(
    rater_idx: IntArray,
    review_idx: IntArray,
    values: FloatArray,
    num_reviews: int,
) -> None:
    if np.isnan(values).any() or (
        values.size and (values.min() < 0.0 or values.max() > 1.0)
    ):
        raise ValidationError("rating values must lie in [0, 1]")
    keys = np.sort(rater_idx * np.int64(max(num_reviews, 1)) + review_idx)
    if len(keys) > 1 and bool(np.any(keys[1:] == keys[:-1])):
        raise ValidationError("duplicate rating for a (rater, review) pair")


def _segmented_solve(
    rater_slot: IntArray,
    review_slot: IntArray,
    values: FloatArray,
    *,
    num_rater_slots: int,
    num_review_slots: int,
    row_cat: IntArray,
    rater_slot_cat: IntArray,
    review_slot_cat: IntArray,
    num_segments: int,
    cfg: RiggsConfig,
    reputation: FloatArray,
) -> tuple[FloatArray, FloatArray, IntArray, IntArray, FloatArray]:
    """The sweep loop over category-segmented incidence arrays.

    Every segment (category) is an independent fixed point; the sweeps run
    them simultaneously on the flat arrays and mask converged segments out
    so they stop updating.  Segment membership arrays must be nondecreasing
    and every rater and review slot must own at least one rating row.
    """
    counts = np.bincount(rater_slot, minlength=num_rater_slots).astype(np.float64)
    if cfg.experience_discount_enabled:
        discount = experience_discount(counts)
    else:
        discount = np.ones(num_rater_slots, dtype=np.float64)
    plain_sum = np.bincount(review_slot, weights=values, minlength=num_review_slots)
    plain_count = np.bincount(review_slot, minlength=num_review_slots).astype(np.float64)
    # A review whose raters all have reputation 0 falls back to the plain
    # mean -- eq. 1 is 0/0 there and the paper leaves it undefined.
    plain_mean = plain_sum / plain_count

    seg_starts_r = np.searchsorted(review_slot_cat, np.arange(num_segments))
    seg_starts_u = np.searchsorted(rater_slot_cat, np.arange(num_segments))

    quality = np.zeros(num_review_slots, dtype=np.float64)
    seg_iterations = np.zeros(num_segments, dtype=np.int64)
    seg_residuals = np.zeros(num_segments, dtype=np.float64)
    active = np.ones(num_segments, dtype=bool)
    all_active = True
    rows_rater, rows_review, rows_values = rater_slot, review_slot, values
    slot_active_r = np.ones(num_review_slots, dtype=bool)
    slot_active_u = np.ones(num_rater_slots, dtype=bool)

    for sweep in range(1, cfg.max_iterations + 1):
        # eq. 1 on the active rows
        if cfg.weight_by_rater_reputation:
            weights = reputation[rows_rater]
        else:
            weights = np.ones_like(rows_values)
        weighted_sum = np.bincount(
            rows_review, weights=weights * rows_values, minlength=num_review_slots
        )
        weight_sum = np.bincount(rows_review, weights=weights, minlength=num_review_slots)
        safe = weight_sum > 0.0
        new_quality = np.where(
            safe, np.divide(weighted_sum, np.where(safe, weight_sum, 1.0)), plain_mean
        )
        new_quality = np.clip(new_quality, 0.0, 1.0)
        if not all_active:
            new_quality = np.where(slot_active_r, new_quality, quality)

        # eq. 2 on the active rows, against the fresh qualities
        deviations = np.abs(new_quality[rows_review] - rows_values)
        total_dev = np.bincount(
            rows_rater, weights=deviations, minlength=num_rater_slots
        )
        mad = total_dev / counts
        new_reputation = np.clip(discount * (1.0 - mad), 0.0, 1.0)
        if cfg.damping > 0.0:
            new_reputation = (
                cfg.damping * reputation + (1.0 - cfg.damping) * new_reputation
            )
        if not all_active:
            new_reputation = np.where(slot_active_u, new_reputation, reputation)

        q_delta = np.abs(new_quality - quality)
        r_delta = np.abs(new_reputation - reputation)
        quality = new_quality
        reputation = new_reputation

        seg_res = np.maximum(
            np.maximum.reduceat(q_delta, seg_starts_r),
            np.maximum.reduceat(r_delta, seg_starts_u),
        )
        seg_iterations[active] = sweep
        seg_residuals[active] = seg_res[active]
        newly = active & (seg_res < cfg.tolerance)
        if newly.any():
            active = active & ~newly
            if not active.any():
                break
            all_active = False
            row_keep = active[row_cat]
            rows_rater = rater_slot[row_keep]
            rows_review = review_slot[row_keep]
            rows_values = values[row_keep]
            slot_active_r = active[review_slot_cat]
            slot_active_u = active[rater_slot_cat]
    else:
        worst = float(seg_residuals[active].max())
        raise ConvergenceError(
            f"Riggs fixed point did not converge in {cfg.max_iterations} sweeps "
            f"for {int(active.sum())} of {num_segments} categories "
            f"(worst residual {worst:.3e} > tolerance {cfg.tolerance:.3e})",
            iterations=cfg.max_iterations,
            residual=worst,
            tolerance=cfg.tolerance,
        )

    return quality, reputation, counts.astype(np.int64), seg_iterations, seg_residuals
