"""Orchestration of Step 1 over a whole community.

:class:`ExpertiseEstimator` runs the per-category fixed point and the
writer aggregation for every category of a community and assembles:

- the paper's **Users_Category Expertise matrix** ``E`` (writer reputation
  per category, eq. 3) -- the direct input to Step 3;
- a companion **rater-reputation matrix** (eq. 2), which the paper's
  Table 2 evaluates;
- per-category review qualities and convergence diagnostics.

Step 1 runs on the community's columnar view: one
:func:`repro.reputation.riggs.solve_all_categories` call sweeps every
category's fixed point simultaneously and both matrices are scattered
straight from the slot arrays -- no per-category Python materialisation.
"""

# repro: hot-path

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro import obs
from repro.community import Community
from repro.matrix import UserCategoryMatrix
from repro.reputation.riggs import (
    CategoryFixedPoint,
    LazyFixedPoints,
    RiggsConfig,
    solve_all_categories,
)
from repro.reputation.writer import writer_reputation_matrix

__all__ = ["ExpertiseEstimator", "ExpertiseResult"]


@dataclass(frozen=True)
class ExpertiseResult:
    """Everything Step 1 produces for one community.

    Attributes
    ----------
    expertise:
        ``E`` -- writer reputation per (user, category); zero where the user
        wrote nothing (or nothing rated) in the category.
    rater_reputation:
        Rater reputation per (user, category); zero where the user rated
        nothing in the category.
    fixed_points:
        The raw per-category solver output (qualities, reputations,
        iteration counts): a lazy mapping that materialises each
        category's dicts on first access.
    """

    expertise: UserCategoryMatrix
    rater_reputation: UserCategoryMatrix
    fixed_points: Mapping[str, CategoryFixedPoint]

    def review_quality(self, category_id: str) -> dict[str, float]:
        """Converged review qualities for one category."""
        return dict(self.fixed_points[category_id].review_quality)

    def iterations(self) -> dict[str, int]:
        """Solver sweeps needed per category."""
        return {c: fp.iterations for c, fp in self.fixed_points.items()}


class ExpertiseEstimator:
    """Computes Step 1 (eqs. 1-3) for every category of a community.

    Parameters
    ----------
    config:
        Fixed-point configuration shared by all categories.
    unrated_policy:
        Passed to :func:`repro.reputation.writer.writer_reputation_matrix`.

    Example
    -------
    >>> estimator = ExpertiseEstimator()
    >>> result = estimator.fit(community)
    >>> result.expertise.get("u000001", "c000000")
    0.7...
    """

    def __init__(
        self,
        config: RiggsConfig | None = None,
        *,
        unrated_policy: str = "exclude",
    ) -> None:
        self.config = config or RiggsConfig()
        self.unrated_policy = unrated_policy

    def fit(self, community: Community) -> ExpertiseResult:
        """Run Step 1 on ``community`` and return all reputation artefacts."""
        with obs.span("step1.fit", users=community.num_users()):
            columns = community.columns()
            users = columns.users
            categories = columns.categories
            batch = solve_all_categories(columns, self.config)

            rater_rep = UserCategoryMatrix(users, categories)
            rater_rep.set_entries(
                batch.rater_slot_user, batch.rater_slot_category_idx, batch.reputation
            )
            expertise = UserCategoryMatrix(
                users,
                categories,
                writer_reputation_matrix(
                    columns.review_writer_idx,
                    columns.review_category_idx,
                    len(users),
                    len(categories),
                    batch.rated_review_idx,
                    batch.quality,
                    experience_discount_enabled=self.config.experience_discount_enabled,
                    unrated_policy=self.unrated_policy,
                ),
            )
            return ExpertiseResult(
                expertise=expertise,
                rater_reputation=rater_rep,
                fixed_points=LazyFixedPoints(dict.fromkeys(batch.categories, batch)),
            )
