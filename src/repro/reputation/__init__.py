"""Step 1 of the paper: reputation from rating data (Riggs' model).

Per category, the package computes three mutually-dependent quantities:

- **review quality** ``q(r_j)`` -- the rater-reputation-weighted mean of the
  helpfulness ratings a review received (eq. 1);
- **rater reputation** -- how consistently a rater rates reviews near their
  final quality, discounted for low rating activity (eq. 2);
- **writer reputation / expertise** -- the mean quality of a writer's
  reviews in the category, discounted for low writing activity (eq. 3).

Qualities and rater reputations are solved together as a fixed point by
one batched solver, :func:`solve_all_categories`, which sweeps every
category (or a chosen few) at once on a community's columnar ratings;
:func:`solve_category` is its one-category form for ``(rater, review,
value)`` triples.  Writer reputations follow in one pass
(:func:`writer_reputation_matrix`).  :class:`ExpertiseEstimator` (a cold
fit) and :class:`IncrementalExpertise` (re-solving only the categories new
data touched) both run that solver and assemble the paper's
Users_Category Expertise matrix ``E``.
"""

from repro.reputation.estimator import ExpertiseEstimator, ExpertiseResult
from repro.reputation.incremental import IncrementalExpertise
from repro.reputation.riggs import (
    BatchedFixedPoints,
    CategoryFixedPoint,
    LazyFixedPoints,
    RiggsConfig,
    experience_discount,
    solve_all_categories,
    solve_category,
)
from repro.reputation.writer import writer_reputation_matrix, writer_reputations

__all__ = [
    "RiggsConfig",
    "CategoryFixedPoint",
    "BatchedFixedPoints",
    "LazyFixedPoints",
    "solve_category",
    "solve_all_categories",
    "experience_discount",
    "writer_reputations",
    "writer_reputation_matrix",
    "ExpertiseEstimator",
    "ExpertiseResult",
    "IncrementalExpertise",
]
