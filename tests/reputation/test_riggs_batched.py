"""Equivalence of the batched multi-category solver with the frozen oracle.

`solve_all_categories` must reproduce the per-category triple solver of
`repro.perf.reference` *bitwise*: the category-major columnar layout
preserves each category's scan order, so every bincount accumulation sums
the same floats in the same order.  `solve_category`, the production
one-category form, is held to the same oracle.
"""

import pytest

from repro.common.errors import ConvergenceError, ValidationError
from repro.datasets import CommunityProfile, generate_community
from repro.perf.reference import reference_solve_category
from repro.reputation import (
    LazyFixedPoints,
    RiggsConfig,
    solve_all_categories,
    solve_category,
)

CONFIGS = {
    "default": RiggsConfig(),
    "unweighted": RiggsConfig(weight_by_rater_reputation=False),
    "no_discount": RiggsConfig(experience_discount_enabled=False),
    "damped": RiggsConfig(damping=0.3),
}


def random_community(seed, num_users=80):
    return generate_community(CommunityProfile(num_users=num_users), seed=seed).community


def assert_fixed_points_identical(batch_fp, oracle_fp):
    assert batch_fp.review_quality == oracle_fp.review_quality
    assert batch_fp.rater_reputation == oracle_fp.rater_reputation
    assert batch_fp.rating_counts == oracle_fp.rating_counts
    assert batch_fp.iterations == oracle_fp.iterations
    assert batch_fp.residual == oracle_fp.residual


class TestBatchedEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_oracle_bitwise(self, seed, config_name):
        community = random_community(seed)
        config = CONFIGS[config_name]
        batch = solve_all_categories(community.columns(), config)
        for category_id in community.category_ids():
            triples = community.rating_triples(category_id)
            oracle = reference_solve_category(triples, config)
            assert_fixed_points_identical(batch.fixed_point(category_id), oracle)
            assert_fixed_points_identical(solve_category(triples, config), oracle)

    def test_warm_start_matches_oracle(self):
        community = random_community(5)
        warm = {user_id: 0.5 for user_id in community.user_ids()[::2]}
        # every other category is seeded, the rest start cold
        seeded = community.category_ids()[::2]
        batch = solve_all_categories(
            community.columns(), warm_start={c: warm for c in seeded}
        )
        for category_id in community.category_ids():
            oracle = reference_solve_category(
                community.rating_triples(category_id),
                warm_start=warm if category_id in seeded else None,
            )
            assert_fixed_points_identical(batch.fixed_point(category_id), oracle)

    def test_to_dict_covers_every_category(self, two_category_community):
        batch = solve_all_categories(two_category_community.columns())
        lazy = LazyFixedPoints(dict.fromkeys(batch.categories, batch))
        assert list(lazy) == ["movies", "books"]
        for category_id in lazy:
            assert_fixed_points_identical(
                lazy[category_id], batch.fixed_point(category_id)
            )

    def test_slot_arrays_align_with_dict_view(self, two_category_community):
        batch = solve_all_categories(two_category_community.columns())
        labels = batch.users.labels
        by_slot = {
            (labels[u], int(c)): r
            for u, c, r in zip(
                batch.rater_slot_user.tolist(),
                batch.rater_slot_category_idx.tolist(),
                batch.reputation.tolist(),
            )
        }
        movies = list(two_category_community.columns().categories).index("movies")
        fp = batch.fixed_point("movies")
        for rater_id, reputation in fp.rater_reputation.items():
            assert by_slot[(rater_id, movies)] == reputation

    def test_unknown_category_rejected(self, two_category_community):
        batch = solve_all_categories(two_category_community.columns())
        with pytest.raises(ValidationError):
            batch.fixed_point("gardening")


class TestDegenerateCategories:
    def test_empty_category_yields_empty_fixed_point(self, two_category_community):
        two_category_community.add_category("music")  # no objects, no reviews
        batch = solve_all_categories(two_category_community.columns())
        fp = batch.fixed_point("music")
        assert fp.review_quality == {}
        assert fp.rater_reputation == {}
        assert fp.iterations == 0
        # the populated categories are unaffected by the empty segment
        oracle = reference_solve_category(two_category_community.rating_triples("movies"))
        assert_fixed_points_identical(batch.fixed_point("movies"), oracle)

    def test_singleton_category(self, two_category_community):
        # books has a single review rated twice -- the smallest nonempty case
        batch = solve_all_categories(two_category_community.columns())
        oracle = reference_solve_category(two_category_community.rating_triples("books"))
        assert_fixed_points_identical(batch.fixed_point("books"), oracle)

    def test_community_with_no_ratings(self):
        from repro.community import Community

        empty = Community.from_records(
            name="empty",
            users=["a", "b"],
            categories=["movies"],
            objects=[],
            reviews=[],
            ratings=[],
            trust=[],
        )
        batch = solve_all_categories(empty.columns())
        fp = batch.fixed_point("movies")
        assert fp.review_quality == {} and fp.rater_reputation == {}


class TestConvergenceFailure:
    def test_raises_like_the_oracle(self):
        community = random_community(4)
        strict = RiggsConfig(tolerance=1e-9, max_iterations=1)
        with pytest.raises(ConvergenceError):
            solve_all_categories(community.columns(), strict)
        with pytest.raises(ConvergenceError):
            for category_id in community.category_ids():
                reference_solve_category(community.rating_triples(category_id), strict)


class TestSubsetSolve:
    """`categories=` solves a chosen few exactly as the full solve does."""

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_subset_matches_full_solve_and_oracle(self, config_name):
        community = random_community(6)
        config = CONFIGS[config_name]
        columns = community.columns()
        full = solve_all_categories(columns, config)
        # an unordered pick that skips categories on both sides
        subset = community.category_ids()[::-3]
        batch = solve_all_categories(columns, config, categories=subset)
        for category_id in subset:
            oracle = reference_solve_category(
                community.rating_triples(category_id), config
            )
            assert_fixed_points_identical(batch.fixed_point(category_id), oracle)
            assert_fixed_points_identical(
                batch.fixed_point(category_id), full.fixed_point(category_id)
            )
        solved = {columns.categories.position(c) for c in subset}
        assert set(batch.rater_slot_category_idx.tolist()) <= solved
        assert set(batch.review_slot_category_idx.tolist()) <= solved

    def test_unsolved_category_rejected(self):
        community = random_community(6)
        first, second = community.category_ids()[:2]
        batch = solve_all_categories(community.columns(), categories=[first])
        with pytest.raises(ValidationError, match="not solved"):
            batch.fixed_point(second)

    def test_empty_subset(self, two_category_community):
        batch = solve_all_categories(two_category_community.columns(), categories=[])
        assert len(batch.reputation) == 0 and len(batch.quality) == 0
        with pytest.raises(ValidationError, match="not solved"):
            batch.fixed_point("movies")

    def test_empty_category_in_subset(self, two_category_community):
        two_category_community.add_category("music")  # no objects, no reviews
        batch = solve_all_categories(
            two_category_community.columns(), categories=["music", "books"]
        )
        fp = batch.fixed_point("music")
        assert fp.review_quality == {} and fp.rater_reputation == {}
        assert fp.iterations == 0
        oracle = reference_solve_category(two_category_community.rating_triples("books"))
        assert_fixed_points_identical(batch.fixed_point("books"), oracle)

    def test_warm_started_subset_matches_oracle(self):
        community = random_community(7)
        columns = community.columns()
        subset = community.category_ids()[1::2]
        # seed from a perturbed cold solve so warm and cold runs differ
        cold = solve_all_categories(columns, categories=subset)
        seeds = {
            c: {
                rater: min(1.0, value + 0.05)
                for rater, value in cold.fixed_point(c).rater_reputation.items()
            }
            for c in subset
        }
        warm = solve_all_categories(columns, categories=subset, warm_start=seeds)
        full = solve_all_categories(columns, warm_start=seeds)
        for category_id in subset:
            oracle = reference_solve_category(
                community.rating_triples(category_id), warm_start=seeds[category_id]
            )
            assert_fixed_points_identical(warm.fixed_point(category_id), oracle)
            assert_fixed_points_identical(
                warm.fixed_point(category_id), full.fixed_point(category_id)
            )

    def test_unknown_category_rejected(self, two_category_community):
        with pytest.raises(ValidationError, match="gardening"):
            solve_all_categories(
                two_category_community.columns(), categories=["gardening"]
            )
