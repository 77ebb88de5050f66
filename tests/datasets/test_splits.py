"""Tests for hold-out splitting."""

import pytest

from repro.common.errors import ValidationError
from repro.datasets import CommunityProfile, generate_community
from repro.datasets.splits import holdout_ratings


@pytest.fixture(scope="module")
def dataset():
    profile = CommunityProfile(
        num_users=80, category_names=("a", "b"), objects_per_category=20,
        num_advisors=5, num_top_reviewers=5,
    )
    return generate_community(profile, seed=9)


class TestHoldoutRatings:
    def test_partition_sizes(self, dataset):
        total = dataset.community.num_ratings()
        train, held = holdout_ratings(dataset.community, 0.2, seed=1)
        assert len(held) == int(round(0.2 * total))
        assert train.num_ratings() + len(held) == total

    def test_original_untouched(self, dataset):
        before = dataset.community.num_ratings()
        holdout_ratings(dataset.community, 0.3, seed=1)
        assert dataset.community.num_ratings() == before

    def test_structure_preserved(self, dataset):
        train, _ = holdout_ratings(dataset.community, 0.2, seed=1)
        assert train.num_users() == dataset.community.num_users()
        assert train.num_reviews() == dataset.community.num_reviews()
        assert train.num_trust_edges() == dataset.community.num_trust_edges()

    def test_held_out_reviews_exist_in_train(self, dataset):
        train, held = holdout_ratings(dataset.community, 0.25, seed=2)
        for rating in held:
            train.review_writer(rating.review_id)  # raises if absent

    def test_deterministic(self, dataset):
        _, held_a = holdout_ratings(dataset.community, 0.2, seed=3)
        _, held_b = holdout_ratings(dataset.community, 0.2, seed=3)
        assert held_a == held_b

    def test_seed_changes_split(self, dataset):
        _, held_a = holdout_ratings(dataset.community, 0.2, seed=3)
        _, held_b = holdout_ratings(dataset.community, 0.2, seed=4)
        assert held_a != held_b

    def test_drop_trust(self, dataset):
        train, _ = holdout_ratings(dataset.community, 0.2, seed=1, keep_trust=False)
        assert train.num_trust_edges() == 0

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_bad_fraction(self, dataset, fraction):
        with pytest.raises(ValidationError):
            holdout_ratings(dataset.community, fraction)

    def test_too_few_ratings(self):
        from repro.community import Community

        with pytest.raises(ValidationError, match="at least 2"):
            holdout_ratings(Community("empty"), 0.5)
