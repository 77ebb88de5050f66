"""Tests for a Community's category-, writer- and rater-scoped reads."""

import pytest

from repro.common.errors import ValidationError
from repro.community import Community, Review, ReviewRating, ReviewedObject


@pytest.fixture
def reviews():
    """Five reviews over two categories, each rated once by ``rater``."""
    rows = [
        ("r1", "u1", "c1", 1.0),
        ("r2", "u1", "c2", 0.4),
        ("r3", "u2", "c1", 0.8),
        ("r4", "u3", "c1", 0.2),
        ("r5", "u2", "c2", 0.6),
    ]
    c = Community("query")
    for user in ("u1", "u2", "u3", "rater"):
        c.add_user(user)
    c.add_category("c1")
    c.add_category("c2")
    for review_id, writer, category, quality in rows:
        object_id = f"o-{review_id}"
        c.add_object(ReviewedObject(object_id, category))
        c.add_review(Review(review_id, writer, object_id))
        c.add_rating(ReviewRating("rater", review_id, quality))
    return c


def ids(reviews):
    return [review.review_id for review in reviews]


class TestWhere:
    def test_single_filter(self, reviews):
        assert set(ids(reviews.reviews_in_category("c1"))) == {"r1", "r3", "r4"}

    def test_chained_filters_and(self, reviews):
        assert reviews.reviews_by_writer("u2", category_id="c1") == ["r3"]

    def test_where_unknown_column(self, reviews):
        with pytest.raises(ValidationError, match="unknown category"):
            reviews.reviews_in_category("ghost")

    def test_builder_does_not_mutate_parent(self, reviews):
        # a category-scoped read must not narrow the writer's own list
        assert reviews.reviews_by_writer("u2", category_id="c1") == ["r3"]
        assert reviews.reviews_by_writer("u2") == ["r3", "r5"]
        assert reviews.ratings_by_rater("rater", category_id="c2") == [
            ("r2", 0.4),
            ("r5", 0.6),
        ]
        assert len(reviews.ratings_by_rater("rater")) == 5


class TestFilterOrderLimit:
    def test_order_by_ascending(self, reviews):
        # category reads keep insertion order, also after a refresh
        assert ids(reviews.reviews_in_category("c1")) == ["r1", "r3", "r4"]
        reviews.add_object(ReviewedObject("o-r6", "c1"))
        reviews.add_review(Review("r6", "u1", "o-r6"))
        assert ids(reviews.reviews_in_category("c1")) == ["r1", "r3", "r4", "r6"]
        assert ids(reviews.reviews_in_category("c2")) == ["r2", "r5"]


class TestTerminals:
    def test_first(self, reviews):
        assert reviews.reviews_by_writer("u2")[0] == "r3"

    def test_first_empty(self, reviews):
        assert reviews.reviews_by_writer("rater") == []
        assert reviews.ratings_by_rater("u1") == []

    def test_count_fast_path_matches_slow_path(self, reviews):
        fast = reviews.num_reviews("c1")
        listed = len(reviews.reviews_in_category("c1"))
        scan = sum(
            1 for r in reviews.iter_reviews() if reviews.review_category(r.review_id) == "c1"
        )
        assert fast == listed == scan == 3

    def test_select_projection(self, reviews):
        assert reviews.ratings_of_review("r1") == [("rater", 1.0)]
        assert reviews.rating_triples("c2") == [("rater", "r2", 0.4), ("rater", "r5", 0.6)]

    def test_values(self, reviews):
        values = sorted(value for _, _, value in reviews.rating_triples("c2"))
        assert values == [0.4, 0.6]
