"""Tests for the record types a Community stores.

Each record validates its own fields on construction, so a Community only
ever holds well-formed records; the rating value is stored as a ``float``.
"""

import pytest

from repro.common.errors import ValidationError
from repro.community import (
    Category,
    Community,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
)


@pytest.fixture
def community():
    return Community.from_records(
        users=["u1", "u2"],
        categories=["c1"],
        objects=[ReviewedObject("o1", "c1")],
        reviews=[Review("r1", "u1", "o1")],
    )


class TestColumn:
    def test_validate_accepts_correct_type(self):
        rating = ReviewRating("u2", "r1", 0.8)
        assert (rating.rater_id, rating.review_id, rating.value) == ("u2", "r1", 0.8)

    def test_float_column_coerces_int(self, community):
        community.add_rating(ReviewRating("u2", "r1", 1))
        value = next(community.iter_ratings()).value
        assert value == 1.0
        assert isinstance(value, float)
        assert isinstance(community.ratings_of_review("r1")[0][1], float)

    def test_rejects_bool_for_numeric_columns(self):
        # True == 1 == 1.0 would otherwise pass the scale check
        with pytest.raises(ValidationError):
            ReviewRating("u2", "r1", True)

    def test_nullable_accepts_none(self):
        assert User("u1").name == ""
        assert Category("c1").name == ""
        assert ReviewedObject("o1", "c1").title == ""

    def test_non_nullable_rejects_none(self):
        with pytest.raises(ValidationError, match="non-empty string"):
            User(None)  # type: ignore[arg-type]

    def test_check_predicate_enforced(self):
        assert ReviewRating("u2", "r1", 0.6).value == 0.6
        with pytest.raises(ValidationError, match="rating value"):
            ReviewRating("u2", "r1", 0.5)
        with pytest.raises(ValidationError, match="rating value"):
            ReviewRating("u2", "r1", 1.5)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValidationError):
            User(3)  # type: ignore[arg-type]


class TestSchemaConstruction:
    def test_valid_schema_builds(self):
        assert Community().summary() == {
            "users": 0,
            "categories": 0,
            "objects": 0,
            "reviews": 0,
            "ratings": 0,
            "trust": 0,
        }

    def test_primary_key_required(self):
        makers = [
            lambda: User(""),
            lambda: Category(""),
            lambda: ReviewedObject("", "c1"),
            lambda: Review("", "u1", "o1"),
            lambda: ReviewRating("", "r1", 0.2),
            lambda: ReviewRating("u1", "", 0.2),
            lambda: TrustStatement("", "u2"),
        ]
        for make in makers:
            with pytest.raises(ValidationError, match="non-empty string"):
                make()

    def test_foreign_key_column_must_exist(self):
        with pytest.raises(ValidationError, match="category_id"):
            ReviewedObject("o1", "")
        with pytest.raises(ValidationError, match="writer_id"):
            Review("r1", "", "o1")


class TestRowValidation:
    def test_valid_row_passes_and_is_copied(self, community):
        given = ReviewRating("u2", "r1", 1)
        community.add_rating(given)
        stored = next(community.iter_ratings())
        assert stored == given
        assert stored is not given
        assert type(given.value) is int  # the caller's record is left alone

    def test_missing_column_rejected(self):
        with pytest.raises(TypeError):
            ReviewRating("u2", "r1")  # type: ignore[call-arg]

    def test_unknown_column_rejected(self):
        with pytest.raises(TypeError):
            ReviewRating("u2", "r1", 0.2, extra=1)  # type: ignore[call-arg]

    def test_pk_extraction(self, community):
        # a trust statement is keyed by the ordered (truster, trustee) pair
        community.add_trust(TrustStatement("u1", "u2"))
        community.add_trust(TrustStatement("u2", "u1"))
        assert community.trust_edges() == [("u1", "u2"), ("u2", "u1")]
        assert community.trusts("u2", "u1")
