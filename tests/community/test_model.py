"""Tests for community value types."""

import pickle

import pytest

from repro.common.errors import ValidationError
from repro.community import (
    HELPFULNESS_SCALE,
    Category,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
)
from repro.community.model import is_on_scale


class TestHelpfulnessScale:
    def test_five_stages_matching_the_paper(self):
        assert HELPFULNESS_SCALE == (0.2, 0.4, 0.6, 0.8, 1.0)

    @pytest.mark.parametrize("value", HELPFULNESS_SCALE)
    def test_stage_values_on_scale(self, value):
        assert is_on_scale(value)

    def test_tolerates_float_noise(self):
        assert is_on_scale(0.2 + 1e-12)
        assert is_on_scale(1.0 - 1e-12)

    @pytest.mark.parametrize("value", [0.0, 0.3, 1.2, -0.2, "0.2", True, None])
    def test_off_scale_values(self, value):
        assert not is_on_scale(value)

    @pytest.mark.parametrize("value", [*HELPFULNESS_SCALE, 0.6 + 1e-10, 1])
    def test_exact_stages_tolerance_and_integer_accepted(self, value):
        assert is_on_scale(value)

    @pytest.mark.parametrize("value", [0.61, True, "0.6", float("nan")])
    def test_near_misses_and_non_numbers_rejected(self, value):
        assert not is_on_scale(value)


class TestEntityValidation:
    def test_user_requires_nonempty_id(self):
        with pytest.raises(ValidationError):
            User(user_id="")

    def test_category_requires_nonempty_id(self):
        with pytest.raises(ValidationError):
            Category(category_id="")

    def test_object_requires_category(self):
        with pytest.raises(ValidationError):
            ReviewedObject(object_id="o1", category_id="")

    def test_review_requires_all_ids(self):
        with pytest.raises(ValidationError):
            Review(review_id="r1", writer_id="", object_id="o1")

    def test_rating_requires_scale_value(self):
        with pytest.raises(ValidationError, match="rating value"):
            ReviewRating(rater_id="u1", review_id="r1", value=0.5)

    def test_rating_on_scale_accepted(self):
        rating = ReviewRating(rater_id="u1", review_id="r1", value=0.8)
        assert rating.value == 0.8

    def test_trust_statement_rejects_self_trust(self):
        with pytest.raises(ValidationError, match="themselves"):
            TrustStatement(truster_id="u1", trustee_id="u1")

    def test_entities_are_frozen(self):
        user = User(user_id="u1")
        with pytest.raises(AttributeError):
            user.user_id = "u2"

    def test_entities_are_hashable(self):
        assert len({User("u1"), User("u1"), User("u2")}) == 2


RECORDS = [
    User("u1", "Ann"),
    Category("c1", "Movies"),
    ReviewedObject("o1", "c1", "A film"),
    Review("r1", "u1", "o1"),
    ReviewRating("u2", "r1", 0.8),
    TrustStatement("u1", "u2"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestSlottedRecords:
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1

    def test_pickle_round_trip(self, record):
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is type(record)
        assert restored == record
        assert hash(restored) == hash(record)

    def test_value_equality_and_hash(self, record):
        twin = type(record)(*(getattr(record, name) for name in record.__slots__))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
