"""Tests for a Community's cross-entity references and integrity.

Every reference a record holds (an object's category, a review's writer
and object, a rating's rater and review, both ends of a trust statement)
is checked by its ``add_*`` call before anything is written.
"""

import dataclasses

import pytest

from repro.common.errors import IntegrityError, ValidationError
from repro.community import (
    Category,
    Community,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)
from repro.datasets import CommunityProfile, generate_community

SMALL = CommunityProfile(
    num_users=60,
    category_names=("movies", "books"),
    objects_per_category=10,
    num_advisors=4,
    num_top_reviewers=5,
)


@pytest.fixture
def db():
    c = Community("test")
    c.add_user("u1")
    c.add_user("u2")
    c.add_category("c1")
    c.add_object(ReviewedObject("o1", "c1"))
    return c


class TestTableManagement:
    def test_create_and_fetch(self, db):
        category = db.add_category("c2", "books")
        assert category == Category("c2", "books")
        assert list(db.iter_categories())[-1] is category
        assert db.category_ids() == ["c1", "c2"]

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            db.add_category("c1")
        assert db.category_ids() == ["c1"]

    def test_unknown_table_rejected(self, db):
        with pytest.raises(ValidationError, match="unknown category"):
            db.writing_counts("ghost")

    def test_fk_to_unknown_table_rejected_at_creation(self, db):
        with pytest.raises(IntegrityError, match="unknown category"):
            db.add_object(ReviewedObject("o2", "ghost"))
        assert db.object_ids() == ["o1"]

    def test_contains(self, db):
        db.add_trust(TrustStatement("u1", "u2"))
        assert db.trusts("u1", "u2")
        assert not db.trusts("u2", "u1")


class TestForeignKeyEnforcement:
    def test_valid_reference_accepted(self, db):
        db.add_review(Review("r1", "u1", "o1"))
        assert db.review_writer("r1") == "u1"
        assert db.review_category("r1") == "c1"

    def test_dangling_reference_rejected(self, db):
        with pytest.raises(IntegrityError, match="unknown writer"):
            db.add_review(Review("r1", "ghost", "o1"))

    def test_failed_fk_insert_leaves_table_unchanged(self, db):
        with pytest.raises(IntegrityError):
            db.add_review(Review("r1", "ghost", "o1"))
        assert db.num_reviews() == 0
        assert list(db.iter_reviews()) == []
        # the rejected id is still free
        db.add_review(Review("r1", "u1", "o1"))
        assert db.num_reviews() == 1

    def test_nullable_fk_column_accepts_none(self, db):
        # touch() names a category, or None for every category
        db.touch(None)
        db.touch("c1")
        with pytest.raises(ValidationError, match="unknown category"):
            db.touch("ghost")

    def test_insert_many_stops_at_first_violation(self):
        with pytest.raises(IntegrityError, match="'ghost'"):
            Community.from_records(
                users=["u1"],
                categories=["c1"],
                objects=[ReviewedObject(f"o{i}", "c1") for i in range(3)],
                reviews=[
                    Review("r1", "u1", "o0"),
                    Review("r2", "ghost", "o1"),
                    Review("r3", "ghost2", "o2"),
                ],
            )


class TestVerifyIntegrity:
    def test_clean_database_reports_nothing(self):
        community = generate_community(SMALL, seed=3).community
        objects = set(community.object_ids())
        categories = set(community.category_ids())
        for obj in community.iter_objects():
            assert obj.category_id in categories
        for review in community.iter_reviews():
            assert community.has_user(review.writer_id)
            assert review.object_id in objects
        for rating in community.iter_ratings():
            assert community.has_user(rating.rater_id)
            assert community.review_writer(rating.review_id) != rating.rater_id
        for truster, trustee in community.trust_edges():
            assert community.has_user(truster) and community.has_user(trustee)

    def test_bypassed_write_is_caught(self, db):
        # stored records are frozen, so no write can bypass the add_* checks
        db.add_review(Review("r1", "u1", "o1"))
        review = next(db.iter_reviews())
        with pytest.raises(dataclasses.FrozenInstanceError):
            review.writer_id = "ghost"  # type: ignore[misc]
        assert db.review_writer("r1") == "u1"

    def test_stats(self, db):
        db.add_review(Review("r1", "u1", "o1"))
        db.add_rating(ReviewRating("u2", "r1", 0.8))
        assert db.summary() == {
            "users": 2,
            "categories": 1,
            "objects": 1,
            "reviews": 1,
            "ratings": 1,
            "trust": 0,
        }
