"""Tests for the records a Community keeps: insert, lookup, per-key reads, constraints.

Each entity kind is one insertion-ordered collection keyed by its primary
key; the per-review, per-rater and per-writer reads are lists kept at
insert time and the per-category reads are slices of ``columns()``.
"""

import dataclasses

import pytest

from repro import obs
from repro.common.errors import IntegrityError, ValidationError
from repro.community import Community, Review, ReviewRating, ReviewedObject
from repro.obs.recorder import Recorder


@pytest.fixture
def community():
    """Writer ``w`` wrote r1 (c1), r2 (c2) and r3 (c1); ``u1``/``u2`` only rate."""
    c = Community("table")
    for user in ("w", "u1", "u2"):
        c.add_user(user)
    c.add_category("c1")
    c.add_category("c2")
    c.add_object(ReviewedObject("o1", "c1"))
    c.add_object(ReviewedObject("o2", "c2"))
    c.add_object(ReviewedObject("o3", "c1"))
    c.add_review(Review("r1", "w", "o1"))
    c.add_review(Review("r2", "w", "o2"))
    c.add_review(Review("r3", "w", "o3"))
    return c


def fill(community, rows):
    for rater, review, value in rows:
        community.add_rating(ReviewRating(rater, review, value))


class TestInsertAndGet:
    def test_roundtrip(self, community):
        community.add_rating(ReviewRating("u1", "r1", 0.8))
        assert list(community.iter_ratings()) == [ReviewRating("u1", "r1", 0.8)]
        assert community.ratings_of_review("r1") == [("u1", 0.8)]

    def test_get_returns_copy(self, community):
        community.add_rating(ReviewRating("u1", "r1", 0.8))
        community.ratings_of_review("r1").append(("u2", 99.0))
        stored = next(community.iter_ratings())
        with pytest.raises(dataclasses.FrozenInstanceError):
            stored.value = 99.0  # type: ignore[misc]
        assert community.ratings_of_review("r1") == [("u1", 0.8)]

    def test_duplicate_pk_rejected(self, community):
        community.add_rating(ReviewRating("u1", "r1", 0.8))
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            community.add_rating(ReviewRating("u1", "r1", 0.2))

    def test_schema_violation_rejected(self, community):
        with pytest.raises(ValidationError):
            community.add_rating(ReviewRating("u1", "r1", "high"))  # type: ignore[arg-type]
        assert community.num_ratings() == 0

    def test_maybe_get_absent_returns_none(self, community):
        # reads keyed by a known-but-unused id answer empty, not an error
        assert community.ratings_of_review("r1") == []
        assert community.ratings_by_rater("u1") == []
        assert community.trusts("u1", "u2") is False

    def test_get_absent_raises(self, community):
        with pytest.raises(ValidationError, match="unknown review"):
            community.review_writer("ghost")

    def test_contains(self, community):
        assert community.has_user("u1")
        assert not community.has_user("ghost")

    def test_insert_many_counts(self):
        c = Community.from_records(
            users=["w", "u1"],
            categories=["c1"],
            objects=[ReviewedObject(f"o{i}", "c1") for i in range(5)],
            reviews=[Review(f"r{i}", "w", f"o{i}") for i in range(5)],
            ratings=[ReviewRating("u1", f"r{i}", 0.2) for i in range(5)],
        )
        assert c.num_ratings() == 5
        assert len(list(c.iter_ratings())) == 5


class TestFind:
    def test_unindexed_scan(self, community):
        fill(community, [("u1", "r1", 0.8), ("u1", "r2", 0.6), ("u2", "r1", 0.2)])
        assert {review for review, _ in community.ratings_by_rater("u1")} == {"r1", "r2"}

    def test_indexed_lookup_matches_scan(self, community):
        fill(
            community,
            [("u1", "r1", 0.8), ("u1", "r2", 0.6), ("u2", "r1", 0.2), ("u2", "r3", 1.0)],
        )
        ratings = list(community.iter_ratings())
        for review_id in ("r1", "r2", "r3"):
            scan = [(r.rater_id, r.value) for r in ratings if r.review_id == review_id]
            assert community.ratings_of_review(review_id) == scan
        for rater_id in ("w", "u1", "u2"):
            scan = [(r.review_id, r.value) for r in ratings if r.rater_id == rater_id]
            assert community.ratings_by_rater(rater_id) == scan
        reviews = list(community.iter_reviews())
        for writer_id in ("w", "u1"):
            scan = [r.review_id for r in reviews if r.writer_id == writer_id]
            assert community.reviews_by_writer(writer_id) == scan

    def test_index_covers_rows_inserted_after_creation(self, community):
        assert community.rating_triples("c1") == []
        fill(community, [("u1", "r1", 0.8), ("u2", "r1", 0.4)])
        assert len(community.ratings_of_review("r1")) == 2
        assert len(community.rating_triples("c1")) == 2
        assert community.num_ratings("c1") == 2

    def test_multi_column_indexed_find(self, community):
        fill(community, [("u1", "r1", 0.8), ("u1", "r2", 0.6)])
        assert community.ratings_by_rater("u1", category_id="c2") == [("r2", 0.6)]

    def test_find_empty_filter_returns_all(self, community):
        fill(community, [("u1", "r1", 0.8), ("u1", "r2", 0.6)])
        assert len(community.ratings_by_rater("u1")) == 2
        assert community.object_ids() == ["o1", "o2", "o3"]

    def test_find_unknown_column_raises(self, community):
        with pytest.raises(ValidationError, match="unknown category"):
            community.rating_triples("ghost")

    def test_find_returns_copies(self, community):
        community.object_ids("c1").append("ghost")
        community.reviews_by_writer("w").clear()
        community.user_ids().pop()
        assert community.object_ids("c1") == ["o1", "o3"]
        assert community.reviews_by_writer("w") == ["r1", "r2", "r3"]
        assert community.user_ids() == ["w", "u1", "u2"]


class TestCountDistinctGroup:
    def test_count_all_and_filtered(self, community):
        fill(community, [("u1", "r1", 0.8), ("u1", "r2", 0.6), ("u2", "r1", 0.2)])
        assert community.num_ratings() == 3
        assert community.num_ratings("c1") == 2

    def test_count_uses_index(self, community):
        fill(community, [("u1", "r1", 0.8), ("u1", "r2", 0.6)])
        community.columns()
        recorder = Recorder()
        with obs.use_recorder(recorder):
            assert community.num_ratings("c1") == 1
            assert community.num_reviews("c1") == 2
        # per-category counts read the current snapshot; nothing is rebuilt
        assert recorder.counters == {"community.columns.hit": 2}

    def test_distinct_preserves_first_seen_order(self, community):
        fill(community, [("u2", "r1", 0.8), ("u1", "r3", 0.6), ("u2", "r3", 0.2)])
        assert list(community.rating_counts("c1")) == ["u2", "u1"]
        assert [r.rater_id for r in community.iter_ratings()] == ["u2", "u1", "u2"]
        assert community.user_ids() == ["w", "u1", "u2"]

    def test_group_count(self, community):
        fill(community, [("u1", "r1", 0.8), ("u1", "r3", 0.6), ("u2", "r1", 0.2)])
        assert community.rating_counts("c1") == {"u1": 2, "u2": 1}
        assert community.writing_counts("c1") == {"w": 2}

    def test_aggregate(self, community):
        fill(community, [("u1", "r1", 0.8), ("u1", "r2", 0.6)])
        values = community.direct_connections()[("u1", "w")]
        assert sum(values) == pytest.approx(1.4)


class TestUniqueConstraint:
    @pytest.fixture
    def reviews(self):
        return Community.from_records(
            users=["u1", "u2"],
            categories=["c1"],
            objects=[ReviewedObject("o1", "c1"), ReviewedObject("o2", "c1")],
        )

    def test_violation_rejected(self, reviews):
        reviews.add_review(Review("r1", "u1", "o1"))
        with pytest.raises(IntegrityError, match="unique"):
            reviews.add_review(Review("r2", "u1", "o1"))

    def test_failed_insert_leaves_table_unchanged(self, reviews):
        reviews.add_review(Review("r1", "u1", "o1"))
        with pytest.raises(IntegrityError):
            reviews.add_review(Review("r2", "u1", "o1"))
        assert reviews.num_reviews() == 1
        # and a subsequent legal insert under the rejected id still works
        reviews.add_review(Review("r2", "u1", "o2"))
        assert reviews.num_reviews() == 2

    def test_same_object_different_writer_allowed(self, reviews):
        reviews.add_review(Review("r1", "u1", "o1"))
        reviews.add_review(Review("r2", "u2", "o1"))
        assert reviews.num_reviews() == 2


class TestIndexManagement:
    def test_create_index_twice_is_noop(self, community):
        first = community.columns()
        fill(community, [("u1", "r1", 0.6)])
        second = community.columns()
        assert community.columns() is second
        assert second is not first
        assert community.num_ratings("c1") == 1

    def test_has_index(self, community):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            community.add_rating(ReviewRating("u1", "r1", 0.6))
            assert "community.columns.miss" not in recorder.counters  # built lazily
            community.num_ratings("c1")
            community.num_ratings("c2")
        assert recorder.counters["community.columns.miss"] == 1
        assert recorder.counters["community.columns.hit"] == 1
