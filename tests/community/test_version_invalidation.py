"""Version counter and columns() cache currency across all mutators.

Invariant (satellite of the R1 lint rule): every successful ``add_*`` call
bumps ``Community.version`` exactly once and the next ``columns()`` call
reflects it; failed adds leave the records, the version, the change log
and the cached snapshot untouched.  Mutations the snapshot encodes (users,
categories, reviews, ratings) produce a new snapshot object, bitwise equal
to a cold build; object/trust/touch deltas and change-log compaction are
cache hits, because the columnar view encodes none of them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.errors import IntegrityError
from repro.community import (
    Community,
    CommunityColumns,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)
from repro.engine import extract_records
from repro.obs.recorder import Recorder

MUTATIONS = [
    ("add_user", lambda c: c.add_user("frank")),
    ("add_category", lambda c: c.add_category("music")),
    ("add_object", lambda c: c.add_object(ReviewedObject("m3", "movies"))),
    ("add_review", lambda c: c.add_review(Review("rb2", "bob", "m2"))),
    ("add_rating", lambda c: c.add_rating(ReviewRating("carol", "ra1", 0.8))),
    ("add_trust", lambda c: c.add_trust(TrustStatement("carol", "bob"))),
]


class TestSingleMutators:
    @pytest.mark.parametrize("mutate", [m for _, m in MUTATIONS], ids=[n for n, _ in MUTATIONS])
    def test_bumps_version_exactly_once(self, two_category_community, mutate):
        before = two_category_community.version
        mutate(two_category_community)
        assert two_category_community.version == before + 1

    ENCODED = ("add_user", "add_category", "add_review", "add_rating")

    @pytest.mark.parametrize("name,mutate", MUTATIONS, ids=[n for n, _ in MUTATIONS])
    def test_columns_cache_stays_current(self, two_category_community, name, mutate):
        cached = two_category_community.columns()
        assert two_category_community.columns() is cached  # stable when idle
        mutate(two_category_community)
        rebuilt = two_category_community.columns()
        if name in self.ENCODED:
            assert rebuilt is not cached
        else:
            # object/trust deltas are cache hits: the snapshot encodes
            # neither, so the cached view is still the current one
            assert rebuilt is cached
        assert two_category_community.columns() is rebuilt

    REJECTED = [
        ("duplicate-user", lambda c: c.add_user("alice")),
        ("duplicate-category", lambda c: c.add_category("movies")),
        ("duplicate-object", lambda c: c.add_object(ReviewedObject("m1", "books"))),
        ("object-unknown-category", lambda c: c.add_object(ReviewedObject("x", "no"))),
        ("review-unknown-object", lambda c: c.add_review(Review("rx", "bob", "no"))),
        ("duplicate-review", lambda c: c.add_review(Review("ra1", "carol", "m2"))),
        ("review-unknown-writer", lambda c: c.add_review(Review("rx", "no", "m2"))),
        ("second-review-of-object", lambda c: c.add_review(Review("rx", "alice", "m1"))),
        ("rating-unknown-review", lambda c: c.add_rating(ReviewRating("bob", "no", 0.2))),
        ("self-rating", lambda c: c.add_rating(ReviewRating("alice", "ra1", 1.0))),
        ("duplicate-rating", lambda c: c.add_rating(ReviewRating("bob", "ra1", 0.2))),
        ("rating-unknown-rater", lambda c: c.add_rating(ReviewRating("no", "ra1", 0.2))),
        ("duplicate-trust", lambda c: c.add_trust(TrustStatement("bob", "alice"))),
        ("trust-unknown-truster", lambda c: c.add_trust(TrustStatement("no", "bob"))),
        ("trust-unknown-trustee", lambda c: c.add_trust(TrustStatement("bob", "no"))),
    ]

    @pytest.mark.parametrize(
        "reject", [r for _, r in REJECTED], ids=[n for n, _ in REJECTED]
    )
    def test_failed_add_review_leaves_state_alone(self, two_category_community, reject):
        community = two_category_community
        cached = community.columns()
        summary = community.summary()
        records = extract_records(community)
        version = community.version
        epoch = community.change_log.epoch
        with pytest.raises(IntegrityError):
            reject(community)
        assert community.summary() == summary
        assert extract_records(community) == records
        assert community.version == version
        assert community.change_log.epoch == epoch
        assert community.columns() is cached

    def test_failed_self_rating_leaves_state_alone(self, two_category_community):
        cached = two_category_community.columns()
        before = two_category_community.version
        with pytest.raises(IntegrityError):
            two_category_community.add_rating(ReviewRating("alice", "ra1", 1.0))
        assert two_category_community.version == before
        assert two_category_community.columns() is cached


def test_compaction_refreshes_instead_of_rebuilding(two_category_community):
    community = two_category_community
    community.columns()
    recorder = Recorder()
    with obs.use_recorder(recorder):
        community.add_rating(ReviewRating("carol", "ra1", 0.2))
        community.change_log.compact()
        community.columns()
    assert recorder.counters.get("community.columns.refresh") == 1
    assert "community.columns.miss" not in recorder.counters
    assert "community.columns.invalidated" not in recorder.counters


# ----------------------------------------------------------------- property test

OPS = (
    "user",
    "category",
    "object",
    "review",
    "rating",
    "rerating",
    "trust",
    "touch",
    "compact",
)


class MutationDriver:
    """Applies self-contained mutations, counting the add_* calls made."""

    def __init__(self):
        self.community = Community("prop")
        self.counters = dict.fromkeys(("user", "category", "object", "review"), 0)

    def _fresh(self, kind):
        self.counters[kind] += 1
        return f"{kind}{self.counters[kind]}"

    def _fresh_user(self):
        user_id = self._fresh("user")
        self.community.add_user(user_id)
        return user_id, 1

    def _fresh_review(self):
        adds = 0
        if not self.counters["category"]:
            self.community.add_category(self._fresh("category"))
            adds += 1
        writer, n = self._fresh_user()
        adds += n
        object_id = self._fresh("object")
        self.community.add_object(
            ReviewedObject(object_id, f"category{self.counters['category']}")
        )
        review_id = self._fresh("review")
        self.community.add_review(Review(review_id, writer, object_id))
        return review_id, adds + 2

    def apply(self, op):
        """Run one operation; returns the number of add_* calls it made."""
        community = self.community
        if op == "user":
            return self._fresh_user()[1]
        if op == "category":
            community.add_category(self._fresh("category"))
            return 1
        if op == "object":
            adds = 0
            if not self.counters["category"]:
                community.add_category(self._fresh("category"))
                adds += 1
            community.add_object(
                ReviewedObject(
                    self._fresh("object"), f"category{self.counters['category']}"
                )
            )
            return adds + 1
        if op == "review":
            return self._fresh_review()[1]
        if op == "rating":
            review_id, adds = self._fresh_review()
            rater, n = self._fresh_user()  # fresh id, never the writer
            community.add_rating(ReviewRating(rater, review_id, 0.6))
            return adds + n + 1
        if op == "rerating":
            # a fresh rater on the oldest review: the ratings-only refresh
            if not self.counters["review"]:
                return self.apply("rating")
            rater, n = self._fresh_user()
            community.add_rating(ReviewRating(rater, "review1", 0.8))
            return n + 1
        if op == "trust":
            truster, n1 = self._fresh_user()
            trustee, n2 = self._fresh_user()
            community.add_trust(TrustStatement(truster, trustee))
            return n1 + n2 + 1
        if op == "touch":
            community.touch()
            return 1
        if op == "compact":
            community.change_log.compact()
            return 0
        raise AssertionError(op)


_COLUMN_ARRAYS = (
    "review_writer_idx",
    "review_category_idx",
    "review_cat_starts",
    "rater_idx",
    "rating_review_idx",
    "rating_category_idx",
    "rating_values",
    "srt_rater_idx",
    "srt_review_idx",
    "srt_values",
    "rating_cat_starts",
)


def assert_columns_bitwise_equal(got, want):
    assert got.users == want.users
    assert got.categories == want.categories
    assert got.review_ids == want.review_ids
    for name in _COLUMN_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _encoded_counts(community):
    return (
        community.num_users(),
        len(community.category_ids()),
        community.num_reviews(),
        community.num_ratings(),
    )


@given(ops=st.lists(st.sampled_from(OPS), max_size=12))
@settings(max_examples=25, deadline=None)
def test_version_counts_successful_adds_and_columns_never_stale(ops):
    driver = MutationDriver()
    for op in ops:
        cached = driver.community.columns()
        before = driver.community.version
        counts = _encoded_counts(driver.community)
        adds = driver.apply(op)
        assert driver.community.version == before + adds
        rebuilt = driver.community.columns()
        if _encoded_counts(driver.community) != counts:
            assert rebuilt is not cached
        else:
            # object/trust/touch growth or a compaction: cache hit
            assert rebuilt is cached
        assert_columns_bitwise_equal(
            rebuilt, CommunityColumns.from_community(driver.community)
        )
        assert driver.community.columns() is rebuilt
