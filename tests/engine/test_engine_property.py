"""Property test: any mutation stream keeps Engine.update() bitwise-cold.

This is the engine's headline contract (exact mode): after an arbitrary
interleaving of mutations and updates, the staged artifacts are bitwise
equal to one cold, cache-free pipeline pass over a fresh replica of the
same records, and its Step-1 matrices bitwise equal to the frozen
triple-based oracle of `repro.perf.reference`.  hypothesis drives a random but self-consistent stream of
add_user / add_category / add_object / add_review / add_rating /
add_trust / touch operations, with updates interspersed at random points
so reuse paths (no-op, trust-only, localised patch, full re-derive after
category growth) all get exercised.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import (
    Community,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)
from repro.engine import Engine, clone_community, cold_artifacts
from repro.perf.reference import reference_fit_expertise

OPS = ("user", "category", "object", "review", "rating", "trust", "touch", "update")

#: values on the paper's helpfulness scale
SCALE = (0.2, 0.4, 0.6, 0.8, 1.0)


class StreamDriver:
    """Applies ops from a random stream, keeping referential integrity."""

    def __init__(self):
        self.community = Community("prop_engine")
        self.engine = Engine(self.community)
        self.users = []
        self.categories = []
        self.objects = []  # (object_id, category_id)
        self.reviews = []  # (review_id, writer_id)
        self.serial = 0

    def _next(self, prefix):
        self.serial += 1
        return f"{prefix}{self.serial}"

    def _pick(self, items, index):
        return items[index % len(items)]

    def apply(self, op, index, value):
        if op == "update":
            self.engine.update()
            return
        if op == "touch":
            if self.categories:
                self.community.touch(self._pick(self.categories, index))
            else:
                self.community.touch()
            return
        if op == "user":
            user_id = self._next("u")
            self.community.add_user(user_id)
            self.users.append(user_id)
            return
        if op == "category":
            category_id = self._next("c")
            self.community.add_category(category_id)
            self.categories.append(category_id)
            return
        # the remaining ops need prerequisites; create them on demand so
        # every generated stream is applicable
        if not self.users:
            self.apply("user", index, value)
        if not self.categories:
            self.apply("category", index, value)
        if op == "object":
            object_id = self._next("o")
            self.community.add_object(
                ReviewedObject(object_id, self._pick(self.categories, index))
            )
            self.objects.append(object_id)
            return
        if not self.objects:
            self.apply("object", index, value)
        if op == "review":
            review_id = self._next("r")
            writer = self._pick(self.users, index)
            try:
                self.community.add_review(
                    Review(review_id, writer, self._pick(self.objects, index))
                )
            except Exception:
                return  # one review per (writer, object); duplicates rejected
            self.reviews.append((review_id, writer))
            return
        if op == "rating":
            if not self.reviews:
                self.apply("review", index, value)
            review_id, writer = self._pick(self.reviews, index)
            raters = [u for u in self.users if u != writer]
            if not raters:
                self.apply("user", index, value)
                raters = [self.users[-1]]
            rater = self._pick(raters, index)
            try:
                self.community.add_rating(ReviewRating(rater, review_id, value))
            except Exception:
                pass  # duplicate (rater, review) pairs are rejected; fine
            return
        if op == "trust":
            if len(self.users) < 2:
                self.apply("user", index, value)
                self.apply("user", index, value)
            truster = self._pick(self.users, index)
            trustee = self._pick([u for u in self.users if u != truster], index + 1)
            try:
                self.community.add_trust(TrustStatement(truster, trustee))
            except Exception:
                pass  # duplicate statements are rejected; fine
            return
        raise AssertionError(op)


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(min_value=0, max_value=7),
            st.sampled_from(SCALE),
        ),
        min_size=1,
        max_size=24,
    )
)
@settings(max_examples=30, deadline=None)
def test_random_mutation_stream_is_bitwise_cold(ops):
    driver = StreamDriver()
    for op, index, value in ops:
        driver.apply(op, index, value)
    artifacts = driver.engine.update()
    clone = clone_community(driver.community)
    reference = cold_artifacts(clone)
    diffs = artifacts.differences(reference)
    assert not diffs, f"stream {ops!r} diverged: {diffs}"
    # cold_artifacts runs the engine's own Step-1 solver; the frozen
    # triple-based oracle checks it independently
    oracle = reference_fit_expertise(clone)
    assert artifacts.expertise == oracle.expertise, f"stream {ops!r}: E"
    assert (
        artifacts.expertise_result.rater_reputation == oracle.rater_reputation
    ), f"stream {ops!r}: rater reputation"
