"""Model-based property tests: a Community's ratings against a plain-dict reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IntegrityError
from repro.community import Community, Review, ReviewRating, ReviewedObject
from repro.community.model import HELPFULNESS_SCALE

USERS = [f"u{i}" for i in range(4)]
CATEGORIES = "abc"


def make_community():
    """Four users; user ``u{i}`` wrote review ``r{i}{c}`` in each category ``c``."""
    community = Community("kv")
    for user in USERS:
        community.add_user(user)
    for category in CATEGORIES:
        community.add_category(category)
        for i, user in enumerate(USERS):
            community.add_object(ReviewedObject(f"o{i}{category}", category))
            community.add_review(Review(f"r{i}{category}", user, f"o{i}{category}"))
    return community


operations = st.lists(
    st.tuples(
        st.sampled_from(USERS),           # rater
        st.integers(0, len(USERS) - 1),   # writer of the rated review
        st.sampled_from(CATEGORIES),      # category of the rated review
        st.sampled_from(HELPFULNESS_SCALE),
    ),
    max_size=60,
)


class TestTableAgainstDictModel:
    @given(operations)
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_model(self, ops):
        community = make_community()
        model: dict[tuple[str, str], float] = {}

        for rater, writer_num, category, value in ops:
            review_id = f"r{writer_num}{category}"
            key = (rater, review_id)
            rejected = key in model or rater == USERS[writer_num]
            try:
                community.add_rating(ReviewRating(rater, review_id, value))
            except IntegrityError:
                assert rejected, "legal rating was rejected"
            else:
                assert not rejected, "duplicate or self-rating must raise"
                model[key] = value
            if rater == USERS[0]:
                community.columns()  # interleave snapshot refreshes

        # full-state equivalence, in insertion order
        assert [
            ((r.rater_id, r.review_id), r.value) for r in community.iter_ratings()
        ] == list(model.items())
        # per-key reads agree with brute force over the model
        for user in USERS:
            expected = [(review, v) for (rater, review), v in model.items() if rater == user]
            assert community.ratings_by_rater(user) == expected
        for category in CATEGORIES:
            expected_triples = [
                (rater, review, v)
                for (rater, review), v in model.items()
                if review.endswith(category)
            ]
            assert community.rating_triples(category) == expected_triples
            # group counts agree
            counts = community.rating_counts(category)
            for user in USERS:
                expected_count = sum(1 for rater, _, _ in expected_triples if rater == user)
                assert counts.get(user, 0) == expected_count
