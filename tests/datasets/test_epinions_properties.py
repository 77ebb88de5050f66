"""Property tests: Epinions file round-trip and malformed-file fuzzing."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import DatasetError
from repro.community import (
    Community,
    HELPFULNESS_SCALE,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)
from repro.datasets import load_epinions_community, write_epinions_files


@st.composite
def random_communities(draw):
    """Small random-but-valid communities (2-6 users, 1-3 categories)."""
    num_users = draw(st.integers(2, 6))
    num_categories = draw(st.integers(1, 3))
    users = [f"user{i}" for i in range(num_users)]
    categories = [f"cat{k}" for k in range(num_categories)]

    community = Community("prop")
    for user in users:
        community.add_user(user)
    for category in categories:
        community.add_category(category)

    num_objects = draw(st.integers(1, 5))
    for o in range(num_objects):
        community.add_object(
            ReviewedObject(f"obj{o}", categories[o % num_categories])
        )

    review_count = 0
    for o in range(num_objects):
        for writer in users:
            if draw(st.booleans()):
                community.add_review(Review(f"rev{review_count}", writer, f"obj{o}"))
                review_count += 1

    for review in list(community.iter_reviews()):
        for rater in users:
            if rater != review.writer_id and draw(st.booleans()):
                value = draw(st.sampled_from(HELPFULNESS_SCALE))
                community.add_rating(ReviewRating(rater, review.review_id, value))

    for source in users:
        for target in users:
            if source != target and draw(st.integers(0, 4)) == 0:
                community.add_trust(TrustStatement(source, target))
    return community


class TestEpinionsRoundtripProperty:
    @given(random_communities())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_roundtrip_preserves_relations(self, tmp_path_factory, community):
        directory = str(tmp_path_factory.mktemp("epinions"))
        write_epinions_files(community, directory)
        reloaded = load_epinions_community(directory)

        assert reloaded.num_reviews() == community.num_reviews()
        assert reloaded.num_ratings() == community.num_ratings()
        assert set(reloaded.trust_edges()) == set(community.trust_edges())

        original = community.direct_connections()
        rebuilt = reloaded.direct_connections()
        assert set(rebuilt) == set(original)
        for pair, values in original.items():
            assert sorted(rebuilt[pair]) == pytest.approx(sorted(values))

        # category assignment of every review survives
        for review in community.iter_reviews():
            assert reloaded.review_category(
                review.review_id
            ) == community.review_category(review.review_id)


#: a valid one-line dump; each fuzz case replaces one of the three files
BASELINE = {
    "mc.txt": [b"r1|alice|m1|c"],
    "rating.txt": [b"r1|bob|3"],
    "user_rating.txt": [b"bob|alice|1"],
}

#: short lines over an alphabet rich in the format's own syntax, so that
#: wrong field counts, empty ids, bad stars, comments and non-UTF-8 bytes
#: all come up often
FUZZ_LINES = st.lists(
    st.lists(
        st.sampled_from(
            [b"|", b"r1", b"r2", b"m1", b"c", b"alice", b"bob", b"1", b"3", b"6",
             b"-1", b"x", b" ", b"#", b"\xff", b"\xc3"]
        ),
        max_size=8,
    ).map(b"".join),
    max_size=6,
)


class TestLoaderFuzzing:
    @pytest.mark.parametrize("fuzzed", sorted(BASELINE))
    @given(lines=FUZZ_LINES)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_malformed_files_raise_dataset_error_with_location(
        self, tmp_path_factory, fuzzed, lines
    ):
        """A hostile dump loads or fails with ``DatasetError`` at ``path:line``."""
        directory = tmp_path_factory.mktemp("fuzz")
        for name, content in {**BASELINE, fuzzed: lines}.items():
            (directory / name).write_bytes(b"".join(line + b"\n" for line in content))
        try:
            load_epinions_community(str(directory))
        except DatasetError as exc:
            location = re.escape(str(directory)) + r"/[\w.]+:\d+: "
            assert re.match(location, str(exc)), str(exc)
