"""Tests for the extended-Epinions-format loaders."""

import os
import re

import pytest

from repro.common.errors import DatasetError
from repro.datasets import (
    CommunityProfile,
    generate_community,
    load_epinions_community,
    write_epinions_files,
)


def write(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


@pytest.fixture
def epinions_dir(tmp_path):
    """A tiny, hand-written extended-Epinions dump."""
    write(
        tmp_path / "mc.txt",
        [
            "r1|alice|movie-1|movies",
            "r2|bob|movie-1|movies",
            "r3|alice|book-1|books",
        ],
    )
    write(
        tmp_path / "rating.txt",
        [
            "r1|bob|5",
            "r1|carol|4",
            "r2|carol|2",
            "r3|bob|3",
        ],
    )
    write(
        tmp_path / "user_rating.txt",
        [
            "bob|alice|1",
            "carol|alice|1",
            "carol|bob|-1",  # distrust: dropped
        ],
    )
    return str(tmp_path)


class TestLoading:
    def test_entities_loaded(self, epinions_dir):
        community = load_epinions_community(epinions_dir)
        assert set(community.user_ids()) == {"alice", "bob", "carol"}
        assert set(community.category_ids()) == {"books", "movies"}
        assert community.num_reviews() == 3
        assert community.num_ratings() == 4

    def test_star_ratings_mapped_to_scale(self, epinions_dir):
        community = load_epinions_community(epinions_dir)
        assert community.ratings_of_review("r1") == [("bob", 1.0), ("carol", 0.8)]
        assert community.ratings_of_review("r2") == [("carol", 0.4)]

    def test_distrust_edges_dropped(self, epinions_dir):
        community = load_epinions_community(epinions_dir)
        assert set(community.trust_edges()) == {("bob", "alice"), ("carol", "alice")}

    def test_categories_inherited_by_reviews(self, epinions_dir):
        community = load_epinions_community(epinions_dir)
        assert community.review_category("r3") == "books"

    def test_three_column_content_defaults_category(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|thing-1"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        community = load_epinions_community(str(tmp_path))
        assert community.category_ids() == ["epinions"]

    def test_missing_trust_file_ok(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|thing-1"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        community = load_epinions_community(str(tmp_path))
        assert community.num_trust_edges() == 0

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        write(tmp_path / "mc.txt", ["# header", "", "r1|alice|thing-1"])
        write(tmp_path / "rating.txt", ["r1|bob|3", ""])
        community = load_epinions_community(str(tmp_path))
        assert community.num_reviews() == 1


class TestDirtyData:
    def test_missing_content_file(self, tmp_path):
        with pytest.raises(DatasetError, match="content file"):
            load_epinions_community(str(tmp_path))

    def test_missing_rating_file(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        with pytest.raises(DatasetError, match="rating file"):
            load_epinions_community(str(tmp_path))

    def test_unknown_review_skipped_by_default(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|3", "ghost|bob|3"])
        community = load_epinions_community(str(tmp_path))
        assert community.num_ratings() == 1

    def test_unknown_review_raises_when_strict(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["ghost|bob|3"])
        with pytest.raises(DatasetError, match="unknown review"):
            load_epinions_community(str(tmp_path), skip_unknown_reviews=False)

    def test_self_ratings_skipped(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|alice|5", "r1|bob|3"])
        community = load_epinions_community(str(tmp_path))
        assert community.ratings_of_review("r1") == [("bob", 0.6)]

    def test_duplicate_rating_keeps_first(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|5", "r1|bob|1"])
        community = load_epinions_community(str(tmp_path))
        assert community.ratings_of_review("r1") == [("bob", 1.0)]

    def test_out_of_range_stars_rejected(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|9"])
        with pytest.raises(DatasetError, match="1..5"):
            load_epinions_community(str(tmp_path))

    def test_malformed_rating_value(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|five"])
        with pytest.raises(DatasetError, match="bad rating"):
            load_epinions_community(str(tmp_path))

    def test_short_content_line(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        with pytest.raises(DatasetError, match="expected 3 or 4"):
            load_epinions_community(str(tmp_path))

    def test_self_trust_dropped(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        write(tmp_path / "user_rating.txt", ["bob|bob|1", "bob|alice|1"])
        community = load_epinions_community(str(tmp_path))
        assert community.trust_edges() == [("bob", "alice")]


#: (file, lines, bad line, loader options): each dump breaks exactly one
#: rule of the format, on the given line of the given file
MALFORMED = [
    pytest.param("mc.txt", ["r1|alice|m1|c", "r1|bob|m2|c"], 2, {}, id="duplicate-review-id"),
    pytest.param(
        "mc.txt", ["r1|alice|m1|c", "r2|alice|m1|c"], 2, {}, id="second-review-of-object"
    ),
    pytest.param(
        "mc.txt", ["r1|alice|m1|c", "r2|bob|m1|d"], 2, {}, id="object-in-two-categories"
    ),
    pytest.param("mc.txt", ["r1|alice|m1|c", "r2||m1|c"], 2, {}, id="empty-content-id"),
    pytest.param("rating.txt", ["r1|bob|3", "r1||3"], 2, {}, id="empty-rating-id"),
    pytest.param("user_rating.txt", ["bob|alice|1", "|alice|1"], 2, {}, id="empty-trust-id"),
    pytest.param("mc.txt", ["r1|alice|m1|c", b"r2|b\xffb|m1|c"], 2, {}, id="non-utf8"),
    pytest.param(
        "rating.txt",
        ["r1|bob|3", "ghost|bob|3"],
        2,
        {"skip_unknown_reviews": False},
        id="unknown-review-strict",
    ),
]


@pytest.mark.parametrize("bad_file,lines,line_no,options", MALFORMED)
def test_malformed_dump_names_path_and_line(tmp_path, bad_file, lines, line_no, options):
    files = {
        "mc.txt": ["r1|alice|m1|c"],
        "rating.txt": ["r1|bob|3"],
        "user_rating.txt": ["bob|alice|1"],
    }
    files[bad_file] = lines
    for file_name, content in files.items():
        raw = [line if isinstance(line, bytes) else line.encode() for line in content]
        (tmp_path / file_name).write_bytes(b"\n".join(raw) + b"\n")
    where = f"{tmp_path / bad_file}:{line_no}:"
    with pytest.raises(DatasetError, match=re.escape(where)):
        load_epinions_community(str(tmp_path), **options)


class TestRoundTrip:
    def test_synthetic_community_roundtrips(self, tmp_path):
        profile = CommunityProfile(
            num_users=60,
            category_names=("a", "b"),
            objects_per_category=15,
            num_advisors=5,
            num_top_reviewers=5,
        )
        original = generate_community(profile, seed=3).community
        write_epinions_files(original, str(tmp_path))
        reloaded = load_epinions_community(str(tmp_path))

        # same relations (users may differ: only active users appear in files)
        assert reloaded.num_reviews() == original.num_reviews()
        assert reloaded.num_ratings() == original.num_ratings()
        assert set(reloaded.trust_edges()) == set(original.trust_edges())
        original_pairs = original.direct_connections()
        reloaded_pairs = reloaded.direct_connections()
        assert set(reloaded_pairs) == set(original_pairs)
        for pair, values in original_pairs.items():
            assert sorted(reloaded_pairs[pair]) == sorted(values)

    def test_files_created(self, tmp_path, epinions_dir):
        community = load_epinions_community(epinions_dir)
        out = tmp_path / "out"
        write_epinions_files(community, str(out))
        assert sorted(os.listdir(out)) == ["mc.txt", "rating.txt", "user_rating.txt"]
