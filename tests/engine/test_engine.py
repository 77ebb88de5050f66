"""Tests for the staged incremental engine and its replay helpers."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.community import (
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)
from repro.datasets import CommunityProfile, generate_community
from repro.engine import (
    Engine,
    clone_community,
    cold_artifacts,
    extract_records,
    split_rating_stream,
)


@pytest.fixture(scope="module")
def generated_community():
    return generate_community(CommunityProfile(num_users=60), seed=11).community


def assert_matches_cold(engine, community):
    """The engine's artifacts are bitwise equal to a cold run on a replica."""
    artifacts = engine.artifacts
    reference = cold_artifacts(clone_community(community))
    diffs = artifacts.differences(reference)
    assert not diffs, f"artifacts diverged from cold run: {diffs}"


class TestColdBuild:
    def test_first_update_equals_cold_run(self, two_category_community):
        engine = Engine(two_category_community)
        engine.update()
        assert_matches_cold(engine, two_category_community)

    def test_cold_build_stats(self, two_category_community):
        engine = Engine(two_category_community)
        artifacts = engine.update()
        stats = engine.last_stats
        assert stats.pairs_rederived == artifacts.derived.num_entries()
        assert stats.pairs_reused == 0
        assert stats.propagation_rerun
        epoch = two_category_community.change_log.epoch
        assert artifacts.stamps.columns == epoch
        assert artifacts.stamps.propagation == epoch

    def test_artifacts_none_before_first_update(self, two_category_community):
        engine = Engine(two_category_community)
        assert engine.artifacts is None
        assert engine.last_stats is None


class TestIncrementalUpdates:
    def test_rating_stream_stays_bitwise_equal(self, generated_community):
        base, stream = split_rating_stream(generated_community, 6)
        engine = Engine(base)
        engine.update()
        for rating in stream:
            base.add_rating(rating)
            engine.update()
            assert_matches_cold(engine, base)

    def test_new_user_and_trust(self, two_category_community):
        engine = Engine(two_category_community)
        engine.update()
        two_category_community.add_user("frank")
        two_category_community.add_trust(TrustStatement("frank", "alice"))
        engine.update()
        assert_matches_cold(engine, two_category_community)

    def test_new_category_with_activity(self, two_category_community):
        engine = Engine(two_category_community)
        engine.update()
        two_category_community.add_category("music")
        two_category_community.add_object(ReviewedObject("s1", "music"))
        two_category_community.add_review(Review("re1", "eve", "s1"))
        two_category_community.add_rating(ReviewRating("dave", "re1", 0.8))
        engine.update()
        assert_matches_cold(engine, two_category_community)

    def test_noop_update_reuses_everything(self, two_category_community):
        engine = Engine(two_category_community)
        first = engine.update()
        second = engine.update()
        stats = engine.last_stats
        assert stats.deltas_applied == 0
        assert stats.pairs_rederived == 0
        assert stats.pairs_reused == first.derived.num_entries()
        assert not stats.propagation_rerun
        assert second.derived is first.derived
        assert second.scores is first.scores

    def test_trust_only_delta_keeps_derived(self, two_category_community):
        # trust statements feed propagation's pretrust interpretation in no
        # way here: T-hat depends only on A and E, so a trust add must not
        # disturb the derived matrix or the scores
        engine = Engine(two_category_community)
        first = engine.update()
        two_category_community.add_trust(TrustStatement("carol", "dave"))
        second = engine.update()
        assert engine.last_stats.deltas_applied == 1
        assert second.derived is first.derived
        assert second.stamps.derived == first.stamps.derived
        assert second.stamps.columns == two_category_community.change_log.epoch
        assert_matches_cold(engine, two_category_community)

    def test_localised_rating_reuses_pairs(self, generated_community):
        base, stream = split_rating_stream(generated_community, 1)
        engine = Engine(base)
        engine.update()
        base.add_rating(stream[0])
        engine.update()
        stats = engine.last_stats
        assert stats.deltas_applied == 1
        # only one category went stale; most categories are skipped and
        # (for a localised change) some derived pairs survive the patch
        assert stats.categories_resolved >= 1
        assert stats.categories_skipped >= 1
        assert_matches_cold(engine, base)

    def test_stamps_track_reuse(self, two_category_community):
        engine = Engine(two_category_community)
        engine.update()
        two_category_community.add_object(ReviewedObject("m7", "movies"))
        artifacts = engine.update()
        stamps = artifacts.stamps
        epoch = two_category_community.change_log.epoch
        assert stamps.columns == epoch
        assert stamps.derived < epoch  # cached T-hat proven valid, untouched


def first_review(community, category):
    return community.reviews_in_category(category)[0]


def join_trusting(community):
    community.add_user("newcomer")
    community.add_trust(TrustStatement("newcomer", "u000001"))


def join_rating(community):
    community.add_user("newcomer")
    community.add_rating(
        ReviewRating("newcomer", first_review(community, "c000000").review_id, 0.8)
    )


def join_writing(community):
    community.add_user("newcomer")
    community.add_object(ReviewedObject("new-object", "c000001"))
    community.add_review(Review("new-review", "newcomer", "new-object"))
    community.add_rating(ReviewRating("u000002", "new-review", 1.0))


def join_two_users(community):
    community.add_user("writer")
    community.add_user("reader")
    community.add_object(ReviewedObject("new-object", "c000002"))
    community.add_review(Review("new-review", "writer", "new-object"))
    community.add_rating(ReviewRating("reader", "new-review", 0.6))


def join_alongside_rating(community):
    join_rating(community)
    review = first_review(community, "c000003")
    community.add_rating(ReviewRating("u000005", review.review_id, 0.4))


class TestGrownUserAxis:
    """New users reach ``T-hat`` through ``UserPairMatrix.patched``, not a rebuild."""

    @pytest.mark.parametrize(
        "grow",
        [join_trusting, join_rating, join_writing, join_two_users, join_alongside_rating],
        ids=["trust-only", "rates", "writes-and-is-rated", "two-users", "with-other-rating"],
    )
    def test_new_users_patch_bitwise(self, generated_community, grow):
        community = clone_community(generated_community)
        engine = Engine(community)
        engine.update()
        grow(community)
        artifacts = engine.update()
        assert len(artifacts.derived.users) == community.num_users()
        assert engine.last_stats.pairs_reused > 0
        assert_matches_cold(engine, community)

    def test_growth_restamps_expertise_and_derived(self, generated_community):
        community = clone_community(generated_community)
        engine = Engine(community)
        engine.update()
        join_trusting(community)
        stamps = engine.update().stamps
        epoch = community.change_log.epoch
        assert stamps.expertise == epoch  # E gained a row even though no category moved
        assert stamps.derived == epoch
        assert engine.last_stats.categories_resolved == 0

    def test_users_joining_one_per_update_stay_bitwise(self, generated_community):
        community = clone_community(generated_community)
        engine = Engine(community)
        engine.update()
        review = first_review(community, "c000000").review_id
        for k in range(3):
            community.add_user(f"joiner{k}")
            community.add_rating(ReviewRating(f"joiner{k}", review, 0.6))
            engine.update()
            assert_matches_cold(engine, community)

    def test_approximate_mode_pads_warm_start_for_new_users(self, generated_community):
        exact = Engine(clone_community(generated_community))
        approx = Engine(clone_community(generated_community), exact=False)
        exact.update()
        approx.update()
        for engine in (exact, approx):
            join_two_users(engine.community)
        e = exact.update()
        a = approx.update()
        assert a.scores.scores_array().shape == (generated_community.num_users() + 2,)
        np.testing.assert_allclose(
            a.scores.scores_array(), e.scores.scores_array(), atol=1e-6
        )


class TestExactVsApproximate:
    def test_approximate_mode_agrees_to_tolerance(self, generated_community):
        base, stream = split_rating_stream(generated_community, 4)
        exact = Engine(clone_community(base))
        approx = Engine(base, exact=False)
        exact.update()
        approx.update()
        for rating in stream:
            base.add_rating(rating)
            exact.community.add_rating(rating)
            a = approx.update()
            e = exact.update()
            np.testing.assert_allclose(
                a.scores.scores_array(), e.scores.scores_array(), atol=1e-6
            )


class TestPropagationSettings:
    """``alpha``, ``pretrust`` and ``tolerance`` reach every EigenTrust run."""

    SETTINGS = {"alpha": 0.4, "pretrust": {"alice": 1.0, "carol": 1.0}, "tolerance": 1e-12}

    def test_cold_build_uses_settings(self, two_category_community):
        engine = Engine(two_category_community, **self.SETTINGS)
        artifacts = engine.update()
        reference = cold_artifacts(clone_community(two_category_community), **self.SETTINGS)
        assert not artifacts.differences(reference)
        default = cold_artifacts(clone_community(two_category_community))
        assert artifacts.differences(default) == ["scores"]

    def test_incremental_update_uses_settings(self, two_category_community):
        engine = Engine(two_category_community, **self.SETTINGS)
        engine.update()
        two_category_community.add_rating(ReviewRating("carol", "ra2", 0.4))
        artifacts = engine.update()
        assert engine.last_stats.propagation_rerun
        reference = cold_artifacts(clone_community(two_category_community), **self.SETTINGS)
        assert not artifacts.differences(reference)


class TestReplayHelpers:
    def test_clone_preserves_records_and_shares_nothing(self, two_category_community):
        replica = clone_community(two_category_community)
        assert extract_records(replica) == extract_records(two_category_community)
        assert replica.change_log is not two_category_community.change_log
        replica.add_user("zed")
        assert "zed" not in two_category_community.user_ids()

    def test_split_rating_stream_roundtrip(self, two_category_community):
        base, stream = split_rating_stream(two_category_community, 2)
        assert base.num_ratings() == two_category_community.num_ratings() - 2
        for rating in stream:
            base.add_rating(rating)
        assert extract_records(base).ratings == extract_records(
            two_category_community
        ).ratings

    def test_split_by_category(self, two_category_community):
        base, stream = split_rating_stream(two_category_community, 2, category_id="movies")
        assert len(stream) == 2
        for rating in stream:
            assert two_category_community.review_category(rating.review_id) == "movies"

    def test_split_validates_arguments(self, two_category_community):
        with pytest.raises(ValidationError):
            split_rating_stream(two_category_community, -1)
        with pytest.raises(ValidationError):
            split_rating_stream(two_category_community, 999)
        with pytest.raises(ValidationError):
            split_rating_stream(two_category_community, 1, category_id="ghost")


class TestLogCompaction:
    def test_update_compacts_consumed_deltas(self, generated_community):
        """The retained log stays bounded over a long rating stream."""
        base, stream = split_rating_stream(generated_community, 12)
        engine = Engine(base)
        engine.update()
        log = base.change_log
        assert len(log) == 0  # cold build consumed and compacted everything
        for rating in stream:
            base.add_rating(rating)
            engine.update()
            assert len(log) == 0
        assert log.epoch >= len(stream)  # epochs keep advancing
        assert log.floor == log.epoch

    def test_compaction_can_be_disabled(self, generated_community):
        base, stream = split_rating_stream(generated_community, 5)
        engine = Engine(base, compact_log=False)
        engine.update()
        retained = len(base.change_log)
        assert retained > 0
        for rating in stream:
            base.add_rating(rating)
            engine.update()
        assert len(base.change_log) == retained + len(stream)
        assert base.change_log.floor == 0

    def test_compacted_engine_stays_bitwise_equal(self, generated_community):
        base, stream = split_rating_stream(generated_community, 5)
        engine = Engine(base)
        engine.update()
        for rating in stream:
            base.add_rating(rating)
            engine.update()
        assert_matches_cold(engine, base)
