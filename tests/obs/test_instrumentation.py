"""Integration tests: the instrumented kernels and their telemetry.

The central invariants:

- tracing never changes the numerics -- a run under a :class:`Recorder`
  produces matrices identical to a run under the :class:`NullRecorder`;
- the estimator and the incremental tracker (the engine's Step 1) record
  the same Step-1 telemetry;
- propagation kernels that hit their iteration cap surface it instead of
  silently returning (``RuntimeWarning`` + ``converged=False``).
"""

import warnings

import pytest

from repro import obs
from repro.matrix import UserPairMatrix
from repro.obs.recorder import Recorder, convergence_failures
from repro.propagation import appleseed, eigen_trust
from repro.datasets import CommunityProfile, generate_community
from repro.engine import Engine, split_rating_stream
from repro.reputation import ExpertiseEstimator, IncrementalExpertise
from repro.experiments.pipeline import run_pipeline


def span_names(recorder):
    names = set()
    for root in recorder.roots:
        names |= span_names_under(root)
    return names


def span_names_under(record):
    names = {record.name}
    for child in record.children:
        names |= span_names_under(child)
    return names


@pytest.fixture
def asymmetric_web():
    m = UserPairMatrix(["a", "b", "c", "d"])
    m.set("a", "b", 0.9)
    m.set("a", "c", 0.2)
    m.set("b", "c", 0.8)
    m.set("c", "d", 0.5)
    m.set("d", "b", 0.3)
    return m


class TestPipelineTrace:
    def test_trace_covers_every_stage(self):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            run_pipeline(seed=3)
        names = span_names(recorder)
        assert {
            "pipeline.run",
            "pipeline.dataset",
            "pipeline.step1.expertise",
            "pipeline.step2.affinity",
            "pipeline.step3.derive",
            "pipeline.relations",
            "pipeline.binarize",
            "step1.fit",
            "step1.solve_all",
            "derive.trust",
            "community.columns.build",
        } <= names

    def test_step1_per_category_sweeps_recorded(self):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            run_pipeline(seed=3)
        riggs = [
            r for r in recorder.convergence_records if r.kernel == "step1.riggs"
        ]
        assert riggs, "expected per-category step1 convergence records"
        assert all(r.converged and r.iterations >= 1 for r in riggs)
        assert {r.attributes.get("category") for r in riggs} == {
            r.attributes["category"] for r in riggs
        }
        sweeps = recorder.histograms["step1.sweeps"]
        assert len(sweeps) == len(riggs)

    def test_columns_cache_counters(self):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            run_pipeline(seed=3)
        assert recorder.counters["community.columns.miss"] == 1
        assert recorder.counters["community.columns.hit"] >= 1

    def test_derive_counters(self):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            artifacts = run_pipeline(seed=3)
        assert recorder.counters["derive.blocks"] >= 1
        assert (
            recorder.counters["derive.entries_stored"]
            == artifacts.derived.num_entries()
        )


class TestTracingNeverChangesResults:
    def test_recorder_and_null_recorder_results_identical(self):
        with obs.use_recorder(Recorder()):
            traced = run_pipeline(seed=5)
        # default (null) recorder
        plain = run_pipeline(seed=5)
        assert traced.derived == plain.derived
        assert traced.expertise == plain.expertise
        assert traced.rater_reputation == plain.rater_reputation
        assert traced.derived_binary == plain.derived_binary

    def test_propagation_scores_identical_under_tracing(self, asymmetric_web):
        with obs.use_recorder(Recorder()):
            traced = eigen_trust(asymmetric_web)
        plain = eigen_trust(asymmetric_web)
        assert traced.to_dict() == plain.to_dict()


class TestStep1PathParity:
    """The estimator and the incremental tracker report the same telemetry."""

    def test_warm_start_hits_identical_across_paths(self, two_category_community):
        estimator_rec = Recorder()
        with obs.use_recorder(estimator_rec):
            estimated = ExpertiseEstimator().fit(two_category_community)

        tracker = IncrementalExpertise(two_category_community)
        tracker_rec = Recorder()
        with obs.use_recorder(tracker_rec):
            tracked = tracker.fit()

        # both cold fits seed nothing
        assert estimator_rec.counters.get("step1.warm_start_hits", 0) == 0
        assert tracker_rec.counters.get("step1.warm_start_hits", 0) == 0
        assert estimated.expertise == tracked.expertise
        assert estimated.rater_reputation == tracked.rater_reputation

        # a warm re-solve counts every rater seeded from the last fit
        two_category_community.touch()
        refresh_rec = Recorder()
        with obs.use_recorder(refresh_rec):
            tracker.refresh()
        assert refresh_rec.counters["step1.warm_start_hits"] == sum(
            len(fp.rater_reputation) for fp in estimated.fixed_points.values()
        )

    def test_sweep_telemetry_identical_across_paths(self, two_category_community):
        estimator_rec = Recorder()
        with obs.use_recorder(estimator_rec):
            ExpertiseEstimator().fit(two_category_community)

        tracker_rec = Recorder()
        with obs.use_recorder(tracker_rec):
            IncrementalExpertise(two_category_community).fit()

        def riggs_records(recorder):
            return sorted(
                (r.attributes["category"], r.iterations, r.residual, r.converged)
                for r in recorder.convergence_records
                if r.kernel == "step1.riggs"
            )

        assert riggs_records(estimator_rec) == riggs_records(tracker_rec)
        assert len(riggs_records(estimator_rec)) == 2
        assert sorted(estimator_rec.histograms["step1.sweeps"]) == sorted(
            tracker_rec.histograms["step1.sweeps"]
        )


class TestEngineStep1Telemetry:
    def test_traced_update_records_step1(self):
        community = generate_community(CommunityProfile(num_users=80), seed=3).community
        base, stream = split_rating_stream(community, 1)
        engine = Engine(base)
        engine.update()
        base.add_rating(stream[0])

        recorder = Recorder()
        with obs.use_recorder(recorder):
            engine.update()

        (update,) = [r for r in recorder.roots if r.name == "engine.update"]
        assert "step1.solve_all" in span_names_under(update)
        # the rating's category is the one category re-solved
        assert engine.last_stats.categories_resolved == 1
        riggs = [r for r in recorder.convergence_records if r.kernel == "step1.riggs"]
        assert [r.attributes["category"] for r in riggs] == [
            base.review_category(stream[0].review_id)
        ]
        assert len(recorder.histograms["step1.sweeps"]) == 1


class TestConvergenceSurfacing:
    def test_eigentrust_cap_warns_and_flags(self, asymmetric_web):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            with pytest.warns(RuntimeWarning, match="max_iterations"):
                scores = eigen_trust(asymmetric_web, max_iterations=2)
        assert scores.converged is False
        assert scores.iterations == 2
        assert scores.residual > 0.0
        failures = convergence_failures(recorder.to_dict())
        assert [f["kernel"] for f in failures] == ["propagation.eigentrust"]

    def test_appleseed_cap_warns_and_flags(self, asymmetric_web):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            with pytest.warns(RuntimeWarning, match="max_iterations"):
                scores = appleseed(asymmetric_web, "a", max_iterations=1)
        assert scores.converged is False
        failures = convergence_failures(recorder.to_dict())
        assert [f["kernel"] for f in failures] == ["propagation.appleseed"]

    def test_converged_runs_carry_telemetry(self, asymmetric_web):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning on the happy path
            scores = eigen_trust(asymmetric_web)
        assert scores.converged is True
        assert scores.iterations >= 1
        assert scores.residual < 1e-10

    def test_unconverged_scores_still_usable(self, asymmetric_web):
        with pytest.warns(RuntimeWarning):
            scores = eigen_trust(asymmetric_web, max_iterations=1)
        total = sum(scores.to_dict().values())
        assert total == pytest.approx(1.0)
