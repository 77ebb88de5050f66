"""Tests of the benchmark's own arithmetic and checks (small inputs, seconds)."""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import repro.cli  # noqa: E402
from repro.community import Community  # noqa: E402
from repro.datasets import (  # noqa: E402
    SyntheticDataset,
    generate_community,
    write_epinions_files,
)
from repro.engine import Engine, cold_artifacts  # noqa: E402
from repro.experiments import paper_profile  # noqa: E402

from perfbench.inputs import (  # noqa: E402
    DeriveInputs,
    apply_record,
    base_community,
    entries_digest,
    file_digest,
    local_stream,
    mixed_stream,
)
import perfbench.workloads  # noqa: E402
from perfbench.layers import LAYERS, Layer, Tracer, install  # noqa: E402
from perfbench.reference import SHARE  # noqa: E402
from perfbench.run import load_spec, result  # noqa: E402
from perfbench.stats import MIN_BEYOND, percentile, tail_percentile  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    Outcome,
    count_stream_failures,
    layer_metrics,
    run_reference,
    run_workload,
    verify_stream,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def small_dataset() -> SyntheticDataset:
    return generate_community(paper_profile(150), 3)


@pytest.fixture(scope="module")
def small_community(small_dataset: SyntheticDataset) -> Community:
    return small_dataset.community


@pytest.fixture
def small_workloads(small_dataset: SyntheticDataset, monkeypatch: pytest.MonkeyPatch) -> None:
    """Run the workloads on the 150-user community instead of the 2 000-user one."""
    monkeypatch.setattr(perfbench.workloads, "generate", lambda seed: small_dataset)


# ------------------------------------------------------------------ self time


def test_self_time_subtracts_wrapped_children() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf() -> None:
        clock.advance(2.0)

    def middle() -> None:
        clock.advance(1.0)
        tracer.call("c", leaf)
        clock.advance(0.5)

    def top() -> None:
        clock.advance(3.0)
        tracer.call("b", middle)
        tracer.call("c", leaf)

    tracer.call("a", top)
    clock.advance(7.0)  # outside every wrapped call
    assert tracer.total == {"a": 8.5, "b": 3.5, "c": 4.0}
    assert tracer.self_time == {"a": 3.0, "b": 1.5, "c": 4.0}
    assert tracer.calls == {"a": 1, "b": 1, "c": 2}
    assert tracer.top_level == 8.5
    assert sum(tracer.self_time.values()) == tracer.top_level


def test_reentered_layer_counts_its_time_once() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner() -> None:
        clock.advance(2.0)

    def outer() -> None:
        clock.advance(1.0)
        tracer.call("a", inner)

    tracer.call("a", outer)
    assert tracer.total["a"] == 3.0
    assert tracer.self_time["a"] == 3.0
    assert tracer.calls["a"] == 2


def test_raising_call_is_accounted_and_unwound() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom() -> None:
        clock.advance(1.0)
        raise KeyError("x")

    def parent() -> None:
        with pytest.raises(KeyError):
            tracer.call("b", boom)
        clock.advance(1.0)

    tracer.call("a", parent)
    assert tracer.total == {"a": 2.0, "b": 1.0}
    assert tracer.self_time == {"a": 1.0, "b": 1.0}
    assert tracer.top_level == 2.0


# ------------------------------------------------------------------ wrappers


def test_absent_targets_are_reported_not_fatal() -> None:
    original_main = repro.cli.main
    layers = (
        Layer("gone.module", ("repro.no_such_module:f",)),
        Layer("gone.method", ("repro.matrix:UserPairMatrix.no_such_method",)),
        Layer("partly", ("repro.cli:main", "repro.cli:no_such_function")),
    )
    installation = install(Tracer(), layers)
    try:
        assert installation.absent == (
            "gone.module",
            "gone.method",
            "repro.cli:no_such_function",
        )
        assert repro.cli.main is not original_main
    finally:
        installation.restore()
    assert repro.cli.main is original_main


def test_absent_layer_reads_zero_in_the_report() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.call("cli.main", lambda: clock.advance(2.0))
    outcome = Outcome(latencies=[1.9], traced_latencies=[2.0])
    metrics = layer_metrics(outcome, tracer, Tracer(), {}, ("matrix.patched",))
    assert metrics["matrix.patched_s"] == 0.0
    assert metrics["cli.main_s"] == 2.0
    assert metrics["unattributed_s"] == 0.0
    assert metrics["trace_overhead_s"] == pytest.approx(0.1)
    assert "absent layers: matrix.patched" in outcome.notes


@pytest.mark.usefixtures("small_workloads")
def test_traced_derive_without_run_pipeline_reports_every_layer_metric(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    layers = tuple(
        Layer(layer.name, ("repro.cli:no_such_run_pipeline",))
        if layer.name == "experiments.run_pipeline"
        else layer
        for layer in LAYERS
    )
    monkeypatch.setattr(perfbench.workloads, "LAYERS", layers)
    outcome = run_workload("derive_2k", seed=3, seconds=0.0, trace=True, workdir=tmp_path)
    line = result(outcome, load_spec(), trace=True)
    assert (line["attempted"], line["failed"], line["correct"]) == (2, 0, True)
    metrics = {name: metric["value"] for name, metric in line["metrics"].items()}
    assert metrics["experiments.run_pipeline_s"] == 0.0
    assert metrics["trust.entries"] == 0.0
    assert metrics["quality.recall"] == 0.0
    assert metrics["datasets.load_s"] > 0.0
    assert "absent layers: experiments.run_pipeline" in outcome.notes


def test_wrapped_classmethod_and_method_are_timed_and_restored() -> None:
    raw = Community.__dict__["from_records"]
    tracer = Tracer()
    installation = install(
        tracer,
        (
            Layer("community.from_records", ("repro.community:Community.from_records",)),
            Layer("community.add", ("repro.community:Community.add_user",)),
        ),
    )
    try:
        community = Community.from_records(name="t", users=("u1", "u2"))
    finally:
        installation.restore()
    assert community.num_users() == 2
    assert tracer.calls == {"community.from_records": 1, "community.add": 2}
    assert tracer.total["community.from_records"] >= tracer.total["community.add"]
    assert Community.__dict__["from_records"] is raw
    assert "add_user" in Community.__dict__


# ------------------------------------------------------------------ percentiles


@pytest.mark.parametrize(
    ("samples", "expected"),
    [(1, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95), (5000, 95)],
)
def test_tail_percentile_needs_ten_samples_beyond(samples: int, expected: int) -> None:
    assert tail_percentile(samples) == expected
    if expected != 50:
        values = [float(v) for v in range(samples)]
        cut = percentile(values, expected)
        assert sum(v > cut for v in values) >= MIN_BEYOND


def test_percentile_median_and_inclusive_tail() -> None:
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(list(map(float, range(101))), 95) == 95.0
    with pytest.raises(ValueError):
        percentile([], 50)


# ------------------------------------------------------------------ output checks


def test_derive_digest_check_feeds_failures(small_community: Community, tmp_path: Path) -> None:
    directory = tmp_path / "epinions"
    write_epinions_files(small_community, str(directory))
    reference = entries_digest(cold_artifacts(small_community).derived.entries())
    out = tmp_path / "derived.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert repro.cli.main(["derive", "--dir", str(directory), "--out", str(out)]) == 0
    good = file_digest(out)
    assert DeriveInputs(str(directory), reference, None).accepts(good)
    assert DeriveInputs(str(directory), reference, good).accepts(good)
    assert not DeriveInputs(str(directory), reference, "0" * 64).accepts(good)

    lines = out.read_text().splitlines(keepends=True)
    source, target, value = lines[0].rstrip("\n").split("|")
    lines[0] = f"{source}|{target}|{float(value) + 1e-6:.6f}\n"
    out.write_text("".join(lines))
    assert not DeriveInputs(str(directory), reference, None).accepts(file_digest(out))


def test_update_stream_check_feeds_failures(small_community: Community) -> None:
    inputs = local_stream(small_community)
    assert len(inputs.batches) >= 4
    community = base_community(inputs.base)
    engine = Engine(community)
    engine.update()
    for batch in inputs.batches[:3]:
        for record in batch:
            apply_record(community, record)
        engine.update()
    assert verify_stream(engine, community) == []
    assert count_stream_failures(3, 0, []) == 0

    # a record the engine never saw: the stream no longer verifies
    apply_record(community, inputs.batches[3][0])
    differences = verify_stream(engine, community)
    assert differences
    assert count_stream_failures(3, 0, differences) == 3


def test_mixed_stream_restores_the_community_and_verifies(small_community: Community) -> None:
    inputs = mixed_stream(small_community, seed=5)
    kinds = {type(record).__name__ for batch in inputs.batches for record in batch}
    assert kinds == {"Review", "ReviewRating", "TrustStatement"}
    community = base_community(inputs.base)
    engine = Engine(community)
    engine.update()
    for batch in inputs.batches:  # a review must precede its ratings, or this raises
        for record in batch:
            apply_record(community, record)
        engine.update()
    assert community.summary() == small_community.summary()
    assert verify_stream(engine, community) == []


@pytest.mark.usefixtures("small_workloads")
@pytest.mark.parametrize(
    ("workload", "attempted", "message"),
    [
        # the peak-memory child and one verified update; the child failed
        ("update_local", 2, "peak resident memory"),
        # one derive, which runs in the child
        ("derive_2k", 1, "no operation completed"),
    ],
)
def test_failed_child_fails_the_run(
    workload: str,
    attempted: int,
    message: str,
    tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(perfbench.workloads, "CHILD_MODULE", "perfbench.no_such_child")
    outcome = run_workload(workload, seed=3, seconds=0.0, trace=False, workdir=tmp_path)
    assert (outcome.attempted, outcome.failed) == (attempted, 1)
    assert outcome.peak_rss_mb is None
    with pytest.raises(RuntimeError, match=message):
        result(outcome, load_spec(), trace=False)


@pytest.mark.usefixtures("small_workloads")
def test_untraced_derive_runs_in_a_child_and_reports_every_metric(tmp_path: Path) -> None:
    outcome = run_workload("derive_2k", seed=3, seconds=0.0, trace=False, workdir=tmp_path)
    line = result(outcome, load_spec(), trace=False)
    assert (line["attempted"], line["failed"], line["correct"]) == (1, 0, True)
    assert len(outcome.latencies) == len(outcome.setup_s) == 1
    assert sum(outcome.reference) >= SHARE * outcome.latencies[0]
    metrics = {name: metric["value"] for name, metric in line["metrics"].items()}
    assert metrics["op_p50_rel"] == outcome.latencies[0] / statistics.median(outcome.reference)
    assert metrics["peak_rss_mb"] > 0.0
    assert list(tmp_path.glob("derive-*")) == []


# ------------------------------------------------------------------ reference kernel


def test_reference_kernel_runs_for_its_share_of_operation_time(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(perfbench.workloads, "SHARE", 0.15)

    class FixedKernel:
        def run(self) -> float:
            return 0.04

    outcome = Outcome(latencies=[0.5, 0.5])
    run_reference(FixedKernel(), outcome)  # type: ignore[arg-type]
    assert outcome.reference == [0.04] * 4  # the first sum at or above 0.15 s
    outcome.latencies.append(0.1)
    run_reference(FixedKernel(), outcome)  # type: ignore[arg-type]
    assert len(outcome.reference) == 5


def test_op_p50_rel_is_the_median_operation_in_reference_units() -> None:
    outcome = Outcome(
        latencies=[3.0, 1.0, 2.0], reference=[0.5, 0.25, 1.0], setup_s=[0.1], peak_rss_mb=1.0
    )
    assert outcome.end_to_end()["op_p50_rel"] == 4.0
    with pytest.raises(RuntimeError, match="reference kernel"):
        Outcome(latencies=[1.0], setup_s=[0.1], peak_rss_mb=1.0).end_to_end()
