"""The three workloads: set-up, the timed closed loop and the output checks.

One caller, closed loop: each operation starts when the previous one has
returned and been checked.  An operation is one
``repro derive`` (``derive_2k``) or one batch of mutator calls followed by
``Engine.update()`` (``update_local``, ``update_mixed``).  Checks run
outside the timed region; an operation that raises or fails its check
counts as failed.

An untraced run times each derive in a fresh process, as a user's
``repro derive`` runs; in one long-lived process, successive derives of the
same files slowed down one after another.  Between operations it runs the
reference kernel of :mod:`perfbench.reference` for ``SHARE`` of the
operation time, so that ``op_p50_rel`` follows the code rather than the
host's drift.

In a traced run every other operation runs with the layer wrappers of
:mod:`perfbench.layers` installed.  The per-layer figures average over the
traced operations; the untraced ones give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import repro.cli
from repro.community import Community
from repro.engine import Engine, clone_community, cold_artifacts
from repro.experiments.pipeline import PipelineArtifacts, pipeline_from_engine
from repro.metrics import density_report, score_gap_analysis, validate_trust

from perfbench.inputs import (
    DeriveInputs,
    StreamInputs,
    apply_record,
    base_community,
    derive_inputs,
    file_digest,
    generate,
    local_stream,
    mixed_stream,
)
from perfbench.layers import LAYERS, Tracer, install
from perfbench.reference import SHARE, ReferenceKernel
from perfbench.stats import percentile, tail_percentile

__all__ = [
    "Outcome",
    "run_workload",
    "count_stream_failures",
    "run_reference",
    "verify_stream",
    "layer_metrics",
]

ROOT = Path(__file__).resolve().parent.parent

#: base-community builds plus cold updates timed (update set-up)
UPDATE_SETUPS = 5
#: batches the peak-memory child replays after its cold update
CHILD_BATCHES = 50
CHILD_TIMEOUT_S = 150
#: the module the derive and peak-memory children run
CHILD_MODULE = "perfbench.child"


@dataclass
class Outcome:
    """What one run measured, before it is reduced to metrics."""

    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    traced_latencies: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    #: seconds of each reference-kernel pass run between operations
    reference: list[float] = field(default_factory=list)
    #: None until a child has succeeded
    peak_rss_mb: float | None = None
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def end_to_end(self) -> dict[str, float]:
        if not self.latencies:
            raise RuntimeError("no operation completed")
        if self.peak_rss_mb is None:
            raise RuntimeError("peak resident memory not measured: the peak-memory child failed")
        if not self.reference:
            raise RuntimeError("the reference kernel never ran")
        # The milliseconds and the tail are printed, not reported as metrics:
        # on a shared host their run-to-run spread can exceed the largest
        # bound a metric may have.
        tail = tail_percentile(len(self.latencies))
        p50 = percentile(self.latencies, 50)
        reference = statistics.median(self.reference)
        self.notes.append(
            f"{len(self.latencies)} operations timed; p50 {p50 * 1e3:.3f} ms, "
            f"p{tail} {percentile(self.latencies, tail) * 1e3:.3f} ms; reference kernel "
            f"{reference * 1e3:.3f} ms (median of {len(self.reference)})"
        )
        return {
            "op_p50_rel": p50 / reference,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": statistics.median(self.setup_s),
        }


def count_stream_failures(attempted: int, raised: int, differences: list[str]) -> int:
    """Failed updates of a stream: those that raised, or all when the end state is wrong.

    The stream is checked once, at its end, against a cold build; a
    mismatch leaves no update of the stream verified.
    """
    return attempted if differences else raised


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    if name == "derive_2k":
        return _run_derive(seed, seconds, trace, workdir)
    if name in ("update_local", "update_mixed"):
        return _run_updates(name, seed, seconds, trace, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------------ derive_2k


def _run_derive(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    inputs = derive_inputs(generate(seed), workdir / "epinions", seed)
    outcome = Outcome()
    outcome.notes.append(
        f"reference digest {inputs.reference_digest}; recorded "
        f"{inputs.recorded_digest or 'none for this seed'}"
    )
    if trace:
        _traced_derives(inputs, seconds, workdir, outcome)
    else:
        _child_derives(inputs, seconds, workdir, outcome)
    return outcome


def _child_derives(inputs: DeriveInputs, seconds: float, workdir: Path, outcome: Outcome) -> None:
    """Each derive in a fresh child, which also gives set-up and peak memory.

    ``setup_s`` is the child's ``import repro.cli``; ``peak_rss_mb`` the
    median of the children's peaks.
    """
    kernel = ReferenceKernel()
    peaks: list[float] = []
    start = time.perf_counter()
    while outcome.attempted < 1 or time.perf_counter() - start < seconds:
        out = workdir / f"derive-{outcome.attempted}.txt"
        outcome.attempted += 1
        report = _child(["derive", inputs.directory, str(out)], outcome)
        if report is None:
            outcome.failed += 1
        else:
            outcome.latencies.append(report["op_s"])
            outcome.setup_s.append(report["import_s"])
            peaks.append(report["peak_rss_kb"] * 1024 / 1e6)
            if report["code"] != 0 or not out.exists() or not inputs.accepts(file_digest(out)):
                outcome.failed += 1
        if out.exists():
            out.unlink()
        run_reference(kernel, outcome)
    if peaks:
        outcome.peak_rss_mb = statistics.median(peaks)


def _traced_derives(inputs: DeriveInputs, seconds: float, workdir: Path, outcome: Outcome) -> None:
    """Derives in this process, every other one with the layer wrappers."""
    tracer = Tracer(keep=("experiments.run_pipeline",))
    absent: tuple[str, ...] = ()
    start = time.perf_counter()
    while outcome.attempted < 2 or time.perf_counter() - start < seconds:
        traced = outcome.attempted % 2 == 1
        out = workdir / f"derive-{outcome.attempted}.txt"
        outcome.attempted += 1
        installation = install(tracer, LAYERS) if traced else None
        # Each derive starts from an empty collector, as a fresh `repro derive`
        # process does; otherwise 4 to 6 full collections land in a derive
        # depending on where the previous one left the allocation counters.
        gc.collect()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                begin = time.perf_counter()
                code = repro.cli.main(["derive", "--dir", inputs.directory, "--out", str(out)])
                elapsed = time.perf_counter() - begin
        except Exception:
            traceback.print_exc()
            outcome.failed += 1
            continue
        finally:
            if installation is not None:
                absent = installation.absent
                installation.restore()
        (outcome.traced_latencies if traced else outcome.latencies).append(elapsed)
        if code != 0 or not out.exists() or not inputs.accepts(file_digest(out)):
            outcome.failed += 1
        if out.exists():
            out.unlink()

    counts: dict[str, float] = {}
    pipeline = tracer.last_result.pop("experiments.run_pipeline", None)
    if pipeline is None:
        outcome.notes.append("no run_pipeline result seen: trust.entries and quality.* read 0")
    else:
        counts["trust.entries"] = float(pipeline.derived.num_entries())
        counts.update(_quality(pipeline))
    outcome.layers = layer_metrics(outcome, tracer, Tracer(), counts, absent)


# ------------------------------------------------------------------ updates


def _run_updates(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    dataset = generate(seed)
    if name == "update_local":
        inputs = local_stream(dataset.community)
    else:
        inputs = mixed_stream(dataset.community, seed)
    del dataset
    outcome = Outcome()
    outcome.notes.append(f"stream: {inputs.description}")
    if not trace:
        _peak_rss_updates(inputs, workdir, outcome)

    setup_tracer = Tracer()
    community = engine = None
    for _ in range(UPDATE_SETUPS):
        community = engine = None  # release the previous build first
        installation = install(setup_tracer, LAYERS) if trace else None
        try:
            begin = time.perf_counter()
            community = base_community(inputs.base)
            engine = Engine(community)
            engine.update()
            outcome.setup_s.append(time.perf_counter() - begin)
        finally:
            if installation is not None:
                installation.restore()
    assert community is not None and engine is not None

    kernel = None if trace else ReferenceKernel()
    tracer = Tracer()
    absent: tuple[str, ...] = ()
    updates = raised = 0
    resolved: list[int] = []
    rederived: list[float] = []
    reruns: list[bool] = []
    iterations: list[int] = []
    start = time.perf_counter()
    for position, batch in enumerate(inputs.batches):
        if position >= (2 if trace else 1) and time.perf_counter() - start >= seconds:
            break
        traced = trace and position % 2 == 1
        updates += 1
        installation = install(tracer, LAYERS) if traced else None
        try:
            begin = time.perf_counter()
            for record in batch:
                apply_record(community, record)
            engine.update()
            elapsed = time.perf_counter() - begin
        except Exception:
            traceback.print_exc()
            raised += 1
            break  # the community and engine may disagree from here on
        finally:
            if installation is not None:
                absent = installation.absent
                installation.restore()
        (outcome.traced_latencies if traced else outcome.latencies).append(elapsed)
        stats = engine.last_stats
        resolved.append(stats.categories_resolved)
        total = stats.pairs_rederived + stats.pairs_reused
        rederived.append(stats.pairs_rederived / total if total else 0.0)
        reruns.append(stats.propagation_rerun)
        if stats.propagation_rerun:
            iterations.append(engine.artifacts.scores.iterations or 0)
        if kernel is not None:
            run_reference(kernel, outcome)

    differences = verify_stream(engine, community)
    if differences:
        outcome.notes.append(f"end state differs from a cold build: {', '.join(differences)}")
    else:
        outcome.notes.append("end state bitwise equal to a cold build")
    outcome.attempted += updates
    outcome.failed += count_stream_failures(updates, raised, differences)

    if trace:
        counts = {
            "reputation.categories_resolved": _mean(resolved),
            "trust.rederived_ratio": _mean(rederived),
            "propagation.rerun_ratio": _mean([float(r) for r in reruns]),
            "propagation.iterations": _mean([float(i) for i in iterations]),
            "trust.entries": float(engine.artifacts.derived.num_entries()),
        }
        counts.update(_quality(pipeline_from_engine(engine.artifacts, community)))
        outcome.layers = layer_metrics(outcome, tracer, setup_tracer, counts, absent)
    return outcome


def verify_stream(engine: Engine, community: Community) -> list[str]:
    """Artifacts of ``engine`` that differ bitwise from a cold build of a replica."""
    return engine.artifacts.differences(cold_artifacts(clone_community(community)))


def _peak_rss_updates(inputs: StreamInputs, workdir: Path, outcome: Outcome) -> None:
    path = workdir / "stream.pickle"
    with open(path, "wb") as f:
        pickle.dump((inputs.base, inputs.batches[:CHILD_BATCHES]), f)
    outcome.attempted += 1
    report = _child(["update", str(path)], outcome)
    if report is None:
        outcome.failed += 1
    else:
        outcome.peak_rss_mb = report["peak_rss_kb"] * 1024 / 1e6
    path.unlink()


# ------------------------------------------------------------------ shared


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    return env


def _child(args: list[str], outcome: Outcome) -> dict[str, float] | None:
    """Run ``perfbench.child`` fresh; its report, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "-m", CHILD_MODULE, *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        outcome.notes.append(f"child {args[0]} exited with code {proc.returncode}")
        return None
    report: dict[str, float] = json.loads(proc.stdout.strip().splitlines()[-1])
    return report


def run_reference(kernel: ReferenceKernel, outcome: Outcome) -> None:
    """Run the reference kernel until it has taken ``SHARE`` of the operation time."""
    while sum(outcome.reference) < SHARE * sum(outcome.latencies):
        outcome.reference.append(kernel.run())


#: counts read from public results; a workload or run without them reads 0
COUNT_KEYS = (
    "reputation.categories_resolved",
    "trust.rederived_ratio",
    "propagation.rerun_ratio",
    "propagation.iterations",
    "trust.entries",
    "quality.derived_density",
    "quality.recall",
    "quality.precision_in_r",
    "quality.score_gap",
)


def _quality(pipeline: PipelineArtifacts) -> dict[str, float]:
    """The §IV gauges of one answer: density, validation and score gap."""
    density = density_report(pipeline.derived, pipeline.connections, pipeline.ground_truth)
    validation = validate_trust(
        pipeline.derived_binary, pipeline.connections, pipeline.ground_truth
    )
    gap = score_gap_analysis(
        pipeline.derived, pipeline.derived_binary, pipeline.connections, pipeline.ground_truth
    )
    return {
        "quality.derived_density": density.derived_density,
        "quality.recall": validation.recall,
        "quality.precision_in_r": validation.precision_in_r,
        "quality.score_gap": gap.trusted_mean - gap.untrusted_mean,
    }


def layer_metrics(
    outcome: Outcome,
    tracer: Tracer,
    setup_tracer: Tracer,
    counts: dict[str, float],
    absent: tuple[str, ...],
) -> dict[str, float]:
    """Per-operation layer figures of the traced operations.

    ``_s`` is cumulative seconds, ``.self_s`` seconds less the wrapped
    calls beneath, ``_calls`` calls -- each per traced operation.
    ``community.from_records`` runs in set-up only and is per set-up.
    """
    ops = len(outcome.traced_latencies)
    if ops == 0 or not outcome.latencies:
        raise RuntimeError("a traced run needs traced and untraced operations")
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer.name}_s"] = tracer.total[layer.name] / ops
        metrics[f"{layer.name}.self_s"] = tracer.self_time[layer.name] / ops
        metrics[f"{layer.name}_calls"] = tracer.calls[layer.name] / ops
    metrics["community.from_records_s"] = (
        setup_tracer.total["community.from_records"] / len(outcome.setup_s)
        if outcome.setup_s
        else 0.0
    )
    traced_total = sum(outcome.traced_latencies)
    unattributed = (traced_total - tracer.top_level) / ops
    metrics["unattributed_s"] = unattributed
    metrics["unattributed_share"] = unattributed / (traced_total / ops)
    metrics["trace_overhead_s"] = statistics.median(
        outcome.traced_latencies
    ) - statistics.median(outcome.latencies)
    metrics["traced_ops"] = float(ops)
    metrics.update(dict.fromkeys(COUNT_KEYS, 0.0))
    metrics.update(counts)
    if absent:
        outcome.notes.append(f"absent layers: {', '.join(absent)}")
    return metrics


def _mean(values: list[float] | list[int]) -> float:
    return float(statistics.fmean(values)) if values else 0.0
