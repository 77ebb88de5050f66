"""Command-line interface: ``repro-trust`` / ``python -m repro``.

Subcommands
-----------
- ``generate`` -- write a synthetic community to extended-Epinions files;
- ``stats`` -- describe a dataset (synthetic or loaded from files);
- ``derive`` -- run the framework on an Epinions-format directory and
  write the derived web of trust as ``source|target|value`` lines;
- ``update`` -- demonstrate the delta-driven incremental engine: withhold
  a suffix of ratings, replay them in batches through
  :class:`repro.engine.Engine`, print what each update recomputed vs
  reused, and verify the final state bitwise against a cold build;
- ``shard`` -- build / inspect / verify a sharded artifact store
  (:mod:`repro.shard.cli`);
- ``table2`` / ``table3`` / ``fig3`` / ``table4`` / ``score-gap`` /
  ``ablations`` / ``propagation`` -- reproduce one experiment;
- ``all`` -- run every experiment and print the full report.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

import numpy as np

from repro import obs
from repro.common.errors import ReproError
from repro.datasets import (
    dataset_stats,
    generate_community,
    load_epinions_community,
    write_epinions_files,
)
from repro.experiments import (
    EXPERIMENT_SEED,
    paper_profile,
    render_coverage,
    render_fig3,
    render_future_trust,
    render_propagation_comparison,
    render_score_gap,
    render_table2,
    render_table3,
    render_table4,
    run_coverage,
    run_fig3,
    run_future_trust,
    run_pipeline,
    run_propagation_comparison,
    run_score_gap,
    run_table2,
    run_table3,
    run_table4,
)
from repro.experiments.ablations import render_ablations, run_ablations
from repro.matrix import UserPairMatrix
from repro.reporting import render_table
from repro.shard.cli import add_shard_parser, run_shard

__all__ = ["main", "build_parser"]

#: entries formatted per write by ``derive`` (bounds the text held at once)
_WRITE_CHUNK = 1 << 16

_EXPERIMENT_NAMES = (
    "table2",
    "table3",
    "fig3",
    "table4",
    "score-gap",
    "ablations",
    "propagation",
    "coverage",
    "future-trust",
    "all",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-trust",
        description="Derive a web of trust from rating data (Kim et al., ICDEW 2008).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic community")
    _add_dataset_args(generate)
    generate.add_argument("--out", required=True, help="output directory (Epinions format)")

    stats = sub.add_parser("stats", help="describe a dataset")
    _add_source_args(stats)

    derive = sub.add_parser("derive", help="derive a web of trust from rating data")
    _add_source_args(derive)
    derive.add_argument("--out", required=True, help="output file (source|target|value)")
    derive.add_argument(
        "--min-trust", type=float, default=0.0, help="drop derived values <= this"
    )

    update = sub.add_parser(
        "update", help="replay a rating stream through the incremental engine"
    )
    _add_source_args(update)
    update.add_argument(
        "--stream",
        type=_int_at_least(0),
        default=50,
        help="ratings to withhold and replay",
    )
    update.add_argument(
        "--batch",
        type=_int_at_least(1),
        default=10,
        help="ratings applied per engine update",
    )
    update.add_argument(
        "--skip-verify",
        action="store_true",
        help="skip the final bitwise comparison against a cold build",
    )

    add_shard_parser(sub)

    for name in _EXPERIMENT_NAMES:
        experiment = sub.add_parser(name, help=f"reproduce {name}")
        _add_dataset_args(experiment)

    report = sub.add_parser("report", help="write the full markdown report")
    _add_source_args(report)
    report.add_argument("--out", required=True, help="output markdown file")
    return parser


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type`` accepting integers ``>= minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=1200, help="community size")
    parser.add_argument("--seed", type=int, default=EXPERIMENT_SEED, help="random seed")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record a repro.obs trace of the run and write it as JSON "
        "(render with `python -m repro.obs.report PATH`)",
    )


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dir", help="load an Epinions-format directory instead")
    _add_dataset_args(parser)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Bad input (a malformed dataset, an invalid value) ends with one
    ``repro-trust: error: ...`` line on stderr and exit code 2, the same
    code argparse uses for bad arguments.
    """
    args = build_parser().parse_args(argv)
    trace_path: str | None = getattr(args, "trace", None)
    try:
        if trace_path is None:
            return _run(args)

        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            code = _run(args)
        recorder.write(trace_path)
        print(f"wrote trace to {trace_path}", file=sys.stderr)
        return code
    except ReproError as exc:
        print(f"repro-trust: error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    out = sys.stdout

    if args.command == "generate":
        dataset = generate_community(paper_profile(args.users), args.seed)
        write_epinions_files(dataset.community, args.out)
        print(f"wrote {dataset.community.num_reviews()} reviews, "
              f"{dataset.community.num_ratings()} ratings, "
              f"{dataset.community.num_trust_edges()} trust edges to {args.out}", file=out)
        return 0

    if args.command == "stats":
        community = _load_community(args)
        stats = dataset_stats(community)
        rows = [
            ["users", stats.num_users],
            ["categories", stats.num_categories],
            ["objects", stats.num_objects],
            ["reviews", stats.num_reviews],
            ["ratings", stats.num_ratings],
            ["trust edges", stats.num_trust_edges],
            ["rating density (R)", f"{stats.rating_density:.5f}"],
            ["trust density (T)", f"{stats.trust_density:.5f}"],
            ["ratings per rated review", f"{stats.ratings_per_review:.2f}"],
        ]
        print(render_table(["statistic", "value"], rows, title="Dataset statistics"), file=out)
        return 0

    if args.command == "derive":
        community = _load_community(args)
        artifacts = run_pipeline(community=community)
        with obs.span("cli.derive.write"):
            count = _write_derived(artifacts.derived, args.min_trust, args.out)
        print(f"wrote {count} derived trust edges to {args.out}", file=out)
        return 0

    if args.command == "update":
        return _run_update(args, out)

    if args.command == "shard":
        return run_shard(args, out)

    if args.command == "report":
        from repro.experiments import build_report

        if args.dir:
            artifacts = run_pipeline(community=load_epinions_community(args.dir))
        else:
            artifacts = run_pipeline(paper_profile(args.users), args.seed)
        report_text = build_report(artifacts)
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report_text)
        print(f"wrote report to {args.out}", file=out)
        return 0

    # experiment commands share one pipeline
    artifacts = run_pipeline(paper_profile(args.users), args.seed)
    sections: list[str] = []
    if args.command in ("table2", "all"):
        sections.append(render_table2(run_table2(artifacts)))
    if args.command in ("table3", "all"):
        sections.append(render_table3(run_table3(artifacts)))
    if args.command in ("fig3", "all"):
        sections.append(render_fig3(run_fig3(artifacts)))
    if args.command in ("table4", "all"):
        sections.append(render_table4(run_table4(artifacts)))
    if args.command in ("score-gap", "all"):
        sections.append(render_score_gap(run_score_gap(artifacts)))
    if args.command in ("ablations", "all"):
        sections.append(render_ablations(run_ablations(artifacts.dataset)))
    if args.command in ("coverage", "all"):
        sections.append(render_coverage(run_coverage(artifacts)))
    if args.command in ("future-trust", "all"):
        sections.append(render_future_trust(run_future_trust(artifacts)))
    if args.command in ("propagation", "all"):
        sections.append(
            render_propagation_comparison(run_propagation_comparison(artifacts))
        )
    print("\n\n".join(sections), file=out)
    return 0


def _run_update(args: argparse.Namespace, out) -> int:
    from repro.engine import Engine, clone_community, cold_artifacts, split_rating_stream

    community = _load_community(args)
    base, stream = split_rating_stream(community, args.stream)
    engine = Engine(base)
    engine.update()
    print(
        f"cold build at epoch {base.change_log.epoch}: "
        f"{engine.artifacts.derived.num_entries()} derived pairs",
        file=out,
    )

    rows = []
    for start in range(0, len(stream), args.batch):
        for rating in stream[start : start + args.batch]:
            base.add_rating(rating)
        engine.update()
        stats = engine.last_stats
        total_pairs = stats.pairs_rederived + stats.pairs_reused
        reuse = f"{stats.pairs_reused / total_pairs:.1%}" if total_pairs else "-"
        rows.append(
            [
                base.change_log.epoch,
                stats.deltas_applied,
                f"{stats.categories_resolved}/{stats.categories_resolved + stats.categories_skipped}",
                stats.pairs_rederived,
                stats.pairs_reused,
                reuse,
                "yes" if stats.propagation_rerun else "reused",
            ]
        )
    print(
        render_table(
            ["epoch", "deltas", "categories", "rederived", "reused", "reuse", "propagation"],
            rows,
            title="Incremental updates",
        ),
        file=out,
    )

    if not args.skip_verify:
        cold = cold_artifacts(clone_community(base))
        diffs = engine.artifacts.differences(cold)
        if diffs:
            print(f"BITWISE MISMATCH vs cold build: {', '.join(diffs)}", file=out)
            return 1
        print("final state verified bitwise against a cold build", file=out)
    return 0


def _write_derived(derived: UserPairMatrix, min_trust: float, path: str) -> int:
    """Write the entries above ``min_trust`` as ``source|target|value`` lines.

    Lines are formatted a chunk of :data:`_WRITE_CHUNK` entries at a time
    from the matrix's position arrays, so only one chunk's text is held in
    memory.  Returns the number of lines written.
    """
    rows, cols, values = derived.entries_arrays()
    keep = values > min_trust
    rows, cols, values = rows[keep], cols[keep], values[keep]
    labels = np.asarray(derived.users.labels, dtype=object)
    with open(path, "w", encoding="utf-8") as f:
        for start in range(0, values.size, _WRITE_CHUNK):
            chunk = slice(start, start + _WRITE_CHUNK)
            lines = zip(
                labels[rows[chunk]].tolist(),
                labels[cols[chunk]].tolist(),
                values[chunk].tolist(),
            )
            f.write("".join(map("%s|%s|%.6f\n".__mod__, lines)))
    return int(values.size)


def _load_community(args: argparse.Namespace):
    if args.dir:
        return load_epinions_community(args.dir)
    return generate_community(paper_profile(args.users), args.seed).community


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
