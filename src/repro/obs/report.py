"""Render a ``repro.obs`` JSON trace as tables.

::

    python -m repro.obs.report trace.json

prints, from one trace document:

- the **span tree** (indented, with durations);
- a per-span-name **timing table** -- calls, cumulative time, self time
  (cumulative minus direct children), sorted by self time;
- the **counters** and **histogram** summaries;
- an **incremental engine** section (when engine counters are present):
  deltas applied, Step-1 categories re-solved vs skipped, ``T-hat`` pairs
  re-derived vs reused, propagation sweeps saved -- each with its reuse
  ratio;
- a **convergence summary** per iterative kernel (count, worst residual,
  iteration range, whether every run converged).

``--check-converged`` exits nonzero when any convergence record reports
``converged=False`` -- the CI gate's building block.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.recorder import convergence_failures
from repro.reporting import render_table

__all__ = ["SpanStat", "aggregate_spans", "render_trace_report", "main"]


@dataclass
class SpanStat:
    """Aggregated timings of every span sharing one name."""

    name: str
    calls: int = 0
    cumulative_s: float = 0.0
    self_s: float = 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "calls": self.calls,
            "cumulative_s": round(self.cumulative_s, 6),
            "self_s": round(self.self_s, 6),
        }


def aggregate_spans(spans: Iterable[Mapping[str, Any]]) -> dict[str, SpanStat]:
    """Per-name call counts and cumulative/self times over a span forest."""
    stats: dict[str, SpanStat] = {}
    stack: list[Mapping[str, Any]] = list(spans)
    while stack:
        node = stack.pop()
        stat = stats.setdefault(str(node.get("name", "?")), SpanStat(str(node.get("name", "?"))))
        stat.calls += 1
        stat.cumulative_s += float(node.get("duration_s", 0.0))
        stat.self_s += float(node.get("self_s", node.get("duration_s", 0.0)))
        stack.extend(node.get("children", ()))
    return stats


def _span_tree_lines(spans: Sequence[Mapping[str, Any]], depth: int = 0) -> list[str]:
    lines: list[str] = []
    for node in spans:
        attributes = node.get("attributes") or {}
        attr_text = (
            " [" + ", ".join(f"{k}={v}" for k, v in attributes.items()) + "]"
            if attributes
            else ""
        )
        open_marker = " (open)" if node.get("incomplete") else ""
        lines.append(
            f"{'  ' * depth}{node.get('name', '?')}  "
            f"{float(node.get('duration_s', 0.0)) * 1000:.2f} ms{attr_text}{open_marker}"
        )
        lines.extend(_span_tree_lines(node.get("children", ()), depth + 1))
    return lines


def _timing_table(stats: Mapping[str, SpanStat]) -> str:
    rows = [
        [
            stat.name,
            stat.calls,
            f"{stat.cumulative_s * 1000:.2f}",
            f"{stat.self_s * 1000:.2f}",
            f"{stat.cumulative_s / stat.calls * 1000:.2f}" if stat.calls else "-",
        ]
        for stat in sorted(stats.values(), key=lambda s: (-s.self_s, s.name))
    ]
    return render_table(
        ["span", "calls", "cumulative ms", "self ms", "mean ms"],
        rows,
        title="Span timings (by self time)",
    )


def _convergence_table(records: Sequence[Mapping[str, Any]]) -> str:
    by_kernel: dict[str, list[Mapping[str, Any]]] = {}
    for record in records:
        by_kernel.setdefault(str(record.get("kernel", "?")), []).append(record)
    rows = []
    for kernel in sorted(by_kernel):
        runs = by_kernel[kernel]
        iterations = [int(r.get("iterations", 0)) for r in runs]
        residuals = [float(r.get("residual", 0.0)) for r in runs]
        all_converged = all(bool(r.get("converged", True)) for r in runs)
        rows.append(
            [
                kernel,
                len(runs),
                f"{min(iterations)}..{max(iterations)}" if iterations else "-",
                f"{max(residuals):.3e}" if residuals else "-",
                "yes" if all_converged else "NO",
            ]
        )
    return render_table(
        ["kernel", "runs", "iterations", "worst residual", "converged"],
        rows,
        title="Convergence summary",
    )


#: (label, done counter, avoided counter) rows of the engine section; the
#: "avoided" share is the incremental win the table makes visible.
_ENGINE_RATIOS: tuple[tuple[str, str, str], ...] = (
    (
        "step1 categories",
        "step1.incremental.categories_resolved",
        "step1.incremental.categories_skipped",
    ),
    (
        "derive pairs",
        "engine.derive.pairs_rederived",
        "engine.derive.pairs_reused",
    ),
)


def _engine_table(counters: Mapping[str, Any]) -> str | None:
    """The incremental-engine counter summary, or ``None`` when absent."""
    if not any(str(name).startswith(("engine.", "step1.incremental.")) for name in counters):
        return None
    rows: list[list[object]] = [
        ["deltas applied", int(counters.get("engine.deltas_applied", 0)), "-", "-"]
    ]
    for label, done_key, avoided_key in _ENGINE_RATIOS:
        done = int(counters.get(done_key, 0))
        avoided = int(counters.get(avoided_key, 0))
        total = done + avoided
        ratio = f"{avoided / total:.1%}" if total else "-"
        rows.append([f"{label} recomputed", done, avoided, ratio])
    rows.append(
        [
            "propagation sweeps saved",
            int(counters.get("engine.propagation.iterations_saved", 0)),
            "-",
            "-",
        ]
    )
    refreshes = int(counters.get("community.columns.refresh", 0))
    if refreshes:
        rows.append(["columns segment refreshes", refreshes, "-", "-"])
    return render_table(
        ["stage", "recomputed", "reused", "reuse"],
        rows,
        title="Incremental engine",
    )


def render_trace_report(document: Mapping[str, Any]) -> str:
    """The full multi-table report for one trace document."""
    sections: list[str] = []
    spans = document.get("spans") or []
    if spans:
        sections.append("Span tree\n=========\n" + "\n".join(_span_tree_lines(spans)))
        sections.append(_timing_table(aggregate_spans(spans)))
    counters = document.get("counters") or {}
    if counters:
        rows = [[name, counters[name]] for name in sorted(counters)]
        sections.append(render_table(["counter", "value"], rows, title="Counters"))
        engine_section = _engine_table(counters)
        if engine_section is not None:
            sections.append(engine_section)
    histograms = document.get("histograms") or {}
    if histograms:
        rows = [
            [
                name,
                summary.get("count", 0),
                summary.get("min", "-"),
                summary.get("mean", "-"),
                summary.get("max", "-"),
                summary.get("total", "-"),
            ]
            for name, summary in sorted(histograms.items())
        ]
        sections.append(
            render_table(
                ["histogram", "count", "min", "mean", "max", "total"],
                rows,
                title="Histograms",
            )
        )
    convergence = document.get("convergence") or []
    if convergence:
        sections.append(_convergence_table(convergence))
    if not sections:
        sections.append("(empty trace)")
    return "\n\n".join(sections)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``python -m repro.obs.report trace.json``."""
    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="Render a repro.obs JSON trace as timing and convergence tables.",
    )
    parser.add_argument("trace", help="path to a trace JSON file")
    parser.add_argument(
        "--check-converged",
        action="store_true",
        help="exit nonzero when any kernel reports converged=False",
    )
    args = parser.parse_args(argv)
    with open(args.trace, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    print(render_trace_report(document))
    if args.check_converged:
        failures = convergence_failures(document)
        for failure in failures:
            print(
                f"convergence check failed: {failure.get('kernel')} "
                f"stopped at {failure.get('iterations')} iterations "
                f"(residual {failure.get('residual')})",
                file=sys.stderr,
            )
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
