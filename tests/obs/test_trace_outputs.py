"""End-to-end tests for the trace-producing entry points.

Covers the acceptance path: ``repro <cmd> --trace PATH`` writes a JSON
trace whose document covers derivation, Step 1 (per-category sweep
counts) and at least one propagation kernel; the report renders it; the
perf bench embeds per-kernel span stats and gates on convergence.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.obs.report import main as report_main
from repro.perf.bench import run_kernel_bench

ARGS = ["--users", "150", "--seed", "3"]


def span_names(document):
    names = set()

    def walk(spans):
        for span in spans:
            names.add(span["name"])
            walk(span.get("children", ()))

    walk(document["spans"])
    return names


class TestCliTrace:
    def test_table2_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert cli_main(["table2", *ARGS, "--trace", str(trace)]) == 0
        err = capsys.readouterr().err
        assert "wrote trace" in err
        document = json.loads(trace.read_text())
        assert document["version"] == 1
        assert "pipeline.run" in span_names(document)

    def test_all_trace_covers_acceptance_surface(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert cli_main(["all", *ARGS, "--trace", str(trace)]) == 0
        document = json.loads(trace.read_text())
        names = span_names(document)
        # derivation, step1 and at least one propagation kernel
        assert "derive.trust" in names
        assert "step1.fit" in names
        assert any(n.startswith("propagation.") for n in names)
        kernels = {r["kernel"] for r in document["convergence"]}
        assert "step1.riggs" in kernels
        assert any(k.startswith("propagation.") for k in kernels)
        # per-category sweep counts
        riggs = [r for r in document["convergence"] if r["kernel"] == "step1.riggs"]
        assert all("category" in r.get("attributes", {}) for r in riggs)
        assert document["histograms"]["step1.sweeps"]["count"] == len(riggs)

    def test_derive_trace_covers_load_and_write(self, tmp_path, capsys):
        data_dir = str(tmp_path / "data")
        trace = tmp_path / "trace.json"
        assert cli_main(["generate", *ARGS, "--out", data_dir]) == 0
        argv = ["derive", "--dir", data_dir, "--out", str(tmp_path / "trust.txt")]
        assert cli_main([*argv, "--trace", str(trace)]) == 0
        names = span_names(json.loads(trace.read_text()))
        assert {"datasets.load", "pipeline.run", "cli.derive.write"} <= names

    def test_report_renders_cli_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert cli_main(["table2", *ARGS, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert report_main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Span tree" in out
        assert "pipeline.run" in out

    def test_no_trace_flag_writes_nothing(self, tmp_path, capsys):
        assert cli_main(["table2", *ARGS]) == 0
        err = capsys.readouterr().err
        assert "wrote trace" not in err


class TestPerfObservability:
    @pytest.fixture(scope="class")
    def bench_document(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("bench")
        out = tmp / "bench.json"
        trace = tmp / "trace.json"
        document = run_kernel_bench(
            num_users=150, seed=3, repeats=1, quick=True,
            out_path=str(out), trace_path=str(trace),
        )
        return document, json.loads(out.read_text()), json.loads(trace.read_text())

    def test_observability_section_embedded(self, bench_document):
        document, written, _ = bench_document
        for doc in (document, written):
            section = doc["observability"]
            assert section["trace_enabled"] is True
            assert "step1.fit" in section["spans"]
            assert "derive.trust" in section["spans"]
            assert "propagation.eigentrust" in section["spans"]
            assert section["spans"]["step1.fit"]["calls"] == 1

    def test_convergence_embedded_and_converged(self, bench_document):
        document, _, _ = bench_document
        records = document["observability"]["convergence"]
        kernels = {r["kernel"] for r in records}
        assert "step1.riggs" in kernels
        assert "propagation.eigentrust" in kernels
        assert all(r["converged"] for r in records)

    def test_trace_file_renders(self, bench_document, capsys):
        _, _, trace_document = bench_document
        assert "step1.solve_all" in span_names(trace_document)

    def test_equivalence_checks_still_pass(self, bench_document):
        document, _, _ = bench_document
        assert document["derive_matrices_identical"] is True
        assert document["step1_matrices_identical"] is True
