"""Tests for the command-line interface."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.datasets import generate_community
from repro.experiments import paper_profile, run_pipeline

ARGS = ["--users", "150", "--seed", "3"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["table4"])
        assert args.users == 1200
        assert args.seed == 7

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


class TestCommands:
    def test_stats_synthetic(self, capsys):
        assert main(["stats", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "Dataset statistics" in out
        assert "trust density" in out

    def test_generate_then_stats_dir(self, tmp_path, capsys):
        out_dir = str(tmp_path / "data")
        assert main(["generate", *ARGS, "--out", out_dir]) == 0
        assert main(["stats", "--dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "Dataset statistics" in out

    def test_derive_writes_edges(self, tmp_path, capsys):
        data_dir = str(tmp_path / "data")
        out_file = str(tmp_path / "trust.txt")
        main(["generate", *ARGS, "--out", data_dir])
        assert main(["derive", "--dir", data_dir, "--out", out_file]) == 0
        with open(out_file) as f:
            lines = f.read().strip().splitlines()
        assert len(lines) > 100
        source, target, value = lines[0].split("|")
        assert 0.0 < float(value) <= 1.0

    def test_update_replays_stream_and_verifies(self, capsys):
        assert main(["update", *ARGS, "--stream", "6", "--batch", "3"]) == 0
        out = capsys.readouterr().out
        assert "cold build at epoch" in out
        assert "Incremental updates" in out
        assert "final state verified bitwise against a cold build" in out

    def test_update_skip_verify(self, capsys):
        assert main(["update", *ARGS, "--stream", "2", "--skip-verify"]) == 0
        out = capsys.readouterr().out
        assert "verified bitwise" not in out

    def test_table4_command(self, capsys):
        assert main(["table4", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "T-hat (our model)" in out

    def test_fig3_command(self, capsys):
        assert main(["fig3", *ARGS]) == 0
        assert "Fig. 3" in capsys.readouterr().out

    def test_table2_command(self, capsys):
        assert main(["table2", *ARGS]) == 0
        assert "Table 2" in capsys.readouterr().out


#: sha256 of the file ``repro derive --users 300 --seed 11`` writes, recorded
#: when each line was still formatted and written one entry at a time
DERIVE_300_11_SHA256 = "a0faaec9acf8ad122b4cbf19aeeb9f1cd875657fc8e6cc45f8434f6f076239fa"
DERIVE_300_11 = ["derive", "--users", "300", "--seed", "11"]


class TestDeriveOutputBytes:
    @pytest.fixture(scope="class")
    def derived(self):
        community = generate_community(paper_profile(300), 11).community
        return run_pipeline(community=community).derived

    @staticmethod
    def per_entry_output(derived, min_trust):
        """The derive output as written entry by entry, with its line count."""
        lines = [
            f"{source}|{target}|{value:.6f}\n"
            for source, target, value in derived.entries()
            if value > min_trust
        ]
        return "".join(lines).encode("utf-8"), len(lines)

    def test_default_output_matches_recorded_digest(self, tmp_path, capsys):
        out = tmp_path / "trust.txt"
        assert main([*DERIVE_300_11, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DERIVE_300_11_SHA256
        assert "wrote 21187 derived trust edges" in capsys.readouterr().out

    @pytest.mark.parametrize("min_trust", ["0.2", "1.0"])
    def test_min_trust_matches_per_entry_loop(self, tmp_path, capsys, derived, min_trust):
        out = tmp_path / "trust.txt"
        assert main([*DERIVE_300_11, "--min-trust", min_trust, "--out", str(out)]) == 0
        expected, count = self.per_entry_output(derived, float(min_trust))
        assert out.read_bytes() == expected
        assert f"wrote {count} derived trust edges" in capsys.readouterr().out
        if min_trust == "1.0":
            assert count == 0 and expected == b""
        else:
            assert 0 < count < derived.num_entries()


SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def write_duplicate_review_dump(directory):
    directory.mkdir()
    (directory / "mc.txt").write_text("r1|alice|m1|c\nr1|bob|m2|c\n")
    (directory / "rating.txt").write_text("r1|bob|3\n")


@pytest.mark.parametrize(
    "args,message",
    [
        (["update", *ARGS, "--stream", "-3"], "--stream: must be >= 0"),
        (["update", *ARGS, "--batch", "0"], "--batch: must be >= 1"),
        (["derive", "--dir", "{dump}", "--out", "{out}"], "mc.txt:2: duplicate"),
    ],
    ids=["negative-stream", "zero-batch", "duplicate-review-id"],
)
def test_bad_input_exits_2_without_traceback(tmp_path, args, message):
    dump = tmp_path / "dump"
    write_duplicate_review_dump(dump)
    argv = [a.format(dump=dump, out=tmp_path / "out.txt") for a in args]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
    )}
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "error:" in result.stderr and message in result.stderr
