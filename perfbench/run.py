"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads, metrics and bounds are
declared in ``BENCHMARK.json``; ``perfbench/README.md`` explains them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A run that cannot measure one of them prints no result and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from perfbench.workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def configure_environment() -> None:
    """Settings every run shares; must precede the first numpy import.

    Contract checks off (as in the CI perf smoke), ``repro.obs`` left on
    its null recorder, and BLAS threads capped at the usable cores.
    """
    os.environ["REPRO_CHECKS"] = "0"
    os.environ.pop("REPRO_TRACE", None)
    cores = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = cores


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result(outcome: Outcome, spec: dict, trace: bool) -> dict:
    """The result line of a run; raises RuntimeError if a metric was not measured."""
    measured = outcome.layers if trace else outcome.end_to_end()
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [metric["name"] for metric in declared if metric["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {"value": measured[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src / 'repro'})", file=sys.stderr)
        return 2
    configure_environment()
    sys.path[0:1] = [str(src), str(ROOT)]  # not perfbench/ itself

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench.workloads import run_workload

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    try:
        line = result(outcome, spec, bool(args.trace))
    except RuntimeError as error:
        line = None
        print(f"error: {error}", file=sys.stderr)
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# {outcome.failed} of {outcome.attempted} operations failed")
    if line is None:
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
