"""One workload in a fresh process, as ``repro derive`` runs.

Usage (from the repository root, with ``src`` and the root on the path)::

    python3 -m perfbench.child derive DIR OUT    # repro derive DIR -> OUT
    python3 -m perfbench.child update PICKLE     # base records + batches

The last line of standard output is one JSON object with ``code`` and
``peak_rss_kb``.  A derive adds ``import_s``, the seconds ``import
repro.cli`` took, and ``op_s``, the seconds from the ``main()`` call to its
return; its own output goes to standard error.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import resource
import sys
import time


def _derive(directory: str, out: str, report: dict[str, float]) -> int:
    begin = time.perf_counter()
    import repro.cli

    report["import_s"] = time.perf_counter() - begin
    with contextlib.redirect_stdout(sys.stderr):
        begin = time.perf_counter()
        code = repro.cli.main(["derive", "--dir", directory, "--out", out])
        report["op_s"] = time.perf_counter() - begin
    return code


def _update(path: str) -> int:
    from repro.engine import Engine

    from perfbench.inputs import apply_record, base_community

    # written by perfbench.workloads in this run's own work directory
    with open(path, "rb") as f:
        base, batches = pickle.load(f)
    community = base_community(base)
    engine = Engine(community)
    engine.update()
    for batch in batches:
        for record in batch:
            apply_record(community, record)
        engine.update()
    return 0


def main(argv: list[str]) -> int:
    report: dict[str, float] = {}
    if argv[:1] == ["derive"] and len(argv) == 3:
        code = _derive(argv[1], argv[2], report)
    elif argv[:1] == ["update"] and len(argv) == 2:
        code = _update(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"code": code, "peak_rss_kb": peak_kb, **report}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
