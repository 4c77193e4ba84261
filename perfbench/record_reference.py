"""Record the offline-giant reference rewrite lists.

    python3 perfbench/record_reference.py

Fits the giant graph exactly as the ``offline-giant`` workload does,
materializes every query's rewrite list and writes
``perfbench/reference/giant.json.gz``.  The workload compares its lists
with these: exact ``(query, rewrite, rank)``, scores within
``run.SCORE_TOLERANCE``.  Re-record only when a change is meant to alter
the served lists, and say so in the change.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

import common
import inputs
from run import REFERENCE


def main() -> None:
    sys.path.insert(0, str(common.SRC))
    scratch = common.ROOT / ".perfbench_tmp" / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        graph, bids = inputs.giant_graph()
        graph_path, bids_path = inputs.write_graph(graph, bids, scratch)
        report_path = scratch / "report.json"
        child = common.Child(
            "offline_proc.py",
            ["giant", "--graph", str(graph_path), "--bids", str(bids_path),
             "--out", str(report_path), "--max-passes", "1", "--seconds", "3600",
             "--saves", "0"],
        )
        child.wait_ready()
        child.wait(timeout=600)
        lists = common.read_json(report_path)["lists"]
        REFERENCE.parent.mkdir(exist_ok=True)
        with gzip.open(REFERENCE, "wt") as handle:
            json.dump(dict(sorted(lists.items())), handle, separators=(",", ":"))
        common.log(f"wrote {REFERENCE.name}: {len(lists)} lists")
    finally:
        shutil.rmtree(scratch.parent, ignore_errors=True)


if __name__ == "__main__":
    main()
