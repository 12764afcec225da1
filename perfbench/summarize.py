"""Median and quartiles of each metric over the runs recorded in a results
directory, per workload, as README.md reports them.

  python3 perfbench/summarize.py [RESULTS_DIR]     (default perfbench/results)

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def main() -> int:
    results = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent / "results"
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(results.glob("*-trace*.json")):
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    for (workload, trace), records in sorted(runs.items()):
        seeds = sorted(r["seed"] for r in records)
        print(f"{workload} trace={trace}: {len(records)} runs, seeds {seeds}, "
              f"items {[r['attempted'] for r in records]}, failed {sum(r['failed'] for r in records)}, "
              f"all correct {all(r['correct'] for r in records)}")
        refs = [v for r in records for v in r["reference_s"].values()]
        names = list(records[0]["metrics"])
        if len(records) >= 2:
            names.append("reference_s")
        for name in names:
            values = refs if name == "reference_s" else [r["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            if len(values) < 2 or median == 0:
                print(f"  {name:42s} median {median:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:42s} median {median:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  spread {(q3 - q1) / median:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
