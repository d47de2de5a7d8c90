"""Summarize or compare sets of benchmark result files.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A results directory holds the ``.json`` records that run.py writes to
``.perfbench/results/``; only untraced runs are read. With one directory,
each workload's end-to-end metrics are printed as median and quartile
spread (the distance between the first and third quartile over the median)
against the metric's bound in BENCHMARK.json. With two, the change's median
is also checked against the parent's: a metric worse by more than its bound
is a regression, one whose spread exceeds its bound is unresolved.

Records whose environments (interpreter, numpy, scipy, BLAS and its thread
count, processor count, CPU) differ are refused with exit code 2. Exit code
1 means a regression or a spread above its bound.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(directory):
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="ascii") as fh:
            record = json.load(fh)
        if record.get("trace") == 0 and record.get("size") == "full":
            records.append(record)
    if not records:
        raise SystemExit(f"no untraced full-size results in {directory}")
    return records


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def by_workload(records, metric):
    grouped = defaultdict(list)
    for record in records:
        grouped[record["workload"]].append(record["metrics"][metric]["value"])
    return grouped


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load_results(d) for d in argv]
    envs = {json.dumps(r["env"], sort_keys=True) for records in sets for r in records}
    if len(envs) > 1:
        print("refusing to compare: the results come from different environments", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="ascii") as fh:
        spec = json.load(fh)

    status = 0
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        base = by_workload(sets[0], name)
        change = by_workload(sets[-1], name) if len(sets) == 2 else {}
        for workload, values in sorted(base.items()):
            median = statistics.median(values)
            spread = quartile_spread(values)
            line = (f"{workload:10s} {name:15s} n={len(values):2d} median={median:.6g} "
                    f"{metric['unit']} spread={spread:.3f} bound={bound}")
            if name != "setup_s" and spread > bound:
                line += " SPREAD-ABOVE-BOUND"
                status = 1
            if workload in change:
                new = statistics.median(change[workload])
                worse = (new - median) / median if lower else (median - new) / median
                line += f" change={new:.6g} worse_by={worse:+.3f}"
                if max(spread, quartile_spread(change[workload])) > bound:
                    line += " UNRESOLVED"
                elif worse > bound:
                    line += " REGRESSION"
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
