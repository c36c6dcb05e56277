"""Parent and change medians of every metric in perfbench result files.

Each FILE holds ``runs[]``, and optionally the traced runs as ``traced[]``,
each run with ``side`` (parent or change), ``workload``, ``seed``, an
optional ``batch`` and ``result.metrics``; both lists are read alike. For
each file, workload and metric it prints the median and the number of the
parent's runs and of the change's runs, change / parent, the pairs the
change won, and the spread of the parent's runs: their interquartile range
(linearly interpolated quartiles) over their median, ``-`` under two runs.
A pair is the parent run and the change run of one batch, workload and
seed; which way is better comes from the ``end_to_end`` list of
BENCHMARK.json at the root of the repository, and a metric it does not list
shows ``-`` there.

    python3 scripts/bench_table.py BENCH_*.json
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "BENCHMARK.json")
SIDES = ("parent", "change")


def table_rows(runs: list, better: dict) -> list[tuple]:
    """(workload, metric, parent median, parent runs, change median, change
    runs, ratio, won, parent IQR / parent median) per workload and metric,
    sorted; a value that cannot be formed is None."""
    values = defaultdict(lambda: {side: [] for side in SIDES})
    pairs = defaultdict(dict)
    for run in runs:
        metrics = {name: m["value"] for name, m in
                   ((run.get("result") or {}).get("metrics") or {}).items()}
        pairs[run.get("batch"), run["workload"], run["seed"]][run["side"]] = metrics
        for name, value in metrics.items():
            values[run["workload"], name][run["side"]].append(value)
    rows = []
    for (workload, name), sides in sorted(values.items()):
        parent, change = (statistics.median(sides[s]) if sides[s] else None
                          for s in SIDES)
        ratio = change / parent if parent and change is not None else None
        won = None
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            diffs = [sign * (pair["change"][name] - pair["parent"][name])
                     for (_, w, _), pair in pairs.items()
                     if w == workload and all(name in pair.get(s, {}) for s in SIDES)]
            won = f"{sum(d > 0 for d in diffs)}/{len(diffs)}"
        spread = None
        if len(sides["parent"]) >= 2 and parent:
            q1, _, q3 = statistics.quantiles(sides["parent"], n=4, method="inclusive")
            spread = (q3 - q1) / abs(parent)
        rows.append((workload, name, parent, len(sides["parent"]), change,
                     len(sides["change"]), ratio, won, spread))
    return rows


def _cell(value, spec: str, width: int) -> str:
    return ("-" if value is None else format(value, spec)).rjust(width)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="FILE", help="BENCH_*.json file")
    args = parser.parse_args()
    with open(BENCHMARK) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    for path in args.files:
        try:
            with open(path) as f:
                bench = json.load(f)
            rows = table_rows(bench["runs"] + bench.get("traced", []), better)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: {path}: {exc!r}", file=sys.stderr)
            return 1
        width = max([13] + [len(row[1]) for row in rows])
        print(path)
        print(f"{'workload':<9} {'metric':<{width}} {'parent':>11} {'n':>3} {'change':>11} "
              f"{'n':>3} {'ratio':>7} {'won':>6} {'iqr/med':>8}")
        for workload, name, parent, n_par, change, n_chg, ratio, won, spread in rows:
            print(f"{workload:<9} {name:<{width}} {_cell(parent, '.4f', 11)} {n_par:>3} "
                  f"{_cell(change, '.4f', 11)} {n_chg:>3} {_cell(ratio, '.3f', 7)} "
                  f"{_cell(won, '', 6)} {_cell(spread, '.3f', 8)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
