"""Compare two sets of run JSONs, one row per (metric, workload).

    python3 bench/run.py compare --base A1.json A2.json … --new B1.json B2.json … [--out FILE]

Pair i is (base run i, new run i); run them alternately.  A row is

* improved   — over at least 10 pairs, the new side wins at least 9/10
  of them and the medians differ by more than the base runs'
  interquartile range;
* regressed  — the new median is worse than the base median by more than
  the metric's bound (BENCHMARK.json); a per-layer metric has no bound
  and regresses by the mirror image of the improvement rule;
* unresolved — the base runs spread wider than the bound, unless every
  new run reads better than every base run;
* unchanged  — otherwise.

The exit code is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base: list[float], new: list[float], bound: float | None, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0

    def gain(before: float, after: float) -> float:
        return sign * (before - after)  # > 0: after reads better

    base_median, new_median = statistics.median(base), statistics.median(new)
    q1, q3 = quartiles(base)
    spread = q3 - q1
    pairs = list(zip(base, new))
    enough = len(pairs) >= MIN_PAIRS
    wins = sum(gain(b, n) > 0 for b, n in pairs)
    losses = sum(gain(b, n) < 0 for b, n in pairs)
    if enough and wins >= 0.9 * len(pairs) and gain(base_median, new_median) > spread:
        return "improved"
    if bound is None:
        if enough and losses >= 0.9 * len(pairs) and -gain(base_median, new_median) > spread:
            return "regressed"
        return "unchanged"
    if -gain(base_median, new_median) > bound * abs(base_median):
        return "regressed"
    if spread > bound * abs(base_median) and not all(
        gain(b, n) > 0 for b in base for n in new
    ):
        return "unresolved"
    return "unchanged"


def side(runs: list[dict], workload: str, metric: str) -> dict | None:
    sections = [run["workloads"][workload] for run in runs
                if metric in run["workloads"].get(workload, {}).get("values", {})]
    if not sections:
        return None
    values = [section["values"][metric] for section in sections]
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread_pct": 100.0 * (q3 - q1) / abs(median) if median else None,
        "runs": len(values),
        "samples": sum(section["counts"][metric] for section in sections),
        "values": values,
    }


def rows(base_runs: list[dict], new_runs: list[dict], spec: dict) -> list[dict]:
    metrics = spec["end_to_end"] + spec["per_layer"]
    workloads = sorted({name for run in base_runs for name in run["workloads"]})
    table = []
    for metric in metrics:
        for workload in workloads:
            base = side(base_runs, workload, metric["name"])
            new = side(new_runs, workload, metric["name"])
            if base is None or new is None:
                continue
            bound = metric.get("bound")
            change = (100.0 * (new["median"] - base["median"]) / abs(base["median"])
                      if base["median"] else None)
            table.append({
                "metric": metric["name"], "workload": workload, "unit": metric["unit"],
                "better": metric["better"], "bound": bound,
                "base": base, "new": new, "change_pct": change,
                # Either direction: what two sets of the same code must meet.
                "change_within_bound": None if bound is None or change is None
                else abs(change) <= 100.0 * bound,
                "verdict": verdict(base["values"], new["values"], bound, metric["better"]),
            })
    return table


def _cell(row: dict) -> str:
    return (f"{row['median']:.4g} [{row['q1']:.4g}, {row['q3']:.4g}] "
            f"({row['runs']} runs, n={row['samples']})")


def main(argv: list[str], spec: dict) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, type=Path, metavar="RUN.json")
    parser.add_argument("--new", nargs="+", required=True, type=Path, metavar="RUN.json")
    parser.add_argument("--out", type=Path, help="also write the rows as JSON")
    args = parser.parse_args(argv)
    base_runs = [json.loads(path.read_text()) for path in args.base]
    new_runs = [json.loads(path.read_text()) for path in args.new]
    table = rows(base_runs, new_runs, spec)
    print(f"{'metric':<26} {'workload':<13} {'base median [q1, q3]':<44} "
          f"{'new median [q1, q3]':<44} {'change':>8}  verdict")
    for row in table:
        change = f"{row['change_pct']:+.1f}%" if row["change_pct"] is not None else "-"
        bound = "" if row["bound"] is not None else " (no bound)"
        print(f"{row['metric']:<26} {row['workload']:<13} {_cell(row['base']):<44} "
              f"{_cell(row['new']):<44} {change:>8}  {row['verdict']}{bound}")
    if args.out:
        runs = base_runs + new_runs
        args.out.write_text(json.dumps({
            "base": [path.name for path in args.base],
            "new": [path.name for path in args.new],
            "base_commits": sorted({run["git_commit"] for run in base_runs}),
            "new_commits": sorted({run["git_commit"] for run in new_runs}),
            "seeds": sorted({run["seed"] for run in runs}),
            "seconds": sorted({run["seconds"] for run in runs}),
            "python": sorted({run["python"] for run in runs}),
            "nproc": sorted({run["nproc"] for run in runs}),
            "rows": table,
        }, indent=1) + "\n")
    return 1 if any(row["verdict"] == "regressed" for row in table) else 0
