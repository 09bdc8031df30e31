"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records as ``run.py --out`` writes them.  Runs are paired
by workload, trace setting and seed.  For every metric the step prints both
sides' median and quartiles, the change's wins over the pairs, and a verdict:

- ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's own spread,
  the distance between its quartiles;
- ``worse``: for a metric with a bound in ``BENCHMARK.json``, a median worse
  by more than the bound; for one without, the rule for ``better`` with the
  sides swapped;
- ``within bound``: neither, and the parent's spread is within the bound, or
  every change run reads better than every parent run;
- ``unresolved``: the spread is wider than the bound, or the metric has no
  bound and did not move clearly either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def load(path: str) -> dict:
    """{(workload, trace): {seed: record}}; a later record of a seed wins."""
    runs: dict = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            r = json.loads(line)
            runs.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    return runs


def bounds() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def verdict(parent: list, change: list, better: str, bound: float | None) -> tuple:
    """(verdict, wins, pairs) for paired values of one metric."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    p1, pm, p3 = stats.quartiles(parent)
    _, cm, _ = stats.quartiles(change)
    iqr = p3 - p1
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(pairs) and gain > iqr:
        return "better", wins, len(pairs)
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "within bound", wins, len(pairs)
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gain > iqr:
            return "worse", wins, len(pairs)
        same = len(set(parent) | set(change)) == 1
        return ("within bound" if same else "unresolved"), wins, len(pairs)
    if pm == 0 or iqr / abs(pm) > bound:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(pm):
        return "worse", wins, len(pairs)
    return "within bound", wins, len(pairs)


def compare(parent: dict, change: dict, bound_of: dict) -> list:
    rows = []
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        names = sorted(set.intersection(*(set(parent[key][s]["metrics"]) for s in seeds),
                                        *(set(change[key][s]["metrics"]) for s in seeds)))
        for name in names:
            pv = [parent[key][s]["metrics"][name] for s in seeds]
            cv = [change[key][s]["metrics"][name] for s in seeds]
            unit, better = stats.describe(name)
            v, wins, n = verdict(pv, cv, better, bound_of.get(name))
            rows.append({"workload": key[0], "trace": key[1], "metric": name, "unit": unit,
                         "parent": stats.quartiles(pv), "change": stats.quartiles(cv),
                         "wins": wins, "pairs": n, "verdict": v})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    rows = compare(load(args.parent), load(args.change), bounds())
    fmt = "{:.4g}/{:.4g}/{:.4g}"
    print(f"{'workload':17s} {'t':1s} {'metric':40s} {'unit':6s} "
          f"{'parent q1/med/q3':>26s} {'change q1/med/q3':>26s} {'wins':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:17s} {r['trace']:1d} {r['metric']:40s} {r['unit']:6s} "
              f"{fmt.format(*r['parent']):>26s} {fmt.format(*r['change']):>26s} "
              f"{r['wins']:>2d}/{r['pairs']:<3d}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
