"""Compare benchmark records of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that run.py --out appended, one JSON object per
line, from any mix of workloads, seeds and trace modes. For every workload
and end-to-end metric, one row gives both medians and quartiles, how many
seed-matched pairs the change won, and a verdict. Every run counts in the
medians; a seed run more than once on both sides pairs its k-th runs.
The verdicts:

  better        the change wins at least 9 of 10 pairs and the medians
                differ by more than the parent's quartile distance, or
                every change run beats every parent run;
  unresolved    otherwise, when either side's quartile distance exceeds
                the bound;
  worse         the change's median is worse by more than the bound;
  within bound  otherwise.

The traced records' per-layer medians follow each workload, with the
change's delta, so a gain can be traced to the layer that made it.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def load(path: str) -> dict:
    """(workload, trace) -> {seed: [{metric: value}, ...] in run order}.

    A seed run more than once keeps every record."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs[(r["workload"], r["trace"])][r["seed"]].append(
                {k: m["value"] for k, m in r["metrics"].items()})
    return runs


def values(runs: dict, name: str) -> dict:
    """{seed: [value, ...]} of one metric, in run order."""
    return {seed: [r[name] for r in records if name in r]
            for seed, records in runs.items()}


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, lower_is_better: bool, bound: float):
    """The row for one metric: medians, quartiles, pair wins and verdict.

    parent and change map a seed to its values in run order; the k-th run
    of a seed on one side pairs with the k-th run of it on the other."""
    sign = 1 if lower_is_better else -1     # sign * value: lower is better
    pv = [v for vs in parent.values() for v in vs]
    cv = [v for vs in change.values() for v in vs]
    pq, cq = quartiles(pv), quartiles(cv)
    pairs = [(p, c) for seed in sorted(parent.keys() & change.keys())
             for p, c in zip(parent[seed], change[seed])]
    wins = sum(sign * c < sign * p for p, c in pairs)
    worse_by = sign * (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (pq, cq))
    all_better = max(sign * v for v in cv) < min(sign * v for v in pv)
    if all_better or (pairs and wins >= 0.9 * len(pairs)
                      and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
        label = "better"
    elif spread > bound:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "within bound"
    return pq, cq, f"{wins}/{len(pairs)}", worse_by, label


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = load(args[0]), load(args[1])
    fmt = "{:<18} {:<16} {:>28} {:>28} {:>6} {:>8}  {}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "wins", "worse by", "verdict"))
    status = 0
    for w in [w["name"] for w in SPEC["workloads"]]:
        for m in SPEC["end_to_end"]:
            p = values(parent.get((w, 0), {}), m["name"])
            c = values(change.get((w, 0), {}), m["name"])
            if not any(p.values()) or not any(c.values()):
                continue
            pq, cq, wins, worse_by, label = verdict(
                p, c, m["better"] == "lower", m["bound"])
            status |= label == "worse"
            print(fmt.format(w, m["name"],
                             f"{pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]",
                             f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]",
                             wins, f"{worse_by:+.1%}", label))
        p_layers, c_layers = parent.get((w, 1), {}), change.get((w, 1), {})
        if p_layers and c_layers:
            print(f"{w:<18} per layer, traced medians: parent -> change")
        for m in SPEC["per_layer"] if p_layers and c_layers else ():
            pv = statistics.median(v for vs in values(p_layers, m["name"]).values()
                                   for v in vs)
            cv = statistics.median(v for vs in values(c_layers, m["name"]).values()
                                   for v in vs)
            delta = f"{(cv - pv) / pv:+.1%}" if pv else "n/a"
            print(f"{'':<18}   {m['name']:<30} {pv:>14.6g} -> {cv:<14.6g} {delta}")
    return status


if __name__ == "__main__":
    sys.exit(main())
