"""Compare two benchmark result files against the bounds in BENCHMARK.json.

    python3 perfbench/diff.py old.jsonl new.jsonl

Both files come from ``run.py --out``, ten or more seeds per workload and
side. Run the two commits in pairs: for each seed, one run of the parent and
one of the change, back to back, alternating which side goes first. The speed
of a shared machine drifts over minutes; a batch of parent runs followed by a
batch of change runs turns that drift into a difference between the sides,
while each side's own spread stays small. Pairing puts both sides of a seed
in the same minute, so drift reaches both medians alike.

Each end-to-end (metric, workload) pair gets its own row and one verdict:

- ``unresolved``: the run-to-run spread (quartile distance over median) of
  either side exceeds the metric's bound, unless every new run is better,
  or every new run is worse, than every old run;
- ``worse``: the new median is worse than the old one by more than the bound;
- ``improved``: the new run wins at least nine tenths of the pairs (runs
  paired by seed) and the medians differ by more than the old quartile
  distance;
- ``same``: none of these.

"worse by" is the relative change of the median, positive when worse.
Per-layer metrics from traced runs have no bound; their rows only show that
change.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """(workload, trace) -> metric -> [(seed, value)]"""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    out[(rec["workload"], rec["trace"])][name].append((rec["env"]["seed"], m["value"]))
    return out


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(old: list, new: list, better: str, bound: float) -> tuple[str, float, float]:
    """Returns (verdict, relative change with worse positive, spread)."""
    sign = 1.0 if better == "lower" else -1.0
    o, n = [v for _, v in old], [v for _, v in new]
    mo, mn = statistics.median(o), statistics.median(n)
    change = sign * (mn - mo) / abs(mo) + 0.0 if mo else (0.0 if mn == mo else sign * float("inf"))
    spread = max(iqr(o) / abs(mo) if mo else 0.0, iqr(n) / abs(mn) if mn else 0.0)
    all_better = all(sign * b < sign * a for a in o for b in n)
    all_worse = all(sign * b > sign * a for a in o for b in n)
    if spread > bound and not (all_better or all_worse):
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    pairs = list(zip(sorted(old), sorted(new)))
    wins = sum(sign * b < sign * a for (_, a), (_, b) in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mo - mn) > iqr(o):
        return "improved", change, spread
    return "same", change, spread


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    bench = json.loads(Path(args.benchmark).read_text())
    old, new = load(args.old), load(args.new)

    print(f"{'workload':14s} {'metric':46s} {'old p50':>12s} {'new p50':>12s} {'worse by':>8s} "
          f"{'spread':>7s}  verdict")
    names = [w["name"] for w in bench["workloads"]]
    for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        for wl in names:
            a, b = old.get((wl, trace)), new.get((wl, trace))
            if not a or not b:
                continue
            for spec in specs:
                name = spec["name"]
                if not a.get(name) or not b.get(name):
                    continue
                mo = statistics.median(v for _, v in a[name])
                mn = statistics.median(v for _, v in b[name])
                if trace:
                    sign = 1.0 if spec["better"] == "lower" else -1.0
                    rel = sign * (mn - mo) / abs(mo) + 0.0 if mo else 0.0
                    print(f"{wl:14s} {name:46s} {mo:12.5g} {mn:12.5g} {rel:+8.1%} {'':>7s}  "
                          f"({spec['unit']}, n={len(a[name])}/{len(b[name])})")
                    continue
                v, change, spread = verdict(a[name], b[name], spec["better"], spec["bound"])
                print(f"{wl:14s} {name:46s} {mo:12.5g} {mn:12.5g} {change:+8.1%} {spread:7.1%}  "
                      f"{v} (bound {spec['bound']:.0%}, {spec['unit']}, n={len(a[name])}/{len(b[name])})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
