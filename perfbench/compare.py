"""Spread of one set of runs, or the comparison of two.

    python3 perfbench/compare.py spread RUNS.jsonl
    python3 perfbench/compare.py pair BASE.jsonl CHANGE.jsonl

RUNS.jsonl is what run.py appends to .bench_build/perfbench/runs.jsonl,
one line per run.  Bounds and directions come from BENCHMARK.json.
``spread`` prints, per workload and end-to-end metric, the median, the
quartiles and their distance as a share of the median.  ``pair`` applies
the rule of the benchmark doc: a regression is a median worse than the
base median by more than the bound; a gain needs the change to win at
least 9 of 10 same-seed pairs and a median gap wider than the base spread.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{(workload, metric): {seed: value}} of the untraced runs in a file."""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            run = json.loads(line)
            if run["trace"]:
                continue
            for name, m in run["metrics"].items():
                out.setdefault((run["workload"], name), {})[run["seed"]] = m["value"]
    return out


def spec() -> dict:
    with open(BENCHMARK) as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def spread_report(path) -> int:
    metrics = spec()
    bad = 0
    for (wl, name), by_seed in sorted(load(path).items()):
        vals = list(by_seed.values())
        if len(vals) < 2:
            continue
        q1, q2, q3 = stats.quartiles(vals)
        sp = stats.spread(vals)
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and sp > bound:
            flag, bad = "  OVER BOUND", bad + 1
        elif bound is not None and sp > bound / 3:
            flag = "  over bound/3"
        print(f"{wl:<16} {name:<12} n={len(vals):<3} median {q2:<12.6g} "
              f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {sp:.4f} (bound {bound}){flag}")
    return 1 if bad else 0


def pair_report(base_path, change_path) -> int:
    metrics = spec()
    base, change = load(base_path), load(change_path)
    worse = 0
    for key in sorted(base):
        if key not in change:
            continue
        wl, name = key
        m = metrics.get(name)
        if m is None:
            continue
        b, c = base[key], change[key]
        mb, mc = stats.median(list(b.values())), stats.median(list(c.values()))
        sign = 1.0 if m["better"] == "lower" else -1.0
        rel = sign * (mc - mb) / abs(mb)          # > 0: the change is worse
        seeds = sorted(set(b) & set(c))
        wins = sum(1 for s in seeds if sign * (c[s] - b[s]) < 0)
        base_spread = stats.spread(list(b.values())) if len(b) > 1 else float("inf")
        if rel > m["bound"]:
            verdict, worse = "REGRESSION", worse + 1
        elif len(seeds) >= 10 and wins >= 0.9 * len(seeds) and -rel > base_spread:
            verdict = "gain"
        elif base_spread > m["bound"]:
            verdict = "unresolved (spread above bound)"
        else:
            verdict = "no change beyond bound"
        print(f"{wl:<16} {name:<12} base {mb:<12.6g} change {mc:<12.6g} "
              f"worse by {rel:+.4f} (bound {m['bound']}) wins {wins}/{len(seeds)}  {verdict}")
    return 1 if worse else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "spread":
        return spread_report(argv[1])
    if len(argv) == 3 and argv[0] == "pair":
        return pair_report(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
