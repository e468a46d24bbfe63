"""Summarise one result set, or compare the result sets of two commits.

    python3 perfbench/compare.py perfbench/results/repo.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

With one file it prints, per workload and end-to-end metric, the median,
the quartiles and the spread (quartile distance over the median) against
the metric's bound, plus the tracing overhead when the file also holds
traced runs.  With two files it prints each side's median and quartiles,
the share of same-seed pairs the second side wins, and a verdict:

- `regression`: the second median is worse by more than the bound;
- `gain`: it wins at least 9 in 10 pairs and its median is better by
  more than the first side's spread;
- `unresolved`: the first side's spread exceeds the bound, and not every
  second-side run beats every first-side run;
- `within bound`: none of these.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """(workload, trace) -> {seed: metrics}, skipping runs that failed to finish."""
    runs: dict = defaultdict(dict)
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if "result" not in rec:
            print(f"{path.name}: {rec['workload']} seed {rec['seed']}: {rec['error']}")
            continue
        if not rec["result"]["correct"]:
            print(f"{path.name}: {rec['workload']} seed {rec['seed']}: "
                  f"{rec['result']['failed']} of {rec['result']['attempted']} ops failed")
        metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        runs[rec["workload"], rec["trace"]][rec["seed"]] = metrics
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative when better)."""
    if not a:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def fmt(v: float) -> str:
    return f"{v:.4g}"


def summarise(path: Path, spec: dict) -> None:
    runs = load(path)
    print(f"{'workload':<13} {'metric':<17} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for (workload, trace), by_seed in sorted(runs.items()):
        if trace:
            continue
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in by_seed.values()]
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            verdict = "steady" if s <= m["bound"] / 3 else "within bound" if s <= m["bound"] else "TOO WIDE"
            if m["name"] == "setup_s":
                verdict = "(spread not bounded)"
            print(f"{workload:<13} {m['name']:<17} {len(vals):>3} {fmt(med):>10} {fmt(q1):>10} "
                  f"{fmt(q3):>10} {s:>7.3f} {m['bound']:>6}  {verdict}")
    for (workload, trace), by_seed in sorted(runs.items()):
        if not trace or (workload, 0) not in runs:
            continue
        plain = statistics.median(r["op_s_p50"] for r in runs[workload, 0].values())
        traced = statistics.median(r["trace.op_s_p50"] for r in by_seed.values())
        print(f"tracing overhead on {workload}: median op {fmt(plain)} s untraced, "
              f"{fmt(traced)} s traced ({(traced - plain) / plain:+.1%})")


def compare(path_a: Path, path_b: Path, spec: dict) -> None:
    runs_a, runs_b = load(path_a), load(path_b)
    print(f"{'workload':<13} {'metric':<17} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'B better':>8} {'B wins':>7}  verdict")
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, trace = key
        if trace:
            continue
        a_runs, b_runs = runs_a[key], runs_b[key]
        for m in spec["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            a = [r[name] for r in a_runs.values()]
            b = [r[name] for r in b_runs.values()]
            qa, qb = quartiles(a), quartiles(b)
            change = worse_by(qa[1], qb[1], better)
            seeds = sorted(set(a_runs) & set(b_runs))
            wins = sum(worse_by(a_runs[s][name], b_runs[s][name], better) < 0 for s in seeds)
            won = wins / len(seeds) if seeds else 0.0
            all_better = all(worse_by(x, y, better) < 0 for x in a for y in b)
            if spread(a) > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "REGRESSION"
            elif won >= 0.9 and -change > spread(a):
                verdict = "gain"
            else:
                verdict = "within bound"
            side_a = f"{fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}]"
            side_b = f"{fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}]"
            print(f"{workload:<13} {name:<17} {side_a:>30} {side_b:>30} {-change:>+8.1%} "
                  f"{wins:>3}/{len(seeds):<3}  {verdict}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        summarise(Path(argv[0]), spec)
    else:
        compare(Path(argv[0]), Path(argv[1]), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
