"""Run the benchmark over many seeds, on one checkout or interleaved on several.

    python3 perfbench/collect.py --seeds 1-10 --out-dir perfbench/results PARENT CHANGE

Each checkout is a directory holding the same `perfbench/` and the
`src/` of the commit to measure.  For every seed and workload the
checkouts run one after another, and the order flips from one seed to
the next, so neither side always runs first.  Every run appends one
JSON line (workload, seed, trace, run details and result) to
`<out-dir>/<checkout name>.jsonl`; compare.py reads those files.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    record = {"checkout": str(checkout), "workload": workload, "seed": seed, "trace": trace}
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["error"] = f"timed out after {RUN_TIMEOUT_S} s"
        return record
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        record["error"] = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        return record
    record["info"] = json.loads(lines[-2])["info"]
    record["result"] = json.loads(lines[-1])
    return record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out-dir", type=Path, default=ROOT / "perfbench" / "results")
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    checkouts = [c.resolve() for c in args.checkouts]
    outs = {c: args.out_dir / f"{c.name}.jsonl" for c in checkouts}
    if len(set(outs.values())) != len(outs):
        parser.error("checkouts need distinct directory names")
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for workload in args.workloads.split(","):
            for checkout in order:
                rec = run_once(checkout, workload, seed, args.seconds, args.trace)
                with outs[checkout].open("a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                status = rec.get("error") or ("ok" if rec["result"]["correct"] else "INCORRECT")
                print(f"{checkout.name} {workload} seed {seed} trace {args.trace}: {status}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
