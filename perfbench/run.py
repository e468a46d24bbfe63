"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan_l3 --seed 1 --seconds 30 --trace 0

The program is the package under `src/` of the checkout holding this
directory; nothing needs building, as the pure Python kernel runs when the
compiled one is absent.  The run sets up the workload's inputs from the
seed, runs one cycle of ops, which fills the package's caches, then runs
whole cycles until `--seconds` more have passed; every cycle counts.  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it wraps the package's public
functions and reports the per-layer metrics.  The last line of stdout
is the result JSON; the line before it stamps the environment.  See
README.md in this directory for the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 7
TAIL_PERCENTILE = 90
CLI_COMMANDS = ("construct", "repair", "verify", "simulate", "check", "geometry")


def load_package():
    """Import mdsrepair from this checkout's src/, never from elsewhere."""
    if not (SRC / "mdsrepair" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'mdsrepair'}")
    sys.path.insert(0, str(SRC))
    import mdsrepair

    if Path(mdsrepair.__file__).resolve().parent != SRC / "mdsrepair":
        raise SystemExit(f"perfbench: imported mdsrepair from {mdsrepair.__file__}")
    return mdsrepair


def loadavg_1min() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def reference_loop_s() -> float:
    """Median time of a fixed pure Python loop: how fast this machine runs right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(1_000_000):
            x += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """Hash of the package sources, which identifies the program outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mdsrepair").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def time_setup(name: str, seed: int, small: bool) -> list[float]:
    """Set-up times of SETUP_PROBES fresh interpreters, one after another."""
    args = [sys.executable, str(HERE / "workloads.py"), name, str(seed)] + (["small"] if small else [])
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(args, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        times.append(float(out.stdout.split()[-1]))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Set up and run one workload; returns the result object and run details."""
    import workloads
    from tracer import Tracer

    tracer = Tracer() if trace else None
    workdir = WORK / f"run-{os.getpid()}"
    wl = workloads.WORKLOADS[name](seed, small, workdir, tracer)
    op_seconds: list[float] = []
    cycle_seconds: list[float] = []
    by_label: dict[str, list[float]] = {}
    candidates = 0
    scan_seconds = 0.0  # time of the ops that profiled candidates
    failed = 0
    try:
        setup_times = [] if trace else time_setup(name, seed, small)
        if tracer is not None:
            tracer.install()
        try:
            wl.setup()
            # the first cycle fills the caches; --seconds more follow it
            start = None
            while True:
                cycle_start = time.perf_counter()
                for op in wl.cycle(len(cycle_seconds)):
                    t0 = time.perf_counter()
                    try:
                        profiled = op.run()
                    except Exception:
                        failed += 1
                        profiled = 0
                        print(f"perfbench: op {op.label!r} failed", file=sys.stderr)
                        traceback.print_exc()
                    dt = time.perf_counter() - t0
                    op_seconds.append(dt)
                    by_label.setdefault(op.label, []).append(dt)
                    if profiled:
                        candidates += profiled
                        scan_seconds += dt
                cycle_seconds.append(time.perf_counter() - cycle_start)
                if start is None:
                    start = time.perf_counter()
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            if tracer is not None:
                tracer.remove()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    attempted = len(op_seconds)
    ops_per_s = (attempted / sum(cycle_seconds), "1/s")
    op_s_p50 = (statistics.median(op_seconds), "s")
    if trace:
        failed += tracer.counters.get("sim_cost_mismatches", 0)
        metrics = layer_metrics(tracer, wl, len(cycle_seconds))
        metrics["trace.op_s_p50"] = op_s_p50
        metrics["trace.ops_per_s"] = ops_per_s
    else:
        who = resource.RUSAGE_CHILDREN if name == "cli_session" else resource.RUSAGE_SELF
        metrics = {
            "ops_per_s": ops_per_s,
            "op_s_p50": op_s_p50,
            f"op_s_p{TAIL_PERCENTILE}": (percentile(op_seconds, TAIL_PERCENTILE), "s"),
            "candidates_per_s": (candidates / scan_seconds if scan_seconds else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "cycles": len(cycle_seconds),
        "ops": attempted,
        "tail_samples_beyond": attempted - math.ceil(TAIL_PERCENTILE / 100 * attempted),
        "cycle_s": cycle_seconds,
        "setup_samples_s": setup_times,
        "op_s_median_by_label": {k: statistics.median(v) for k, v in by_label.items()},
    }
    return {"result": result, "details": details}


def layer_metrics(tracer, wl, cycles: int) -> dict:
    """Per-layer metrics: totals of the traced run divided by its cycles."""
    stats, counters = tracer.stats, tracer.counters

    def calls(fn):
        return (stats.get(fn, [0])[0] / cycles, "count")

    def busy(fn):
        return (stats.get(fn, [0, 0.0])[1] / cycles, "s")

    def self_s(fn):
        st = stats.get(fn, [0, 0.0, 0.0])
        return ((st[1] - st[2]) / cycles, "s")

    enum = stats.get("linalg.enumerate_subspaces", [0, 0.0, 0.0, 0])
    scanned = counters.get("candidates_scanned", 0)
    total = counters.get("candidates_total", 0)
    def child_median(key):
        times = wl.child_times.get(key)
        return (statistics.median(times) if times else 0.0, "s")

    m = {
        "kernel.rre_rank.calls": calls("kernel.rre_rank"),
        "kernel.rre_rank.busy_s": busy("kernel.rre_rank"),
        "linalg.projective_points.calls": calls("linalg.projective_points"),
        "linalg.projective_points.busy_s": busy("linalg.projective_points"),
        "linalg.enumerate_subspaces.per_s": (enum[3] / enum[1] if enum[1] else 0.0, "1/s"),
        "linalg.all_subspaces.busy_s": busy("linalg.all_subspaces"),
        "repair.repair_report.busy_s": busy("repair.repair_report"),
        "repair.repair_report.self_s": self_s("repair.repair_report"),
        "repair.make_witness.calls": calls("repair.make_witness"),
        "repair.make_witness.busy_s": busy("repair.make_witness"),
        "repair.random_mds_code.busy_s": busy("repair.random_mds_code"),
        "repair.sampling_failures_frac": (
            wl.sampling_failures / wl.codes_requested if wl.codes_requested else 0.0, "ratio"),
        "repair.candidates_scanned": (scanned / cycles, "count"),
        "repair.scan_complete_frac": (scanned / total if total else 0.0, "ratio"),
        "code.is_mds.calls": calls("code.is_mds"),
        "code.is_mds.busy_s": busy("code.is_mds"),
        "code.serialize.busy_s": busy("code.serialize"),
        "code.deserialize.busy_s": busy("code.deserialize"),
        "gf.field_tables_s": (
            busy("gf.make_field")[0] + self_s("gf.make_extension")[0], "s"),
        "constructions.build_two_parity_code.busy_s": busy("constructions.build_two_parity_code"),
        "constructions.regular_spread_converse_check.busy_s": busy(
            "constructions.regular_spread_converse_check"),
        "geometry.desarguesian_spread.busy_s": busy("geometry.desarguesian_spread"),
        "sim.sample_codeword.calls": calls("sim.sample_codeword"),
        "sim.sample_codeword.busy_s": busy("sim.sample_codeword"),
        "sim.erase_and_repair.calls": calls("sim.erase_and_repair"),
        "sim.erase_and_repair.busy_s": busy("sim.erase_and_repair"),
        "sim.downloaded_symbols": (counters.get("downloaded_symbols", 0) / cycles, "symbols"),
        "sim.accessed_symbols": (counters.get("accessed_symbols", 0) / cycles, "symbols"),
        "cli.import_s": child_median("import"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = child_median(cmd)
    return m


def environment(mdsrepair) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "backend": mdsrepair.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    mdsrepair = load_package()
    env = environment(mdsrepair)
    env["loadavg_1min_start"] = loadavg_1min()
    env["reference_loop_s_start"] = reference_loop_s()
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env["reference_loop_s_end"] = reference_loop_s()
    env["loadavg_1min_end"] = loadavg_1min()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    info.update(out["details"])
    print(json.dumps({"info": info}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
