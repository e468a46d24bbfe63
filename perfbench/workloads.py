"""The benchmark's three workloads and the expected answer of every op.

A workload builds its inputs from the seed in `setup`, then hands out
its work one cycle at a time.  A cycle is a fixed list of ops, so every
run measures whole cycles and the mix of ops does not depend on how
fast the machine is.  An op returns the number of candidate repair
subspaces it profiled and raises `Mismatch` when an answer differs from
the one written down here.

Run as a script, this file times one set-up in a fresh interpreter:
`python3 perfbench/workloads.py <workload> <seed> [small]` prints the
seconds spent on `import mdsrepair` plus building the inputs.
"""
from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 150


class Mismatch(Exception):
    """An op produced an answer other than the expected one."""


class Op(NamedTuple):
    label: str
    run: Callable[[], int]


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def two_parity_bound(q: int, ell: int, n: int) -> int:
    """ell*(n-1) - (q^ell - 1)/(q - 1): the counting bound at r = 2."""
    return ell * (n - 1) - (q**ell - 1) // (q - 1)


class Workload:
    """Set-up and cycles of one workload, plus what its traced run reports.

    `sampling_failures` and `codes_requested` feed
    repair.sampling_failures_frac; `child_times` holds per-child import and
    command times for the cli.* metrics.  Workloads without them keep the
    zero defaults.
    """

    name = ""

    def __init__(self, seed: int, small: bool, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.small = small
        self.workdir = workdir
        self.tracer = tracer
        self.sampling_failures = 0
        self.codes_requested = 0
        self.child_times: dict[str, list[float]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError


class ScanL3(Workload):
    """Exhaustive repair reports on the l = 3 two-parity codes over GF(3).

    Each report scans all 33,880 candidate repair subspaces of F_3^6
    against every node; the first report of a process also fills the
    package's candidate and point caches.  A cycle is one report; the
    cycles run through the three codes in an order the seed picks.
    """

    name = "scan_l3"
    # (q, ell, lengths); each code attains the bound, so the expected
    # beta_max = gamma_max = bound is 62 / 65 / 68 at full size.
    FULL = (3, 3, (26, 27, 28))
    SMALL = (3, 2, (8, 9, 10))

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.q, self.ell, lengths = self.SMALL if self.small else self.FULL
        self.order = list(lengths)
        random.Random(self.seed).shuffle(self.order)
        self.codes: dict = {}

    def setup(self) -> None:
        from mdsrepair import build_two_parity_code

        for n in self.order:
            self.codes[n] = build_two_parity_code(self.q, self.ell, n)[0]

    def cycle(self, k: int) -> list[Op]:
        n = self.order[k % len(self.order)]
        return [Op(f"report n={n}", self._report(n))]

    def _report(self, n: int) -> Callable[[], int]:
        def run() -> int:
            from mdsrepair import gaussian_binomial, repair_report

            rep = repair_report(self.codes[n])
            want = two_parity_bound(self.q, self.ell, n)
            total = gaussian_binomial(2 * self.ell, self.ell, self.q)
            got = (rep.bound, rep.beta_max, rep.gamma_max)
            expect(got == (want, want, want), f"n={n}: bound/beta/gamma {got} != {want}")
            expect(rep.exhaustive, f"n={n}: scan not exhaustive")
            expect(
                rep.candidates_scanned == rep.candidates_total == total,
                f"n={n}: scanned {rep.candidates_scanned}/{rep.candidates_total}, want {total}",
            )
            expect(rep.code_attains_bw and rep.code_attains_io, f"n={n}: bound not attained")
            expect(not rep.anomalies, f"n={n}: anomalies {rep.anomalies}")
            return rep.candidates_scanned

        return run


class SweepRandom(Workload):
    """Bound sweeps over random MDS codes, one sampled code per op.

    The (q, ell, r) mix is the one criterion 04 of the acceptance gate
    uses.  A cycle samples one code of every mix entry and admissible
    length, 21 codes in all, so its mix of small and large scans is
    fixed; each op's sampling seed comes from the workload seed.
    """

    name = "sweep_random"
    COMBOS = ((2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 3, 2))

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.rng = random.Random(self.seed)
        self.lengths: dict = {}

    def setup(self) -> None:
        from mdsrepair import field_of_order, length_bound

        for q, ell, r in self.COMBOS:
            field_of_order(q)
            self.lengths[q, ell, r] = list(range(r + 1, length_bound(q, ell, r) + 1))

    def cycle(self, k: int) -> list[Op]:
        return [
            Op(f"sweep {combo}", self._sweep(combo, n, self.rng.randrange(1 << 31)))
            for combo in self.COMBOS
            for n in self.lengths[combo]
        ]

    def _sweep(self, combo, n: int, seed: int) -> Callable[[], int]:
        q, ell, r = combo

        def run() -> int:
            from mdsrepair import gaussian_binomial, verify_bound_sweep

            res = verify_bound_sweep(q, ell, r, trials=1, seed=seed, n_values=[n])
            self.codes_requested += 1
            self.sampling_failures += res.sampling_failures
            tag = f"{combo} n={n} seed={seed}"
            expect(res.sampling_failures == 0, f"{tag}: sampling failed")
            expect(res.codes_tested == 1 and res.nodes_checked == n, f"{tag}: {res}")
            expect(res.ok and not res.violations, f"{tag}: violations {res.violations}")
            expect(res.min_slack is not None and res.min_slack >= 0, f"{tag}: slack {res.min_slack}")
            return gaussian_binomial(r * ell, (r - 1) * ell, q)

        return run


# Expected output of `check converse --q 3`: exhaustive, so exact.
CONVERSE_Q3 = [
    "n=6: bound 6, beta (6, 6), gamma (6, 6), attained True",
    "n=7: bound 8, beta (8, 8), gamma (8, 8), attained True",
    "n=8: bound 10, beta (10, 10), gamma (10, 10), attained True",
    "n=9: bound 12, beta (12, 12), gamma (12, 12), attained True",
    "n=10: bound 14, beta (14, 14), gamma (14, 14), attained True",
    "n=3 (exhaustive, 120 subsets): 0 with an attaining node, 0 fully attaining",
    "n=4 (exhaustive, 210 subsets): 0 with an attaining node, 0 fully attaining",
    "n=5 (exhaustive, 252 subsets): 180 with an attaining node, 0 fully attaining",
    "converse ok: attainment needs n >= 6",
]
TRIAL_LINE = re.compile(
    r"trial (\d+) \(seed (\d+)\): downloaded (\d+), accessed (\d+), match (True|False)"
)


class CliSession(Workload):
    """Cold `python -m mdsrepair.cli` invocations, one child at a time.

    A cycle is nine command lines; a pipe `a | b` runs a, then feeds its
    output to b, so only one child is ever running.  Every exit code and
    verdict line is checked, and `Traceback` on stderr fails the op.  In
    a traced run each child runs `cli_child.py`, which wraps the same
    functions in the child and hands its counts back through a file.
    """

    name = "cli_session"
    CODES = {"q3n8": (3, 8), "q4n17": (4, 17)}

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._trace_out = self.workdir / "child_trace.json"

    def setup(self) -> None:
        from mdsrepair import build_two_parity_code, serialize

        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, (q, n) in self.CODES.items():
            code = build_two_parity_code(q, 2, n)[0]
            (self.workdir / f"{name}.json").write_text(serialize(code) + "\n")

    def _cli(self, argv: list[str], stdin: str | None = None) -> str:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONPATH"] = str(SRC)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "mdsrepair.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
            env["PERFBENCH_TRACE_OUT"] = str(self._trace_out)
        proc = subprocess.run(
            cmd,
            input=stdin,
            capture_output=True,
            text=True,
            cwd=self.workdir,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
        if self.tracer is not None and self._trace_out.exists():
            self._absorb(json.loads(self._trace_out.read_text()))
            self._trace_out.unlink()
        expect("Traceback" not in proc.stderr, f"{argv}: traceback\n{proc.stderr}")
        expect(proc.returncode == 0, f"{argv}: exit {proc.returncode}\n{proc.stderr}")
        return proc.stdout

    def _absorb(self, child: dict) -> None:
        self.tracer.absorb(child["trace"])
        self.child_times.setdefault("import", []).append(child["import_s"])
        self.child_times.setdefault(child["command"], []).append(child["command_s"])

    def cycle(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.seed}/{k}")
        ops = [
            Op("construct desarguesian q4 n17 | repair analyze structured", self._analyze_q4n17),
            Op("construct exceptional q4n9 | repair analyze", self._analyze_q4n9),
        ]
        for name, (q, n) in self.CODES.items():
            ops.append(Op(f"verify mds {name}", self._verify(name, n)))
        for name, (q, n) in self.CODES.items():
            node, seed = rng.randrange(n), rng.randrange(1 << 20)
            ops.append(Op(f"simulate repair {name}", self._simulate(name, q, n, node, seed)))
        ops.append(Op("check converse q3", self._converse_q3))
        ops.append(Op("check converse q4", self._converse_q4(rng.randrange(1 << 20))))
        ops.append(Op("geometry regular q3", self._regular_q3))
        return ops

    def _analyze_q4n17(self) -> int:
        code = self._cli(["construct", "desarguesian", "--q", "4", "--n", "17"])
        doc = json.loads(self._cli(["repair", "analyze", "--format", "structured"], code))
        got = {k: doc[k] for k in ("n", "k", "ell", "q", "bound", "beta_max", "gamma_max")}
        want = {"n": 17, "k": 15, "ell": 2, "q": 4, "bound": 27, "beta_max": 27, "gamma_max": 27}
        expect(got == want, f"q4n17 report {got} != {want}")
        expect(doc["beta_avg"] == doc["gamma_avg"] == "27", "q4n17 averages differ from 27")
        expect(doc["exhaustive"] and doc["candidates_scanned"] == doc["candidates_total"] == 357,
               "q4n17 scan not exhaustive over 357 candidates")
        expect(doc["code_attains_bw"] is True and doc["code_attains_io"] is True, "q4n17 not attaining")
        expect(doc["anomalies"] == [] and len(doc["nodes"]) == 17, "q4n17 anomalies or node count")
        return doc["candidates_scanned"]

    def _analyze_q4n9(self) -> int:
        code = self._cli(["construct", "exceptional", "--case", "q4n9"])
        lines = self._cli(["repair", "analyze"], code).splitlines()
        expect(lines[0] == "(9, 7, 2) over GF(4): bound 11, scanned 357/357 candidates (exhaustive)",
               f"q4n9 header {lines[0]!r}")
        rows = [f"{i:>4}     5      5    11    11      True     True" for i in range(9)]
        expect(lines[2:11] == rows, "q4n9 node rows differ")
        expect(lines[11:] == [
            "beta_avg 11  beta_max 11  gamma_avg 11  gamma_max 11",
            "code attains bandwidth bound: True, I/O bound: True",
        ], f"q4n9 summary {lines[11:]}")
        return 357

    def _verify(self, name: str, n: int) -> Callable[[], int]:
        def run() -> int:
            out = self._cli(["verify", "mds", "--code", f"{name}.json"])
            want = f"mds ok: all {n} choose 2 block subsets invertible\n"
            expect(out == want, f"verify {name}: {out!r}")
            return 0

        return run

    def _simulate(self, name: str, q: int, n: int, node: int, seed: int) -> Callable[[], int]:
        def run() -> int:
            argv = ["simulate", "repair", "--code", f"{name}.json", "--node", str(node),
                    "--trials", "100", "--seed", str(seed)]
            lines = self._cli(argv).splitlines()
            tag = f"{name} node {node} seed {seed}"
            expect(len(lines) == 101, f"{tag}: {len(lines)} output lines")
            bound = two_parity_bound(q, 2, n)
            accessed = set()
            for t, line in enumerate(lines[:100]):
                m = TRIAL_LINE.fullmatch(line)
                expect(m is not None, f"{tag}: bad trial line {line!r}")
                expect((int(m[1]), int(m[2])) == (t, seed + t), f"{tag}: trial numbering {line!r}")
                # every node's optimal bandwidth is the bound; the access
                # cost is that of the same bandwidth-optimal witness
                expect(int(m[3]) == bound and m[5] == "True", f"{tag}: {line!r}")
                accessed.add(int(m[4]))
            expect(len(accessed) == 1, f"{tag}: access cost varies {accessed}")
            expect(bound <= accessed.pop() <= 2 * (n - 1), f"{tag}: access out of range")
            expect(lines[100] == f"100/100 trials recovered node {node} exactly ok",
                   f"{tag}: {lines[100]!r}")
            return 0

        return run

    def _converse_q3(self) -> int:
        lines = self._cli(["check", "converse", "--q", "3"]).splitlines()
        expect(lines == CONVERSE_Q3, f"converse q3 output {lines}")
        return 0

    def _converse_q4(self, seed: int) -> Callable[[], int]:
        def run() -> int:
            lines = self._cli(["check", "converse", "--q", "4", "--seed", str(seed)]).splitlines()
            forward = [f"n={n}: bound {2 * n - 7}, beta ({2 * n - 7}, {2 * n - 7}), "
                       f"gamma ({2 * n - 7}, {2 * n - 7}), attained True" for n in range(9, 18)]
            expect(lines[:9] == forward, "converse q4 forward lines differ")
            pattern = re.compile(r"n=(\d) \(sampled, 150 subsets\): \d+ with an attaining node, 0 fully attaining")
            got_n = [int(m[1]) for m in map(pattern.fullmatch, lines[9:15]) if m]
            expect(got_n == list(range(3, 9)), f"converse q4 search lines {lines[9:15]}")
            expect(lines[15:] == ["converse ok: attainment needs n >= 9"], f"converse q4 verdict {lines[15:]}")
            return 0

        return run

    def _regular_q3(self) -> int:
        out = self._cli(["geometry", "regular", "--q", "3"])
        expect(out == "regular spread check (exhaustive, 120 triples): ok\n", f"regular q3 {out!r}")
        return 0


WORKLOADS = {w.name: w for w in (ScanL3, SweepRandom, CliSession)}


def main(argv: list[str]) -> None:
    name, seed = argv[0], int(argv[1])
    small = argv[2:] == ["small"]
    workdir = ROOT / ".perfbench-work" / f"probe-{os.getpid()}"
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        WORKLOADS[name](seed, small, workdir).setup()
        print(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
