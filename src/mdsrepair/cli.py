"""Command line surface for constructing, checking and simulating codes.

Exit codes separate operational trouble from mathematical trouble: 0
means the requested check or report succeeded, 2 means a verification
ran and failed (a real counterexample, a corrupted input code, or one of
the package's internal cross-checks), and 1 means the invocation itself
was unusable (bad flags or counts below 1, unreadable files, a q that
is not a prime power, a budget or cap too small for the search).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .code import MDS_CAP, ArrayCode, deserialize, is_mds, length_bound, serialize
from .constructions import (
    build_exceptional,
    build_two_parity_code,
    check_block_intersection_bound,
    regular_spread_converse_check,
)
from .geometry import (
    INF,
    desarguesian_spread,
    is_regular_spread,
    is_spread,
    regulus_through,
    require_line_budget,
)
from .gf import extension_order, prime_power
from .linalg import DEFAULT_ENUM_BUDGET, BudgetExceededError
from .repair import (
    RepairReport,
    SamplingExhaustedError,
    counting_bound,
    optimal_alpha,
    repair_report,
    verify_bound_sweep,
)
from .sim import erase_and_repair, sample_codeword

FORMATS = ("table", "csv", "structured")
# spread-check ranks every pair of members at a cost near ell^2 each: pairs
# times ell^2 runs 1-1.5 s per million, PG(5, 8) 1.18 M and PG(17, 2) 10.6 M
PAIR_WORK_BUDGET = 4_000_000


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 instead of argparse's 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    """argparse type of budgets and counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict(ok: bool) -> str:
    word = "ok" if ok else "FAIL"
    if _use_color():
        return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    return word


def _load_code(path: str | None) -> ArrayCode:
    try:
        text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read code file: {exc}") from exc
    try:
        return deserialize(text)
    except ValueError as exc:
        raise ValueError(f"not a readable code file: {exc}") from exc


def _emit_code(code: ArrayCode, out: str | None) -> None:
    text = serialize(code)
    if out in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        Path(out).write_text(text + "\n")
        print(f"wrote ({code.n}, {code.k}, {code.ell}) code over GF({code.field.q}) to {out}")


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _report_rows(report: RepairReport) -> list[dict]:
    rows = []
    for nd in report.nodes:
        rows.append(
            {
                "node": nd.node,
                "alpha": nd.alpha,
                "lambda": nd.lam,
                "beta": nd.beta,
                "gamma": nd.gamma,
                "bw_at_bound": nd.attains_bw_bound,
                "io_at_bound": nd.attains_io_bound,
            }
        )
    return rows


def _print_report(report: RepairReport, fmt: str) -> None:
    rows = _report_rows(report)
    if fmt == "csv":
        w = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
        return
    if fmt == "structured":
        payload = {
            "n": report.n,
            "k": report.k,
            "ell": report.ell,
            "q": report.q,
            "bound": report.bound,
            "exhaustive": report.exhaustive,
            "candidates_scanned": report.candidates_scanned,
            "candidates_total": report.candidates_total,
            "nodes": rows,
            "beta_avg": _frac(report.beta_avg),
            "beta_max": report.beta_max,
            "gamma_avg": _frac(report.gamma_avg),
            "gamma_max": report.gamma_max,
            "code_attains_bw": report.code_attains_bw,
            "code_attains_io": report.code_attains_io,
            "anomalies": list(report.anomalies),
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    scan = "exhaustive" if report.exhaustive else "partial"
    print(
        f"({report.n}, {report.k}, {report.ell}) over GF({report.q}): "
        f"bound {report.bound}, scanned {report.candidates_scanned}/"
        f"{report.candidates_total} candidates ({scan})"
    )
    head = f"{'node':>4} {'alpha':>5} {'lambda':>6} {'beta':>5} {'gamma':>5}  bw@bound io@bound"
    print(head)
    for r in rows:
        print(
            f"{r['node']:>4} {r['alpha']:>5} {r['lambda']:>6} {r['beta']:>5} "
            f"{r['gamma']:>5}  {str(r['bw_at_bound']):>8} {str(r['io_at_bound']):>8}"
        )
    print(
        f"beta_avg {_frac(report.beta_avg)}  beta_max {report.beta_max}  "
        f"gamma_avg {_frac(report.gamma_avg)}  gamma_max {report.gamma_max}"
    )
    if report.exhaustive:
        print(
            f"code attains bandwidth bound: {report.code_attains_bw}, "
            f"I/O bound: {report.code_attains_io}"
        )
    else:
        print("attainment flags unknown: search was not exhaustive")


def _parse_label(token: str):
    if token.lower() in ("inf", "infinity", "oo"):
        return INF
    return int(token)


def _read_family(path: str) -> list[frozenset]:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read family file: {exc}") from exc
    blocks = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            blocks.append(frozenset(_parse_label(t) for t in line.split()))
        except ValueError as exc:
            raise ValueError(f"bad block line: {line!r}") from exc
    if not blocks:
        raise ValueError("family file holds no blocks")
    return blocks


def _build_parser() -> _Parser:
    p = _Parser(prog="mdsrepair", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="print the counting bound")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--ell", type=int, required=True)
    b.add_argument("--q", type=int, required=True)

    c = sub.add_parser("construct", help="build a bound attaining code")
    csub = c.add_subparsers(dest="action", required=True)
    cd = csub.add_parser("desarguesian", help="two parity code on the field spread")
    cd.add_argument("--q", type=int, required=True)
    cd.add_argument("--ell", type=int, default=2)
    cd.add_argument("--n", type=int, required=True)
    cd.add_argument("--out", default=None)
    ce = csub.add_parser("exceptional", help="one of the three short codes")
    ce.add_argument("--case", choices=("q3n6", "q3n7", "q4n9"), required=True)
    ce.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="verify a stored code")
    vsub = v.add_subparsers(dest="action", required=True)
    vm = vsub.add_parser("mds", help="check every r-subset of blocks is invertible")
    vm.add_argument("--code", default=None, help="code file, default stdin")

    r = sub.add_parser("repair", help="repair analysis")
    rsub = r.add_subparsers(dest="action", required=True)
    ra = rsub.add_parser("analyze", help="per node optimal bandwidth and I/O")
    ra.add_argument("--code", default=None, help="code file, default stdin")
    ra.add_argument("--budget", type=positive_int, default=DEFAULT_ENUM_BUDGET)
    ra.add_argument("--format", choices=FORMATS, default="table")

    g = sub.add_parser("geometry", help="spread and regulus checks")
    gsub = g.add_subparsers(dest="action", required=True)
    gs = gsub.add_parser("spread-check", help="verify the field spread partitions the space")
    gs.add_argument("--q", type=int, required=True)
    gs.add_argument("--ell", type=int, default=2)
    gr = gsub.add_parser("regulus", help="regulus through three members of the field spread")
    gr.add_argument("--q", type=int, required=True)
    gr.add_argument("--members", type=int, nargs=3, required=True, metavar="IDX")
    gg = gsub.add_parser("regular", help="check the field spread is closed under reguli")
    gg.add_argument("--q", type=int, required=True)

    k = sub.add_parser("check", help="verify a paper level statement")
    ksub = k.add_subparsers(dest="action", required=True)
    kc = ksub.add_parser("lemma-c1", help="block family ground set bound")
    kc.add_argument("--family", required=True, help="one block per line, space separated")
    ks = ksub.add_parser("strictness", help="r >= 3 codes sit strictly above the bound")
    ks.add_argument("--q", type=int, default=2)
    ks.add_argument("--ell", type=int, default=2)
    ks.add_argument("--r", type=int, default=3)
    ks.add_argument("--trials", type=positive_int, default=50)
    ks.add_argument("--seed", type=int, default=0)
    kv = ksub.add_parser("converse", help="spread coded attainment needs n above the threshold")
    kv.add_argument("--q", type=int, required=True, choices=(3, 4))
    kv.add_argument("--samples", type=positive_int, default=150)
    kv.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("simulate", help="run repair trials on sampled codewords")
    ssub = s.add_subparsers(dest="action", required=True)
    sr = ssub.add_parser("repair", help="erase one node and rebuild it")
    sr.add_argument("--code", default=None, help="code file, default stdin")
    sr.add_argument("--node", type=int, required=True)
    sr.add_argument("--seed", type=int, default=0)
    sr.add_argument("--trials", type=positive_int, default=1)
    sr.add_argument("--budget", type=positive_int, default=DEFAULT_ENUM_BUDGET)
    return p


def _cmd_bound(a: argparse.Namespace) -> int:
    prime_power(a.q)  # raises ValueError unless q is a prime power within the field cap
    # |bound| <= max(ell*(n-1), q^((r-1)*ell)): both are sized before the power is taken
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if (a.r - 1) * a.ell >= limit / math.log10(a.q) or abs(a.ell * a.n) >= 10**limit:
        raise ValueError(f"the bound would pass the {limit} digit limit on printed integers")
    print(counting_bound(a.n, a.r, a.ell, a.q))
    return 0


def _cmd_construct(a: argparse.Namespace) -> int:
    if a.action == "desarguesian":
        code, _ = build_two_parity_code(a.q, a.ell, a.n)
    else:
        code, _ = build_exceptional(a.case)
    _emit_code(code, a.out)
    return 0


def _cmd_verify(a: argparse.Namespace) -> int:
    code = _load_code(a.code)
    check = is_mds(code)
    if check.ok is None:
        raise ValueError(
            f"{code.n} choose {code.r} = {math.comb(code.n, code.r)} block subsets "
            f"exceed the MDS check's cap of {MDS_CAP}"
        )
    if check.ok:
        print(f"mds {_verdict(True)}: all {code.n} choose {code.r} block subsets invertible")
        return 0
    print(f"mds {_verdict(False)}: blocks {check.failing_subset} are not independent")
    return 2


def _cmd_repair(a: argparse.Namespace) -> int:
    code = _load_code(a.code)
    report = repair_report(code, budget=a.budget)
    _print_report(report, a.format)
    return 0


def _cmd_geometry(a: argparse.Namespace) -> int:
    if a.action == "spread-check":
        pairs = math.comb(extension_order(a.q, a.ell) + 1, 2)
        if pairs * a.ell**2 > PAIR_WORK_BUDGET:
            raise BudgetExceededError(
                f"{pairs} member pairs x ell^2 exceed the budget of {PAIR_WORK_BUDGET}"
            )
        spread = desarguesian_spread(a.q, a.ell)
        check = is_spread(spread.field, spread.ell, spread.members)
        print(
            f"field spread of PG({2 * a.ell - 1}, {a.q}): {len(spread)} members, "
            f"{_verdict(bool(check))}" + ("" if check.ok else f" ({check.reason})")
        )
        return 0 if check.ok else 2
    if a.action == "regulus":
        spread = desarguesian_spread(a.q, 2)
        idx = a.members
        if len(set(idx)) != 3 or not all(0 <= i < len(spread) for i in idx):
            raise ValueError("need three distinct member indices in range")
        reg = regulus_through(*(spread.members[i] for i in idx))
        inside = sum(1 for line in reg.lines if line in spread.members)
        print(
            f"regulus through members {idx}: {len(reg.lines)} lines, "
            f"{len(reg.transversals)} transversals, {inside} lines inside the spread"
        )
        return 0
    extension_order(a.q, 2)  # refuses a q as desarguesian_spread(q, 2) would, building nothing
    require_line_budget(a.q)
    check = is_regular_spread(desarguesian_spread(a.q, 2))
    print(
        f"regular spread check (exhaustive, {check.triples_checked} triples): "
        f"{_verdict(bool(check))}"
    )
    return 0 if check.ok else 2


def _cmd_check(a: argparse.Namespace) -> int:
    if a.action == "lemma-c1":
        family = _read_family(a.family)
        holds, cert = check_block_intersection_bound(family)
        if not holds:
            print(f"hypotheses violated: {cert.violation} {_verdict(False)}")
            return 2
        core = [sorted(b, key=str) for b in cert.core]
        print(
            f"t = {cert.t}: {cert.n_effective} ground points >= min(2t, 3t-6) = "
            f"{cert.bound} {_verdict(True)}; empty core of {len(core)} blocks: {core}"
        )
        return 0
    if a.action == "strictness":
        if a.r < 3 or a.ell < 2:
            raise ValueError("strictness requires r >= 3 and ell >= 2")
        res = verify_bound_sweep(a.q, a.ell, a.r, trials=a.trials, seed=a.seed)
        top = counting_bound(length_bound(a.q, a.ell, a.r), a.r, a.ell, a.q)
        good = res.ok and not res.equality_cases
        print(
            f"{res.codes_tested} codes over GF({a.q}) with r = {a.r}: min slack {res.min_slack}, "
            f"{len(res.equality_cases)} equality cases, {len(res.violations)} violations, "
            f"{res.sampling_failures} sampling failures; bound <= {top} at every MDS length"
            f"{', vacuous' if top <= 0 else ''} {_verdict(good)}"
        )
        return 0 if good else 2
    report = regular_spread_converse_check(a.q, samples=a.samples, seed=a.seed)
    for f in report.forward:
        print(
            f"n={f.n}: bound {f.bound}, beta ({_frac(f.beta_avg)}, {f.beta_max}), "
            f"gamma ({_frac(f.gamma_avg)}, {f.gamma_max}), attained {f.code_attains_io}"
        )
    for c in report.converse:
        print(
            f"n={c.n} ({c.mode}, {c.subsets} subsets): {c.node_attaining} with an "
            f"attaining node, {c.code_attaining} fully attaining"
        )
    print(f"converse {_verdict(report.ok)}: attainment needs n >= {report.lo}")
    return 0 if report.ok else 2


def _cmd_simulate(a: argparse.Namespace) -> int:
    code = _load_code(a.code)
    if not 0 <= a.node < code.n:
        raise ValueError(f"node must lie in [0, {code.n})")
    _, witness = optimal_alpha(code, a.node, budget=a.budget)
    failures = 0
    for t in range(a.trials):
        cw = sample_codeword(code, a.seed + t)
        trace = erase_and_repair(code, cw, a.node, witness)
        print(
            f"trial {t} (seed {a.seed + t}): downloaded {trace.total_downloaded}, "
            f"accessed {trace.total_accessed}, match {trace.match}"
        )
        failures += not trace.match
    print(
        f"{a.trials - failures}/{a.trials} trials recovered node {a.node} exactly "
        f"{_verdict(failures == 0)}"
    )
    return 0 if failures == 0 else 2


_HANDLERS = {
    "bound": _cmd_bound,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "repair": _cmd_repair,
    "geometry": _cmd_geometry,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _HANDLERS[ns.command](ns)
    except (ValueError, BudgetExceededError, SamplingExhaustedError) as exc:
        print(f"mdsrepair: error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        detail = str(exc) or "internal assertion"
        print(f"mdsrepair: verification failed: {detail}", file=sys.stderr)
        return 2


def main() -> None:
    code = run()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
