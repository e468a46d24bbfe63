"""Acceptance gate: one test per headline claim, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the verdict
lines for passing criteria too).  Each test asserts the claim exactly as
stated and enforces its runtime budget, with one correction: criterion 08
keeps the name of a single-node claim that the reguli refute, and asserts
the per-code converse and the exact count of attaining subsets instead.
"""
import itertools
import random
import time

from mdsrepair import sim
from mdsrepair.code import CodewordArr, code_from_intrinsic, is_mds
from mdsrepair.constructions import (
    build_exceptional,
    build_two_parity_code,
    check_block_intersection_bound,
    hit_set,
    regular_spread_converse_check,
    w_g_subspace,
)
from mdsrepair.geometry import (
    INF,
    desarguesian_spread,
    is_regular_spread,
    is_spread,
    regulus_through,
)
from mdsrepair.gf import field_of_order, make_extension
from mdsrepair.linalg import all_subspaces, intersect_dim
from mdsrepair.repair import (
    counting_bound,
    repair_report,
    verify_bound_sweep,
)
from mdsrepair.sim import erase_and_repair, sample_codeword


def _verdict(num, ok, detail, elapsed, budget):
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {word}: {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert elapsed < budget, f"criterion {num} overran its {budget:.0f}s budget"
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_counting_bound_values():
    t0 = time.perf_counter()
    got = (
        counting_bound(6, 2, 2, 3),
        counting_bound(7, 2, 2, 3),
        counting_bound(9, 2, 2, 4),
    )
    ok = got == (6, 8, 11)
    ok = ok and counting_bound(6, 2, 2, 3) == 2 * 5 - 4
    ok = ok and counting_bound(7, 2, 2, 3) == 2 * 6 - 4
    _verdict(
        1,
        ok,
        f"counting bound (6,8,11 expected) = {got}",
        time.perf_counter() - t0,
        budget=1,
    )


def test_criterion_02_two_parity_attainment():
    t0 = time.perf_counter()
    cases = (
        [(3, 2, n, 130) for n in (8, 9, 10)]
        + [(4, 2, n, 357) for n in range(10, 18)]
        + [(3, 3, n, 33880) for n in (26, 27, 28)]
    )
    failures = []
    for q, ell, n, cand in cases:
        code, _ = build_two_parity_code(q, ell, n)
        rep = repair_report(code)
        target = ell * (n - 1) - (q**ell - 1) // (q - 1)
        exact = (
            rep.exhaustive
            and rep.candidates_total == cand
            and rep.beta_avg == rep.beta_max == target
            and rep.gamma_avg == rep.gamma_max == target
        )
        if not exact:
            failures.append((q, ell, n))
    _verdict(
        2,
        not failures,
        f"{len(cases)} codes, all four metrics equal ell(n-1)-(q^ell-1)/(q-1)"
        + (f"; failed at {failures}" if failures else ""),
        time.perf_counter() - t0,
        budget=60,
    )


def test_criterion_03_exceptional_codes():
    t0 = time.perf_counter()
    expected = {"q3n6": 6, "q3n7": 8, "q4n9": 11}
    failures = []
    for case, target in expected.items():
        code, _ = build_exceptional(case)
        rep = repair_report(code, budget=1000)
        if not (
            rep.exhaustive
            and rep.beta_avg == rep.beta_max == target
            and rep.gamma_avg == rep.gamma_max == target
        ):
            failures.append(case)
    ext3 = make_extension(field_of_order(3), 2)
    ext4 = make_extension(field_of_order(4), 2)
    recorded = {
        3: (
            frozenset({INF, 0, 1, 2}),
            frozenset({INF, 1, 4, 7}),
            frozenset({0, 2, 4, 7}),
        ),
        4: (
            frozenset({INF, 0, 1, 6, 7}),
            frozenset({INF, 0, 2, 12, 14}),
            frozenset({2, 6, 7, 8, 14}),
        ),
    }
    gens = {
        3: (((1, 0), (0, 1)), ((3, 1), (0, 1)), ((0, 6), (1, 3))),
        4: (((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 2), (3, 1))),
    }
    for q, ext in ((3, ext3), (4, ext4)):
        spread = desarguesian_spread(q, 2)
        got = tuple(hit_set(w_g_subspace(ext, g), spread, ext, g=g) for g in gens[q])
        if got != recorded[q]:
            failures.append(f"hit sets q={q}")
    _verdict(
        3,
        not failures,
        "metrics 6/8/11 with recorded hit sets"
        + (f"; failed: {failures}" if failures else ""),
        time.perf_counter() - t0,
        budget=10,
    )


def _bound_range(res):
    lo, hi = res.bound_range
    return f"bound {lo}..{hi}" + (", vacuous" if res.vacuous else "")


def test_criterion_04_bound_on_random_codes():
    t0 = time.perf_counter()
    combos = ((2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 3, 2))
    total = 0
    violations = []
    ranges = []
    for q, ell, r in combos:
        res = verify_bound_sweep(q, ell, r, trials=50, seed=101)
        total += res.codes_tested
        violations.extend(res.violations)
        ranges.append(f"(q,ell,r)=({q},{ell},{r}) {_bound_range(res)}")
    ok = total >= 200 and not violations
    _verdict(
        4,
        ok,
        f"{total} random MDS codes, {len(violations)} bound violations; " + "; ".join(ranges),
        time.perf_counter() - t0,
        budget=300,
    )


def test_criterion_05_strictness_for_three_parities():
    t0 = time.perf_counter()
    # r >= 3, ell >= 2: the bound sweep's codes, judged for equality directly
    res = verify_bound_sweep(2, 2, 3, trials=51, seed=7)
    ok = res.ok and res.codes_tested >= 50 and not res.equality_cases
    slack = res.min_slack
    _verdict(
        5,
        ok,
        f"{res.codes_tested} codes with r=3, ell=2, q=2: "
        f"{len(res.equality_cases)} equality cases, min slack {slack}, {_bound_range(res)}",
        time.perf_counter() - t0,
        budget=120,
    )


def test_criterion_06_complementary_family_maximum():
    t0 = time.perf_counter()
    field = field_of_order(2)
    subs = all_subspaces(field, 4, 2)
    compat = {
        i: {j for j in range(len(subs)) if j != i and intersect_dim(subs[i], subs[j]) == 0}
        for i in range(len(subs))
    }

    best = 0

    def extend(family, candidates):
        nonlocal best
        best = max(best, len(family))
        for j in sorted(candidates):
            if len(family) + len(candidates) <= best:
                return
            extend(family + [j], {c for c in candidates if c > j and c in compat[j]})

    extend([], set(range(len(subs))))
    spread10 = desarguesian_spread(3, 2)
    ok = best == 5 == 2**2 + 1
    ok = ok and len(spread10) == 10 == 3**2 + 1
    ok = ok and bool(is_spread(spread10.field, 2, spread10.members))
    _verdict(
        6,
        ok,
        f"max pairwise complementary family over GF(2)^4 is {best}; "
        f"q=3 field spread reaches {len(spread10)}",
        time.perf_counter() - t0,
        budget=10,
    )


def test_criterion_07_geometry_suite():
    t0 = time.perf_counter()
    failures = []
    for q in (2, 3, 4):
        field = field_of_order(q)
        spread = desarguesian_spread(q, 2)
        if len(spread) != q * q + 1:
            failures.append(f"q={q} size")
        if not is_regular_spread(spread).ok:
            failures.append(f"q={q} regularity")
        rng = random.Random(q)
        members = set(spread.members)
        outside = [m for m in all_subspaces(field, 4, 2) if m not in members]
        # q = 2 has only 30 outside lines, so the 50 requested samples
        # degrade to the full population there
        for m in rng.sample(outside, min(50, len(outside))):
            if len(spread.meets(m)) != q + 1:
                failures.append(f"q={q} transversal count")
                break
        # uniqueness: any three lines of a regulus regenerate it
        reguli = []
        for _ in range(100):
            a, b, c = rng.sample(list(spread.members), 3)
            reg = regulus_through(a, b, c)
            reguli.append(frozenset(reg.lines))
            for trio in itertools.islice(itertools.combinations(reg.lines, 3), 4):
                again = regulus_through(*trio)
                if frozenset(again.lines) != frozenset(reg.lines):
                    failures.append(f"q={q} uniqueness")
                    break
        for _ in range(100):
            r1, r2 = rng.sample(reguli, 2)
            if r1 != r2 and len(r1 & r2) > 2:
                failures.append(f"q={q} pairwise intersection")
                break
    _verdict(
        7,
        not failures,
        "spread sizes, regularity, transversal counts, regulus uniqueness "
        "and pairwise meets" + (f"; failed: {sorted(set(failures))}" if failures else ""),
        time.perf_counter() - t0,
        budget=120,
    )


def test_criterion_08_no_attaining_node_below_six():
    """Converse at n = 5 over the q = 3 field spread, checked by the full scan.

    The name records the claim as first stated: that no node of any
    five-member subset attains alpha = 4.  The reguli refute it.  The
    regular spread has C(10,3)/C(4,3) = 30 reguli of q+1 = 4 lines.  A
    transversal of one meets its four lines in all of its own q+1 points,
    so it misses every other member H and repairs H with alpha = 4, which
    meets the bound.  The paper's converse is about the code: no subset
    attains at every node.  The test asserts that, and node by node that
    the full scan finds alpha = 4 exactly where the other four members
    form a regulus (regulus_through), and 3 elsewhere.  It also asserts
    the 180 subsets with an attaining node, and that the hit-set shortcut
    of regular_spread_converse_check counts the same.
    """
    t0 = time.perf_counter()
    spread = desarguesian_spread(3, 2)
    subsets = node_attaining = code_attaining = 0
    reguli = set()
    mismatches = []
    for combo in itertools.combinations(range(10), 5):
        code = code_from_intrinsic([spread.members[j] for j in combo])
        if not is_mds(code).ok:
            mismatches.append((combo, "not MDS"))
        rep = repair_report(code)
        subsets += 1
        att = {pos for pos, nd in enumerate(rep.nodes) if nd.alpha == 4}
        node_attaining += bool(att)
        code_attaining += len(att) == len(combo)
        on_regulus = set()
        for pos, nd in enumerate(rep.nodes):
            others = [spread.members[j] for p, j in enumerate(combo) if p != pos]
            if set(others) == set(regulus_through(*others[:3]).lines):
                on_regulus.add(pos)
                reguli.add(frozenset(others))
            # a non-member line meets exactly q+1 = 4 members, and those form
            # a regulus, so alpha <= 3 here; two reguli sharing three lines
            # coincide, so some three of the other four span a regulus that
            # misses H, and its transversal gives alpha = 3
            elif nd.alpha != 3:
                mismatches.append((combo, pos, nd.alpha))
        if att != on_regulus:
            mismatches.append((combo, sorted(att), sorted(on_regulus)))
    shortcut = {c.n: c for c in regular_spread_converse_check(3).converse}[5]
    # attaining codes exist at every admissible longer length
    forward_ok = True
    for n in range(6, 11):
        code, _ = build_two_parity_code(3, 2, n)
        rep = repair_report(code, budget=1000)
        forward_ok = forward_ok and bool(rep.code_attains_bw)
    elapsed = time.perf_counter() - t0
    assert subsets == 252
    assert code_attaining == 0, "a full code at n=5 would contradict the converse"
    assert forward_ok
    # 30 reguli, each completed to a five-member subset by any of the 6
    # remaining members; two reguli share at most two lines, so no subset
    # holds two of them and every such subset is counted once: 30 x 6 = 180
    ok = (
        not mismatches
        and len(reguli) == 30
        and node_attaining == 180 == shortcut.node_attaining
        and shortcut.subsets == subsets
    )
    _verdict(
        8,
        ok,
        f"of {subsets} five-member subsets, {node_attaining} have a node attaining "
        f"alpha=4 and {code_attaining} attain at every node; "
        f"attaining codes exist for all n in [6, 10]; "
        f"{len(reguli)} reguli, shortcut counts {shortcut.node_attaining}, "
        f"{len(mismatches)} disagreements with regulus membership"
        + (f", first {mismatches[0]}" if mismatches else ""),
        elapsed,
        budget=600,
    )


def test_criterion_09_block_bound_checker():
    t0 = time.perf_counter()
    ext3 = make_extension(field_of_order(3), 2)
    ext4 = make_extension(field_of_order(4), 2)
    gens = {
        ext3: (((1, 0), (0, 1)), ((3, 1), (0, 1)), ((0, 6), (1, 3))),
        ext4: (((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 2), (3, 1))),
    }
    ok = True
    for ext, gs in gens.items():
        spread = desarguesian_spread(ext.base.q, 2)
        family = [hit_set(w_g_subspace(ext, g), spread, ext, g=g) for g in gs]
        holds, cert = check_block_intersection_bound(family)
        ok = ok and holds and cert.n_effective >= cert.bound
        if ext is ext3:
            ok = ok and cert.t == 4 and cert.bound == 6
    rng = random.Random(99)
    accepted = 0
    while accepted < 10_000:
        t = rng.randrange(3, 7)
        universe = range(3 * t)
        blocks = {frozenset(rng.sample(universe, t)) for _ in range(rng.randrange(2, 6))}
        if len(blocks) < 2:
            continue
        if frozenset.intersection(*blocks):
            continue
        if any(len(a & b) > 2 for a, b in itertools.combinations(blocks, 2)):
            continue
        holds, cert = check_block_intersection_bound(blocks)
        # conclusion violations raise inside the checker; holds must be true
        ok = ok and holds and cert.n_effective >= cert.bound
        accepted += 1
    _verdict(
        9,
        ok,
        f"checker agrees on both catalog families and {accepted} random families",
        time.perf_counter() - t0,
        budget=60,
    )


def test_criterion_10_simulator_fidelity():
    t0 = time.perf_counter()
    constructed = [build_two_parity_code(3, 2, n) for n in (8, 9, 10)]
    constructed += [build_two_parity_code(4, 2, n) for n in range(10, 18)]
    constructed += [build_exceptional(case) for case in ("q3n6", "q3n7", "q4n9")]
    codes = trials = replays = mismatches = 0

    def repaired(code, cw, wit):
        trace = erase_and_repair(code, cw, wit.node, wit)
        return (
            trace.match
            and trace.total_downloaded == wit.bw
            and trace.total_accessed == wit.io
        )

    for code, wits in constructed:
        codes += 1
        # repair is linear, so recovering every row of the codeword basis
        # proves recovery of every codeword, at every node
        ell = code.ell
        basis = [
            CodewordArr(tuple(tuple(row[i * ell : (i + 1) * ell]) for i in range(code.n)))
            for row in sim._codeword_basis(code)
        ]
        for wit in wits:
            for cw in basis:
                replays += 1
                mismatches += not repaired(code, cw, wit)
        for trial in range(100):
            trials += 1
            mismatches += not repaired(code, sample_codeword(code, trial), wits[trial % code.n])
    _verdict(
        10,
        mismatches == 0,
        f"{replays} basis replays at every node and {trials} sampled trials across {codes} "
        f"constructed codes, {mismatches} mismatches",
        time.perf_counter() - t0,
        budget=60,
    )
