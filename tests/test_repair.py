import bisect
import dataclasses
import functools
import gc
import itertools
import operator
import random
import re
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mdsrepair import cli, linalg, repair
from mdsrepair._kernel import rre_rank
from mdsrepair.code import ArrayCode, code_from_intrinsic, is_mds, length_bound, serialize
from mdsrepair.constructions import build_exceptional, build_two_parity_code
from mdsrepair.geometry import desarguesian_spread
from mdsrepair.gf import field_of_order
from mdsrepair.linalg import (
    BudgetExceededError,
    MatrixGF,
    Subspace,
    all_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    incidence_blocks,
    intersect_dim,
    kernel,
    proj_point,
    projective_points,
    rank,
    subspace_at,
)
from mdsrepair.repair import (
    RepairWitness,
    _rank_profile,
    _scan,
    counting_bound,
    make_witness,
    make_witnesses,
    optimal_alpha,
    random_mds_code,
    repair_report,
    verify_bound_sweep,
)
from mdsrepair.sim import erase_and_repair, sample_codeword


def _spread_code(q, n):
    return code_from_intrinsic(desarguesian_spread(q, 2).members[:n])


def _feasible_spaces(code, node):
    wdim = (code.r - 1) * code.ell
    return [
        w
        for w in all_subspaces(code.field, code.ambient_dim, wdim)
        if intersect_dim(w, code.node_subspaces[node]) == 0
    ]


def test_counting_bound_values():
    assert counting_bound(6, 2, 2, 3) == 6
    assert counting_bound(7, 2, 2, 3) == 8
    assert counting_bound(9, 2, 2, 4) == 11
    assert counting_bound(8, 2, 2, 3) == 10
    assert counting_bound(10, 2, 2, 3) == 14
    assert counting_bound(17, 2, 2, 4) == 27
    assert counting_bound(6, 3, 2, 2) == 2 * 5 - 15
    assert counting_bound(2, 2, 2, 3) < 0  # small n makes the bound vacuous
    with pytest.raises(ValueError):
        counting_bound(1, 2, 2, 3)
    with pytest.raises(ValueError):
        counting_bound(6, 2, 2, 1)


def test_repair_matrix_annihilates_exactly_w():
    code = _spread_code(3, 6)
    node = 2
    hi = code.node_subspaces[node]
    rng = random.Random(30)
    spaces = _feasible_spaces(code, node)
    for w in rng.sample(spaces, 8):
        m = make_witness(code, node, w).matrix
        assert (m.rows, m.cols) == (code.ell, code.ambient_dim)
        assert kernel(m) == w
        for row in w.basis_rows():
            assert all(v == 0 for v in m.mul_vec(row))
        assert rank(m.mul(code.blocks[node])) == code.ell


def test_repair_matrix_rejections():
    code = _spread_code(3, 6)
    hi = code.node_subspaces[0]
    with pytest.raises(ValueError, match="meets the failed node's subspace"):
        make_witness(code, 0, hi)
    short = all_subspaces(code.field, 4, 1)[0]
    with pytest.raises(ValueError, match="must have dimension"):
        make_witness(code, 0, short)
    for other in (all_subspaces(code.field, 6, 2)[0], all_subspaces(field_of_order(2), 4, 2)[0]):
        with pytest.raises(ValueError, match="does not match the code"):
            make_witness(code, 0, other)  # another ambient space or field


def test_witness_profile_totals():
    code = _spread_code(3, 7)
    node = 1
    rng = random.Random(31)
    for w in rng.sample(_feasible_spaces(code, node), 6):
        wit = make_witness(code, node, w)
        assert wit.node == node
        assert len(wit.helper_dims) == code.n - 1
        assert wit.bw == sum(code.ell - d for _, d in wit.helper_dims)
        assert wit.io == sum(code.ell - z for _, z in wit.helper_points)
        # captured column points sit inside the intersection, per helper
        for (j, d), (j2, z) in zip(wit.helper_dims, wit.helper_points):
            assert j == j2
            assert z <= d
        assert wit.io >= wit.bw


def test_witness_rejects_overlapping_space():
    code = _spread_code(3, 6)
    with pytest.raises(ValueError):
        make_witness(code, 0, code.node_subspaces[0])


def test_scheme_costs_match_witness():
    code = _spread_code(3, 6)
    node = 4
    rng = random.Random(32)
    cw = sample_codeword(code, 7)
    for w in rng.sample(_feasible_spaces(code, node), 6):
        wit = make_witness(code, node, w)
        trace = erase_and_repair(code, cw, node, wit)
        assert trace.match
        assert trace.total_downloaded == wit.bw
        assert trace.total_accessed == wit.io


def test_scheme_costs_reject_singular_repair():
    code = _spread_code(3, 6)
    _, wit = optimal_alpha(code, 1)
    cw = sample_codeword(code, 0)
    h1 = code.node_subspaces[1]
    m = make_witness(code, 0, h1).matrix  # ker M = H_1, so M H_1 = 0
    with pytest.raises(ValueError):
        erase_and_repair(code, cw, 1, dataclasses.replace(wit, matrix=m))
    with pytest.raises(ValueError):
        erase_and_repair(code, cw, 1, dataclasses.replace(wit, space=h1, matrix=m))


def _brute_alpha(code, node):
    best = -1
    for w in _feasible_spaces(code, node):
        tot = sum(
            intersect_dim(w, code.node_subspaces[j]) for j in range(code.n) if j != node
        )
        best = max(best, tot)
    return best


def test_optimal_alpha_against_direct_enumeration():
    for q, n in ((2, 4), (2, 5), (3, 5)):
        code = _spread_code(q, n)
        for node in range(code.n):
            alpha, wit = optimal_alpha(code, node)
            assert alpha == _brute_alpha(code, node)
            assert wit.bw == code.ell * (code.n - 1) - alpha


def test_optimal_lambda_never_exceeds_alpha():
    rng = random.Random(33)
    field = field_of_order(2)
    for _ in range(6):
        code = random_mds_code(field, 2, 2, 4, rng)
        rep = repair_report(code)
        for node in range(code.n):
            alpha, _ = optimal_alpha(code, node)
            nd = rep.nodes[node]
            assert nd.lam <= alpha
            assert nd.lambda_witness.io == code.ell * (code.n - 1) - nd.lam


def _reference_scan(code, budget):
    """The per-candidate loop over the rank profile, keeping first maximizers.

    It also asserts, candidate by candidate, that W holds at most dim(W meet
    H_j) of node j's column points, which ArrayCode guarantees.
    """
    wdim = (code.r - 1) * code.ell
    total = gaussian_binomial(code.ambient_dim, wdim, code.field.q)
    best_dim, best_pts = {}, {}
    scanned = 0
    for w in enumerate_subspaces(code.field, code.ambient_dim, wdim):
        if scanned == budget:
            break
        scanned += 1
        dims, zs, _ = _rank_profile(code, w)
        assert all(z <= dim for z, dim in zip(zs, dims))
        for i in range(code.n):
            if dims[i]:
                continue
            for best, value in ((best_dim, sum(dims) - dims[i]), (best_pts, sum(zs) - zs[i])):
                if i not in best or value > best[i][0]:
                    best[i] = (value, w)
    return best_dim, best_pts, total, scanned


def _differential_codes():
    rng = random.Random(35)
    codes = [build_exceptional(case)[0] for case in ("q3n6", "q3n7", "q4n9")]
    codes.append(build_two_parity_code(3, 2, 8)[0])
    for q, ell, r in ((2, 2, 3), (2, 3, 2)):
        for n in (r + 1, r + 3):
            codes.append(random_mds_code(field_of_order(q), r, ell, n, rng))
    return codes


@pytest.mark.parametrize("budget", [10**7, 30, 7], ids=["exhaustive", "budget-30", "budget-7"])
def test_scan_matches_reference_scan(budget, monkeypatch):
    # per node both maxima, both first maximizers and the scanned count of
    # the bitset scan equal the per-candidate rank loop's; the scan itself
    # reads point masks and reduces no matrix
    def no_rank(*args):
        raise AssertionError("the scan called the row-reduction kernel")

    for code in _differential_codes():
        want = _reference_scan(code, budget)
        with monkeypatch.context() as m:
            m.setattr(linalg, "rre_rank", no_rank)
            m.setattr(linalg, "rref_rank", no_rank)
            got = _scan(code, budget)
        assert got == want


def test_counting_bound_is_the_point_capacity_below_the_full_download():
    # bound = ell*(n-1) - theta and beta = ell*(n-1) - alpha, so alpha <= theta,
    # the report's one capacity check, is the whole bound check beta >= bound
    for code in _differential_codes():
        report = repair_report(code)
        n, ell = code.n, code.ell
        assert counting_bound(n, code.r, ell, code.field.q) == ell * (n - 1) - report.point_capacity


def _clear_memos():
    """Empty the member-plane and block-rank memos, so that the next report runs cold."""
    repair._planes_memo.clear()
    repair._block_rank.cache_clear()


def test_streamed_blocks_match_the_cached_scan(monkeypatch):
    code = build_two_parity_code(3, 2, 8)[0]
    _clear_memos()
    cached = repair_report(code)
    ref_dim, ref_pts, total, _ = _reference_scan(code, 10**7)
    chunk = 7
    points = range(linalg.projective_point_count(code.ambient_dim, code.field.q))
    blocks = incidence_blocks(code.field, code.ambient_dim, code.ell, total, chunk, points)
    starts = [lo for lo, _, _ in blocks]
    # every maximizer position per node and objective, from the rank profile
    spaces = all_subspaces(code.field, code.ambient_dim, code.ell)
    profiles = [_rank_profile(code, w) for w in spaces]
    split = 0
    for i in range(code.n):
        for best, col in ((ref_dim, 0), (ref_pts, 1)):
            at_max = [
                pos for pos, prof in enumerate(profiles)
                if prof[0][i] == 0 and sum(prof[col]) - prof[col][i] == best[i][0]
            ]
            split += len({bisect.bisect_right(starts, pos) for pos in at_max}) > 1
    assert split  # some run of maximizers crosses a block boundary

    def refuse(*args):
        raise AssertionError("the streamed scan read the cached incidence")

    monkeypatch.setattr(linalg, "_CACHE_LIMIT", total - 1)
    monkeypatch.setattr(repair, "_CHUNK", chunk)
    monkeypatch.setattr(repair, "subspace_incidence", refuse)
    _clear_memos()
    assert repair_report(code) == cached
    for budget in (10**7, 30):
        assert _scan(code, budget) == _reference_scan(code, budget)


def test_a_streamed_scan_lists_only_the_code_points(monkeypatch):
    # a budget-cut report streams the incidence of the points its nodes and
    # column points read, each listed once: 16 of the 40 points of PG(3, 3)
    code = _spread_code(3, 4)
    wanted = {p for h in code.node_subspaces for p in projective_points(h)}
    wanted |= {p for plist in code.column_points for p in plist}
    listed = []
    point_at = linalg.point_at

    def counting(*args):
        listed.append(point_at(*args))
        return listed[-1]

    monkeypatch.setattr(linalg, "point_at", counting)
    _clear_memos()
    assert not repair_report(code, budget=100).exhaustive
    assert len(listed) == len(wanted) == 16 and set(listed) == wanted


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(budget=st.integers(1, 200))
@example(budget=10)
@example(budget=130)
def test_fuzzed_analyze_budgets_match_the_reference_scan(tmp_path, capsys, budget):
    # a q=3, ell=2 code of 130 candidates: every budget either prints the
    # prefix's per node alpha and lambda, or exits 1 naming a node without a
    # repair subspace in the prefix
    code = _spread_code(3, 6)
    path = tmp_path / "code.json"
    path.write_text(serialize(code))
    rc = cli.run(["repair", "analyze", "--code", str(path), "--budget", str(budget)])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    best_dim, best_pts, total, scanned = _reference_scan(code, budget)
    assert (total, scanned) == (130, min(budget, 130))
    if len(best_dim) < code.n:
        assert rc == 1 and out == ""
        node = min(set(range(code.n)) - set(best_dim))
        assert err == (
            f"mdsrepair: error: no repair subspace for node {node} among the first "
            f"{scanned} of 130 candidates\n"
        )
        return
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert f"scanned {scanned}/130 candidates" in lines[0]
    rows = [tuple(map(int, line.split()[:3])) for line in lines[2 : 2 + code.n]]
    assert rows == [(i, best_dim[i][0], best_pts[i][0]) for i in range(code.n)]


def _live_subspaces():
    gc.collect()
    return sum(isinstance(obj, Subspace) for obj in gc.get_objects())


def test_cold_scan_keeps_no_candidate_subspaces(monkeypatch):
    # a cold report, cached or streamed, builds the point incidence from the
    # pivot sets and rebuilds only its winners: it never enumerates the
    # candidates or reads all_subspaces, and the 2,850 candidate lines of
    # PG(3, 7) do not outlive it
    code = _spread_code(7, 8)
    linalg.subspace_incidence.cache_clear()
    _clear_memos()
    want = repair_report(code)

    def refuse(*args, **kwargs):
        raise AssertionError("the scan enumerated the candidates")

    monkeypatch.setattr(linalg, "all_subspaces", refuse)
    monkeypatch.setattr(repair, "all_subspaces", refuse, raising=False)
    monkeypatch.setattr(linalg, "enumerate_subspaces", refuse)
    monkeypatch.setattr(repair, "enumerate_subspaces", refuse, raising=False)
    for limit in (linalg._CACHE_LIMIT, 1):  # cached, then streamed
        monkeypatch.setattr(linalg, "_CACHE_LIMIT", limit)
        linalg.subspace_incidence.cache_clear()
        _clear_memos()
        before = _live_subspaces()
        assert repair_report(code) == want
        assert _live_subspaces() - before < 1000


def _witness_mix():
    """Two-parity, catalog and seeded random codes at r = 2, 3 and 4."""
    rng = random.Random(36)
    codes = [
        build_two_parity_code(q, ell, n)[0]
        for q, ell, ns in ((3, 3, (26, 27, 28)), (3, 2, (6, 8, 10)), (4, 2, (16, 17)))
        for n in ns
    ]
    codes += [build_exceptional(case)[0] for case in ("q3n6", "q3n7", "q4n9")]
    for q, ell, r, n in ((3, 2, 2, 6), (2, 3, 2, 5), (2, 2, 3, 5), (2, 2, 3, 6), (2, 2, 4, 5)):
        codes.append(random_mds_code(field_of_order(q), r, ell, n, rng))
    return codes


def test_report_witnesses_match_standalone_witnesses():
    # the report profiles each distinct W once and shares it across nodes,
    # and builds each witness from its W's profile when it is read; every
    # witness still equals the one make_witness builds on its own, and the
    # one make_witnesses builds over all the report's (node, W) pairs
    checked = set()
    for code in _witness_mix() + _differential_codes():
        for budget in (10**7, 50, 7):
            try:
                rep = repair_report(code, budget=budget)
            except BudgetExceededError:
                continue
            checked.add(rep.exhaustive)
            got = [w for nd in rep.nodes for w in (nd.alpha_witness, nd.lambda_witness)]
            batch = make_witnesses(code, [(w.node, w.space) for w in got])
            assert len(batch) == len(got) == 2 * code.n
            for g, b in zip(got, batch):
                want = make_witness(code, g.node, g.space)
                for f in dataclasses.fields(RepairWitness):
                    assert getattr(g, f.name) == getattr(want, f.name) == getattr(b, f.name), f.name
    assert checked == {True, False}


def test_optimal_alpha_is_the_reports_alpha_and_witness():
    for code in _witness_mix():
        rep = repair_report(code)
        for nd in rep.nodes:
            assert optimal_alpha(code, nd.node) == (nd.alpha, nd.alpha_witness)
    with pytest.raises(ValueError, match="node 6 out of range"):
        optimal_alpha(_spread_code(3, 6), 6)


def test_rank_oracle_runs_once_per_distinct_repair_subspace(monkeypatch):
    calls = []

    def counting(code, w):
        calls.append(w)
        return _rank_profile(code, w)

    monkeypatch.setattr(repair, "_rank_profile", counting)
    code, planted = build_two_parity_code(3, 3, 26)
    assert len(calls) == len({wit.space for wit in planted}) == 2
    for _ in range(2):  # a second report on the same code runs the oracle again
        calls.clear()
        rep = repair_report(code)
        spaces = [w.space for nd in rep.nodes for w in (nd.alpha_witness, nd.lambda_witness)]
        assert sorted(calls) == sorted(set(spaces))
        assert len(calls) < len(spaces) == 2 * code.n


def test_make_witnesses_profiles_each_distinct_subspace_once(monkeypatch):
    # one call on every (node, W) pair of a report, each pair twice, equals
    # the per-pair make_witness field by field and runs the oracle once per W
    calls = []

    def counting(code, w):
        calls.append(w)
        return _rank_profile(code, w)

    for code in _witness_mix():
        rep = repair_report(code)
        pairs = [(nd.node, w.space) for nd in rep.nodes for w in (nd.alpha_witness, nd.lambda_witness)]
        pairs += pairs[::-1]
        want = [make_witness(code, i, w) for i, w in pairs]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(repair, "_rank_profile", counting)
            got = make_witnesses(code, pairs)
        assert sorted(calls) == sorted({w for _, w in pairs})
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for f in dataclasses.fields(RepairWitness):
                assert getattr(g, f.name) == getattr(w, f.name), f.name


def _count(planes, pos):
    """The value at candidate position pos of a bit-sliced counter."""
    return sum(((p >> pos) & 1) << k for k, p in enumerate(planes))


def test_memoised_member_planes_match_a_fresh_incidence():
    # after a cold report the memo holds every node's planes over the whole
    # incidence: rebuilt from a fresh incidence they are the same, and read
    # candidate by candidate they give a dim with (q^dim - 1)/(q - 1) points
    # of H_j in W, and the count of node j's column points in W
    rng = random.Random(38)
    codes = _differential_codes()
    codes += [random_mds_code(field_of_order(q), r, ell, n, rng)
              for q, ell, r, n in ((3, 2, 2, 7), (4, 2, 2, 6), (2, 2, 3, 5), (4, 1, 3, 5))]
    for code in codes:
        f, d = code.field, code.ambient_dim
        wdim = (code.r - 1) * code.ell
        tops = [(f.q**t - 1) // (f.q - 1) for t in range(1, code.ell + 1)]
        tops = [x.bit_length() - 1 for x in tops]
        _clear_memos()
        repair_report(code)
        linalg.subspace_incidence.cache_clear()
        inc = linalg.subspace_incidence(f, d, wdim)
        for h, plist in zip(code.node_subspaces, code.column_points):
            planes = repair._planes_memo.get((h, plist))
            node_points = list(repair._bits(h.point_mask))
            column_points = list(repair._bits(linalg.points_mask(f, d, plist)))
            assert planes == repair._member_planes(inc, node_points, column_points, tops)
            dims, captured = planes
            for pos in range(gaussian_binomial(d, wdim, f.q)):
                dim = _count(dims, pos)
                assert sum(inc[b] >> pos & 1 for b in node_points) == (f.q**dim - 1) // (f.q - 1)
                assert _count(captured, pos) == sum(inc[b] >> pos & 1 for b in column_points)


def _max_first(planes, live):
    """The largest count over the positions of live, and the lowest position holding it.

    Narrows live plane by plane from the most significant one, keeping the
    positions whose count has the bit whenever any of them does: the
    per-node narrowing the scan's level descent replaced.
    """
    value = 0
    for k in range(len(planes) - 1, -1, -1):
        hit = live & planes[k]
        if hit:
            live = hit
            value |= 1 << k
    return value, (live & -live).bit_length() - 1


def _narrowing_scan(code, budget):
    """Per node both maxima by _max_first over the node's misses, block by block.

    The members' counts are summed one plane at a time by _add_bit over
    the streamed incidence, and blocks merge with a strict >.  Returns
    both maxima per node, each with its first maximizer rebuilt by
    subspace_at, the candidate count, the scanned count, and how many
    node maxima a later block tied.
    """
    f, d = code.field, code.ambient_dim
    wdim = (code.r - 1) * code.ell
    total = gaussian_binomial(d, wdim, f.q)
    tops = [linalg.projective_point_count(t, f.q).bit_length() - 1 for t in range(1, code.ell + 1)]
    numbers = [
        (list(repair._bits(h.point_mask)), list(repair._bits(linalg.points_mask(f, d, plist))))
        for h, plist in zip(code.node_subspaces, code.column_points)
    ]
    best_dim, best_pts = {}, {}
    scanned = ties = 0
    points = range(linalg.projective_point_count(d, f.q))
    blocks = incidence_blocks(f, d, wdim, min(budget, total), repair._CHUNK, points)
    for start, length, inc in blocks:
        dim_total = [0] * (code.ell * code.n).bit_length()
        pts_total = [0] * (code.ell * code.n).bit_length()
        meets = []
        for node_points, column_points in numbers:
            dims, captured = repair._member_planes(inc, node_points, column_points, tops)
            for k, x in enumerate(dims):
                repair._add_bit(dim_total, x, k)
            for k, x in enumerate(captured):
                repair._add_bit(pts_total, x, k)
            meets.append(functools.reduce(operator.or_, dims, 0))
        live = (1 << length) - 1
        for i in range(code.n):
            miss = live & ~meets[i]
            if not miss:
                continue
            for best, totals in ((best_dim, dim_total), (best_pts, pts_total)):
                value, pos = _max_first(totals, miss)
                if i not in best or value > best[i][0]:
                    best[i] = (value, start + pos)
                elif value == best[i][0]:
                    ties += 1
        scanned += length
    spaces = [
        {i: (value, subspace_at(f, d, wdim, pos)) for i, (value, pos) in best.items()}
        for best in (best_dim, best_pts)
    ]
    return (*spaces, total, scanned), ties


def _descent_codes():
    """_differential_codes() and seeded random codes at five (q, ell, r), two lengths each."""
    rng = random.Random(40)
    codes = _differential_codes()
    for q, ell, r in ((2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 3)):
        for n in (r + 1, r + 2):
            codes.append(random_mds_code(field_of_order(q), r, ell, n, rng))
    return codes


def test_level_descent_matches_per_node_narrowing(monkeypatch):
    # per node both maxima and both first maximizers of the scan's shared
    # level descent equal per-node narrowing over the node's misses: over
    # the whole cached incidence, and streamed in blocks of 64 under a cut
    # budget, where some node's maximum is tied in a later block and the
    # earlier block must keep it
    codes = _descent_codes()
    for code in codes:
        want, _ = _narrowing_scan(code, 10**7)
        assert _scan(code, 10**7) == want
    monkeypatch.setattr(repair, "_CHUNK", 64)
    ties = 0
    for code in codes:
        total = gaussian_binomial(code.ambient_dim, (code.r - 1) * code.ell, code.field.q)
        for budget in (total - 1, total // 2):
            want, tied = _narrowing_scan(code, budget)
            ties += tied
            assert _scan(code, budget) == want
    assert ties


@settings(max_examples=200, deadline=None)
@given(
    total=st.lists(st.integers(0, 255), max_size=4),
    planes=st.lists(st.integers(0, 255), max_size=4),
)
@example(total=[1], planes=[1])  # a carry out of the top plane
@example(total=[255, 255], planes=[255, 255, 255])
@example(total=[], planes=[3, 0])
def test_add_planes_is_repeated_add_bit(total, planes):
    # one carry pass adds the whole bit-sliced count: the same planes as
    # adding plane k at plane k by _add_bit, and every position's count is
    # the sum of both
    want = total + [0] * (len(planes) - len(total))
    for k, x in enumerate(planes):
        repair._add_bit(want, x, k)
    got = list(total)
    repair._add_planes(got, planes)
    assert got == want
    for pos in range(8):
        assert _count(got, pos) == _count(total, pos) + _count(planes, pos)


def _planted(target, node, fault):
    """_rank_profile with one fault in the profile of the repair subspace target.

    "failed" gives node, repaired through target, a dimension 1; "dim" and
    "zero" raise by one the dimension, or move by one the count of
    captured column points, of the first node target meets.
    """

    def profile(code, w):
        dims, zs, matrix = _rank_profile(code, w)
        if w == target:
            met = next(j for j, d in enumerate(dims) if d)
            if fault == "failed":
                dims[node] = 1
            elif fault == "dim":
                dims[met] += 1
            else:
                zs[met] += 1 if zs[met] < code.ell else -1
        return dims, zs, matrix

    return profile


@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("failed", ValueError, "repair subspace meets the failed node's subspace"),
        ("dim", AssertionError, "node {node}: the mask scan and the rank oracle disagree on bw"),
        ("zero", AssertionError, "node {node}: the mask scan and the rank oracle disagree on io"),
    ],
)
def test_planted_profile_faults_still_raise(fault, error, message, monkeypatch):
    # the per-node checks read each W's one profile: a planted dimension at
    # the failed node, a helper dimension one off, or a captured count one
    # off in the profile of one W fails the first node repaired through it
    for code in (_spread_code(3, 6), build_two_parity_code(3, 2, 8)[0]):
        rep = repair_report(code)
        witness = "lambda_witness" if fault == "zero" else "alpha_witness"
        target = getattr(rep.nodes[-1], witness).space
        node = min(nd.node for nd in rep.nodes if getattr(nd, witness).space == target)
        with monkeypatch.context() as m:
            m.setattr(repair, "_rank_profile", _planted(target, node, fault))
            with pytest.raises(error, match=f"^{re.escape(message.format(node=node))}$"):
                repair_report(code)


def _reports(code, budgets):
    """The code's report at each budget, or the message of the budget error."""
    out = []
    for budget in budgets:
        try:
            out.append(repair_report(code, budget=budget))
        except BudgetExceededError as exc:
            out.append(str(exc))
    return out


def test_reports_are_the_same_cold_and_warm(monkeypatch):
    # every report, witnesses included, is the same with both memos cleared
    # before it and with them warm, in forward and in reverse order; the mix
    # fits under the ceiling, so no exhaustive report computes member planes
    # once the memo is warm
    codes = _witness_mix()
    budgets = (10**7, 50)
    cold = []
    for code in codes:
        _clear_memos()
        cold.append(_reports(code, budgets))
    assert [_reports(code, budgets) for code in codes] == cold
    calls = []
    real = repair._member_planes

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(repair, "_member_planes", counting)
    assert [_reports(code, budgets[:1]) for code in codes[::-1]] == [r[:1] for r in cold[::-1]]
    assert calls == []
    assert [_reports(code, budgets) for code in codes[::-1]] == cold[::-1]
    assert calls  # the budget-cut reports stream their blocks past the memo


def _held(memo):
    """Bytes of the ints and tuples the member-plane memo holds, its keys' included."""
    return sum(
        sys.getsizeof(x)
        for key, (planes, _) in memo.entries.items()
        for x in (key, *key[1], planes, *planes, *planes[0], *planes[1])
    )


def test_a_small_ceiling_bounds_the_memo_and_keeps_the_reports(monkeypatch):
    codes = _witness_mix()
    _clear_memos()
    want = [_reports(code, (10**7,)) for code in codes]
    members = {key for code in codes for key in zip(code.node_subspaces, code.column_points)}
    ceiling = 60_000  # three members of a q=3, ell=3 code, or dozens of smaller ones
    monkeypatch.setattr(repair, "_PLANES_CEILING", ceiling)
    memo = repair._planes_memo
    memo.clear()
    for order in (codes, codes[::-1]):
        got = []
        for code in order:
            got.append(_reports(code, (10**7,)))
            assert memo.held == _held(memo) <= ceiling
            assert memo.entries
        assert got == (want if order is codes else want[::-1])
    assert len(memo.entries) < len(members)
    _clear_memos()


def test_memoised_block_rank_matches_a_fresh_rank():
    # every ell x ell matrix over GF(q), the fields in turn through one memo:
    # the first answer is a miss that rre_rank fills, the second a hit, and
    # both are rre_rank's; the same bytes can mean other matrices over
    # another field, so no field reads a rank the memo kept for one before
    cases = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
    repair._block_rank.cache_clear()
    for q, ell in cases:
        f = field_of_order(q)
        for entries in itertools.product(range(q), repeat=ell * ell):
            block = bytes(entries)
            want = rre_rank(bytearray(block), ell, ell, q, f.sub_tab, f.mul_tab, f.inv_tab)
            assert repair._block_rank(f, ell, block) == want
            assert repair._block_rank(f, ell, block) == want
    info = repair._block_rank.cache_info()
    assert info.hits == info.misses == sum(q ** (ell * ell) for q, ell in cases)
    assert info.currsize == repair._RANK_MEMO


def _oracle_one_lower(index):
    """_rank_profile with its first positive dimension (index 0) or captured count (1) less one."""

    def profile(code, w):
        pair = _rank_profile(code, w)
        values = pair[index]
        positive = [j for j, x in enumerate(values) if x]
        if positive:
            values[positive[0]] -= 1
        return pair

    return profile


@pytest.mark.parametrize("index, cost", [(0, "bw"), (1, "io")])
def test_oracle_disagreement_is_a_verification_failure(index, cost, monkeypatch, capsys, tmp_path):
    # every witness's oracle cost is one above the scan's: the report's
    # cross-check fires, and the CLI exits 2 without a traceback
    code = _spread_code(3, 6)
    path = tmp_path / "code.json"
    path.write_text(serialize(code))
    monkeypatch.setattr(repair, "_rank_profile", _oracle_one_lower(index))
    message = f"the mask scan and the rank oracle disagree on {cost}"
    with pytest.raises(AssertionError, match=rf"^node \d+: {message}$"):
        repair_report(code)
    assert cli.run(["repair", "analyze", "--code", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"mdsrepair: verification failed: node \d+: {message}\n", err)


def _contains(space, vec):
    """vec lies in space exactly when adding it leaves the dimension unchanged."""
    rows = [*space.basis_rows(), vec]
    return Subspace.from_rows(space.field, space.ambient_dim, rows).dim == space.dim


def _reference_profile(code, w):
    """The rank oracle by row reduction and membership tests.

    dim(W meet H_j) from the rank of the stacked bases of W and H_j, and
    z_j from a membership test of each column point in W.
    """
    dims = [intersect_dim(w, h) for h in code.node_subspaces]
    zs = [sum(_contains(w, p) for p in plist) for plist in code.column_points]
    return dims, zs


def _explicit_points_codes():
    """A spread code with non-basis column points, and its blocks scaled by 2.

    The first code's blocks are its column points; the second has the same
    column points, but its block columns are twice them.
    """
    f = field_of_order(3)
    members = desarguesian_spread(3, 2).members[:6]
    points = []
    for mem in members:
        a, b = mem.basis_rows()
        points.append([proj_point(f, [f.add(x, y) for x, y in zip(a, b)]),
                       proj_point(f, [f.sub(x, y) for x, y in zip(a, b)])])
    explicit = code_from_intrinsic(members, column_points=points)
    doubled = [tuple(f.mul(2, x) for x in b.entries) for b in explicit.blocks]
    scaled = ArrayCode(f, [MatrixGF(f, 4, 2, entries) for entries in doubled])
    assert explicit.column_points != tuple(tuple(sorted(m.basis_rows())) for m in members)
    assert scaled.column_points == explicit.column_points and scaled.blocks != explicit.blocks
    return [explicit, scaled]


def test_rank_profile_matches_the_reference_profile():
    # candidate by candidate, the repair-matrix oracle gives the dimensions
    # and captured counts of row reduction and membership, and its matrix is
    # the reduced annihilator of W; the scaled code's block columns are twice
    # its column points, so only its block images are read, and GF(17) takes
    # field codes above 16
    rng = random.Random(37)
    codes = _differential_codes() + _explicit_points_codes()
    codes += [random_mds_code(field_of_order(17), r, 1, 6, rng) for r in (2, 3)]
    for code in codes:
        wdim = (code.r - 1) * code.ell
        captured = 0
        for w in enumerate_subspaces(code.field, code.ambient_dim, wdim):
            dims, zs, matrix = _rank_profile(code, w)
            assert (dims, zs) == _reference_profile(code, w)
            assert matrix == kernel(w.basis_matrix).basis_matrix
            captured += sum(zs)
        assert captured  # some candidate holds a column point


def _per_entry_profile(code, w):
    """The rank oracle with M H summed entry by entry: the formulation before combine_rows.

    M is the reduced kernel of W's basis matrix, reduced afresh; the rows
    of M H add byte by byte through the addition table, the columns are
    read by zip, each block is ranked by rre_rank with no memo, and a
    column point lies in W when its column of M H is all zero.
    """
    f = code.field
    q = f.q
    add, mul = f.add_tab, f.mul_tab
    ell = code.ell
    matrix = kernel(w.basis_matrix).basis_matrix
    out = []
    for i in range(ell):
        acc = None
        for t, c in enumerate(matrix.row(i)):
            if c:
                scaled = code.parity_rows[t].translate(mul[c * q : (c + 1) * q] + bytes(256 - q))
                acc = scaled if acc is None else bytes([add[a * q + b] for a, b in zip(acc, scaled)])
        out.append(acc)
    images = list(zip(*out))  # the columns of M H
    flat = bytes(itertools.chain.from_iterable(images))
    size = ell * ell
    dims = [
        ell - rre_rank(bytearray(flat[j * size : (j + 1) * size]), ell, ell, q, f.sub_tab, mul, f.inv_tab)
        for j in range(code.n)
    ]
    live = bytes(map(any, images))
    zs = [live[j * ell : (j + 1) * ell].count(0) for j in range(code.n)]
    return dims, zs, matrix


def test_rank_profile_matches_the_per_entry_profile():
    # every W of each report, and seeded candidates at any position, give
    # the same dimensions, captured counts and repair matrix through
    # combine_rows as through the per-entry sums; GF(25) takes the
    # entry-by-entry branch of combine_rows, with codes above 16
    rng = random.Random(39)
    cases = []
    for code in _witness_mix() + _differential_codes():
        rep = repair_report(code)
        cases.append((code, {w.space for nd in rep.nodes for w in (nd.alpha_witness, nd.lambda_witness)}))
    # the GF(25) code has 406,901 candidates, too many to scan here: sampled W alone
    cases.append((code_from_intrinsic(desarguesian_spread(25, 2).members[:7]), set()))
    for code, spaces in cases:
        wdim = (code.r - 1) * code.ell
        total = gaussian_binomial(code.ambient_dim, wdim, code.field.q)
        spaces |= {subspace_at(code.field, code.ambient_dim, wdim, rng.randrange(total)) for _ in range(12)}
        for w in spaces:
            assert _rank_profile(code, w) == _per_entry_profile(code, w)


def test_oracle_catches_a_wrong_repair_matrix(monkeypatch, capsys, tmp_path):
    # node 0's alpha witness W is profiled through the annihilator of a
    # spread member outside the code, which misses every node: the oracle
    # finds no saving through it, the report's cross-check fires on node
    # 0's bandwidth, and the CLI exits 2 without a traceback
    code = _spread_code(3, 6)
    path = tmp_path / "code.json"
    path.write_text(serialize(code))
    rep = repair_report(code)
    w = rep.nodes[0].alpha_witness.space
    other = next(m for m in desarguesian_spread(3, 2).members if m not in code.node_subspaces)
    assert all(intersect_dim(other, h) == 0 for h in code.node_subspaces)
    assert rep.nodes[0].alpha > 0
    real = repair.annihilator

    def wrong(space):
        return real(other if space == w else space)

    monkeypatch.setattr(repair, "annihilator", wrong)
    message = "node 0: the mask scan and the rank oracle disagree on bw"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        repair_report(code)
    assert cli.run(["repair", "analyze", "--code", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"mdsrepair: verification failed: {message}\n"


def test_a_wide_helper_at_the_bound_is_a_verification_failure(monkeypatch, capsys, tmp_path):
    # the oracle moves one unit of dimension between two helpers of the
    # alpha witness W of the last node, both of dimension 1: the totals
    # stay, so the bandwidth cross-check passes, but W now meets a helper
    # in dimension 2 at the bound.  W is no node's lambda witness, so the
    # invariant fires only when it reads the alpha witness's W, first at
    # the lowest node repaired through it; the CLI exits 2 without a
    # traceback
    code = _spread_code(3, 6)
    path = tmp_path / "code.json"
    path.write_text(serialize(code))
    rep = repair_report(code)
    assert rep.exhaustive and all(nd.alpha == rep.point_capacity for nd in rep.nodes)
    w = rep.nodes[-1].alpha_witness.space
    assert w not in {nd.lambda_witness.space for nd in rep.nodes}
    first = min(nd.node for nd in rep.nodes if nd.alpha_witness.space == w)
    assert first > 0  # a flag over every W of the report would name node 0

    def wide(code, space):
        dims, zs, matrix = _rank_profile(code, space)
        if space == w:
            a, b = [j for j, d in enumerate(dims) if d == 1][:2]
            dims[a] += 1
            dims[b] -= 1
        return dims, zs, matrix

    monkeypatch.setattr(repair, "_rank_profile", wide)
    message = f"node {first}: bound attained but a helper intersection exceeds dim 1"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        repair_report(code)
    assert cli.run(["repair", "analyze", "--code", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"mdsrepair: verification failed: {message}\n"


def test_budget_errors():
    code = _spread_code(3, 6)
    with pytest.raises(BudgetExceededError):
        optimal_alpha(code, 0, budget=10)
    # ten candidates hold no repair subspace for some node, which is a
    # budget too small for the search; thirty give a partial report whose
    # lambdas are lower bounds
    with pytest.raises(BudgetExceededError, match="among the first 10 of 130 candidates"):
        repair_report(code, budget=10)
    full = repair_report(code)
    part = repair_report(code, budget=30)
    assert not part.exhaustive
    assert all(p.lam <= f.lam for p, f in zip(part.nodes, full.nodes))


def test_repair_report_fields_and_invariants():
    code = _spread_code(3, 8)
    rep = repair_report(code, budget=1000)
    assert (rep.n, rep.k, rep.ell, rep.q) == (8, 6, 2, 3)
    assert rep.bound == counting_bound(8, 2, 2, 3) == 10
    assert rep.point_capacity == 4
    assert rep.exhaustive
    assert rep.candidates_total == rep.candidates_scanned == 130
    assert rep.anomalies == ()
    assert len(rep.nodes) == 8
    for nd in rep.nodes:
        assert nd.beta == code.ell * (code.n - 1) - nd.alpha
        assert nd.gamma == code.ell * (code.n - 1) - nd.lam
        assert nd.lam <= nd.alpha
        assert nd.beta >= rep.bound
        assert nd.gamma >= nd.beta
        assert nd.attains_bw_bound == (nd.beta == rep.bound)
    assert rep.beta_max == max(nd.beta for nd in rep.nodes)
    assert rep.beta_avg == sum(nd.beta for nd in rep.nodes) / len(rep.nodes)
    assert rep.code_attains_bw in (True, False)


def test_repair_report_budget_prefix():
    code = _spread_code(3, 6)
    rep = repair_report(code, budget=40)
    assert not rep.exhaustive
    assert rep.candidates_scanned == 40
    assert rep.candidates_total == 130
    assert rep.code_attains_bw is None
    assert rep.code_attains_io is None


def test_two_node_code_report():
    # n = r = 2 means k = 0; with a single helper the report still stands
    code = _spread_code(2, 2)
    rep = repair_report(code)
    assert rep.n == 2 and rep.k == 0
    assert rep.exhaustive
    for nd in rep.nodes:
        assert 0 <= nd.beta <= code.ell


def test_node_capacity_clamp():
    # saved download can never exceed the projective point count of W
    for q in (2, 3):
        code = _spread_code(q, q * q + 1)
        rep = repair_report(code, budget=1000)
        for nd in rep.nodes:
            assert nd.alpha <= rep.point_capacity


def test_capacity_checks_need_nodes_that_meet_trivially():
    # the checks hold when the node subspaces pairwise meet trivially; a
    # second copy of member 1 lets W meet H_1 twice, and node 0 saves 4 of W's
    # 3 points, which the report refuses
    members = desarguesian_spread(2, 2).members
    code = code_from_intrinsic(members[:5] + members[1:2])
    assert (code.n, code.k, code.ell) == (6, 4, 2) and not is_mds(code).ok
    with pytest.raises(
        AssertionError, match="node 0: saving 4 exceeds the projective point capacity 3"
    ):
        repair_report(code)


def _non_mds_code_at_the_bound():
    """A (16, 13, 2) code over GF(2) whose node 0 meets every other node in a point."""
    field = field_of_order(2)
    e = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    tails = [e[4], e[5], tuple(a ^ b for a, b in zip(e[4], e[5]))]
    heads = [p + (0, 0) for p in itertools.product(range(2), repeat=4) if any(p)]
    nodes = [Subspace.from_rows(field, 6, [e[4], e[5]])]
    nodes += [Subspace.from_rows(field, 6, [p, tails[k % 3]]) for k, p in enumerate(heads)]
    return code_from_intrinsic(nodes)


def test_a_non_mds_code_may_meet_the_bound_at_three_parities():
    # the bound is negative at every MDS length for r >= 3, ell >= 2, so the
    # report does not check beta > bound; this non-MDS code meets it at node 0
    code = _non_mds_code_at_the_bound()
    assert (code.n, code.r, code.ell) == (16, 3, 2)
    assert not is_mds(code).ok
    rep = repair_report(code)
    assert rep.exhaustive and rep.bound == 15
    assert rep.nodes[0].beta == 15 and rep.nodes[0].attains_bw_bound
    assert all(nd.beta == 17 for nd in rep.nodes[1:])


def test_verify_bound_sweep_small():
    res = verify_bound_sweep(2, 2, 2, trials=4, seed=0)
    assert res.ok
    assert res.codes_tested == 4
    assert res.sampling_failures == 0
    assert res.nodes_checked == sum(3 + (i % 3) for i in range(4))
    assert res.min_slack is not None and res.min_slack >= 0


def test_sweep_records_the_bound_range_and_vacuity():
    res = verify_bound_sweep(2, 2, 3, trials=6, seed=3)
    # r = 3, ell = 2, q = 2: bound 2(n-1) - 15 over n = 4..6
    assert res.bound_range == (-9, -5)
    assert res.vacuous
    res = verify_bound_sweep(2, 2, 2, trials=3, seed=0)
    # r = 2, ell = 2, q = 2: bound 2(n-1) - 3 over n = 3..5
    assert res.bound_range == (1, 5)
    assert not res.vacuous
    mixed = verify_bound_sweep(3, 2, 2, trials=2, seed=0, n_values=[3, 4])
    assert mixed.bound_range == (0, 2) and not mixed.vacuous
    assert dataclasses.replace(mixed, bound_range=(-3, 0)).vacuous
    assert dataclasses.replace(mixed, bound_range=None).vacuous  # no code tested


def test_sweep_records_a_failed_report_as_a_violation(monkeypatch):
    # an oracle one dimension short fails the bandwidth cross-check of a
    # (2, 2, 2) code: the report raises, and the sweep keeps its message as
    # that code's violation
    n, seed = 4, 0
    monkeypatch.setattr(repair, "_rank_profile", _oracle_one_lower(0))
    code = random_mds_code(field_of_order(2), 2, 2, n, random.Random(seed))
    with pytest.raises(AssertionError, match="disagree on bw") as exc:
        repair_report(code)
    res = verify_bound_sweep(2, 2, 2, trials=1, seed=seed, n_values=[n])
    assert res.ok is False
    assert res.violations == (f"n={n}: {exc.value}",)
    assert res.codes_tested == 1 and res.nodes_checked == 0


def test_sweep_refuses_a_pool_over_the_cache_limit():
    # [3000, 1000]_2 is never counted; [12, 4]_2 = 13,910,980,083 is
    for ell in (1000, 4):
        with pytest.raises(BudgetExceededError, match="exceed the cache limit of 500000"):
            verify_bound_sweep(2, ell, 3, trials=1)


def test_verify_strictness_sweep_small():
    # strictness for r >= 3, ell >= 2 is a sign fact: the bound is negative at
    # every length an MDS code can have; check strictness samples it through
    # verify_bound_sweep, whose codes all sit above the bound
    for q, ell, r in itertools.product((2, 3, 4, 5, 7, 8, 9), (2, 3, 4), (3, 4, 5)):
        assert counting_bound(length_bound(q, ell, r), r, ell, q) < 0
    res = verify_bound_sweep(2, 2, 3, trials=3, seed=0)
    assert res.ok and res.vacuous
    assert res.equality_cases == ()
    assert res.min_slack is not None and res.min_slack >= 1


def test_sweep_respects_explicit_lengths():
    res = verify_bound_sweep(3, 2, 2, trials=2, seed=1, n_values=[5])
    assert res.codes_tested == 2
    assert res.nodes_checked == 10
