import hashlib
import math
import random
import time

import pytest

from mdsrepair.code import code_from_intrinsic, is_mds, serialize
from mdsrepair.constructions import (
    _SWAP,
    build_exceptional,
    build_two_parity_code,
    check_block_intersection_bound,
    hit_set,
    mobius_image,
    norm_kernel,
    regular_spread_converse_check,
    w_g_subspace,
    wb_subspace,
)
from mdsrepair.geometry import INF, desarguesian_member, desarguesian_spread
from mdsrepair.gf import field_of_order, make_extension, prime_power
from mdsrepair.linalg import intersect_dim, projective_point_count
from mdsrepair.repair import counting_bound, repair_report


def _ext(q, ell=2):
    return make_extension(field_of_order(q), ell)


def test_norm_kernel_values():
    assert norm_kernel(_ext(3)) == frozenset({1, 2, 3, 6})
    assert norm_kernel(_ext(4)) == frozenset({1, 8, 10, 12, 15})
    assert len(norm_kernel(_ext(5))) == projective_point_count(2, 5) == 6


def test_norm_kernel_is_a_subgroup():
    for q in (3, 4, 5):
        ext = _ext(q)
        sigma = norm_kernel(ext)
        assert 1 in sigma
        for a in sigma:
            assert ext.top.inv(a) in sigma
            for b in sigma:
                assert ext.top.mul(a, b) in sigma


def test_wb_subspace_hits_exactly_the_coset():
    # W_b meets H_c in a line exactly when c/b has norm 1, and misses
    # H_0 and H_infinity entirely
    for q in (3, 4):
        ext = _ext(q)
        spread = desarguesian_spread(q, 2)
        sigma = norm_kernel(ext)
        for b in (1, 2):
            w = wb_subspace(ext, b)
            assert w.dim == 2
            coset = {ext.top.mul(b, u) for u in sigma}
            for label in spread.labels:
                d = intersect_dim(w, spread.member(label))
                if label is INF or label == 0:
                    assert d == 0
                elif label in coset:
                    assert d == 1
                else:
                    assert d == 0


def test_b2_off_the_norm_kernel_matches_the_norm_oracle():
    # build_two_parity_code takes b2 as the smallest unit outside
    # norm_kernel, the image of u -> u^(q-1); ExtensionCtx.norm is the
    # independent oracle, whose fibre over 1 must be that image
    cases = 0
    for q in range(3, 33):
        try:
            prime_power(q)
        except ValueError:
            continue
        for ell in range(2, 11):
            if q**ell > 1024:
                break
            ext = _ext(q, ell)
            sigma = norm_kernel(ext)
            assert sigma == frozenset(u for u in ext.top.units() if ext.norm(u) == 1)
            b2 = next(u for u in ext.top.units() if u not in sigma)
            assert b2 == min(u for u in ext.top.units() if ext.norm(u) != 1)
            cases += 1
    assert cases == 29


def test_wb_rejects_zero():
    with pytest.raises(ValueError):
        wb_subspace(_ext(3), 0)


def test_two_parity_q3_plan():
    # omega is the norm kernel {1, 2, 3, 6} and the coset 4 * kernel
    # {4, 5, 7, 8}; kernel nodes repair through W_4, the others through W_1
    ext = _ext(3)
    code, wits = build_two_parity_code(3, 2, 8)
    assert norm_kernel(ext) == frozenset({1, 2, 3, 6})
    omega = (1, 2, 3, 4, 5, 6, 7, 8)
    assert code.node_subspaces == tuple(desarguesian_member(ext, c) for c in omega)
    assert len(wits) == 8
    assert is_mds(code).ok
    for label, wit in zip(omega, wits):
        b = 4 if label in norm_kernel(ext) else 1
        assert wit.space == wb_subspace(ext, b)


def test_two_parity_q3_node_sets_grow_with_n():
    ext = _ext(3)
    omegas = {9: tuple(range(9)), 10: tuple(range(9)) + (INF,)}
    for n, omega in omegas.items():
        code, _ = build_two_parity_code(3, 2, n)
        assert code.node_subspaces == tuple(desarguesian_member(ext, c) for c in omega)


def test_two_parity_q3_attains_everywhere():
    for n in (8, 9, 10):
        code, wits = build_two_parity_code(3, 2, n)
        target = 2 * (n - 1) - 4
        assert counting_bound(n, 2, 2, 3) == target
        for wit in wits:
            assert wit.bw == target
            assert wit.io == target
        rep = repair_report(code, budget=1000)
        assert rep.exhaustive and rep.candidates_total == 130
        assert rep.beta_avg == rep.beta_max == target
        assert rep.gamma_avg == rep.gamma_max == target
        assert rep.code_attains_bw and rep.code_attains_io


def test_two_parity_q4_spot_checks():
    ext = _ext(4)
    sigma = norm_kernel(ext)
    assert sigma == frozenset({1, 8, 10, 12, 15})
    for n in (10, 17):
        code, wits = build_two_parity_code(4, 2, n)
        # b2 = 2, the smallest unit outside the kernel, repairs the kernel nodes
        for h, wit in zip(code.node_subspaces, wits):
            in_kernel = any(h == desarguesian_member(ext, c) for c in sigma)
            assert wit.space == wb_subspace(ext, 2 if in_kernel else 1)
        target = 2 * (n - 1) - 5
        assert all(w.bw == target and w.io == target for w in wits)
        rep = repair_report(code, budget=1000)
        assert rep.exhaustive and rep.candidates_total == 357
        assert rep.beta_max == rep.gamma_max == target
        assert rep.code_attains_bw and rep.code_attains_io


def test_two_parity_rejections():
    with pytest.raises(ValueError):
        build_two_parity_code(2, 2, 4)  # binary base field has a trivial norm
    with pytest.raises(ValueError):
        build_two_parity_code(3, 1, 4)
    with pytest.raises(ValueError):
        build_two_parity_code(3, 2, 5)  # below every known attaining length
    with pytest.raises(ValueError):
        build_two_parity_code(3, 2, 11)  # beyond the length bound
    with pytest.raises(ValueError):
        build_two_parity_code(4, 2, 8)


def test_two_parity_dispatches_short_lengths():
    # below 2(q+1) nodes the coset construction cannot work; the catalog
    # codes take over for the lengths where attainment is still possible
    for q, n in ((3, 6), (3, 7), (4, 9)):
        code, wits = build_two_parity_code(q, 2, n)
        assert (code, wits) == build_exceptional(f"q{q}n{n}")
        assert code.n == n
        target = 2 * (n - 1) - (q + 1)
        assert all(w.bw == target and w.io == target for w in wits)


def test_planted_codes_are_byte_identical():
    # sha256 over every two parity length for (3,2), (4,2), (3,3) and the
    # three catalog codes: the serialized code, then each witness space;
    # pinned when the two builders still planted their probes separately
    digest = hashlib.sha256()
    cases = []
    for q, ell in ((3, 2), (4, 2), (3, 3)):
        t = projective_point_count(ell, q)
        for n in range(min(2 * t, 3 * t - 6), q**ell + 2):
            cases.append(build_two_parity_code(q, ell, n))
    cases += [build_exceptional(case) for case in ("q3n6", "q3n7", "q4n9")]
    for code, wits in cases:
        digest.update(serialize(code).encode())
        for wit in wits:
            digest.update(bytes(wit.space.entries))
    assert len(cases) == 20
    assert digest.hexdigest() == (
        "069dc351e1472d658e4113604d403d3191a750a485db0a4dc4caebefa70f16f8"
    )


def test_mobius_image_matches_direct_transport():
    # the labels hit by W_g are the image of the base projective line
    # under the fractional linear map of g
    rng = random.Random(40)
    for q in (3, 4):
        ext = _ext(q)
        spread = desarguesian_spread(q, 2)
        top = ext.top
        base_line = [ext.embed(c) for c in ext.base.elements()] + [INF]
        for _ in range(8):
            while True:
                a, b, c, d = (rng.randrange(top.q) for _ in range(4))
                if top.sub(top.mul(a, d), top.mul(b, c)):
                    break
            g = ((a, b), (c, d))
            w = w_g_subspace(ext, g)
            got = hit_set(w, spread, ext, g=g)
            want = frozenset(mobius_image(ext, g, s) for s in base_line)
            assert got == want
            assert len(got) == q + 1


def test_hit_set_against_naive_intersection():
    ext = _ext(3)
    spread = desarguesian_spread(3, 2)
    rng = random.Random(41)
    for _ in range(6):
        while True:
            a, b, c, d = (rng.randrange(9) for _ in range(4))
            if ext.top.sub(ext.top.mul(a, d), ext.top.mul(b, c)):
                break
        g = ((a, b), (c, d))
        w = w_g_subspace(ext, g)
        got = hit_set(w, spread, ext, g=g)
        naive = {
            mobius_image(ext, _SWAP, label)
            for label in spread.labels
            if intersect_dim(w, spread.member(label)) == 1
        }
        assert got == frozenset(naive)


def test_exceptional_catalog():
    expected = {"q3n6": 6, "q3n7": 8, "q4n9": 11}
    for case, target in expected.items():
        code, wits = build_exceptional(case)
        assert is_mds(code).ok
        assert all(w.bw == target and w.io == target for w in wits)
        rep = repair_report(code, budget=1000)
        assert rep.beta_avg == rep.beta_max == target
        assert rep.gamma_avg == rep.gamma_max == target
        assert rep.code_attains_bw and rep.code_attains_io
    with pytest.raises(ValueError):
        build_exceptional("q3n8")


def test_exceptional_probe_hit_sets():
    # three probe subspaces per case cover the node set; recorded here,
    # recomputed from scratch inside the builder
    ext3, ext4 = _ext(3), _ext(4)
    spread3, spread4 = desarguesian_spread(3, 2), desarguesian_spread(4, 2)
    gs3 = (((1, 0), (0, 1)), ((3, 1), (0, 1)), ((0, 6), (1, 3)))
    probes3 = tuple(hit_set(w_g_subspace(ext3, g), spread3, ext3, g=g) for g in gs3)
    assert probes3 == (
        frozenset({INF, 0, 1, 2}),
        frozenset({INF, 1, 4, 7}),
        frozenset({0, 2, 4, 7}),
    )
    gs4 = (((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 2), (3, 1)))
    probes4 = tuple(hit_set(w_g_subspace(ext4, g), spread4, ext4, g=g) for g in gs4)
    assert probes4 == (
        frozenset({INF, 0, 1, 6, 7}),
        frozenset({INF, 0, 2, 12, 14}),
        frozenset({2, 6, 7, 8, 14}),
    )


def test_block_bound_on_probe_families():
    ext, spread = _ext(3), desarguesian_spread(3, 2)
    gs = (((1, 0), (0, 1)), ((3, 1), (0, 1)), ((0, 6), (1, 3)))
    family = [hit_set(w_g_subspace(ext, g), spread, ext, g=g) for g in gs]
    ok, cert = check_block_intersection_bound(family)
    assert ok
    assert cert.t == 4
    assert cert.bound == 6
    assert cert.n_effective == 6  # q3n6 uses every point, the bound is tight
    assert 2 <= len(cert.core) <= 4
    assert not frozenset.intersection(*cert.core)


def test_block_bound_violations():
    ok, cert = check_block_intersection_bound([{1, 2, 3}, {1, 4, 5}, {1, 6, 7}])
    assert not ok and "common" in cert.violation
    ok, cert = check_block_intersection_bound([{1, 2, 3, 4}, {1, 2, 3, 5}, {4, 5, 6, 7}])
    assert not ok and "shares" in cert.violation
    ok, cert = check_block_intersection_bound([{1, 2, 3}, {4, 5, 6}])
    assert ok and cert.n_effective == 6 and cert.bound == 3
    with pytest.raises(ValueError):
        check_block_intersection_bound([])
    with pytest.raises(ValueError):
        check_block_intersection_bound([{1, 2}, {1, 2, 3}])


def test_converse_exhaustive_q3():
    report = regular_spread_converse_check(3)
    assert report.ok
    assert (report.lo, report.hi) == (6, 10)
    assert report.probes == 130
    assert report.reguli == 30
    assert [f.n for f in report.forward] == [6, 7, 8, 9, 10]
    for f in report.forward:
        assert f.code_attains_io
        assert f.beta_avg == f.beta_max == f.bound
        assert f.gamma_avg == f.gamma_max == f.bound
    by_n = {c.n: c for c in report.converse}
    assert set(by_n) == {3, 4, 5}
    assert all(c.mode == "exhaustive" for c in report.converse)
    assert (by_n[3].subsets, by_n[4].subsets, by_n[5].subsets) == (120, 210, 252)
    assert (by_n[3].node_attaining, by_n[4].node_attaining) == (0, 0)
    # single nodes can attain at n = 5: any five members containing a
    # regulus give its complementary node a bound meeting repair scheme
    assert by_n[5].node_attaining == 180
    assert all(c.code_attaining == 0 for c in report.converse)


def test_converse_shortcut_matches_regulus_membership():
    # at n = 5 over q = 3 a node attains the bound exactly when the other
    # four spread members form a regulus
    from mdsrepair.geometry import regulus_through

    spread = desarguesian_spread(3, 2)
    bound5 = counting_bound(5, 2, 2, 3)
    rng = random.Random(42)
    combos = [tuple(sorted(rng.sample(range(10), 5))) for _ in range(6)]
    combos.append((0, 1, 2, 3, 4))
    for combo in combos:
        code = code_from_intrinsic([spread.members[j] for j in combo])
        assert is_mds(code).ok
        rep = repair_report(code)
        assert rep.bound == bound5 and rep.exhaustive
        for pos, nd in enumerate(rep.nodes):
            others = [spread.members[j] for p, j in enumerate(combo) if p != pos]
            reg = regulus_through(others[0], others[1], others[2])
            is_regulus = set(others) == set(reg.lines)
            assert nd.attains_bw_bound == is_regulus
            assert nd.beta >= bound5


def test_converse_sampled_q4():
    report = regular_spread_converse_check(4, samples=25, seed=0)
    assert report.ok
    assert report.probes == 357
    assert report.reguli == 68
    assert (report.lo, report.hi) == (9, 17)
    assert all(c.code_attaining == 0 for c in report.converse)


def test_converse_q4_is_exhaustive_where_samples_cover_every_subset():
    t0 = time.perf_counter()
    report = regular_spread_converse_check(4, samples=10**8)
    assert time.perf_counter() - t0 < 20
    assert report.ok
    assert [c.n for c in report.converse] == list(range(3, 9))
    for c in report.converse:
        assert c.mode == "exhaustive"
        assert c.subsets == math.comb(17, c.n)
        assert c.code_attaining == 0
    # only n = 3 has at most 700 subsets
    report = regular_spread_converse_check(4, samples=700)
    assert [(c.mode, c.subsets) for c in report.converse] == (
        [("exhaustive", 680)] + [("sampled", 700)] * 5
    )
