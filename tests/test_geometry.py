import itertools
import math
import random

import pytest

from mdsrepair.constructions import _SWAP, mobius_image
from mdsrepair.gf import field_of_order, make_extension
from mdsrepair.geometry import (
    INF,
    Regulus,
    desarguesian_member,
    desarguesian_spread,
    hit_set_counts,
    is_regular_spread,
    is_spread,
    regulus_through,
    replace_regulus,
)
from mdsrepair.linalg import all_subspaces, intersect_dim


def _nonmember_lines(field, spread):
    members = set(spread.members)
    return [m for m in all_subspaces(field, 4, 2) if m not in members]


def test_desarguesian_spread_sizes_and_labels():
    for q in (2, 3, 4, 5):
        s = desarguesian_spread(q, 2)
        assert len(s) == q**2 + 1
        assert s.labels == tuple(range(q**2)) + (INF,)
        assert is_spread(s.field, 2, s.members)
    s = desarguesian_spread(2, 3)
    assert len(s) == 9
    assert is_spread(s.field, 3, s.members)


def test_field_spread_over_a_top_field_without_tables():
    # GF(289) computes without tables: its members come from the
    # polynomial arithmetic, and all 290 must still partition the points
    s = desarguesian_spread(17, 2)
    assert not make_extension(field_of_order(17), 2).top.has_tables
    assert len(s) == 290
    assert is_spread(s.field, 2, s.members)


def test_member_shapes():
    ext = make_extension(field_of_order(3), 2)
    inf = desarguesian_member(ext, INF)
    assert inf.dim == 2
    assert all(row[:2] == (0, 0) for row in inf.basis_rows())
    zero = desarguesian_member(ext, 0)
    assert all(row[2:] == (0, 0) for row in zero.basis_rows())
    for c in (1, 5, 8):
        mem = desarguesian_member(ext, c)
        for row in mem.basis_rows():
            x = ext.from_coords(row[:2])
            y = ext.from_coords(row[2:])
            assert y == ext.top.mul(c, x)


def test_swap_map_mirrors_the_graphs():
    # the mirror member {(s*x, x)} is the field spread member of label
    # mobius_image(_SWAP, s): 1/s, with 0 and INF swapped
    ext = make_extension(field_of_order(3), 2)
    spread = desarguesian_spread(3, 2)
    for s in (0, 2, 7):
        mem = spread.member(mobius_image(ext, _SWAP, s))
        for row in mem.basis_rows():
            x = ext.from_coords(row[:2])
            y = ext.from_coords(row[2:])
            assert x == ext.top.mul(s, y)
    assert mobius_image(ext, _SWAP, INF) == 0
    assert mobius_image(ext, _SWAP, 0) is INF
    # nonzero labels match reciprocally: {(sx, x)} = {(x', s^-1 x')}
    for s in (1, 4, 6):
        assert mobius_image(ext, _SWAP, s) == ext.top.inv(s)


def test_is_spread_rejects_defects():
    field = field_of_order(2)
    s = desarguesian_spread(2, 2)
    short = is_spread(field, 2, s.members[:-1])
    assert not short and "expected" in short.reason
    dup = is_spread(field, 2, s.members[:-1] + (s.members[0],))
    assert not dup and dup.reason == "duplicate member"
    overlap = is_spread(field, 2, s.members[:-1] + (all_subspaces(field, 4, 2)[0],))
    assert not overlap


def test_regulus_through_three_members():
    for q in (2, 3, 4):
        s = desarguesian_spread(q, 2)
        rng = random.Random(20)
        for _ in range(5):
            a, b, c = rng.sample(list(s.members), 3)
            reg = regulus_through(a, b, c)
            assert len(reg.lines) == q + 1
            assert len(reg.transversals) == q + 1
            assert {a, b, c} <= set(reg.lines)
            for l1, l2 in itertools.combinations(reg.lines, 2):
                assert intersect_dim(l1, l2) == 0
            for t in reg.transversals:
                assert all(intersect_dim(t, l) == 1 for l in reg.lines)
            # the transversals are again a regulus, with the lines as its transversals
            opp = Regulus(reg.transversals, reg.lines)
            assert regulus_through(*opp.lines[:3]) == opp


def test_regulus_needs_skew_lines():
    field = field_of_order(3)
    lines = all_subspaces(field, 4, 2)
    a = lines[0]
    b = next(l for l in lines if intersect_dim(a, l) == 1)
    c = next(l for l in lines if intersect_dim(a, l) == 0 and intersect_dim(b, l) == 0)
    with pytest.raises(ValueError):
        regulus_through(a, b, c)


def _regular_by_triples(spread):
    """The per-triple oracle: every regulus through three members stays inside."""
    members = set(spread.members)
    return all(
        set(regulus_through(*trio).lines) <= members
        for trio in itertools.combinations(spread.members, 3)
    )


def test_field_spreads_are_regular():
    # the hit-set pass against the regulus oracle: a regular spread of
    # PG(3, q) has q(q^2+1) hit sets, the reguli, each shared by the q+1
    # lines of the opposite regulus
    for q, reguli in ((2, 10), (3, 30), (4, 68)):
        s = desarguesian_spread(q, 2)
        counts = hit_set_counts(s)
        assert len(counts) == reguli
        assert set(counts.values()) == {q + 1}
        check = is_regular_spread(s)
        assert check.ok and check.witness is None
        assert check.triples_checked == math.comb(q * q + 1, 3)
        assert _regular_by_triples(s)


def test_regulus_replacement_breaks_regularity():
    for q, hitsets in ((3, 90), (4, 288)):
        s = desarguesian_spread(q, 2)
        swapped = replace_regulus(s, regulus_through(*s.members[:3]))
        assert is_spread(swapped.field, 2, swapped.members)
        counts = hit_set_counts(swapped)
        assert len(counts) == hitsets
        check = is_regular_spread(swapped)
        assert not check.ok
        assert check.triples_checked == math.comb(q * q + 1, 3)
        assert not _regular_by_triples(swapped)
        # the witness comes from a hit set shared by fewer than q+1 lines
        assert not set(regulus_through(*check.witness).lines) <= set(swapped.members)


def test_meets_matches_rank_intersection():
    s = desarguesian_spread(3, 2)
    for w in all_subspaces(s.field, 4, 2):
        naive = {j for j, m in enumerate(s.members) if intersect_dim(w, m) > 0}
        assert s.meets(w) == naive


def test_regulus_replacement_is_invisible_for_q2():
    # with q = 2 both reguli of a hyperbolic quadric cover the same 9 points,
    # and every spread of PG(3, 2) is regular
    s = desarguesian_spread(2, 2)
    reg = regulus_through(*s.members[:3])
    swapped = replace_regulus(s, reg)
    assert is_spread(swapped.field, 2, swapped.members)
    assert is_regular_spread(swapped).ok


def test_every_outside_line_meets_exactly_q_plus_1_members():
    for q in (2, 3):
        field = field_of_order(q)
        s = desarguesian_spread(q, 2)
        outside = _nonmember_lines(field, s)
        assert len(outside) + len(s) == len(all_subspaces(field, 4, 2))
        for m in outside:
            hit = [s.members[j] for j in s.meets(m)]
            assert len(hit) == q + 1
            # every point of m lies on exactly one member, so the meets are points
            assert all(intersect_dim(m, L) == 1 for L in hit)


def test_transversal_members_of_a_regular_spread_form_a_regulus():
    s = desarguesian_spread(3, 2)
    field = s.field
    rng = random.Random(21)
    outside = _nonmember_lines(field, s)
    for m in rng.sample(outside, 10):
        hit = [s.members[j] for j in s.meets(m)]
        reg = regulus_through(hit[0], hit[1], hit[2])
        assert set(reg.lines) == set(hit)
        assert m in reg.transversals


def test_distinct_reguli_share_at_most_two_members():
    s = desarguesian_spread(3, 2)
    rng = random.Random(22)
    outside = _nonmember_lines(s.field, s)
    sets = {s.meets(m) for m in rng.sample(outside, 30)}
    for a, b in itertools.combinations(sets, 2):
        assert len(a & b) <= 2
