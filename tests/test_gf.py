import hashlib
import itertools
import math
import random
import time

import pytest
import sympy

from mdsrepair.gf import (
    TABLE_LIMIT,
    field_of_order,
    is_irreducible,
    make_extension,
    make_field,
    prime_power,
)
from mdsrepair.constructions import _SWAP, mobius_image
from mdsrepair.geometry import desarguesian_spread


def test_prime_field_arithmetic():
    f = make_field(7, 1)
    assert f.q == 7
    assert f.add(3, 5) == 1
    assert f.mul(3, 5) == 1
    assert f.sub(0, 1) == 6
    assert f.inv(3) == 5
    assert f.pow(3, 6) == 1


def test_default_moduli_are_the_smallest_irreducible():
    # integer encoding orders polynomials, constant term first
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1


def test_field_of_order_accepts_prime_powers_only():
    assert field_of_order(9).q == 9
    assert field_of_order(16).q == 16
    assert prime_power(27) == (3, 3)
    assert prime_power(65521) == (65521, 1)
    with pytest.raises(ValueError):
        field_of_order(6)
    with pytest.raises(ValueError):
        field_of_order(1)
    with pytest.raises(ValueError, match="exceeds cap 65536"):
        prime_power(65537)  # a prime, refused by the size cap alone
    # refused before trial division up to its square root, about 10^9 steps
    with pytest.raises(ValueError, match="exceeds cap"):
        field_of_order(1000000000000000003)


def test_reducible_modulus_rejected():
    assert not is_irreducible((1, 0, 0, 0, 1), 2)  # x^4 + 1 = (x+1)^4
    with pytest.raises(ValueError):
        make_field(2, 4, (1, 0, 0, 0, 1))


def test_field_laws_random():
    rng = random.Random(1)
    for q in (4, 8, 9, 25, 27, 49):
        f = field_of_order(q)
        for _ in range(60):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.sub(a, b) == f.add(a, f.neg(b))
            if b:
                assert f.mul(b, f.inv(b)) == 1
                assert f.div(a, b) == f.mul(a, f.inv(b))


def test_units_have_multiplicative_order_dividing_q_minus_1():
    for q in (9, 16, 27):
        f = field_of_order(q)
        for u in f.units():
            assert f.pow(u, q - 1) == 1


def test_large_field_without_tables():
    f = field_of_order(1 << 10)
    a, b = 513, 1000
    assert f.mul(a, f.inv(a)) == 1
    assert f.sub(f.add(a, b), b) == a


def test_extension_embedding_is_a_field_homomorphism():
    ext = make_extension(field_of_order(4), 2)
    base, top = ext.base, ext.top
    assert ext.embed(0) == 0 and ext.embed(1) == 1
    for a in base.elements():
        for b in base.elements():
            assert ext.embed(base.add(a, b)) == top.add(ext.embed(a), ext.embed(b))
            assert ext.embed(base.mul(a, b)) == top.mul(ext.embed(a), ext.embed(b))


def test_gf16_over_gf4_embedding_values():
    ext = make_extension(field_of_order(4), 2)
    assert ext.embed_tab == (0, 1, 6, 7)


def test_coords_round_trip_and_linearity():
    rng = random.Random(2)
    for q, ell in ((3, 2), (4, 2), (2, 3), (3, 3)):
        ext = make_extension(field_of_order(q), ell)
        top, base = ext.top, ext.base
        for _ in range(40):
            a = rng.randrange(top.q)
            vec = ext.to_coords(a)
            assert len(vec) == ell
            assert ext.from_coords(vec) == a
            b = rng.randrange(top.q)
            got = ext.to_coords(top.add(a, b))
            want = tuple(base.add(x, y) for x, y in zip(vec, ext.to_coords(b)))
            assert got == want
        # scaling by an embedded base scalar acts coordinate wise
        for _ in range(20):
            a = rng.randrange(top.q)
            c = rng.randrange(base.q)
            got = ext.to_coords(top.mul(ext.embed(c), a))
            want = tuple(base.mul(c, x) for x in ext.to_coords(a))
            assert got == want


def test_norm_lands_in_base_and_is_multiplicative():
    for q, ell in ((3, 2), (4, 2), (2, 3)):
        ext = make_extension(field_of_order(q), ell)
        top, base = ext.top, ext.base
        assert ext.norm(0) == 0 and ext.norm(1) == 1
        for a in top.units():
            na = ext.norm(a)
            assert 0 < na < base.q
        rng = random.Random(3)
        for _ in range(30):
            a, b = rng.randrange(1, top.q), rng.randrange(1, top.q)
            assert ext.norm(top.mul(a, b)) == base.mul(ext.norm(a), ext.norm(b))


def test_norm_on_embedded_elements_is_the_ell_power():
    for q, ell in ((3, 2), (4, 2), (2, 3)):
        ext = make_extension(field_of_order(q), ell)
        for c in ext.base.units():
            assert ext.norm(ext.embed(c)) == ext.base.pow(c, ell)


def test_embed_pair_round_trip():
    ext = make_extension(field_of_order(3), 2)
    rng = random.Random(4)
    for _ in range(30):
        a, b = rng.randrange(9), rng.randrange(9)
        vec = ext.embed_pair(a, b)
        assert len(vec) == 4
        assert (ext.from_coords(vec[:2]), ext.from_coords(vec[2:])) == (a, b)


def test_field_contexts_are_cached_and_comparable():
    assert make_field(3, 2) is make_field(3, 2)
    assert field_of_order(9) == make_field(3, 2)
    assert make_field(2, 2) != make_field(2, 1)


def test_is_irreducible_matches_sympy():
    x = sympy.symbols("x")
    for p in (2, 3, 5):
        for deg in range(1, 5):
            for low in itertools.product(range(p), repeat=deg):
                coeffs = (*low, 1)  # constant term first, monic
                want = sympy.Poly(coeffs[::-1], x, modulus=p).is_irreducible
                assert is_irreducible(coeffs, p) == want, (p, coeffs)


def test_field_tables_match_sympy_products():
    # every pair for the table fields; for the fields above TABLE_LIMIT,
    # which compute without tables, seeded sampled pairs
    x = sympy.symbols("x")
    rng = random.Random(5)
    for q in (4, 8, 9, 16, 25, 27, 289, 343, 1024):
        f = field_of_order(q)
        assert f.has_tables == (q <= TABLE_LIMIT)
        modulus = sympy.Poly(f.modulus[::-1], x, modulus=f.p)

        def poly(a):
            return sympy.Poly(f.to_poly(a)[::-1], x, modulus=f.p)

        def code_of(g):
            digits = [int(c) % f.p for c in g.all_coeffs()[::-1]]
            return sum(d * f.p**i for i, d in enumerate(digits))

        if f.has_tables:
            pairs = [(a, b) for a in range(q) for b in range(a, q)]
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(150)]
        for a, b in pairs:
            pa, pb = poly(a), poly(b)
            assert f.mul(a, b) == code_of((pa * pb).rem(modulus)), (q, a, b)
            assert f.add(a, b) == code_of(pa + pb), (q, a, b)
            assert f.sub(a, b) == code_of(pa - pb), (q, a, b)
            if b:
                assert f.inv(b) == code_of(pb.invert(modulus)), (q, b)



def test_field_tables_are_pinned():
    # sha256 over add, sub, mul and inv of all 70 table fields, in order of
    # q; pinned under the former per-pair polynomial products
    digest = hashlib.sha256()
    for q in range(2, TABLE_LIMIT + 1):
        if len(sympy.factorint(q)) == 1:
            f = field_of_order(q)
            digest.update(f.add_tab + f.sub_tab + f.mul_tab + f.inv_tab)
    assert digest.hexdigest() == (
        "aae254b4b84e4a122f98b3de3c62fdd97351f6d5eec0ad93bedb246b0b765abe"
    )

@pytest.mark.parametrize("q, ell, pinned", [
    (256, 2, "4f5c31e8af86fd2cc6987fd11d4d8b7c77a413f336570466daa91b3265aa4dc1"),
    (16, 4, "b6a9cfd27f562937431d093a543e6bfe91f93c1a93469b64561ca8434e4eb4de"),
])
def test_embeddings_at_the_cap_are_pinned_and_fast(q, ell, pinned):
    # the subfield root comes from a norm scan and its conjugates; pinned
    # under the former in-order scan of the top field for the smallest root
    t0 = time.perf_counter()
    ext = make_extension(field_of_order(q), ell)
    assert time.perf_counter() - t0 < 3
    assert hashlib.sha256(repr(ext.embed_tab).encode()).hexdigest() == pinned


def _extension_grid(top_limit):
    """Every (q, ell) with ell >= 2 and q^ell <= top_limit, q a prime power."""
    grid = []
    for q in range(2, math.isqrt(top_limit) + 1):
        if len(sympy.factorint(q)) == 1:
            grid += [(q, ell) for ell in range(2, 64) if q**ell <= top_limit]
    return grid


@pytest.mark.parametrize("q, ell", _extension_grid(4096))
def test_coordinates_are_the_power_basis(q, ell):
    # the unit vector e_j is y^j, y the class of x in the top field, whose
    # encoding is p; the grid holds bases with m > 1 (q = 4, 8, 9, 16, ...)
    ext = make_extension(field_of_order(q), ell)
    top = ext.top
    for j in range(ell):
        unit = tuple(int(i == j) for i in range(ell))
        assert ext.from_coords(unit) == top.pow(top.p, j)
        assert ext.to_coords(top.pow(top.p, j)) == unit


@pytest.mark.parametrize("q, ell", _extension_grid(1024))
def test_coordinates_round_trip_on_every_element(q, ell):
    ext = make_extension(field_of_order(q), ell)
    for a in ext.top.elements():
        vec = ext.to_coords(a)
        assert len(vec) == ell and all(0 <= v < q for v in vec)
        assert ext.from_coords(vec) == a


def test_spread_members_are_pinned():
    # sha256 over the field spread's member entries, then the same members
    # in mirror order (labels read through the swap map), on a grid with
    # bases of degree m > 1; pinned under the former GF(p) change of basis
    # coordinates and the former separate mirror spread
    digest = hashlib.sha256()
    grid = ((2, 3), (2, 4), (4, 2), (4, 3), (8, 2), (8, 3), (9, 2), (9, 3), (16, 2),
            (25, 2), (27, 2), (3, 4), (5, 3))
    for q, ell in grid:
        ext = make_extension(field_of_order(q), ell)
        spread = desarguesian_spread(q, ell)
        mirror = [spread.member(mobius_image(ext, _SWAP, s)) for s in spread.labels]
        for member in spread.members + tuple(mirror):
            digest.update(member.entries)
    assert digest.hexdigest() == (
        "cf7220f746a74448acaa036155c91f0c793b7485ae0a5ea2336a6b0489133f6e"
    )
