import bisect
import itertools
import random

import pytest

from mdsrepair import linalg
from mdsrepair._kernel import rre_rank, rref_rank
from mdsrepair.gf import field_of_order
from mdsrepair.linalg import (
    MatrixGF,
    Subspace,
    all_subspaces,
    annihilator,
    combine_rows,
    enumerate_subspaces,
    gaussian_binomial,
    incidence_blocks,
    intersect_dim,
    inverse,
    kernel,
    point_at,
    points_mask,
    proj_point,
    projective_point_count,
    projective_points,
    rank,
    rref,
    subspace_at,
    subspace_intersection,
    subspace_sum,
)


def _random_matrix(rng, field, rows, cols):
    return MatrixGF(field, rows, cols, tuple(rng.randrange(field.q) for _ in range(rows * cols)))


def _naive_rank(field, mat):
    # plain elimination over FieldCtx ops, independent of the flat table kernels
    rows = [list(mat.row(i)) for i in range(mat.rows)]
    r = 0
    for col in range(mat.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pinv = field.inv(rows[r][col])
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                fac = field.mul(rows[i][col], pinv)
                rows[i] = [field.sub(a, field.mul(fac, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_matches_naive_elimination():
    rng = random.Random(10)
    for q in (2, 3, 4, 5, 9):
        field = field_of_order(q)
        for _ in range(40):
            m = _random_matrix(rng, field, rng.randrange(1, 6), rng.randrange(1, 6))
            assert rank(m) == _naive_rank(field, m)


def test_rref_shape():
    rng = random.Random(11)
    field = field_of_order(4)
    for _ in range(30):
        m = _random_matrix(rng, field, rng.randrange(1, 5), rng.randrange(1, 6))
        red, r = rref(m)
        assert r == rank(m)
        pivots = []
        for i in range(r):
            j = next(c for c in range(red.cols) if red.entry(i, c))
            assert red.entry(i, j) == 1
            assert all(red.entry(k, j) == 0 for k in range(red.rows) if k != i)
            pivots.append(j)
        assert pivots == sorted(pivots)


@pytest.mark.parametrize("q", [2, 4, 5, 16, 25, 256])
def test_matrix_multiply_against_direct_sum(q):
    # q <= 16 takes combine_rows' whole-integer path, larger q the entry by
    # entry one; GF(256) puts codes of 128 and above into the bytes
    rng = random.Random(12)
    field = field_of_order(q)
    for _ in range(20):
        a = _random_matrix(rng, field, 3, 4)
        b = _random_matrix(rng, field, 4, 2)
        c = a.mul(b)
        for i in range(3):
            for j in range(2):
                acc = 0
                for t in range(4):
                    acc = field.add(acc, field.mul(a.entry(i, t), b.entry(t, j)))
                assert c.entry(i, j) == acc
        vec = tuple(rng.randrange(q) for _ in range(4))
        assert a.mul_vec(vec) == tuple(
            a.mul(MatrixGF(field, 4, 1, vec)).entry(i, 0) for i in range(3)
        )
    codes = [rng.randrange(q) for _ in range(12)]
    built = [MatrixGF(field, 3, 4, e) for e in (tuple(codes), codes, bytes(codes))]
    assert all(isinstance(m.entries, bytes) for m in built)
    assert built[0] == built[1] == built[2]
    assert len({hash(m) for m in built}) == 1


def test_kernel_is_the_right_null_space():
    rng = random.Random(13)
    for q in (2, 3, 4):
        field = field_of_order(q)
        for _ in range(25):
            m = _random_matrix(rng, field, rng.randrange(1, 5), rng.randrange(1, 6))
            ker = kernel(m)
            assert ker.dim == m.cols - rank(m)
            for row in ker.basis_rows():
                assert all(v == 0 for v in m.mul_vec(row))


def test_annihilator_is_the_kernel_of_the_basis_matrix():
    # read off the reduced basis, the annihilator is the kernel that row
    # reduces the basis matrix afresh, and it annihilates every basis row
    rng = random.Random(15)
    for q in (2, 3, 4, 5):
        field = field_of_order(q)
        for _ in range(25):
            m = _random_matrix(rng, field, rng.randrange(1, 5), rng.randrange(1, 6))
            space = Subspace.from_rows(field, m.cols, m.to_rows())
            ann = annihilator(space)
            assert ann == kernel(space.basis_matrix) == kernel(m)
            for row in ann.basis_rows():
                assert all(v == 0 for v in space.basis_matrix.mul_vec(row))


def _per_entry_combination(field, coeffs, rows, width):
    """sum_t coeffs[t] * rows[t] entry by entry through the flat tables."""
    q = field.q
    acc = [0] * width
    for c, row in zip(coeffs, rows):
        for t, v in enumerate(row):
            acc[t] = field.add_tab[acc[t] * q + field.mul_tab[c * q + v]]
    return bytes(acc)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 17, 25, 27, 256])
def test_combine_rows_matches_the_per_entry_sum(q):
    # whole-row sums for q <= 16 and entry-by-entry ones above agree with
    # the table sum, for single rows, zero and unit coefficients, all-zero
    # coefficients and every entry value at the row's ends
    field = field_of_order(q)
    rng = random.Random(q)
    for width in (1, 81, 600):
        for count in (1, 2, 5, 9):
            rows = [bytes(rng.randrange(q) for _ in range(width)) for _ in range(count)]
            rows[0] = bytes([q - 1] * width)
            coeffs = [rng.randrange(q) for _ in range(count)]
            coeffs[-1] = 0
            for cs in (coeffs, [1] * count, [q - 1] * count, [0] * count):
                got = combine_rows(field, cs, rows, width)
                assert type(got) is bytes and len(got) == width
                assert got == _per_entry_combination(field, cs, rows, width)


def test_inverse_round_trip_and_singular_rejection():
    rng = random.Random(14)
    field = field_of_order(9)
    ident = MatrixGF(field, 3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 1))
    found = 0
    while found < 10:
        m = _random_matrix(rng, field, 3, 3)
        if rank(m) < 3:
            with pytest.raises(ValueError):
                inverse(m)
            continue
        assert m.mul(inverse(m)) == ident
        assert inverse(m).mul(m) == ident
        found += 1


def _contains(space, vec):
    """vec lies in space exactly when adding it leaves the dimension unchanged."""
    rows = [*space.basis_rows(), vec]
    return Subspace.from_rows(space.field, space.ambient_dim, rows).dim == space.dim


def test_subspace_canonical_form():
    field = field_of_order(3)
    a = Subspace.from_rows(field, 3, [(1, 1, 0), (0, 0, 1)])
    b = Subspace.from_rows(field, 3, [(2, 2, 1), (1, 1, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2
    assert _contains(a, (2, 2, 0))
    assert not _contains(a, (1, 0, 0))
    assert Subspace.from_rows(field, 3, []).dim == 0


def test_dimension_formula_for_sum_and_intersection():
    rng = random.Random(15)
    for q in (2, 3):
        field = field_of_order(q)
        for _ in range(40):
            dim = rng.randrange(1, 4)
            u = Subspace.from_rows(
                field, 4, [[rng.randrange(q) for _ in range(4)] for _ in range(dim)]
            )
            v = Subspace.from_rows(
                field, 4, [[rng.randrange(q) for _ in range(4)] for _ in range(rng.randrange(1, 4))]
            )
            cap = subspace_intersection(u, v)
            tot = subspace_sum(u, v)
            assert cap.dim == intersect_dim(u, v)
            assert tot.dim + cap.dim == u.dim + v.dim
            for big, small in ((u, cap), (v, cap), (tot, u), (tot, v)):
                assert all(_contains(big, row) for row in small.basis_rows())


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_intersection_holds_exactly_the_common_points(q):
    # an oracle independent of any elimination: the points of U meet V are
    # the points U and V share; every pair of dimensions 0..d is drawn
    field = field_of_order(q)
    rng = random.Random(q)
    for d in range(1, 6):
        for k, m in itertools.product(range(d + 1), repeat=2):
            u, v = (
                subspace_at(field, d, j, rng.randrange(gaussian_binomial(d, j, q)))
                for j in (k, m)
            )
            cap = subspace_intersection(u, v)
            assert cap.point_mask == u.point_mask & v.point_mask
            assert cap.dim == intersect_dim(u, v)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 2, 4) == 357
    assert gaussian_binomial(6, 4, 2) == 651
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(3, 4, 2) == 0


def test_gaussian_binomial_recurrence():
    # [n k]_q = q^k [n-1 k]_q + [n-1 k-1]_q
    for q in (2, 3, 4):
        for n in range(1, 7):
            for k in range(1, n + 1):
                lhs = gaussian_binomial(n, k, q)
                rhs = q**k * gaussian_binomial(n - 1, k, q) + gaussian_binomial(n - 1, k - 1, q)
                assert lhs == rhs


def test_subspace_enumeration_count_and_uniqueness():
    for q, n, k in ((2, 4, 2), (3, 3, 1), (3, 4, 2), (4, 3, 2)):
        field = field_of_order(q)
        subs = all_subspaces(field, n, k)
        assert len(subs) == gaussian_binomial(n, k, q)
        assert len(set(subs)) == len(subs)
        for s in subs[:20]:
            assert s.dim == k and s.ambient_dim == n


def test_projective_points():
    assert projective_point_count(2, 3) == 4
    assert projective_point_count(2, 4) == 5
    assert projective_point_count(4, 2) == 15
    assert projective_point_count(3, 2) == 7
    field = field_of_order(3)
    space = Subspace.from_rows(field, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    pts = projective_points(space)
    assert len(pts) == 4
    assert len(set(pts)) == 4
    for p in pts:
        assert _contains(space, p)
        assert next(v for v in p if v) == 1


def test_proj_point_normalizes_scalar_multiples():
    field = field_of_order(5)
    p = proj_point(field, (2, 4, 0))
    assert p == proj_point(field, (1, 2, 0))
    assert p == proj_point(field, (3, 1, 0))
    with pytest.raises(ValueError):
        proj_point(field, (0, 0, 0))


def test_row_reduction_kernels_fixed_answers():
    cases = (
        # q, rows, cols, entries, rank, reduced nonzero rows
        (2, 2, 2, (0, 1, 1, 1), 2, (1, 0, 0, 1)),
        (3, 3, 3, (1, 2, 0, 2, 1, 0, 0, 1, 1), 2, (1, 0, 1, 0, 1, 1)),
        (5, 2, 2, (2, 4, 1, 2), 1, (1, 2)),
        (5, 0, 3, (), 0, ()),
    )
    for q, rows, cols, entries, r, reduced in cases:
        f = field_of_order(q)
        tabs = (q, f.sub_tab, f.mul_tab, f.inv_tab)
        assert rre_rank(bytearray(entries), rows, cols, *tabs) == r
        buf = bytearray(entries)
        assert rref_rank(buf, rows, cols, *tabs) == r
        assert tuple(buf[: r * cols]) == reduced
        assert not any(buf[r * cols :])


@pytest.mark.parametrize("q, d", [(2, 4), (3, 4), (4, 4), (2, 5), (3, 3), (5, 3)])
def test_point_numbers_are_a_bijection_that_agrees_with_proj_point(q, d):
    # every nonzero vector gets the number of its projective point, the
    # numbers run through range(point count) once each, by leading 1 and tail,
    # and point_at reads the point back off its number
    f = field_of_order(q)
    seen = {}
    for vec in itertools.product(range(q), repeat=d):
        if any(vec):
            rep = proj_point(f, vec)
            num = points_mask(f, d, [rep]).bit_length() - 1
            assert seen.setdefault(rep, num) == num
            assert point_at(q, d, num) == rep
    assert sorted(seen.values()) == list(range(projective_point_count(d, q)))
    assert sorted(seen, key=seen.get) == sorted(seen, key=lambda rep: (rep.index(1), rep))


def _transposed_masks(f, d, k, end):
    """The oracle: per point bit, the positions of the first end subspaces holding it."""
    rows = [bytearray(end // 8 + 1) for _ in range(projective_point_count(d, f.q))]
    for c, w in enumerate(itertools.islice(enumerate_subspaces(f, d, k), end)):
        for b, bit in enumerate(bin(w.point_mask)[:1:-1]):
            if bit == "1":
                rows[b][c >> 3] |= 1 << (c & 7)
    return [int.from_bytes(row, "little") for row in rows]


@pytest.mark.parametrize(
    "q, d, k", [(2, 4, 2), (3, 4, 2), (4, 4, 2), (2, 6, 3), (3, 6, 3), (2, 6, 4)]
)
def test_subspace_incidence_is_the_transpose_of_point_masks(q, d, k):
    f = field_of_order(q)
    total = gaussian_binomial(d, k, q)
    assert list(linalg.subspace_incidence(f, d, k)) == _transposed_masks(f, d, k, total)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_incidence_blocks_match_the_transposed_masks(q):
    # blocks tile [0, end) in order, each one slice of one pivot set of at
    # most chunk subspaces; ends fall inside a block and inside a split
    # pivot set (the first, of q^4 subspaces)
    f = field_of_order(q)
    total = gaussian_binomial(4, 2, q)
    want = _transposed_masks(f, 4, 2, total)
    starts = linalg._pivot_sets(q, 4, 2)[0]
    for chunk in (1, 5, q * q):
        for end in (1, 2, 7, q**3 + 1, total - 1, total):
            rows = [0] * len(want)
            pos = 0
            for start, length, block in incidence_blocks(f, 4, 2, end, chunk):
                assert start == pos and 0 < length <= chunk
                k = bisect.bisect_right(starts, start) - 1
                assert start + length <= (starts + (total,))[k + 1]
                for b, row in enumerate(block):
                    assert row >> length == 0
                    rows[b] |= row << start
                pos += length
            assert pos == end
            assert rows == [row & ((1 << end) - 1) for row in want]


@pytest.mark.parametrize(
    "q, d, k",
    [(2, 4, 2), (3, 4, 2), (4, 4, 2), (2, 6, 2), (2, 6, 3), (2, 6, 4),
     (3, 5, 2), (3, 6, 3), (2, 3, 0), (2, 3, 3)],
)
def test_subspace_at_inverts_the_enumeration(q, d, k):
    f = field_of_order(q)
    total = gaussian_binomial(d, k, q)
    count = 0
    for i, want in enumerate(enumerate_subspaces(f, d, k)):
        got = subspace_at(f, d, k, i)
        assert (got.dim, got.entries, got.pivots) == (want.dim, want.entries, want.pivots)
        count += 1
    assert count == total
    for i in (-1, total):
        with pytest.raises(IndexError):
            subspace_at(f, d, k, i)


@pytest.mark.parametrize("q, d, k", [(3, 6, 3), (2, 4, 2)])
def test_subspace_at_reads_its_count_off_the_pivot_sets(q, d, k, monkeypatch):
    # the count is the last pivot set's start plus its size, so no call
    # recomputes the Gaussian binomial; both ends out of range still raise
    # IndexError naming the count
    f = field_of_order(q)
    total = gaussian_binomial(d, k, q)
    last = list(enumerate_subspaces(f, d, k))[-1]

    def refuse(*args):
        raise AssertionError("subspace_at recomputed the Gaussian binomial")

    monkeypatch.setattr(linalg, "gaussian_binomial", refuse)
    assert subspace_at(f, d, k, total - 1) == last
    for i in (-1, total):
        with pytest.raises(IndexError, match=rf"^subspace {i} out of range for {total} subspaces$"):
            subspace_at(f, d, k, i)
