"""Matrices, subspaces and subspace enumeration over small finite fields.

Everything here is exact and deterministic.  Matrices and subspaces are
immutable value objects whose entries, field codes row by row, are one
bytes object; every matrix product is taken by combine_rows.  A subspace
is always held in reduced row echelon form, which makes equality, hashing
and enumeration order canonical.  A projective point is the tuple of its
normalised representative, whose first nonzero entry is 1.  The points of
F_q^d carry canonical numbers: the point whose leading 1 sits at position
L is number sum_{k<L} q^(d-1-k) plus its entries after L read as a base q
numeral.  That numbers the (q^d - 1)/(q - 1) points from 0 up, ordered by
L and then by the tail, and bit b of every point mask stands for point
number b.
"""
from __future__ import annotations

import bisect
import functools
import itertools
from collections.abc import Iterable, Iterator, Sequence

from ._kernel import rre_rank, rref_rank
from .gf import FieldCtx

DEFAULT_ENUM_BUDGET = 10**7
_CACHE_LIMIT = 500_000


class BudgetExceededError(RuntimeError):
    """An enumeration or search would exceed its configured budget."""


def _require_tables(field: FieldCtx) -> None:
    if not field.has_tables:
        raise ValueError(f"{field!r} is too large for matrix arithmetic")


class MatrixGF:
    """Immutable matrix; entries holds bytes(entries), row(i) and col(j) bytes slices."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldCtx, rows: int, cols: int, entries: Iterable[int]):
        _require_tables(field)
        entries = bytes(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field: FieldCtx, rows: Sequence[Sequence[int]]) -> MatrixGF:
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(field.check(x) for x in row)
        return cls(field, r, c, flat)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> bytes:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> bytes:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: MatrixGF) -> MatrixGF:
        """Row i of self * other is the combination of other's rows by row i of self."""
        if self.field != other.field or self.cols != other.rows:
            raise ValueError("shape or field mismatch")
        rows = [other.row(t) for t in range(other.rows)]
        out = [combine_rows(self.field, self.row(i), rows, other.cols) for i in range(self.rows)]
        return MatrixGF(self.field, self.rows, other.cols, b"".join(out))

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        """self * vec, the combination of self's columns by vec."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        cols = [self.col(t) for t in range(self.cols)]
        return tuple(combine_rows(self.field, vec, cols, self.rows))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"MatrixGF({self.field!r}, {self.rows}x{self.cols})"


def _tables(field: FieldCtx) -> tuple[int, bytes, bytes, bytes]:
    """The field arguments of the row-reduction kernels."""
    return field.q, field.sub_tab, field.mul_tab, field.inv_tab


def rank(mat: MatrixGF) -> int:
    return rre_rank(bytearray(mat.entries), mat.rows, mat.cols, *_tables(mat.field))


def rref(mat: MatrixGF) -> tuple[MatrixGF, int]:
    """Reduced row echelon form of mat (zero rows kept) and its rank."""
    buf = bytearray(mat.entries)
    r = rref_rank(buf, mat.rows, mat.cols, *_tables(mat.field))
    return MatrixGF(mat.field, mat.rows, mat.cols, buf), r


class Subspace:
    """A subspace of F_q^d held as its canonical reduced row echelon basis.

    entries holds the basis as bytes, row by row; basis_rows() returns
    tuples of ints, the form of proj_point's points.
    """

    __slots__ = ("field", "ambient_dim", "dim", "entries", "pivots", "_hash", "_point_mask")

    def __init__(
        self,
        field: FieldCtx,
        ambient_dim: int,
        dim: int,
        entries: Iterable[int],
        pivots: tuple[int, ...],
    ):
        entries = bytes(entries)
        self.field = field
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.entries = entries
        self.pivots = pivots
        self._hash = hash((field.q, ambient_dim, entries))
        self._point_mask: int | None = None

    @classmethod
    def from_rows(cls, field: FieldCtx, ambient_dim: int, rows: Iterable[Sequence[int]]) -> Subspace:
        _require_tables(field)
        flat = []
        count = 0
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("row length does not match ambient dimension")
            flat.extend(field.check(x) for x in row)
            count += 1
        return _span(field, ambient_dim, bytearray(flat), count)

    @property
    def basis_matrix(self) -> MatrixGF:
        return MatrixGF(self.field, self.dim, self.ambient_dim, self.entries)

    def basis_rows(self) -> list[tuple[int, ...]]:
        d = self.ambient_dim
        return [tuple(self.entries[i * d : (i + 1) * d]) for i in range(self.dim)]

    @property
    def point_mask(self) -> int:
        """Bitmask of the projective points of this subspace, computed once.

        Bit b stands for the point with canonical number b, so
        (u.point_mask & v.point_mask).bit_count() is the number of points
        of U meet V.
        """
        if self._point_mask is None:
            self._point_mask = points_mask(self.field, self.ambient_dim, _point_vectors(self))
        return self._point_mask

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.entries == other.entries
        )

    def __lt__(self, other: Subspace) -> bool:
        return (self.dim, self.entries) < (other.dim, other.entries)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F_{self.field.q}^{self.ambient_dim})"


def _span(field: FieldCtx, ambient_dim: int, buf: bytearray, count: int) -> Subspace:
    """The span of the count rows in buf, entries already field codes; buf is consumed."""
    d = ambient_dim
    r = rref_rank(buf, count, d, *_tables(field))
    del buf[r * d :]
    pivots = tuple(next(j for j in range(d) if buf[i * d + j]) for i in range(r))
    return Subspace(field, d, r, buf, pivots)


def kernel(mat: MatrixGF) -> Subspace:
    """Right null space of mat as a subspace of F_q^cols: the annihilator of its row space."""
    return annihilator(_span(mat.field, mat.cols, bytearray(mat.entries), mat.rows))


def annihilator(space: Subspace) -> Subspace:
    """The vectors x with B x = 0 for a basis B of space, read off its reduced basis.

    One vector per free column of the reduced basis, 1 there and the
    negated column at the pivots; their span is reduced once.
    """
    f = space.field
    d = space.ambient_dim
    entries = space.entries
    neg = f.sub_tab  # neg[x] = 0 - x
    rows = bytearray()
    for free in range(d):
        if free in space.pivots:
            continue
        v = bytearray(d)
        v[free] = 1
        for i, p in enumerate(space.pivots):
            v[p] = neg[entries[i * d + free]]
        rows += v
    return _span(f, d, rows, d - space.dim)


def combine_rows(field: FieldCtx, coeffs: Iterable[int], rows: Iterable[bytes], width: int) -> bytes:
    """sum_t coeffs[t] * rows[t] over bytes rows of width field codes each.

    Each row is scaled by translate through row c of the multiplication
    table.  For q <= 16 two rows add as whole integers: read little-endian
    as A and B, every byte of A*q + B holds a*q + b < q^2 <= 256, so no
    carry crosses a byte, and one translate through the addition table
    sums every entry at once.  Larger fields add entry by entry.
    """
    q = field.q
    add, mul = field.add_tab, field.mul_tab
    pad = bytes(256 - q)
    whole = q * q <= 256
    if whole:
        sums = add + bytes(256 - q * q)
    acc = None
    for c, row in zip(coeffs, rows):
        if not c:
            continue
        scaled = row if c == 1 else row.translate(mul[c * q : (c + 1) * q] + pad)
        if acc is None:
            acc = scaled
        elif whole:
            total = int.from_bytes(acc, "little") * q + int.from_bytes(scaled, "little")
            acc = total.to_bytes(width, "little").translate(sums)
        else:
            acc = bytes([add[a * q + b] for a, b in zip(acc, scaled)])
    return bytes(width) if acc is None else acc


def inverse(mat: MatrixGF) -> MatrixGF:
    if mat.rows != mat.cols:
        raise ValueError("only square matrices are invertible")
    n = mat.rows
    unit = [bytes(i) + b"\x01" + bytes(n - 1 - i) for i in range(n)]
    red, r = rref(MatrixGF(mat.field, n, 2 * n, b"".join(mat.row(i) + unit[i] for i in range(n))))
    if r != n or any(red.row(i)[:n] != unit[i] for i in range(n)):
        raise ValueError("matrix is singular")
    return MatrixGF(mat.field, n, n, b"".join(red.row(i)[n:] for i in range(n)))


def intersect_dim(u: Subspace, v: Subspace) -> int:
    """dim(U meet V) computed from the rank of the stacked bases."""
    if u.field != v.field or u.ambient_dim != v.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    buf = bytearray(u.entries + v.entries)
    r = rre_rank(buf, u.dim + v.dim, u.ambient_dim, *_tables(u.field))
    return u.dim + v.dim - r


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.field != v.field or u.ambient_dim != v.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return _span(u.field, u.ambient_dim, bytearray(u.entries + v.entries), u.dim + v.dim)


def subspace_intersection(u: Subspace, v: Subspace) -> Subspace:
    """U meet V as the annihilator of ann U + ann V."""
    if u.field != v.field or u.ambient_dim != v.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return annihilator(subspace_sum(annihilator(u), annihilator(v)))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k dimensional subspaces of F_q^n, exact."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(field: FieldCtx, ambient_dim: int, dim: int) -> Iterator[Subspace]:
    """All dim dimensional subspaces of F_q^ambient_dim in a fixed order.

    Pivot column sets run in lexicographic order; for each pivot set the
    free entries run in odometer order.  Every yielded basis is already
    canonical, so the stream has no duplicates.
    """
    _require_tables(field)
    if not 0 <= dim <= ambient_dim:
        raise ValueError("dim out of range")
    q = field.q
    d = ambient_dim
    for pivots, base, free in _pivot_sets(q, d, dim)[1]:
        for values in itertools.product(range(q), repeat=len(free)):
            entries = list(base)
            for (i, j), val in zip(free, values):
                entries[i * d + j] = val
            yield Subspace(field, d, dim, entries, pivots)


_PivotSet = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]


@functools.lru_cache(maxsize=64)
def _pivot_sets(q: int, d: int, dim: int) -> tuple[tuple[int, ...], tuple[_PivotSet, ...]]:
    """The pivot sets of the dim dimensional subspaces of F_q^d, in enumeration order.

    Returns the position of each set's first subspace, and per set its
    pivots, its reduced basis with every free entry 0, and its free cells
    (row, column), row by row and left to right: the odometer order of
    enumerate_subspaces, whose last cell turns fastest.  A set holds
    q^(free cells) subspaces.
    """
    starts = []
    sets = []
    pos = 0
    for pivots in itertools.combinations(range(d), dim):
        pivot_set = set(pivots)
        base = [0] * (dim * d)
        for i, p in enumerate(pivots):
            base[i * d + p] = 1
        free = tuple(
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, d)
            if j not in pivot_set
        )
        starts.append(pos)
        sets.append((pivots, tuple(base), free))
        pos += q ** len(free)
    return tuple(starts), tuple(sets)


def subspace_at(field: FieldCtx, ambient_dim: int, dim: int, index: int) -> Subspace:
    """The subspace at position index of enumerate_subspaces(field, ambient_dim, dim).

    The count of subspaces is the last pivot set's start plus its size.
    Finds the pivot set holding index, then writes the offset inside it
    into the free cells as base q odometer digits, the last cell least
    significant.
    """
    _require_tables(field)
    if not 0 <= dim <= ambient_dim:
        raise ValueError("dim out of range")
    q = field.q
    d = ambient_dim
    starts, sets = _pivot_sets(q, d, dim)
    total = starts[-1] + q ** len(sets[-1][2])
    if not 0 <= index < total:
        raise IndexError(f"subspace {index} out of range for {total} subspaces")
    k = bisect.bisect_right(starts, index) - 1
    pivots, base, free = sets[k]
    index -= starts[k]
    entries = list(base)
    for i, j in reversed(free):
        index, entries[i * d + j] = divmod(index, q)
    return Subspace(field, d, dim, entries, pivots)


def require_cacheable(q: int, ambient_dim: int, dim: int) -> int:
    """The number of dim dimensional subspaces of F_q^ambient_dim, refused above _CACHE_LIMIT.

    There are at least q^(dim*(ambient_dim-dim)) of them, so a count that
    exponent already puts over the limit is refused before it is taken.
    """
    if dim * (ambient_dim - dim) < _CACHE_LIMIT.bit_length():
        total = gaussian_binomial(ambient_dim, dim, q)
        if total <= _CACHE_LIMIT:
            return total
    raise BudgetExceededError(
        f"the {dim}-subspaces of GF({q})^{ambient_dim} exceed the cache limit of {_CACHE_LIMIT}"
    )


@functools.lru_cache(maxsize=64)
def all_subspaces(field: FieldCtx, ambient_dim: int, dim: int) -> tuple[Subspace, ...]:
    """Cached tuple of every dim dimensional subspace, enumeration order."""
    require_cacheable(field.q, ambient_dim, dim)
    return tuple(enumerate_subspaces(field, ambient_dim, dim))


def incidence_blocks(
    field: FieldCtx, ambient_dim: int, dim: int, end: int, chunk: int, numbers: Iterable[int]
) -> Iterator[tuple[int, int, dict[int, int]]]:
    """The given points' incidence with the first end dim dimensional subspaces, by block.

    Yields (start, length, rows): bit c of rows[b] is set when the subspace
    at position start + c of enumerate_subspaces holds point number b, for
    each b of numbers.  A block is a pivot set of _pivot_sets or, when that
    holds more than chunk subspaces, a slice of it whose leading free cells
    are fixed; the block holding end is the last.  No subspace is built:
    with pivots P, point p lies in the subspace whose free cells hold x
    exactly when sum_{i: P_i < j} p[P_i] x_ij = p_j for every non-pivot
    column j.  The columns share no cell, so the positions through p form a
    sum set, one term per column, and its bitset is the product of one
    sparse int per column; every position arises once, so none carries.
    """
    _require_tables(field)
    q = field.q
    d = ambient_dim
    add, mul = field.add_tab, field.mul_tab
    points = {b: point_at(q, d, b) for b in numbers}
    for start, (pivots, _, free) in zip(*_pivot_sets(q, d, dim)):
        if start >= end:
            return
        g = 0  # leading free cells fixed per block
        while q ** (len(free) - g) > chunk:
            g += 1
        size = q ** (len(free) - g)
        place = [0] * g + [q ** (len(free) - 1 - t) for t in range(g, len(free))]
        cells = [[(pivots[i], t) for t, (i, c) in enumerate(free) if c == j] for j in range(d)]
        cols = [j for j in range(d - 1, -1, -1) if j not in pivots]  # low place values first
        tables: dict[tuple, list[int]] = {}  # (column, coef, fixed values) -> per right side,
        # the bitset of the offsets of the column's solutions
        for lo, vals in zip(range(start, end, size), itertools.product(range(q), repeat=g)):
            span = [(v,) for v in vals] + [range(q)] * (len(free) - g)
            live = (1 << min(size, end - lo)) - 1  # the block stops at end
            rows = {}
            for b, p in points.items():
                row = 1
                for j in cols:
                    coef = tuple([p[i] for i, _ in cells[j]])
                    key = (j, coef, *[vals[t] for _, t in cells[j] if t < g])
                    tab = tables.get(key)
                    if tab is None:
                        tab = tables[key] = [0] * q
                        for x in itertools.product(*[span[t] for _, t in cells[j]]):
                            lhs = 0
                            for c, v in zip(coef, x):
                                lhs = add[lhs * q + mul[c * q + v]]
                            tab[lhs] |= 1 << sum(v * place[t] for v, (_, t) in zip(x, cells[j]))
                    row *= tab[p[j]]
                    if not row:
                        break
                rows[b] = row & live
            yield lo, live.bit_length(), rows


@functools.lru_cache(maxsize=64)
def subspace_incidence(field: FieldCtx, ambient_dim: int, dim: int) -> tuple[int, ...]:
    """incidence_blocks of every dim dimensional subspace, joined into one bitset per point.

    The cache holds the bitsets alone; subspace_at rebuilds any subspace
    from its position.  Refused by require_cacheable, where the scan
    streams its own blocks.
    """
    total = require_cacheable(field.q, ambient_dim, dim)
    points = range(projective_point_count(ambient_dim, field.q))
    rows = [0] * len(points)
    for start, _, block in incidence_blocks(field, ambient_dim, dim, total, total, points):
        for b in points:
            rows[b] |= block[b] << start
            block[b] = 0  # drop each part once joined, so two whole copies never coexist
    return tuple(rows)


def projective_point_count(dim: int, q: int) -> int:
    return (q**dim - 1) // (q - 1)


def proj_point(field: FieldCtx, vec: Sequence[int]) -> tuple[int, ...]:
    """The projective point spanned by vec: vec scaled to first nonzero entry 1."""
    v = [field.check(x) for x in vec]
    lead = next((x for x in v if x), 0)
    if not lead:
        raise ValueError("the zero vector spans no projective point")
    if lead != 1:
        s = field.inv(lead)
        v = [field.mul(s, x) for x in v]
    return tuple(v)


def _point_vectors(space: Subspace) -> list[tuple[int, ...]]:
    """Normalised representatives of the points of P(space), in a fixed order.

    The points with leading coefficient on basis row i are row i plus every
    combination of the later rows.  Leads run in increasing order and the
    later coefficients in lexicographic order, so each point appears once,
    already normalised because the basis is reduced.
    """
    f = space.field
    q = f.q
    add, mul = f.add_tab, f.mul_tab
    rows = space.basis_rows()
    tails = [(0,) * space.ambient_dim]  # combinations of the rows after row i
    groups = []
    for i in range(space.dim - 1, -1, -1):
        row = rows[i]
        pts = [tuple([add[a * q + b] for a, b in zip(row, t)]) for t in tails]
        groups.append(pts)
        if i:
            scaled = [tuple([mul[c * q + a] for a in row]) for c in range(2, q)]
            tails = tails + pts + [
                tuple([add[a * q + b] for a, b in zip(m, t)]) for m in scaled for t in tails
            ]
    return [p for g in reversed(groups) for p in g]


def point_at(q: int, ambient_dim: int, number: int) -> tuple[int, ...]:
    """The normalised point with the given canonical number, inverting points_mask."""
    lead = 0
    while number >= q ** (ambient_dim - 1 - lead):
        number -= q ** (ambient_dim - 1 - lead)
        lead += 1
    tail = []
    for _ in range(ambient_dim - 1 - lead):
        number, digit = divmod(number, q)
        tail.append(digit)
    return (0,) * lead + (1,) + tuple(reversed(tail))


def points_mask(field: FieldCtx, ambient_dim: int, reps: Iterable[tuple[int, ...]]) -> int:
    """Bitmask of the given normalised point representatives, by canonical number.

    A representative with leading 1 at position L reads as a base q numeral
    q^(d-1-L) + tail, so its number is that numeral plus shift[L].
    """
    q = field.q
    d = ambient_dim
    shift = [(q**d - q ** (d - lead)) // (q - 1) - q ** (d - 1 - lead) for lead in range(d)]
    mask = 0
    for rep in reps:
        num = 0
        for x in rep:
            num = num * q + x
        mask |= 1 << (num + shift[rep.index(1)])
    return mask


def projective_points(space: Subspace) -> tuple[tuple[int, ...], ...]:
    """The points of P(space) as normalised tuples, in a fixed order."""
    return tuple(_point_vectors(space))
