"""MDS array codes presented by block parity check matrices.

A code with n nodes, r = n - k parities and sub packetization ell is held
as n blocks H_i in F_q^(r*ell x ell), all of full column rank.  Each block
is equivalently a node subspace (its column space) plus a list of ell
projective column points, each the normalised tuple of linalg.proj_point;
each column of a block is a nonzero multiple of its column point, in
matching order.  ArrayCode checks this once, when the code is built, so
the repair scan and its oracle read points and blocks interchangeably.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ._kernel import rre_rank, rref_rank
from .gf import FieldCtx, make_field
from .linalg import MatrixGF, Subspace, kernel, proj_point

MDS_CAP = 10**6  # most r-subsets of blocks is_mds checks


@dataclass(frozen=True)
class ArrayCode:
    """An (n, k, ell) array code: per node a block, its column space and its column points.

    Every construction, replace included, checks the code once and refuses
    an inconsistent one with ValueError.  Per node, the column points must
    be ell normalised points spanning the node subspace, so a subspace W
    holds at most dim(W meet H_j) of them; and each block column must be a
    nonzero multiple of its point, so M kills the column exactly when M
    kills the point.
    """

    field: FieldCtx
    n: int
    k: int
    ell: int
    blocks: tuple[MatrixGF, ...]
    node_subspaces: tuple[Subspace, ...]
    column_points: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        f, d, ell = self.field, self.ambient_dim, self.ell
        tables = (f.q, f.sub_tab, f.mul_tab, f.inv_tab)
        if not len(self.blocks) == len(self.node_subspaces) == len(self.column_points) == self.n:
            raise ValueError("need one block, node subspace and point list per node")
        for h, block, plist in zip(self.node_subspaces, self.blocks, self.column_points):
            if len(plist) != ell or any(len(p) != d for p in plist):
                raise ValueError("need ell column points per node")
            span = bytearray(b"".join(map(bytes, plist)))  # reduced in place, as h is
            if rref_rank(span, ell, d, *tables) < ell:
                raise ValueError("column points must be independent")
            if span != h.packed:
                raise ValueError("column point outside its node subspace")
            if any(next(filter(None, p)) != 1 for p in plist):
                raise ValueError("column points must be normalised")
            if block.field != f or (block.rows, block.cols) != (d, ell):
                raise ValueError("blocks must share field and shape")
            for t, p in enumerate(plist):
                col = block.col(t)
                if col != p and proj_point(f, col) != p:
                    raise ValueError("block columns are not multiples of their column points")

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def ambient_dim(self) -> int:
        return self.r * self.ell

    @cached_property
    def parity_rows(self) -> tuple[bytes, ...]:
        """The rows of the parity matrix, packed, built once per code."""
        ell = self.ell
        return tuple(
            b"".join([b.packed[t * ell : (t + 1) * ell] for b in self.blocks])
            for t in range(self.ambient_dim)
        )

    def parity_matrix(self) -> MatrixGF:
        return MatrixGF(
            self.field, self.ambient_dim, self.n * self.ell, tuple(b"".join(self.parity_rows))
        )

    def __repr__(self) -> str:
        return f"ArrayCode(n={self.n}, k={self.k}, ell={self.ell}, {self.field!r})"


@dataclass(frozen=True)
class CodewordArr:
    """One codeword, stored as n blocks of ell symbols."""

    blocks: tuple[tuple[int, ...], ...]

    def flat(self) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(self.blocks))


def _span_check(field: FieldCtx, subspaces: Sequence[Subspace], ambient: int) -> None:
    rows: list[tuple[int, ...]] = []
    for s in subspaces:
        rows.extend(s.basis_rows())
    if Subspace.from_rows(field, ambient, rows).dim != ambient:
        raise ValueError("node subspaces do not span the parity space")


def _points_to_block(
    field: FieldCtx, ambient: int, points: Sequence[tuple[int, ...]]
) -> MatrixGF:
    entries = tuple(itertools.chain.from_iterable(zip(*points)))  # short points fail the shape
    return MatrixGF(field, ambient, len(points), entries)


def code_from_intrinsic(
    subspaces: Sequence[Subspace],
    *,
    column_points: Sequence[Sequence[Sequence[int]]] | None = None,
) -> ArrayCode:
    """Build a code from node subspaces and optional column point choices.

    Without explicit points, each block's columns are the reduced basis
    vectors of its subspace, ordered lexicographically.  Explicit points
    are normalised by proj_point and must be ell points spanning the node
    subspace; the block's columns are the points themselves.
    """
    if not subspaces:
        raise ValueError("need at least one node subspace")
    field = subspaces[0].field
    ambient = subspaces[0].ambient_dim
    ell = subspaces[0].dim
    if ell < 1:
        raise ValueError("node subspaces must have positive dimension")
    if ambient % ell:
        raise ValueError("ambient dimension must be a multiple of ell")
    r = ambient // ell
    if r < 1:
        raise ValueError("r must be at least 1")
    n = len(subspaces)
    if n < r:
        raise ValueError("need at least r nodes")
    for s in subspaces:
        if s.field != field or s.ambient_dim != ambient or s.dim != ell:
            raise ValueError("node subspaces must share field, ambient and dimension")
    _span_check(field, subspaces, ambient)

    if column_points is None:
        points = [tuple(sorted(s.basis_rows())) for s in subspaces]  # reduced rows are normalised
    else:
        if len(column_points) != n:
            raise ValueError("need one point list per node")
        points = [tuple(proj_point(field, p) for p in given) for given in column_points]

    blocks = tuple(_points_to_block(field, ambient, plist) for plist in points)
    return ArrayCode(field, n, n - r, ell, blocks, tuple(subspaces), tuple(points))


def code_from_blocks(field: FieldCtx, blocks: Sequence[MatrixGF]) -> ArrayCode:
    """Build a code from explicit parity blocks.

    Column points are read off the blocks, so each block must have full
    column rank.
    """
    if not blocks:
        raise ValueError("need at least one block")
    ambient = blocks[0].rows
    ell = blocks[0].cols
    if ell < 1:
        raise ValueError("blocks must have at least one column")
    subspaces = []
    points = []
    for b in blocks:
        if b.field != field or b.rows != ambient or b.cols != ell:
            raise ValueError("blocks must share field and shape")
        subspaces.append(Subspace.from_matrix_columns(b))
        if subspaces[-1].dim != ell:
            raise ValueError("blocks must have full column rank")
        points.append(tuple(proj_point(field, b.col(j)) for j in range(ell)))
    if ambient % ell:
        raise ValueError("ambient dimension must be a multiple of ell")
    r = ambient // ell
    if r < 1 or len(blocks) < r:
        raise ValueError("need r >= 1 and at least r nodes")
    _span_check(field, subspaces, ambient)
    return ArrayCode(
        field, len(blocks), len(blocks) - r, ell, tuple(blocks), tuple(subspaces), tuple(points)
    )


@dataclass(frozen=True)
class MdsCheck:
    status: str  # "mds", "not_mds" or "cap_exceeded"
    subsets_checked: int
    failing_subset: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool | None:
        if self.status == "cap_exceeded":
            return None
        return self.status == "mds"

    def __bool__(self) -> bool:
        return self.status == "mds"


def is_mds(code: ArrayCode) -> MdsCheck:
    """Check that every r-subset of blocks forms an invertible square matrix.

    Runs both the matrix rank form and the subspace direct sum form on each
    subset and insists they agree.  Each block's columns, taken as rows
    (rank H_S = rank of its transpose), and each node subspace's reduced
    basis are packed once per code; a subset joins the bytes of its
    members and ranks each form with one rre_rank call.  More than MDS_CAP
    subsets are not checked: the status is then "cap_exceeded".
    """
    r = code.r
    total = 1
    for i in range(r):
        total = total * (code.n - i) // (i + 1)
    if total > MDS_CAP:
        return MdsCheck("cap_exceeded", 0)
    f = code.field
    tables = (f.q, f.sub_tab, f.mul_tab, f.inv_tab)
    ambient = code.ambient_dim
    rows = r * code.ell
    columns = bytes(itertools.chain.from_iterable(zip(*code.parity_rows)))
    size = code.ell * ambient
    block_rows = [columns[j * size : (j + 1) * size] for j in range(code.n)]
    basis_rows = [s.packed for s in code.node_subspaces]
    checked = 0
    for subset in itertools.combinations(range(code.n), r):
        checked += 1
        square = bytearray(b"".join([block_rows[i] for i in subset]))
        invertible = rre_rank(square, rows, ambient, *tables) == ambient
        stacked = bytearray(b"".join([basis_rows[i] for i in subset]))
        direct = rre_rank(stacked, rows, ambient, *tables) == ambient
        if invertible != direct:
            raise AssertionError("matrix and subspace MDS forms disagree")
        if not invertible:
            return MdsCheck("not_mds", checked, subset)
    return MdsCheck("mds", checked)


def length_bound(q: int, ell: int, r: int) -> int:
    """Largest n for which an (n, n-r, ell) MDS array code over GF(q) exists."""
    if r < 2:
        raise ValueError("the length bound needs r >= 2")
    if q < 2 or ell < 1:
        raise ValueError("need q >= 2 and ell >= 1")
    return q**ell + r - 1


def codeword_space(code: ArrayCode) -> Subspace:
    """All codewords as vectors of length n*ell: the kernel of the parity matrix."""
    space = kernel(code.parity_matrix())
    assert space.dim == code.k * code.ell
    return space


def serialize(code: ArrayCode) -> str:
    payload = {
        "field": {
            "p": code.field.p,
            "m": code.field.m,
            "modulus": list(code.field.modulus),
        },
        "n": code.n,
        "k": code.k,
        "ell": code.ell,
        "blocks": [b.to_rows() for b in code.blocks],
        "column_points": [
            [list(p) for p in plist] for plist in code.column_points
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _json_ints(value: object, depth: int, what: str) -> int | list:
    """value, checked to be lists nested depth deep around JSON integers."""
    if depth == 0:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ValueError(f"{what} must hold integers, not {value!r}")
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list nested {depth} deep")
    return [_json_ints(v, depth - 1, what) for v in value]


def deserialize(text: str) -> ArrayCode:
    """Parse a code file written by serialize; any malformed input raises ValueError."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    try:
        fld = payload["field"]
        p, m, modulus = fld["p"], fld["m"], fld["modulus"]
        n, k, ell = payload["n"], payload["k"], payload["ell"]
        block_rows = payload["blocks"]
        point_rows = payload["column_points"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing or malformed field: {exc}") from exc
    field = make_field(
        _json_ints(p, 0, "field.p"),
        _json_ints(m, 0, "field.m"),
        _json_ints(modulus, 1, "field.modulus"),
    )
    n, k, ell = (_json_ints(v, 0, name) for v, name in ((n, "n"), (k, "k"), (ell, "ell")))
    block_rows = _json_ints(block_rows, 3, "blocks")
    point_rows = _json_ints(point_rows, 3, "column_points")
    if len(block_rows) != n or len(point_rows) != n:
        raise ValueError("blocks and column_points must list one entry per node")
    blocks = [MatrixGF.from_rows(field, rows) for rows in block_rows]
    code = code_from_blocks(field, blocks)
    if code.k != k or code.ell != ell:
        raise ValueError("declared k or ell does not match the blocks")
    for derived, stated in zip(code.column_points, point_rows):
        stated_pts = [proj_point(field, vec) for vec in stated]
        if list(derived) != stated_pts:
            raise ValueError("column_points do not match the block columns")
    return code
