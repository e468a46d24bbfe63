"""MDS array codes presented by block parity check matrices.

A code with n nodes, r = n - k parities and sub packetization ell is its n
blocks H_i in F_q^(r*ell x ell), all of full column rank: the parity check
matrix is H = [H_1 | ... | H_n].  Node i's subspace (the column space of
H_i) and its ell projective column points (the normalised tuples of
linalg.proj_point of H_i's columns, in order) are read off the blocks once,
when the code is built, so the repair scan and its oracle read points and
blocks interchangeably.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ._kernel import rre_rank
from .gf import FieldCtx, make_field
from .linalg import MatrixGF, Subspace, _span, _tables, kernel, proj_point

MDS_CAP = 10**6  # most r-subsets of blocks is_mds checks


def _derived():
    return dataclasses.field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ArrayCode:
    """An (n, k, ell) array code, given by its parity blocks.

    ArrayCode(field, blocks), replace included, derives n, ell, k = n - r,
    each node subspace and each node's column points from the blocks in one
    pass, and refuses with ValueError blocks of unequal shape or field, a
    row count that is not a positive multiple of ell, fewer than r blocks,
    a block without full column rank, and nodes that do not span the
    parity space.  Each block column is then a nonzero multiple of its
    point, so M kills the column exactly when M kills the point, and a
    subspace W holds at most dim(W meet H_j) of node j's column points.
    """

    field: FieldCtx
    blocks: tuple[MatrixGF, ...]
    n: int = _derived()
    k: int = _derived()
    ell: int = _derived()
    node_subspaces: tuple[Subspace, ...] = _derived()
    column_points: tuple[tuple[tuple[int, ...], ...], ...] = _derived()

    def __post_init__(self) -> None:
        f, blocks = self.field, tuple(self.blocks)
        if not blocks:
            raise ValueError("need at least one block")
        d, ell = blocks[0].rows, blocks[0].cols
        if ell < 1:
            raise ValueError("blocks must have at least one column")
        if any(b.field != f or (b.rows, b.cols) != (d, ell) for b in blocks):
            raise ValueError("blocks must share field and shape")
        if d % ell:
            raise ValueError("ambient dimension must be a multiple of ell")
        r = d // ell
        if r < 1 or len(blocks) < r:
            raise ValueError("need r >= 1 and at least r nodes")
        points = tuple(tuple(proj_point(f, b.col(t)) for t in range(ell)) for b in blocks)
        subspaces = tuple(_span(f, d, bytearray(b"".join(map(bytes, p))), ell) for p in points)
        if any(h.dim < ell for h in subspaces):
            raise ValueError("blocks must have full column rank")
        span = bytearray(b"".join(h.entries for h in subspaces))
        if rre_rank(span, len(blocks) * ell, d, *_tables(f)) < d:
            raise ValueError("node subspaces do not span the parity space")
        derived = {"blocks": blocks, "n": len(blocks), "k": len(blocks) - r, "ell": ell,
                   "node_subspaces": subspaces, "column_points": points}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def ambient_dim(self) -> int:
        return self.r * self.ell

    @cached_property
    def parity_rows(self) -> tuple[bytes, ...]:
        """The rows of the parity matrix as bytes, built once per code."""
        return tuple(b"".join([b.row(t) for b in self.blocks]) for t in range(self.ambient_dim))

    def parity_matrix(self) -> MatrixGF:
        return MatrixGF(self.field, self.ambient_dim, self.n * self.ell, b"".join(self.parity_rows))

    def __repr__(self) -> str:
        return f"ArrayCode(n={self.n}, k={self.k}, ell={self.ell}, {self.field!r})"


@dataclass(frozen=True)
class CodewordArr:
    """One codeword, stored as n blocks of ell symbols."""

    blocks: tuple[tuple[int, ...], ...]

    def flat(self) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(self.blocks))


def code_from_intrinsic(
    subspaces: Sequence[Subspace],
    *,
    column_points: Sequence[Sequence[Sequence[int]]] | None = None,
) -> ArrayCode:
    """Build a code from node subspaces and optional column point choices.

    Without explicit points, each block's columns are the reduced basis
    vectors of its subspace, ordered lexicographically.  Explicit points
    are normalised by proj_point and the block's columns are the points
    themselves; they must be ell points spanning their node subspace.
    """
    if not subspaces:
        raise ValueError("need at least one node subspace")
    if column_points is None:
        points = [sorted(s.basis_rows()) for s in subspaces]  # reduced rows are normalised
    elif len(column_points) != len(subspaces):
        raise ValueError("need one point list per node")
    else:
        points = [
            [proj_point(s.field, p) for p in given] for s, given in zip(subspaces, column_points)
        ]
    # a block's columns are its points; short points fail the shape
    blocks = [
        MatrixGF(s.field, s.ambient_dim, len(pts), itertools.chain.from_iterable(zip(*pts)))
        for s, pts in zip(subspaces, points)
    ]
    code = ArrayCode(subspaces[0].field, blocks)
    if code.node_subspaces != tuple(subspaces):
        raise ValueError("column point outside its node subspace")
    return code


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

    Each block's columns, taken as rows (rank H_S = rank of its
    transpose), are joined once per code; a subset joins the bytes of its
    members and is ranked by one rre_rank call.  More than MDS_CAP subsets
    are not checked: the status is then "cap_exceeded".
    """
    if math.comb(code.n, code.r) > MDS_CAP:
        return MdsCheck("cap_exceeded", 0)
    tables = _tables(code.field)
    ambient = code.ambient_dim
    block_rows = [b"".join(map(b.col, range(code.ell))) for b in code.blocks]
    checked = 0
    for subset in itertools.combinations(range(code.n), code.r):
        checked += 1
        square = bytearray(b"".join([block_rows[i] for i in subset]))
        if rre_rank(square, ambient, ambient, *tables) < ambient:
            return MdsCheck("not_mds", checked, subset)
    return MdsCheck("mds", checked)


def length_bound(q: int, ell: int, r: int) -> int:
    """The upper bound q^ell + r - 1 on n for an (n, n-r, ell) MDS array code over GF(q).

    Not every length up to it is reached: over GF(2) with ell = 2 and r = 4
    it is 7, but no such code is longer than 5.  verify_bound_sweep's
    default lengths walk up to it.
    """
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
    code = ArrayCode(field, blocks)
    if code.k != k or code.ell != ell:
        raise ValueError("declared k or ell does not match the blocks")
    for derived, stated in zip(code.column_points, point_rows):
        stated_pts = [proj_point(field, vec) for vec in stated]
        if list(derived) != stated_pts:
            raise ValueError("column_points do not match the block columns")
    return code
