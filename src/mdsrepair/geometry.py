"""Spreads and reguli in small projective spaces.

A spread of PG(2*ell-1, q) is modeled as a family of ell dimensional
subspaces of F_q^(2*ell) that partition the nonzero vectors.  Members
carry labels from GF(q^ell) together with INF for the member at infinity
when the spread comes from a field construction.

Which members a subspace meets is read off projective point masks
(Spread.meets), and regularity is one pass over those hit sets;
regulus_through and is_spread stay rank-based, as independent oracles.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union

from .gf import ExtensionCtx, FieldCtx, field_of_order, make_extension
from .linalg import (
    BudgetExceededError,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    intersect_dim,
    projective_points,
    subspace_intersection,
    subspace_sum,
)

INF = math.inf
Label = Union[int, float]


@dataclass(frozen=True)
class Spread:
    """An indexed family of pairwise complementary ell dimensional subspaces."""

    field: FieldCtx
    ell: int
    members: tuple[Subspace, ...]
    labels: tuple[Label, ...] | None = None

    def member(self, label: Label) -> Subspace:
        if self.labels is None:
            raise ValueError("this spread carries no labels")
        return self.members[self.labels.index(label)]

    def __len__(self) -> int:
        return len(self.members)

    def meets(self, w: Subspace) -> frozenset[int]:
        """Indices of the members sharing a projective point with w."""
        wm = w.point_mask
        return frozenset(j for j, m in enumerate(self.members) if m.point_mask & wm)


def pair_span(ext: ExtensionCtx, pairs: Iterable[tuple[int, int]]) -> Subspace:
    """The GF(q) span of pairs (a, b) of GF(q^ell) elements, in F_q^(2*ell)."""
    return Subspace.from_rows(ext.base, 2 * ext.ell, [ext.embed_pair(a, b) for a, b in pairs])


def desarguesian_member(ext: ExtensionCtx, label: Label) -> Subspace:
    """The subspace {(x, c*x)} for label c, or {(0, y)} for INF."""
    if label is INF:
        return pair_span(ext, ((0, e) for e in ext.basis))
    return pair_span(ext, ((e, ext.top.mul(label, e)) for e in ext.basis))


def _field_spread(ext: ExtensionCtx) -> Spread:
    labels: tuple[Label, ...] = tuple(ext.top.elements()) + (INF,)
    members = tuple(desarguesian_member(ext, lab) for lab in labels)
    return Spread(ext.base, ext.ell, members, labels)


def desarguesian_spread(q: int, ell: int) -> Spread:
    """The field spread {(x, c*x) : c} plus {(0, y)}, one member per label."""
    return _field_spread(make_extension(field_of_order(q), ell))


@dataclass(frozen=True)
class SpreadCheck:
    ok: bool
    reason: str = ""
    witness: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def is_spread(field: FieldCtx, ell: int, members: tuple[Subspace, ...]) -> SpreadCheck:
    """Partition test: right count, right dimensions, pairwise trivial meets."""
    expected = field.q**ell + 1
    for idx, mem in enumerate(members):
        if mem.ambient_dim != 2 * ell or mem.field != field:
            return SpreadCheck(False, "wrong ambient space", (idx,))
        if mem.dim != ell:
            return SpreadCheck(False, "wrong member dimension", (idx,))
    if len(set(members)) != len(members):
        seen: dict[Subspace, int] = {}
        for idx, mem in enumerate(members):
            if mem in seen:
                return SpreadCheck(False, "duplicate member", (seen[mem], idx))
            seen[mem] = idx
    if len(members) != expected:
        return SpreadCheck(False, f"expected {expected} members, got {len(members)}")
    for i, j in itertools.combinations(range(len(members)), 2):
        if intersect_dim(members[i], members[j]) != 0:
            return SpreadCheck(False, "members overlap", (i, j))
    return SpreadCheck(True)


@dataclass(frozen=True)
class Regulus:
    """q+1 pairwise skew lines of PG(3, q) swept by their common transversals."""

    lines: tuple[Subspace, ...]
    transversals: tuple[Subspace, ...]

    def __contains__(self, line: Subspace) -> bool:
        return line in self.lines


def _pairwise_skew(lines) -> bool:
    return all(
        intersect_dim(a, b) == 0 for a, b in itertools.combinations(lines, 2)
    )


def _common_transversals(l1: Subspace, l2: Subspace, l3: Subspace) -> tuple[Subspace, ...]:
    """For each point of l1, the unique line through it meeting l2 and l3."""
    field = l1.field
    out = []
    for pt in projective_points(l1):
        pt_space = Subspace.from_rows(field, l1.ambient_dim, [pt])
        plane2 = subspace_sum(pt_space, l2)
        plane3 = subspace_sum(pt_space, l3)
        t = subspace_intersection(plane2, plane3)
        if t.dim != 2:
            raise ValueError("degenerate configuration, lines are not skew")
        out.append(t)
    return tuple(sorted(out))


def regulus_through(l1: Subspace, l2: Subspace, l3: Subspace) -> Regulus:
    """The unique regulus containing three pairwise skew lines of PG(3, q).

    Lines and transversals come back canonically sorted, so the result is
    independent of the order of the three inputs.
    """
    for line in (l1, l2, l3):
        if line.ambient_dim != 4 or line.dim != 2:
            raise ValueError("regulus lines must be 2 dimensional in F_q^4")
    if len({l1, l2, l3}) != 3 or not _pairwise_skew((l1, l2, l3)):
        raise ValueError("the three lines must be distinct and pairwise skew")
    transversals = _common_transversals(l1, l2, l3)
    lines = _common_transversals(transversals[0], transversals[1], transversals[2])
    if not {l1, l2, l3} <= set(lines):
        raise AssertionError("regulus construction lost an input line")
    # Every line meets every transversal in exactly one point.
    for a in lines:
        for b in transversals:
            if intersect_dim(a, b) != 1:
                raise AssertionError("regulus grid property failed")
    return Regulus(lines, transversals)


# hit_set_counts walks one Subspace per line, and each line costs more as q
# grows: PG(3, 13)'s 31,110 lines take about 3 s, PG(3, 16)'s 70,161 about 14 s
LINE_BUDGET = 50_000


def require_line_budget(q: int) -> None:
    """Raise BudgetExceededError when PG(3, q) has more than LINE_BUDGET lines."""
    total = gaussian_binomial(4, 2, q)
    if total > LINE_BUDGET:
        raise BudgetExceededError(f"{total} lines exceed the budget of {LINE_BUDGET}")


def hit_set_counts(spread: Spread) -> Counter[frozenset[int]]:
    """How many lines of PG(3, q) outside the spread meet each set of members.

    The points of an outside line lie on distinct members, so it meets
    exactly q+1 of them; the lines sharing one hit set all meet three of
    its members, so they are transversals of the regulus through those
    three, at most q+1 lines.  The lines are streamed, never cached, and
    refused by require_line_budget.
    """
    if spread.ell != 2:
        raise ValueError("hit sets are defined here for spreads of PG(3, q) only")
    q = spread.field.q
    require_line_budget(q)
    member_set = set(spread.members)
    counts: Counter[frozenset[int]] = Counter()
    for w in enumerate_subspaces(spread.field, 4, 2):
        if w in member_set:
            continue
        hits = spread.meets(w)
        if len(hits) != q + 1:
            raise AssertionError("a line outside the spread must meet exactly q+1 members")
        counts[hits] += 1
    return counts


@dataclass(frozen=True)
class RegularityCheck:
    """Verdict on the C(|S|, 3) member triples; witness is a failing triple."""

    ok: bool
    triples_checked: int
    witness: tuple[Subspace, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_regular_spread(spread: Spread) -> RegularityCheck:
    """Whether every regulus through three members lies inside the spread.

    Exact, by one hit-set pass: the spread is regular iff every hit set
    is shared by exactly q+1 lines.  A hit set that is a regulus is shared
    by its q+1 transversals; any other is shared by fewer, and the regulus
    through any three of its members leaves the spread, so those three
    are the witness.
    """
    q = spread.field.q
    triples = math.comb(len(spread), 3)
    for hits, count in hit_set_counts(spread).items():
        if count != q + 1:
            witness = tuple(spread.members[j] for j in sorted(hits)[:3])
            return RegularityCheck(False, triples, witness)
    return RegularityCheck(True, triples)


def replace_regulus(spread: Spread, reg: Regulus) -> Spread:
    """Swap a regulus of the spread for its opposite.

    The opposite regulus covers the same points, so the result is again a
    spread; for q > 2 it is no longer regular.
    """
    if not set(reg.lines) <= set(spread.members):
        raise ValueError("the regulus does not lie inside the spread")
    members = tuple(L for L in spread.members if L not in set(reg.lines)) + reg.transversals
    return Spread(spread.field, spread.ell, members, None)
