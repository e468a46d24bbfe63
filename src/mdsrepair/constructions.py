"""Bound attaining codes built on field spreads.

Two families repair every node at the counting bound for r = 2, and both
builders return the code with one repair witness per node.  The long
family stores the field spread members {(x, c*x)} for labels c in a set
Omega covering the norm kernel and one other norm coset, building only
those members, and repairs node c through one of the two twisted
subspaces W_b = {(x, b*x^q)}.  The three short codes below the coset
threshold store mirror members {(s*x, x)}, the field spread members read
through the swap map s -> 1/s (0 <-> INF), and repair through images of
GF(q)^2 under a handful of fixed GL_2(GF(q^2)) elements, chosen so that
their hit sets cover Omega while missing each node once.  Every member
and probe is the span of pairs of GF(q^ell) elements
(geometry.pair_span).  Both families plant their probes through one
routine: a node's columns hold every point a probe pins inside it, and
the first probe missing the node repairs it.

Hit sets are read off projective point masks (Spread.meets).  They also
drive the converse search: over a field spread every non member line
meets exactly q+1 members (a regulus), so attainment questions about
codes with spread member nodes reduce to set inclusion against the
regulus list of geometry.hit_set_counts.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .code import ArrayCode, code_from_intrinsic
from .gf import ExtensionCtx, extension_order, field_of_order, make_extension
from .geometry import (
    INF,
    Label,
    Spread,
    desarguesian_member,
    desarguesian_spread,
    hit_set_counts,
    pair_span,
)
from .linalg import Subspace, point_at, projective_point_count, projective_points
from .repair import RepairReport, RepairWitness, counting_bound, make_witnesses, repair_report


def norm_kernel(ext: ExtensionCtx) -> frozenset[int]:
    """Elements of GF(q^ell) of norm 1 over GF(q), as the image of u -> u^(q-1).

    Every u^(q-1) has norm N(u)^(q-1) = 1, and u^(q-1) = v^(q-1) exactly
    when u/v lies in GF(q)*, so the image has (q^ell - 1)/(q - 1)
    elements, the size of the norm kernel; that size is asserted.  The
    tests compare the image with the fibre of ExtensionCtx.norm.
    """
    q = ext.base.q
    image = frozenset(ext.top.pow(u, q - 1) for u in ext.top.units())
    if len(image) != projective_point_count(ext.ell, q):
        raise AssertionError("norm kernel has the wrong size")
    return image


def wb_subspace(ext: ExtensionCtx, b: int) -> Subspace:
    """The twisted graph {(x, b*x^q) : x in GF(q^ell)} as a GF(q) subspace.

    It has dimension ell, meets the spread member of label c exactly when
    c lies in b times the norm kernel (then in a line), and misses the
    member at infinity.
    """
    if b == 0:
        raise ValueError("b must be nonzero")
    top = ext.top
    return pair_span(ext, ((e, top.mul(b, top.pow(e, ext.base.q))) for e in ext.basis))


def _fill_columns(
    member: Subspace, forced: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """Extend forced points to ell independent columns, smallest points first."""
    field = member.field
    chosen = list(forced)
    for p in sorted(projective_points(member)):
        if len(chosen) == member.dim:
            break
        if p in chosen:
            continue
        stack = chosen + [p]
        if Subspace.from_rows(field, member.ambient_dim, stack).dim == len(stack):
            chosen.append(p)
    if len(chosen) != member.dim:
        raise AssertionError("could not complete the column point set")
    return tuple(sorted(chosen))


def _planted_code(
    subspaces: Sequence[Subspace], probes: Sequence[Subspace], target: int
) -> tuple[ArrayCode, tuple[RepairWitness, ...]]:
    """The code on subspaces, every node repaired through a probe at target.

    Each probe that meets a node pins one point inside it, read off the
    one bit the two point masks share, and the node's columns are forced
    to contain every such point, which makes the access cost of each probe
    match its download cost.  Each node is repaired through the first
    probe that misses it.
    """
    repairs: list[Subspace] = []
    columns: list[tuple[tuple[int, ...], ...]] = []
    for i, member in enumerate(subspaces):
        meets = [w.point_mask & member.point_mask for w in probes]
        if all(meets):
            raise AssertionError(f"every probe meets node {i}")
        repairs.append(probes[meets.index(0)])
        if any(m & (m - 1) for m in meets):
            raise AssertionError(f"a probe meets node {i} off a line")
        q, d = member.field.q, member.ambient_dim
        forced = {point_at(q, d, m.bit_length() - 1) for m in meets if m}
        if len(forced) > member.dim:
            raise AssertionError(f"node {i} holds more pinned points than columns")
        columns.append(_fill_columns(member, sorted(forced)))
    code = code_from_intrinsic(subspaces, column_points=columns)
    witnesses = make_witnesses(code, enumerate(repairs))
    if any(wit.bw != target or wit.io != target for wit in witnesses):
        raise AssertionError("planted witness misses the target metrics")
    return code, witnesses


def build_two_parity_code(
    q: int, ell: int, n: int
) -> tuple[ArrayCode, tuple[RepairWitness, ...]]:
    """An (n, n-2, ell) code over GF(q) repairing every node at the bound.

    Omega holds both norm cosets Sigma and b2*Sigma, b2 the smallest unit
    outside the norm kernel Sigma, plus the smallest unused labels (INF
    last); node c stores the field spread member {(x, c*x)}.  A coset node
    is repaired through the twisted subspace of the other coset's
    representative (1 or b2), every other node through W_1; each coset
    node's column set is forced to contain the one point the opposite
    witness pins inside it, which is what makes the access cost match the
    download cost.

    Lengths below 2*(q^ell-1)/(q-1) fall to the three short catalog codes
    of build_exceptional.
    """
    if q == 2:
        raise ValueError("the two parity construction needs q >= 3")
    if ell < 2:
        raise ValueError("the two parity construction needs ell >= 2")
    extension_order(q, ell)  # sizes q^ell before any power is taken
    t = projective_point_count(ell, q)
    lo = min(2 * t, 3 * t - 6)
    hi = q**ell + 1
    if not lo <= n <= hi:
        raise ValueError(f"n = {n} outside the feasible range [{lo}, {hi}]")
    if n < 2 * t:
        return build_exceptional(f"q{q}n{n}")

    ext = make_extension(field_of_order(q), ell)
    top = ext.top
    sigma = norm_kernel(ext)
    b2 = next(u for u in top.units() if u not in sigma)
    coset2 = frozenset(top.mul(b2, u) for u in sigma)
    if sigma & coset2:
        raise AssertionError("norm cosets are not disjoint")
    core = sigma | coset2
    extra = [c for c in top.elements() if c not in core][: n - 2 * t]
    omega: tuple[Label, ...] = tuple(sorted(core | set(extra)))
    if len(omega) < n:
        omega = omega + (INF,)

    probes = (wb_subspace(ext, 1), wb_subspace(ext, b2))
    nodes = [desarguesian_member(ext, c) for c in omega]
    return _planted_code(nodes, probes, counting_bound(n, 2, ell, q))


def w_g_subspace(ext: ExtensionCtx, g: Sequence[Sequence[int]]) -> Subspace:
    """The image of GF(q)^2 under g in GL_2(GF(q^2)), as a GF(q) subspace."""
    if ext.ell != 2:
        raise ValueError("the GL_2 probes live in the ell = 2 setting")
    (a, b), (c, d) = g
    top = ext.top
    if top.sub(top.mul(a, d), top.mul(b, c)) == 0:
        raise ValueError("g must be invertible")
    return pair_span(ext, ((a, c), (b, d)))


def mobius_image(ext: ExtensionCtx, g: Sequence[Sequence[int]], s: Label) -> Label:
    """The fractional linear action of g on one point of P^1(GF(q^ell))."""
    (a, b), (c, d) = g
    top = ext.top
    if s is INF:
        num, den = a, c
    else:
        num = top.add(top.mul(a, s), b)
        den = top.add(top.mul(c, s), d)
    if den == 0:
        return INF
    return top.div(num, den)


# s -> 1/s with 0 and INF swapped: the mirror member {(s*x, x)} is the
# field spread member of label mobius_image(ext, _SWAP, s), and back.
_SWAP = ((0, 1), (1, 0))


def hit_set(
    w: Subspace, spread: Spread, ext: ExtensionCtx, *, g: Sequence[Sequence[int]]
) -> frozenset[Label]:
    """Mirror labels of the members meeting w, the image of GF(q)^2 under g.

    The hits are read on spread, the field spread of ext, whose labels map
    to mirror labels through _SWAP.  A non member w meets each hit member
    in a line, never more, and the result is checked against the
    fractional linear image of P^1(GF(q)), the embedded subfield plus INF,
    under g.
    """
    hits = spread.meets(w)
    if w not in spread.members and any(
        (spread.members[j].point_mask & w.point_mask).bit_count() != 1 for j in hits
    ):
        raise AssertionError("non member meets a spread member off a line")
    out = frozenset(mobius_image(ext, _SWAP, spread.labels[j]) for j in hits)
    if out != frozenset(mobius_image(ext, g, s) for s in (*ext.embed_tab, INF)):
        raise AssertionError("hit set disagrees with its fractional linear image")
    return out


# The three lengths below the coset threshold, with their node label sets
# and the GL_2(GF(q^2)) elements whose probe subspaces repair them.  The
# recorded hit sets are re-derived and asserted at build time.
_EXC_CASES: dict[str, tuple[int, tuple[Label, ...]]] = {
    "q3n6": (3, (0, 1, 2, 4, 7, INF)),
    "q3n7": (3, (0, 1, 2, 3, 4, 7, INF)),
    "q4n9": (4, (0, 1, 2, 6, 7, 8, 12, 14, INF)),
}
_EXC_GENS: dict[int, tuple[tuple[tuple[int, int], tuple[int, int]], ...]] = {
    3: (((1, 0), (0, 1)), ((3, 1), (0, 1)), ((0, 6), (1, 3))),
    4: (((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 2), (3, 1))),
}
_EXC_HITS: dict[int, tuple[frozenset[Label], ...]] = {
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


def build_exceptional(case: str) -> tuple[ArrayCode, tuple[RepairWitness, ...]]:
    """One of the three short codes meeting the bound below the coset range.

    The field spread is built once, for the probe checks and the nodes.
    Node s stores the mirror member {(s*x, x)}, read off the field spread
    as the member of label mobius_image(ext, _SWAP, s), and is repaired
    through the first probe subspace whose hit set misses s.  Each node's
    column set is forced to contain every point a probe pins inside it; no
    label lies in more than two hit sets, so the ell = 2 columns always
    suffice.
    """
    try:
        q, omega = _EXC_CASES[case]
    except KeyError:
        raise ValueError(f"unknown case {case!r}") from None
    ext = make_extension(field_of_order(q), 2)
    spread = desarguesian_spread(q, 2)
    probes = tuple(w_g_subspace(ext, g) for g in _EXC_GENS[q])
    for w, g, hits in zip(probes, _EXC_GENS[q], _EXC_HITS[q]):
        if hit_set(w, spread, ext, g=g) != hits:
            raise AssertionError("probe hit set differs from the recorded one")

    nodes = [spread.member(mobius_image(ext, _SWAP, s)) for s in omega]
    return _planted_code(nodes, probes, counting_bound(len(omega), 2, 2, q))


@dataclass(frozen=True)
class BlockBoundCert:
    """Certificate for the block family ground set bound.

    On success, core is a smallest subfamily with empty intersection (at
    most four blocks) and n_effective >= bound was asserted.  On a
    hypothesis violation, violation names it and the rest is zeroed.
    """

    t: int
    n_effective: int
    bound: int
    core: tuple[frozenset, ...]
    violation: str = ""


def check_block_intersection_bound(
    family: Iterable[Iterable[Label]],
) -> tuple[bool, BlockBoundCert]:
    """Ground set bound for t-sets with empty common meet, pairwise <= 2.

    Families satisfying both hypotheses must spread over at least
    min(2t, 3t-6) points; violating families are reported, not judged.
    """
    blocks = sorted({frozenset(b) for b in family}, key=sorted)
    if not blocks:
        raise ValueError("family must be nonempty")
    t = len(blocks[0])
    if any(len(b) != t for b in blocks):
        raise ValueError("blocks must share one size")
    common = frozenset.intersection(*blocks)
    if common:
        cert = BlockBoundCert(t, 0, 0, (), f"common points {sorted(common)}")
        return False, cert
    for b1, b2 in itertools.combinations(blocks, 2):
        if len(b1 & b2) > 2:
            cert = BlockBoundCert(
                t, 0, 0, (b1, b2), f"a pair of blocks shares {len(b1 & b2)} points"
            )
            return False, cert
    union = frozenset().union(*blocks)
    bound = min(2 * t, 3 * t - 6)
    core: tuple[frozenset, ...] | None = None
    for m in range(2, 5):
        for sub in itertools.combinations(blocks, m):
            if not frozenset.intersection(*sub):
                core = sub
                break
        if core:
            break
    if core is None:
        raise AssertionError("no subfamily of four or fewer has empty intersection")
    if len(union) < bound:
        raise AssertionError(f"union holds {len(union)} points, below {bound}")
    return True, BlockBoundCert(t, len(union), bound, core)


@dataclass(frozen=True)
class ConverseSearch:
    n: int
    mode: str  # exhaustive | sampled
    subsets: int
    node_attaining: int  # subsets where at least one node meets the bound
    code_attaining: int  # subsets where every node meets the bound


@dataclass(frozen=True)
class ConverseReport:
    q: int
    lo: int
    hi: int
    probes: int  # candidate repair subspaces profiled against the spread
    reguli: int
    forward: tuple[RepairReport, ...]
    converse: tuple[ConverseSearch, ...]
    ok: bool


def _attaining_nodes(subset: frozenset[int], hitsets: Sequence[frozenset[int]]) -> set[int]:
    out: set[int] = set()
    for h in hitsets:
        if h <= subset:
            out |= subset - h
    return out


def regular_spread_converse_check(
    q: int, *, samples: int = 150, seed: int = 0
) -> ConverseReport:
    """Attainment of the bound by codes whose node lines sit in a field spread.

    Forward: for each n in [min(2q+2, 3q-3), q^2+1], the exhaustive repair
    report of the constructed code, which must attain the I/O bound; on an
    exhaustive report that forces all four metrics onto the bound.  Converse:
    for n below that range, no subset of spread members yields a code
    whose every node meets the bound; subsets where some node does are
    counted rather than hidden.  Exhaustive over subsets for q = 3, and
    for q = 4 at every n with at most `samples` subsets; otherwise
    `samples` seeded draws, with replacement.
    """
    ell = 2
    lo = min(2 * q + 2, 3 * q - 3)
    hi = q * q + 1
    forward = tuple(
        repair_report(build_two_parity_code(q, ell, n)[0]) for n in range(lo, hi + 1)
    )

    spread = desarguesian_spread(q, ell)
    counts = hit_set_counts(spread)
    if set(counts.values()) != {q + 1}:
        raise AssertionError("the field spread's hit sets are not all reguli")
    hitsets = tuple(sorted(counts, key=sorted))
    rng = random.Random(seed)
    converse = []
    for n in range(3, lo):
        exhaustive = q == 3 or math.comb(len(spread), n) <= samples
        if exhaustive:
            pool: Iterable[tuple[int, ...]] = itertools.combinations(range(len(spread)), n)
        else:
            pool = (tuple(rng.sample(range(len(spread)), n)) for _ in range(samples))
        subsets = node_hits = code_hits = 0
        for combo in pool:
            subsets += 1
            chosen = frozenset(combo)
            attaining = _attaining_nodes(chosen, hitsets)
            if attaining:
                node_hits += 1
            if attaining == chosen:
                code_hits += 1
        converse.append(
            ConverseSearch(
                n=n,
                mode="exhaustive" if exhaustive else "sampled",
                subsets=subsets,
                node_attaining=node_hits,
                code_attaining=code_hits,
            )
        )

    ok = all(f.code_attains_io for f in forward) and all(c.code_attaining == 0 for c in converse)
    return ConverseReport(
        q=q,
        lo=lo,
        hi=hi,
        probes=sum(counts.values()) + len(spread),
        reguli=len(hitsets),
        forward=forward,
        converse=tuple(converse),
        ok=ok,
    )

