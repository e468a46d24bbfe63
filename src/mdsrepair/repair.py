"""Linear exact repair of a single node: bandwidth and I/O analysis.

A repair scheme for node i is an ell x (r*ell) matrix M with M H_i
invertible.  Writing W = ker M (dimension (r-1)*ell), the download from
helper j costs rank(M H_j) = ell - dim(W meet H_j) symbols and touches
the columns of H_j that W misses.  Optimizing a scheme is therefore a
search over W; this module does that search exhaustively and keeps exact
witnesses.
"""
from __future__ import annotations

import random
import sys
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import linalg
from ._kernel import rre_rank
from .code import ArrayCode, code_from_intrinsic, is_mds, length_bound
from .gf import FieldCtx, field_of_order
from .linalg import (
    BudgetExceededError,
    DEFAULT_ENUM_BUDGET,
    MatrixGF,
    Subspace,
    annihilator,
    combine_rows,
    gaussian_binomial,
    incidence_blocks,
    points_mask,
    projective_point_count,
    subspace_at,
    subspace_incidence,
    subspace_sum,
)

_CHUNK = 1 << 15  # most candidates per streamed block of the scan
_RETRY_CAP = 10_000  # most attempts of random_mds_code
_PLANES_CEILING = 3 << 18  # most bytes of member planes kept between reports
_RANK_MEMO = 1 << 12  # most ell x ell block ranks kept between reports


class SamplingExhaustedError(RuntimeError):
    """random_mds_code hit its retry cap without producing a code."""


def counting_bound(n: int, r: int, ell: int, q: int) -> int:
    """Lower bound ell*(n-1) - (q^((r-1)*ell) - 1)/(q - 1) on repair bandwidth.

    A repair subspace W has (q^((r-1)*ell) - 1)/(q - 1) projective points
    and each unit of saved download consumes at least one of them, which
    caps the total saving.  The bound may be negative for small n.
    """
    if n < 2:
        raise ValueError("need n >= 2 for repair to have helpers")
    if r < 1 or ell < 1 or q < 2:
        raise ValueError("need r >= 1, ell >= 1, q >= 2")
    return ell * (n - 1) - projective_point_count((r - 1) * ell, q)


@dataclass(frozen=True)
class RepairWitness:
    """A concrete repair scheme for one node, with its full helper profile."""

    node: int
    space: Subspace
    matrix: MatrixGF
    helper_dims: tuple[tuple[int, int], ...]  # (j, dim(W meet H_j))
    helper_points: tuple[tuple[int, int], ...]  # (j, |X_j meet P(W)|)
    bw: int
    io: int


class _Profile(NamedTuple):
    """The rank oracle's profile of one repair subspace W: what every witness through W reads."""

    space: Subspace
    matrix: MatrixGF  # ell x (r*ell), with kernel W
    dims: tuple[int, ...]  # per node j, dim(W meet H_j)
    zs: tuple[int, ...]  # per node j, the count of H_j's column points in W
    bw: int  # ell per helper, less the dims: the download of repairing a node W misses
    io_all: int  # ell per node, less the zs: the reads over all n nodes
    widest: int  # the largest of the dims

    def io(self, node: int) -> int:
        """The reads of repairing node through W: those of the other nodes."""
        return self.io_all - (self.matrix.rows - self.zs[node])

    def witness(self, node: int) -> RepairWitness:
        """The witness of repairing node, which W must miss, through W."""
        return RepairWitness(
            node=node,
            space=self.space,
            matrix=self.matrix,
            helper_dims=tuple((j, d) for j, d in enumerate(self.dims) if j != node),
            helper_points=tuple((j, z) for j, z in enumerate(self.zs) if j != node),
            bw=self.bw,
            io=self.io(node),
        )


@dataclass(frozen=True)
class NodeRepair:
    """One node's optima; each witness is built from its W's profile when it is read."""

    node: int
    alpha: int
    lam: int
    beta: int
    gamma: int
    alpha_profile: _Profile
    lambda_profile: _Profile
    attains_bw_bound: bool
    attains_io_bound: bool

    @property
    def alpha_witness(self) -> RepairWitness:
        return self.alpha_profile.witness(self.node)

    @property
    def lambda_witness(self) -> RepairWitness:
        return self.lambda_profile.witness(self.node)


@dataclass(frozen=True)
class RepairReport:
    n: int
    k: int
    ell: int
    q: int
    bound: int
    point_capacity: int  # projective points of a candidate repair subspace
    nodes: tuple[NodeRepair, ...]
    beta_avg: Fraction
    beta_max: int
    gamma_avg: Fraction
    gamma_max: int
    exhaustive: bool
    candidates_total: int
    candidates_scanned: int
    anomalies: tuple[str, ...]  # always empty: ArrayCode refuses every code that could have one

    @property
    def code_attains_bw(self) -> bool | None:
        if not self.exhaustive:
            return None
        return all(nd.attains_bw_bound for nd in self.nodes)

    @property
    def code_attains_io(self) -> bool | None:
        if not self.exhaustive:
            return None
        return all(nd.attains_io_bound for nd in self.nodes)


@lru_cache(maxsize=_RANK_MEMO)
def _block_rank(field: FieldCtx, ell: int, block: bytes) -> int:
    """The rank of the ell x ell matrix whose entries, row by row, are block's bytes."""
    return rre_rank(bytearray(block), ell, ell, *linalg._tables(field))


def _rank_profile(code: ArrayCode, w: Subspace) -> tuple[list[int], list[int], MatrixGF]:
    """Per node intersection dimensions, counts of column points in W, and W's repair matrix.

    The oracle for the mask scan, read through the repair matrix M, the
    reduced basis of the annihilator of W, so that ker M = W; it comes
    straight off W's reduced basis.  The rows of M H are sums of the bytes
    parity rows scaled by M's entries, taken by combine_rows.  The block's
    columns are a basis of H_j, so dim(W meet H_j) = ell - rank(M H_j), the
    rank of the ell x ell image; reports meet few distinct images, so the
    ranks are read through a bounded memo that rre_rank fills on a miss.
    Each column is a nonzero multiple of its column point, which ArrayCode
    checks, so the point lies in W exactly when the column's image is 0:
    z_j is the count of zero bytes of H_j's columns in the OR of the rows
    of M H.  No point mask or incidence is read, and M is the matrix the
    witness hands to the simulator.
    """
    f = code.field
    ell = code.ell
    width = code.n * ell
    matrix = annihilator(w).basis_matrix  # ell x (r*ell), as W has dimension (r-1)*ell
    out = [combine_rows(f, matrix.row(i), code.parity_rows, width) for i in range(ell)]
    cols = bytearray(ell * width)  # the columns of M H, one after another
    for i, row in enumerate(out):
        cols[i::ell] = row
    flat = bytes(cols)  # (M H_j)^T at [j*size, (j+1)*size)
    size = ell * ell
    dims = [ell - _block_rank(f, ell, flat[j * size : (j + 1) * size]) for j in range(code.n)]
    live = 0
    for row in out:
        live |= int.from_bytes(row, "little")
    live_cols = live.to_bytes(width, "little")  # 0 exactly at the column points in W
    zs = [live_cols.count(0, j, j + ell) for j in range(0, width, ell)]
    return dims, zs, matrix


def _profiles(code: ArrayCode, repairs: Sequence[tuple[int, Subspace]]) -> list[_Profile]:
    """The profile of each (node, W) pair's W, which must miss H_node.

    Each W must be a complement of H_node in the code's space.  The
    profile and the repair matrix depend on the code and W alone, so each
    distinct W runs the rank oracle once, which reduces the matrix and
    profiles every node through it; pairs through the same W share its
    profile.
    """
    ell = code.ell
    full = ell * code.n  # both costs over all n nodes when W meets none
    seen: dict[Subspace, _Profile] = {}
    out = []
    for node, w in repairs:
        profile = seen.get(w)
        if profile is None:
            if w.ambient_dim != code.ambient_dim or w.field != code.field:
                raise ValueError("repair subspace does not match the code")
            if w.dim != (code.r - 1) * ell:
                raise ValueError("repair subspace must have dimension (r-1)*ell")
            dims, zs, matrix = _rank_profile(code, w)
            profile = seen[w] = _Profile(
                w, matrix, tuple(dims), tuple(zs), full - ell - sum(dims), full - sum(zs), max(dims)
            )
        if profile.dims[node] != 0:
            raise ValueError("repair subspace meets the failed node's subspace")
        out.append(profile)
    return out


def make_witnesses(
    code: ArrayCode, repairs: Iterable[tuple[int, Subspace]]
) -> tuple[RepairWitness, ...]:
    """The witness of each (node, W) pair, the node repaired through W.

    Each W must be a complement of H_node in the code's space; its repair
    matrix is the reduced basis of its annihilator, the matrix whose
    kernel is W.  The rank oracle runs once per distinct W.
    """
    pairs = list(repairs)
    return tuple(p.witness(node) for (node, _), p in zip(pairs, _profiles(code, pairs)))


def make_witness(code: ArrayCode, node: int, w: Subspace) -> RepairWitness:
    """Wrap the repair subspace w as a witness for the given node."""
    return make_witnesses(code, [(node, w)])[0]


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _nth_bit(mask: int, k: int) -> int:
    """Position of the set bit of mask with k set bits below it, found by halving the width."""
    pos = 0
    while mask > 1:
        half = mask.bit_length() >> 1
        low = mask & ((1 << half) - 1)
        below = low.bit_count()
        if k < below:
            mask = low
        else:
            k -= below
            mask >>= half
            pos += half
    return pos


def _add_bit(planes: list[int], x: int, start: int) -> None:
    """Add the 0/1 bitset x at plane start of a bit-sliced counter, least significant plane first.

    The counter must already have the planes below start; a carry out of
    its top plane becomes a new plane.
    """
    for k in range(start, len(planes)):
        if not x:
            return
        p = planes[k]
        planes[k] = p ^ x
        x &= p
    if x:
        planes.append(x)


def _add_planes(total: list[int], planes: Sequence[int]) -> None:
    """Add the bit-sliced count planes to the bit-sliced counter total in one carry pass.

    Both are least significant plane first; a carry out of total's top
    plane becomes a new plane.
    """
    total.extend([0] * (len(planes) - len(total)))
    carry = 0
    k = 0
    for x in planes:
        t = total[k]
        s = t ^ x
        if carry:
            total[k] = s ^ carry
            carry = (t & x) | (s & carry)
        else:
            total[k] = s
            carry = t & x
        k += 1
    while carry:
        if k == len(total):
            total.append(carry)
            return
        t = total[k]
        total[k] = t ^ carry
        carry &= t
        k += 1


def _top_level(planes: list[int], rest: int) -> tuple[int, int]:
    """The largest count over the positions of rest, and the positions of rest holding it.

    Narrows rest plane by plane from the most significant one, keeping the
    positions whose count has the bit whenever any of them does.
    """
    value = 0
    for k in range(len(planes) - 1, -1, -1):
        hit = rest & planes[k]
        if hit:
            rest = hit
            value |= 1 << k
    return value, rest


_Planes = tuple[tuple[int, ...], tuple[int, ...]]


def _member_planes(
    inc: Sequence[int], node_points: Iterable[int], column_points: Iterable[int], tops: list[int]
) -> _Planes:
    """Bit-sliced counts of dim(W meet H) and of one node's column points in W, per candidate W.

    The rows of H's points, given by number, add up to a bit-sliced count
    of the points of W meet H, which is (q^t - 1)/(q - 1) for t = dim(W
    meet H).  That number lies in [2^k, 2^(k+1)), k = tops[t - 1] its bit
    length minus 1, and every smaller such count lies below 2^k; so dim >=
    t exactly where a plane k or higher is set, and the dimension is the
    sum of those bitsets over t = 1..ell.  The rows of the column points
    add up to their count.
    """
    count: list[int] = []
    for b in node_points:
        _add_bit(count, inc[b], 0)
    for k in range(len(count) - 2, -1, -1):
        count[k] |= count[k + 1]  # now: a plane k or higher is set
    dims: list[int] = []
    for k in tops:
        if k < len(count):
            _add_bit(dims, count[k], 0)
    captured: list[int] = []
    for b in column_points:
        _add_bit(captured, inc[b], 0)
    return tuple(dims), tuple(captured)


class _PlanesMemo:
    """Member planes over whole cached incidences, keyed by (H, column points).

    Each entry is charged the bytes of the ints and tuples it holds, its
    key's included; past _PLANES_CEILING the least recently used go first.
    """

    def __init__(self) -> None:
        self.entries: OrderedDict[tuple, tuple[_Planes, int]] = OrderedDict()
        self.held = 0

    def get(self, key: tuple) -> _Planes | None:
        hit = self.entries.get(key)
        if hit is None:
            return None
        self.entries.move_to_end(key)
        return hit[0]

    def put(self, key: tuple, planes: _Planes) -> None:
        dims, captured = planes
        size = sum(map(sys.getsizeof, (key, *key[1], planes, dims, captured, *dims, *captured)))
        if size > _PLANES_CEILING:
            return
        self.entries[key] = (planes, size)
        self.held += size
        while self.held > _PLANES_CEILING:
            self.held -= self.entries.popitem(last=False)[1][1]

    def clear(self) -> None:
        self.entries.clear()
        self.held = 0


_planes_memo = _PlanesMemo()


def _scan(
    code: ArrayCode, budget: int
) -> tuple[dict[int, tuple[int, Subspace]], dict[int, tuple[int, Subspace]], int, int]:
    """Per node maxima of both objectives over the first min(budget, total) candidates.

    Works on bitsets over candidate positions, read from the point
    incidence block by block: the cached incidence is one block when the
    count fits both the budget and the cache, else incidence_blocks
    streams blocks of at most _CHUNK.  Per node j, _member_planes gives
    bit-sliced counts of dim(W meet H_j) and of H_j's column points in W,
    and W meets H_j where any plane of the first is set.  Over the cached
    incidence these depend on (H_j, column points) alone and are read
    through a memo; streamed or budget-cut blocks compute them afresh.
    Summed over j, each member's planes in one carry pass by _add_planes,
    they give each candidate's total intersection dimension and total of
    column points in W.  No column point is checked here: ArrayCode has
    checked that H_j's column points are independent points of H_j, so W
    holds at most dim(W meet H_j) of them.  On the candidates missing H_i
    both totals are node i's objectives.  Every node's maximum comes from
    one level descent per objective: the top level of the totals over the
    candidates left, narrowed plane by plane, gives its value to every
    pending node that misses one of its candidates, at the lowest such
    position, which is the first maximizer in enumeration order; the level
    then leaves, and the next one serves the nodes still pending.  Their
    misses all lie below the levels taken, so each gets its own maximum.
    Blocks merge with a strict >, so an earlier block keeps a tie.
    Maximizers are kept as positions; only the distinct winners are
    rebuilt, by subspace_at.  All masks stay non-negative, so no operation
    takes CPython's two's-complement path over the candidate width.
    """
    f = code.field
    d = code.ambient_dim
    wdim = (code.r - 1) * code.ell
    tops = [projective_point_count(t, f.q).bit_length() - 1 for t in range(1, code.ell + 1)]
    total = gaussian_binomial(d, wdim, f.q)
    best_dim: dict[int, tuple[int, int]] = {}  # node -> (value, candidate position)
    best_pts: dict[int, tuple[int, int]] = {}
    scanned = 0
    cached = total <= min(budget, linalg._CACHE_LIMIT)
    if cached:
        blocks: Iterable = [(0, total, subspace_incidence(f, d, wdim))]
    else:
        blocks = incidence_blocks(f, d, wdim, min(budget, total), _CHUNK)
    # node -> the numbers of its points and of its column points, on its first miss
    numbers: dict[int, tuple[list[int], list[int]]] = {}
    for start, length, inc in blocks:
        # both totals are at most ell * n, so they never outgrow these planes
        dim_total = [0] * (code.ell * code.n).bit_length()
        pts_total = [0] * (code.ell * code.n).bit_length()
        meets = []  # per node, the candidates meeting H_j
        for j, key in enumerate(zip(code.node_subspaces, code.column_points)):
            planes = _planes_memo.get(key) if cached else None
            if planes is None:
                if j not in numbers:
                    h, plist = key
                    numbers[j] = (list(_bits(h.point_mask)), list(_bits(points_mask(f, d, plist))))
                planes = _member_planes(inc, *numbers[j], tops)
                if cached:
                    _planes_memo.put(key, planes)
            dims, captured = planes  # the per-family part: sum the members' counts
            _add_planes(dim_total, dims)
            _add_planes(pts_total, captured)
            meets.append(reduce(or_, dims, 0))
        live = (1 << length) - 1
        pending = [i for i in range(code.n) if meets[i] != live]
        for best, totals in ((best_dim, dim_total), (best_pts, pts_total)):
            rest = live  # holds every pending node's misses
            todo = pending
            while todo:
                if not rest:
                    raise AssertionError("the level descent left a node without a maximum")
                value, level = _top_level(totals, rest)
                rest ^= level
                left = []
                for i in todo:
                    hit = level & meets[i]
                    if hit == level:
                        left.append(i)
                        continue
                    miss = level ^ hit
                    pos = (miss ^ (miss - 1)).bit_length() - 1  # its lowest set bit
                    if i not in best or value > best[i][0]:
                        best[i] = (value, start + pos)
                todo = left
        scanned += length
    winners = {pos for best in (best_dim, best_pts) for _, pos in best.values()}
    spaces = {pos: subspace_at(f, d, wdim, pos) for pos in winners}
    return (
        {i: (value, spaces[pos]) for i, (value, pos) in best_dim.items()},
        {i: (value, spaces[pos]) for i, (value, pos) in best_pts.items()},
        total,
        scanned,
    )


def optimal_alpha(
    code: ArrayCode, node: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[int, RepairWitness]:
    """Exhaustive maximum of the total helper intersection dimension.

    Returns the maximum together with the first witness in enumeration
    order, both read off repair_report.  Raises BudgetExceededError when
    the candidate count exceeds the budget.
    """
    if not 0 <= node < code.n:
        raise ValueError(f"node {node} out of range")
    total = gaussian_binomial(code.ambient_dim, (code.r - 1) * code.ell, code.field.q)
    if total > budget:
        raise BudgetExceededError(f"{total} candidates exceed the budget of {budget}")
    nd = repair_report(code, budget=budget).nodes[node]
    return nd.alpha, nd.alpha_witness


def repair_report(code: ArrayCode, *, budget: int = DEFAULT_ENUM_BUDGET) -> RepairReport:
    """Per node optimal bandwidth and I/O by a single shared candidate scan.

    When the candidate count exceeds the budget only a prefix is scanned:
    alpha and lambda become lower bounds, beta and gamma upper bounds, and
    the attainment flags are dropped from the aggregate properties.  A
    prefix holding no repair subspace for some node raises
    BudgetExceededError.  After the scan the rank oracle runs once per
    distinct winning W, and every node's checks read that W's profile:
    the W misses H_i, both costs equal the scan's maxima, and lambda <=
    alpha.  An exhaustive report also asserts the capacity invariants and
    beta >= bound, which hold when the node subspaces pairwise meet
    trivially, as every MDS code's do (a code repeating a node can break
    them).  For r >= 3 and ell >= 2 the bound is negative at every MDS
    length, so beta > bound goes unchecked.  Each node's witnesses are
    built from the profiles when they are read.
    """
    if code.n < 2:
        raise ValueError("repair needs at least one helper, so n >= 2")
    q = code.field.q
    wdim = (code.r - 1) * code.ell
    cap = projective_point_count(wdim, q)
    bound = counting_bound(code.n, code.r, code.ell, q)
    best_dim, best_pts, total, scanned = _scan(code, budget)
    exhaustive = scanned == total
    for i in range(code.n):
        if i not in best_dim:
            if not exhaustive:
                raise BudgetExceededError(
                    f"no repair subspace for node {i} among the first {scanned} "
                    f"of {total} candidates"
                )
            raise AssertionError("no feasible repair subspace found")
    # alpha and lambda profiles alternate; one rank-oracle run per distinct W
    profiles = _profiles(
        code, [(i, best[i][1]) for i in range(code.n) for best in (best_dim, best_pts)]
    )
    ell = code.ell
    summaries = []
    for i, prof_a, prof_l in zip(range(code.n), profiles[::2], profiles[1::2]):
        alpha = best_dim[i][0]
        lam = best_pts[i][0]
        if lam > alpha:
            raise AssertionError(f"node {i}: lambda {lam} exceeds alpha {alpha}")
        beta = ell * (code.n - 1) - alpha
        gamma = ell * (code.n - 1) - lam
        for cost, got, want in (("bw", prof_a.bw, beta), ("io", prof_l.io(i), gamma)):
            if got != want:
                raise AssertionError(
                    f"node {i}: the mask scan and the rank oracle disagree on {cost}"
                )
        if exhaustive:
            if alpha > cap:
                raise AssertionError(
                    f"node {i}: saving {alpha} exceeds the projective point capacity {cap}"
                )
            # W misses H_i, so its widest meet is a helper's
            if alpha == cap and prof_a.widest > 1:
                raise AssertionError(
                    f"node {i}: bound attained but a helper intersection exceeds dim 1"
                )
            if alpha == cap and code.n < 1 + cap:
                raise AssertionError(
                    f"node {i}: bound attained with n={code.n} < {1 + cap} helpers+1"
                )
            if beta < bound:
                raise AssertionError(f"node {i}: bandwidth {beta} undercuts the bound {bound}")
        summaries.append(
            NodeRepair(
                node=i,
                alpha=alpha,
                lam=lam,
                beta=beta,
                gamma=gamma,
                alpha_profile=prof_a,
                lambda_profile=prof_l,
                attains_bw_bound=(beta == bound),
                attains_io_bound=(gamma == bound),
            )
        )
    betas = [s.beta for s in summaries]
    gammas = [s.gamma for s in summaries]
    return RepairReport(
        n=code.n,
        k=code.k,
        ell=code.ell,
        q=q,
        bound=bound,
        point_capacity=cap,
        nodes=tuple(summaries),
        beta_avg=Fraction(sum(betas), len(betas)),
        beta_max=max(betas),
        gamma_avg=Fraction(sum(gammas), len(gammas)),
        gamma_max=max(gammas),
        exhaustive=exhaustive,
        candidates_total=total,
        candidates_scanned=scanned,
        anomalies=(),
    )


def random_mds_code(field: FieldCtx, r: int, ell: int, n: int, rng: random.Random) -> ArrayCode:
    """Sample an (n, n-r, ell) MDS array code over the given field.

    Grows the family one member at a time, each a uniform draw among the
    candidate subspaces that stay r-wise independent with the family so
    far; whole-family rejection sampling would almost never terminate at
    the rarer parameters.  The live candidates are one bitset over the
    positions of the ell-subspaces; a draw rebuilds the k-th by
    subspace_at.  A candidate is independent of r-1 members exactly when
    it shares no projective point with their span, so once spans start,
    the incidence row of each point of a new span leaves the live set.
    The first r-1 members are drawn unchecked; if they span less than
    (r-1)*ell, no candidate can join them and the attempt ends there, as
    it does when the live set runs empty.  One rng.randrange per member
    samples exactly as a walk over a shuffled pool that keeps every
    candidate that fits: spans only grow, so a candidate the walk skipped
    stays out, and its next member, the first fitting candidate of a
    uniform order, is a uniform draw among those that fit now.  The
    finished family is still verified by is_mds, whose rank-based check
    stays the independent oracle.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if n < r:
        raise ValueError("need n >= r")
    d = r * ell
    inc = subspace_incidence(field, d, ell)
    size = gaussian_binomial(d, ell, field.q)
    span_dim = (r - 1) * ell
    for _ in range(_RETRY_CAP):
        live = (1 << size) - 1
        family: list[Subspace] = []
        while live:
            pos = _nth_bit(live, rng.randrange(live.bit_count()))
            live ^= 1 << pos
            cand = subspace_at(field, d, ell, pos)
            # spans through cand start once it makes r-1 members; the last needs none
            if len(family) >= r - 2 and len(family) + 1 < n:
                spans = [
                    reduce(subspace_sum, group, cand) for group in combinations(family, r - 2)
                ]
                if any(s.dim < span_dim for s in spans):
                    break
                for s in spans:
                    for b in _bits(s.point_mask):
                        live &= ~inc[b]
            family.append(cand)
            if len(family) == n:
                break
        if len(family) < n:
            continue
        code = code_from_intrinsic(tuple(family))
        chk = is_mds(code)
        if chk.ok:
            return code
    raise SamplingExhaustedError(
        f"no MDS code found for q={field.q}, r={r}, ell={ell}, n={n} "
        f"after {_RETRY_CAP} attempts"
    )


@dataclass(frozen=True)
class SweepResult:
    q: int
    ell: int
    r: int
    trials_requested: int
    codes_tested: int
    sampling_failures: int
    nodes_checked: int
    min_slack: int | None
    bound_range: tuple[int, int] | None  # (min, max) of the bound over the tested codes
    equality_cases: tuple[tuple[int, int], ...]  # (n, node) pairs with beta == bound
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def vacuous(self) -> bool:
        """True when the bound is at most 0 for every tested code, so beta >= bound says nothing."""
        return self.bound_range is None or self.bound_range[1] <= 0


def verify_bound_sweep(
    q: int,
    ell: int,
    r: int,
    *,
    trials: int,
    seed: int = 0,
    n_values: Sequence[int] | None = None,
) -> SweepResult:
    """Check beta_i >= bound and gamma_i >= beta_i on random MDS codes.

    The checks are repair_report's own: a report that fails one raises
    AssertionError, whose message becomes that code's violation.  The
    sampler's pool, the point incidence of the ell-subspaces of
    GF(q)^(r*ell), is refused above the cache limit before any length is
    listed.
    """
    if r < 2 or ell < 1:
        raise ValueError("need r >= 2 and ell >= 1")
    field = field_of_order(q)
    # the pool holds at least q^((r-1)*ell*ell) subspaces: refuse a large one uncounted
    if (r - 1) * ell * ell >= linalg._CACHE_LIMIT.bit_length() or (
        gaussian_binomial(r * ell, ell, q) > linalg._CACHE_LIMIT
    ):
        raise BudgetExceededError(
            f"the {ell}-subspaces of GF({q})^{r * ell} exceed the cache limit "
            f"of {linalg._CACHE_LIMIT}"
        )
    if n_values is None:
        n_values = list(range(r + 1, length_bound(q, ell, r) + 1))
    if not n_values:
        raise ValueError("no admissible code lengths")
    rng = random.Random(seed)
    codes = 0
    failures = 0
    nodes_checked = 0
    min_slack: int | None = None
    bounds: list[int] = []
    equalities: list[tuple[int, int]] = []
    violations: list[str] = []
    for trial in range(trials):
        n = n_values[trial % len(n_values)]
        try:
            code = random_mds_code(field, r, ell, n, rng)
        except SamplingExhaustedError:
            failures += 1
            continue
        codes += 1
        try:
            report = repair_report(code)
        except AssertionError as exc:
            violations.append(f"n={n}: {exc}")
            continue
        assert report.exhaustive
        bounds.append(report.bound)
        for nd in report.nodes:
            nodes_checked += 1
            slack = nd.beta - report.bound
            if min_slack is None or slack < min_slack:
                min_slack = slack
            if slack == 0:
                equalities.append((n, nd.node))
    return SweepResult(
        q=q,
        ell=ell,
        r=r,
        trials_requested=trials,
        codes_tested=codes,
        sampling_failures=failures,
        nodes_checked=nodes_checked,
        min_slack=min_slack,
        bound_range=(min(bounds), max(bounds)) if bounds else None,
        equality_cases=tuple(equalities),
        violations=tuple(violations),
    )
