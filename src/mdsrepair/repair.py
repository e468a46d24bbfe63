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
from itertools import chain, combinations
from operator import or_
from typing import Iterable, Iterator, Sequence

from . import linalg
from ._kernel import rre_rank
from .code import ArrayCode, code_from_intrinsic, is_mds
from .gf import FieldCtx
from .linalg import (
    BudgetExceededError,
    DEFAULT_ENUM_BUDGET,
    MatrixGF,
    Subspace,
    all_subspaces,
    gaussian_binomial,
    incidence_blocks,
    kernel,
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


@dataclass(frozen=True)
class NodeRepair:
    node: int
    alpha: int
    lam: int
    beta: int
    gamma: int
    alpha_witness: RepairWitness
    lambda_witness: RepairWitness
    attains_bw_bound: bool
    attains_io_bound: bool


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
    q, sub, mul, inv = field.q, field.sub_tab, field.mul_tab, field.inv_tab
    return rre_rank(bytearray(block), ell, ell, q, sub, mul, inv)


def _rank_profile(code: ArrayCode, w: Subspace) -> tuple[list[int], list[int], MatrixGF]:
    """Per node intersection dimensions, counts of column points in W, and W's repair matrix.

    The oracle for the mask scan, read through the repair matrix M, the
    reduced basis of the annihilator of W, so that ker M = W.  The images
    come column by column out of M H, computed row by row as sums of the
    packed parity rows scaled by M's entries.  The block's columns are a
    basis of H_j, so dim(W meet H_j) = ell - rank(M H_j), the rank of the
    ell x ell image; reports meet few distinct images, so the ranks are
    read through a bounded memo that rre_rank fills on a miss.  Each column
    is a nonzero multiple of its column point, which ArrayCode checks, so
    the point lies in W exactly when the column's image is 0: z_j is the
    count of zero columns of M H_j.  No point mask or incidence is read,
    and M is the matrix the witness hands to the simulator.
    """
    f = code.field
    q = f.q
    add, mul = f.add_tab, f.mul_tab
    ell = code.ell
    matrix = kernel(w.basis_matrix).basis_matrix  # ell x (r*ell), as W has dimension (r-1)*ell
    rows = code.parity_rows
    out = []  # the rows of M H
    for i in range(ell):
        acc = None
        for t, c in enumerate(matrix.row(i)):
            if c:
                scaled = rows[t].translate(mul[c * q : (c + 1) * q] + bytes(256 - q))
                if acc is None:
                    acc = scaled
                else:
                    acc = bytes([add[a * q + b] for a, b in zip(acc, scaled)])
        out.append(acc)
    images = list(zip(*out))  # the columns of M H
    flat = bytes(chain.from_iterable(images))  # (M H_j)^T at [j*size, (j+1)*size)
    size = ell * ell
    dims = [ell - _block_rank(f, ell, flat[j * size : (j + 1) * size]) for j in range(code.n)]
    live = bytes(map(any, images))  # 0 exactly at the column points in W
    zs = [live[j * ell : (j + 1) * ell].count(0) for j in range(code.n)]
    return dims, zs, matrix


def make_witnesses(
    code: ArrayCode, repairs: Iterable[tuple[int, Subspace]]
) -> tuple[RepairWitness, ...]:
    """The witness of each (node, W) pair, the node repaired through W.

    Each W must be a complement of H_node in the code's space; its repair
    matrix is the reduced basis of its annihilator, the matrix whose
    kernel is W.  The profile and the matrix depend on the code and W
    alone, so each distinct W runs the rank oracle once, which reduces the
    matrix and profiles every node through it, and every node repaired
    through W slices its own witness out.
    """
    ell = code.ell
    # per W: the (j, dim(W meet H_j)) and (j, z_j) pairs over all n nodes,
    # the bandwidth and I/O totals over all n, and the repair matrix
    profiles: dict[Subspace, tuple] = {}
    witnesses = []
    for node, w in repairs:
        if w.ambient_dim != code.ambient_dim or w.field != code.field:
            raise ValueError("repair subspace does not match the code")
        if w.dim != (code.r - 1) * ell:
            raise ValueError("repair subspace must have dimension (r-1)*ell")
        if w not in profiles:
            dims, zs, matrix = _rank_profile(code, w)
            profiles[w] = (
                tuple(enumerate(dims)),
                tuple(enumerate(zs)),
                sum(ell - x for x in dims),
                sum(ell - z for z in zs),
                matrix,
            )
        dim_pairs, z_pairs, bw_all, io_all, matrix = profiles[w]
        if dim_pairs[node][1] != 0:
            raise ValueError("repair subspace meets the failed node's subspace")
        witnesses.append(
            RepairWitness(
                node=node,
                space=w,
                matrix=matrix,
                helper_dims=dim_pairs[:node] + dim_pairs[node + 1 :],
                helper_points=z_pairs[:node] + z_pairs[node + 1 :],
                bw=bw_all - ell,
                io=io_all - (ell - z_pairs[node][1]),
            )
        )
    return tuple(witnesses)


def make_witness(code: ArrayCode, node: int, w: Subspace) -> RepairWitness:
    """Wrap the repair subspace w as a witness for the given node."""
    return make_witnesses(code, [(node, w)])[0]


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def _max_first(planes: list[int], live: int) -> tuple[int, int]:
    """The largest count over the positions of live, and the lowest position holding it.

    Narrows live plane by plane from the most significant one, keeping the
    positions whose count has the bit whenever any of them does.
    """
    value = 0
    for k in range(len(planes) - 1, -1, -1):
        hit = live & planes[k]
        if hit:
            live = hit
            value |= 1 << k
    return value, (live & -live).bit_length() - 1


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
    Summed over j they give each candidate's total intersection dimension
    and total of column points in W.  No column point is checked here: ArrayCode has checked
    that H_j's column points are independent points of H_j, so W holds at
    most dim(W meet H_j) of them.  On the candidates missing H_i both
    totals are node i's objectives.  The first maximizer in enumeration
    order is the lowest position, and blocks merge with a strict >, so an
    earlier block keeps a tie.  Maximizers are kept as positions; only the
    distinct winners are rebuilt, by subspace_at.
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
            for k, x in enumerate(dims):
                _add_bit(dim_total, x, k)
            for k, x in enumerate(captured):
                _add_bit(pts_total, x, k)
            meets.append(reduce(or_, dims, 0))
        live = (1 << length) - 1
        for i in range(code.n):
            miss = live & ~meets[i]
            if not miss:
                continue
            for best, totals in ((best_dim, dim_total), (best_pts, pts_total)):
                value, pos = _max_first(totals, miss)
                if i not in best or value > best[i][0]:
                    best[i] = (value, start + pos)
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
    BudgetExceededError.  Every report asserts lambda <= alpha per node;
    an exhaustive one also asserts the capacity invariants, beta >= bound
    and, for r >= 3 and ell >= 2, beta != bound.
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
    # alpha and lambda witnesses alternate; one rank-oracle run per distinct W
    wits = make_witnesses(
        code, [(i, best[i][1]) for i in range(code.n) for best in (best_dim, best_pts)]
    )
    summaries = []
    for i, wit_a, wit_l in zip(range(code.n), wits[::2], wits[1::2]):
        alpha = best_dim[i][0]
        lam = best_pts[i][0]
        if lam > alpha:
            raise AssertionError(f"node {i}: lambda {lam} exceeds alpha {alpha}")
        beta = code.ell * (code.n - 1) - alpha
        gamma = code.ell * (code.n - 1) - lam
        for cost, got, want in (("bw", wit_a.bw, beta), ("io", wit_l.io, gamma)):
            if got != want:
                raise AssertionError(
                    f"node {i}: the mask scan and the rank oracle disagree on {cost}"
                )
        if exhaustive:
            if alpha > cap:
                raise AssertionError(
                    f"node {i}: saving {alpha} exceeds the projective point capacity {cap}"
                )
            if alpha == cap and any(d > 1 for _, d in wit_a.helper_dims):
                raise AssertionError(
                    f"node {i}: bound attained but a helper intersection exceeds dim 1"
                )
            if alpha == cap and code.n < 1 + cap:
                raise AssertionError(
                    f"node {i}: bound attained with n={code.n} < {1 + cap} helpers+1"
                )
            if beta < bound:
                raise AssertionError(f"node {i}: bandwidth {beta} undercuts the bound {bound}")
            if code.r >= 3 and code.ell >= 2 and beta == bound:
                raise AssertionError(
                    f"node {i}: bandwidth meets the bound, impossible for r >= 3, ell >= 2"
                )
        summaries.append(
            NodeRepair(
                node=i,
                alpha=alpha,
                lam=lam,
                beta=beta,
                gamma=gamma,
                alpha_witness=wit_a,
                lambda_witness=wit_l,
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


@lru_cache(maxsize=64)
def _pool_masks(field: FieldCtx, ambient_dim: int, dim: int) -> tuple[int, ...]:
    """Point masks of all_subspaces(field, ambient_dim, dim), in pool order."""
    return tuple(s.point_mask for s in all_subspaces(field, ambient_dim, dim))


def random_mds_code(field: FieldCtx, r: int, ell: int, n: int, rng: random.Random) -> ArrayCode:
    """Sample an (n, n-r, ell) MDS array code over the given field.

    Grows the family one member at a time, each a uniform draw among the
    candidate subspaces that stay r-wise independent with the family so
    far; whole-family rejection sampling would almost never terminate at
    the rarer parameters.  A candidate is independent of r-1 members
    exactly when it shares no projective point with their span, so once
    spans start, every candidate whose point mask meets a new span leaves
    the live list.  The first r-1 members are drawn unchecked; if they span
    less than (r-1)*ell, no candidate can join them and the attempt ends
    there, as it does when the live list runs empty.  One rng.randrange per
    member samples exactly as a walk over a shuffled pool that keeps every
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
    pool = all_subspaces(field, r * ell, ell)
    masks = _pool_masks(field, r * ell, ell)
    span_dim = (r - 1) * ell
    for _ in range(_RETRY_CAP):
        live = list(range(len(pool)))
        family: list[Subspace] = []
        while live:
            cand = pool[live.pop(rng.randrange(len(live)))]
            # spans through cand start once it makes r-1 members; the last needs none
            if len(family) >= r - 2 and len(family) + 1 < n:
                spans = [
                    reduce(subspace_sum, group, cand) for group in combinations(family, r - 2)
                ]
                if any(s.dim < span_dim for s in spans):
                    break
                new = 0
                for s in spans:
                    new |= s.point_mask
                live = [i for i in live if not masks[i] & new]
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
    sampler's pool, the ell-subspaces of GF(q)^(r*ell), is refused above
    the cache limit before any length is listed.
    """
    from .code import length_bound
    from .gf import field_of_order

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


def verify_strictness_sweep(
    q: int,
    ell: int,
    r: int,
    *,
    trials: int,
    seed: int = 0,
) -> SweepResult:
    """Check beta_i > bound strictly on random MDS codes, for r >= 3, ell >= 2.

    verify_bound_sweep at these parameters: repair_report asserts beta !=
    bound there, so an equality case is a violation.
    """
    if r < 3 or ell < 2:
        raise ValueError("strictness requires r >= 3 and ell >= 2")
    return verify_bound_sweep(q, ell, r, trials=trials, seed=seed)
