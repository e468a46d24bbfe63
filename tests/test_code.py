import dataclasses
import functools
import gc
import itertools
import math
import operator
import random
import re
from fractions import Fraction

import pytest

from mdsrepair import linalg, repair
from mdsrepair._kernel import rre_rank
from mdsrepair.code import (
    MDS_CAP,
    ArrayCode,
    MdsCheck,
    code_from_intrinsic,
    codeword_space,
    deserialize,
    is_mds,
    length_bound,
    serialize,
)
from mdsrepair.constructions import build_exceptional, build_two_parity_code
from mdsrepair.geometry import desarguesian_spread
from mdsrepair.gf import field_of_order
from mdsrepair.linalg import MatrixGF, Subspace, all_subspaces, proj_point, rank, subspace_sum
from mdsrepair.repair import SamplingExhaustedError, random_mds_code
from test_repair import _differential_codes, _witness_mix


def _live_subspaces():
    gc.collect()
    return sum(isinstance(obj, Subspace) for obj in gc.get_objects())


def _spread_code(q, n):
    s = desarguesian_spread(q, 2)
    return code_from_intrinsic(s.members[:n])


def test_code_from_intrinsic_defaults():
    code = _spread_code(3, 5)
    assert (code.n, code.k, code.r, code.ell) == (5, 3, 2, 2)
    assert code.ambient_dim == 4
    for s, block, pts in zip(code.node_subspaces, code.blocks, code.column_points):
        assert block.rows == 4 and block.cols == 2
        assert len(pts) == 2
        cols = Subspace.from_rows(code.field, 4, [block.col(j) for j in range(2)])
        assert cols == s


def test_parity_matrix_shape():
    code = _spread_code(3, 6)
    h = code.parity_matrix()
    assert (h.rows, h.cols) == (4, 12)
    assert rank(h) == 4


def test_explicit_column_points():
    field = field_of_order(3)
    s = desarguesian_spread(3, 2)
    members = s.members[:4]
    pts = []
    for mem in members:
        rows = mem.basis_rows()
        # a basis of each subspace that is not the reduced one
        mixed = [rows[0], tuple(field.add(a, b) for a, b in zip(rows[0], rows[1]))]
        pts.append([proj_point(field, v) for v in mixed])
    code = code_from_intrinsic(members, column_points=pts)
    assert code.column_points == tuple(tuple(p) for p in pts)
    assert tuple(code.node_subspaces) == members


def test_intrinsic_rejections():
    field = field_of_order(3)
    s = desarguesian_spread(3, 2)
    members = s.members[:4]
    good = [[proj_point(field, v) for v in mem.basis_rows()] for mem in members]
    outside = proj_point(field, (1, 0, 0, 0))
    assert Subspace.from_rows(field, 4, [*members[1].basis_rows(), outside]).dim == 3
    with pytest.raises(ValueError, match="^column point outside its node subspace$"):
        code_from_intrinsic(members, column_points=[good[0], [outside, good[1][1]]] + good[2:])
    with pytest.raises(ValueError):
        code_from_intrinsic(members, column_points=[[good[0][0], good[0][0]]] + good[1:])
    with pytest.raises(ValueError):
        code_from_intrinsic(members, column_points=good[:3])
    with pytest.raises(ValueError):
        code_from_intrinsic([])
    with pytest.raises(ValueError):
        code_from_intrinsic(members[:1])  # a single node cannot span the parity space


def test_array_code_from_blocks_round_trip():
    original = _spread_code(3, 5)
    rebuilt = ArrayCode(original.field, original.blocks)
    assert rebuilt.node_subspaces == original.node_subspaces
    assert rebuilt.column_points == original.column_points
    assert rebuilt.blocks == original.blocks


def test_is_mds_spread_code():
    code = _spread_code(3, 7)
    chk = is_mds(code)
    assert chk.ok
    assert chk.subsets_checked == math.comb(7, 2)
    assert chk.failing_subset is None


def _overlap_code():
    field = field_of_order(2)
    # the first two subspaces share the point (1, 0, 0, 0); two complementary
    # spread members keep the family spanning
    a = Subspace.from_rows(field, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    b = Subspace.from_rows(field, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    spread = desarguesian_spread(2, 2)
    tail = tuple(m for m in spread.members if m not in (a, b))[:2]
    return code_from_intrinsic((a, b) + tail)


def test_is_mds_detects_overlap():
    code = _overlap_code()
    chk = is_mds(code)
    assert not chk.ok
    assert chk.failing_subset == (0, 1)
    i, j = chk.failing_subset
    rows = [code.blocks[i].row(t) + code.blocks[j].row(t) for t in range(4)]
    assert rank(MatrixGF.from_rows(code.field, rows)) < 4


def _reference_is_mds(code):
    """is_mds one r-subset at a time, by side-by-side blocks and validated subspaces."""
    if math.comb(code.n, code.r) > MDS_CAP:
        return MdsCheck("cap_exceeded", 0)
    checked = 0
    for subset in itertools.combinations(range(code.n), code.r):
        checked += 1
        square = MatrixGF.from_rows(code.field, [
            b"".join(code.blocks[i].row(t) for i in subset) for t in range(code.ambient_dim)
        ])
        invertible = rank(square) == code.ambient_dim
        rows = [row for i in subset for row in code.node_subspaces[i].basis_rows()]
        direct = Subspace.from_rows(code.field, code.ambient_dim, rows).dim == code.ambient_dim
        assert invertible == direct
        if not invertible:
            return MdsCheck("not_mds", checked, subset)
    return MdsCheck("mds", checked)


def _random_families(q, ell, r, count, rng):
    """Codes on random families of ell-subspaces of GF(q)^(r*ell), most of them not MDS."""
    field = field_of_order(q)
    pool = all_subspaces(field, r * ell, ell)
    codes = []
    while len(codes) < count:
        family = rng.sample(pool, rng.randrange(r, r + 5))
        try:
            codes.append(code_from_intrinsic(family))
        except ValueError:  # the family does not span the parity space
            continue
    return codes


def test_is_mds_matches_the_reference_check():
    # the whole MdsCheck, status, subset count and failing subset, equals the
    # side-by-side and from_rows formulation on MDS codes, on overlapping nodes
    # and on random families over GF(2) and GF(3)
    rng = random.Random(60)
    codes = [_spread_code(3, 7), _spread_code(2, 5), build_exceptional("q4n9")[0], _overlap_code()]
    codes += [random_mds_code(field_of_order(q), r, ell, n, rng)
              for q, ell, r, n in ((2, 2, 2, 5), (3, 2, 2, 8), (2, 2, 3, 6), (2, 3, 2, 6))]
    for q, ell, r in ((2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 1, 3)):
        codes += _random_families(q, ell, r, 15, rng)
    statuses = set()
    for code in codes:
        chk = is_mds(code)
        assert chk == _reference_is_mds(code)
        statuses.add(chk.status)
    assert statuses == {"mds", "not_mds"}


def _dependent_block(code):
    """Block 0 repeats its first column."""
    col = code.blocks[0].col(0)
    return (MatrixGF(code.field, 4, 2, tuple(x for x in col for _ in range(2))),) + code.blocks[1:]


def _collinear_block(code):
    """Block 1 of an ell = 3 code gets columns a, b and a + b."""
    f = code.field
    a, b = code.blocks[1].col(0), code.blocks[1].col(1)
    c = tuple(f.add(x, y) for x, y in zip(a, b))
    collinear = MatrixGF(f, 6, 3, tuple(itertools.chain.from_iterable(zip(a, b, c))))
    return code.blocks[:1] + (collinear,) + code.blocks[2:]


def _zero_column_block(code):
    """Block 2's second column is zero."""
    zeroed = tuple(x if t % 2 == 0 else 0 for t, x in enumerate(code.blocks[2].entries))
    return code.blocks[:2] + (MatrixGF(code.field, 4, 2, zeroed),) + code.blocks[3:]


def _other_field_block(code):
    """Block 0 re-entered over GF(5)."""
    return (MatrixGF(field_of_order(5), 4, 2, code.blocks[0].entries),) + code.blocks[1:]


def _spread_ell3_code():
    return code_from_intrinsic(desarguesian_spread(2, 3).members[:4])


_q3n5 = functools.partial(_spread_code, 3, 5)

# each refusal: the code it starts from, the blocks it is given and the message
_REFUSALS = {
    "empty": (_q3n5, lambda c: (), "need at least one block"),
    "no-columns": (_q3n5, lambda c: (MatrixGF(c.field, 4, 0, ()),) * 5,
                   "blocks must have at least one column"),
    "rows": (_q3n5, lambda c: (MatrixGF(c.field, 5, 2, (1,) * 10),) * 5,
             "ambient dimension must be a multiple of ell"),
    "no-rows": (_q3n5, lambda c: (MatrixGF(c.field, 0, 2, ()),) * 5,
                "need r >= 1 and at least r nodes"),
    "few": (_q3n5, lambda c: c.blocks[:1], "need r >= 1 and at least r nodes"),
    "shape": (_q3n5, lambda c: c.blocks[:4] + (MatrixGF(c.field, 4, 1, (1, 0, 0, 0)),),
              "blocks must share field and shape"),
    "field": (_q3n5, _other_field_block, "blocks must share field and shape"),
    "zero-column": (_q3n5, _zero_column_block, "the zero vector spans no projective point"),
    "dependent": (_q3n5, _dependent_block, "blocks must have full column rank"),
    "collinear": (_spread_ell3_code, _collinear_block, "blocks must have full column rank"),
    "span": (_q3n5, lambda c: c.blocks[:1] * 5, "node subspaces do not span the parity space"),
}


@pytest.mark.parametrize("route", ["init", "replace"])
@pytest.mark.parametrize("case", list(_REFUSALS))
def test_array_code_refuses_bad_blocks(case, route):
    # ArrayCode(field, blocks) and replace(code, blocks=...) run the same
    # checks; each refusal keeps its own message
    build, make_blocks, message = _REFUSALS[case]
    code = build()
    blocks = make_blocks(code)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if route == "init":
            ArrayCode(code.field, blocks)
        else:
            dataclasses.replace(code, blocks=blocks)


def _derived_state_codes():
    """The repair suites' differential codes, random families and the CLI's three codes."""
    rng = random.Random(61)
    codes = _differential_codes() + _witness_mix()
    for q, ell, r in ((3, 2, 2), (2, 2, 3)):
        codes += _random_families(q, ell, r, 10, rng)
    codes += [build_two_parity_code(3, 2, 8)[0], build_exceptional("q4n9")[0],
              build_two_parity_code(4, 2, 17)[0]]
    return codes


def test_derived_state_matches_independent_constructions(monkeypatch):
    # node subspaces and column points are read off the blocks; equality is
    # the blocks', and is_mds ranks each subset it checks once
    calls = []

    def counting(*args):
        calls.append(args)
        return rre_rank(*args)

    for c in _derived_state_codes():
        f, d = c.field, c.ambient_dim
        for j, block in enumerate(c.blocks):
            cols = [block.col(t) for t in range(c.ell)]
            assert c.node_subspaces[j] == Subspace.from_rows(f, d, cols)
            assert c.column_points[j] == tuple(proj_point(f, col) for col in cols)
        back = deserialize(serialize(c))
        assert back == c and back.column_points == c.column_points
        assert dataclasses.replace(c, blocks=c.blocks) == c
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr("mdsrepair.code.rre_rank", counting)
            chk = is_mds(c)
        assert len(calls) == chk.subsets_checked > 0


def test_length_bound_values():
    assert length_bound(3, 2, 2) == 10
    assert length_bound(4, 2, 2) == 17
    assert length_bound(2, 2, 3) == 6
    assert length_bound(2, 2, 2) == 5
    assert length_bound(2, 3, 2) == 9
    with pytest.raises(ValueError):
        length_bound(3, 2, 1)


def test_codeword_space_dimension_and_parity():
    code = _spread_code(3, 6)
    space = codeword_space(code)
    assert space.dim == code.k * code.ell
    h = code.parity_matrix()
    for row in space.basis_rows():
        assert all(v == 0 for v in h.mul_vec(row))


def test_serialize_round_trip():
    code = _spread_code(4, 9)
    text = serialize(code)
    back = deserialize(text)
    assert back.field == code.field
    assert (back.n, back.k, back.ell) == (code.n, code.k, code.ell)
    assert back.blocks == code.blocks
    assert back.column_points == code.column_points


def test_deserialize_rejects_garbage():
    with pytest.raises(ValueError):
        deserialize("not json at all")
    with pytest.raises(ValueError):
        deserialize("{}")
    code = _spread_code(3, 5)
    import json

    payload = json.loads(serialize(code))
    payload["blocks"][0][0][0] = (payload["blocks"][0][0][0] + 1) % 3
    with pytest.raises(ValueError):
        deserialize(json.dumps(payload))  # block no longer matches its column points
    good = json.loads(serialize(code))
    for path, value in (
        (("n",), float("inf")),
        (("n",), "5"),
        (("field", "p"), 2**61 - 1),  # prime, but far past the size cap
        (("field", "m"), 10**9),
        (("blocks",), [[[]]] * 5),  # blocks without columns
        (("blocks",), None),
        (("column_points",), [[1, 2]] * 5),
    ):
        payload = json.loads(json.dumps(good))
        holder = payload
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        with pytest.raises(ValueError):
            deserialize(json.dumps(payload))
    with pytest.raises(ValueError):
        deserialize("[" * 100_000)


def test_random_mds_code_is_mds_and_deterministic():
    field = field_of_order(3)
    a = random_mds_code(field, 2, 2, 5, random.Random(7))
    b = random_mds_code(field, 2, 2, 5, random.Random(7))
    c = random_mds_code(field, 2, 2, 5, random.Random(8))
    assert a.blocks == b.blocks
    assert a.blocks != c.blocks
    assert is_mds(a).ok
    for x, y in itertools.combinations(a.node_subspaces, 2):
        assert x != y


def test_random_mds_code_across_parameters():
    rng = random.Random(9)
    for q, ell, r in ((2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 3, 2)):
        field = field_of_order(q)
        n = min(length_bound(q, ell, r), r + 3)
        code = random_mds_code(field, r, ell, n, rng)
        assert (code.n, code.r, code.ell) == (n, r, ell)
        assert is_mds(code).ok


class _CountingRng:
    """A random.Random that counts the calls of each of its methods."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args)

        return counted


def test_random_mds_code_fails_loudly_on_a_rejected_family(monkeypatch):
    # the live set makes every finished family r-wise independent, so an
    # is_mds rejection is a sampler fault, never a retry; past the cap
    # is_mds gives no verdict, and the first finished family is returned
    field = field_of_order(3)
    verdicts = []

    def verdict(check):
        def patched(code):
            verdicts.append(check)
            return check

        return patched

    monkeypatch.setattr(repair, "is_mds", verdict(MdsCheck("not_mds", 1, (0, 1))))
    with pytest.raises(AssertionError, match=r"^the sampler drew dependent blocks \(0, 1\)$"):
        random_mds_code(field, 2, 2, 5, random.Random(7))
    assert len(verdicts) == 1
    verdicts.clear()
    monkeypatch.setattr(repair, "is_mds", verdict(MdsCheck("cap_exceeded", 0)))
    assert random_mds_code(field, 2, 2, 5, random.Random(7)).n == 5
    assert len(verdicts) == 1


def test_random_mds_code_exhaustion(monkeypatch):
    field = field_of_order(2)
    monkeypatch.setattr(repair, "_RETRY_CAP", 3)
    rng = _CountingRng(0)
    with pytest.raises(SamplingExhaustedError, match="after 3 attempts$"):
        # n beyond the length bound can never be reached
        random_mds_code(field, 2, 2, 6, rng)
    # one draw per member, at most n per attempt, and no shuffle of the pool
    assert set(rng.calls) == {"randrange"}
    assert 0 < rng.calls["randrange"] <= 6 * 3


class _Branch(Exception):
    """A scripted rng ran out of script at a randrange(k) call."""

    def __init__(self, k):
        super().__init__(k)
        self.k = k


class _ScriptedRng:
    """Answers randrange with a fixed script and weighs it: 1/k per randrange(k)."""

    def __init__(self, script):
        self.script = list(script)
        self.weight = Fraction(1)

    def randrange(self, k):
        if not self.script:
            raise _Branch(k)
        self.weight /= k
        return self.script.pop(0)


def _draw_distribution(field, r, ell, n):
    """Exact distribution of random_mds_code's ordered families over one attempt."""
    dist = {}
    scripts = [[]]
    while scripts:
        script = scripts.pop()
        rng = _ScriptedRng(script)
        try:
            family = random_mds_code(field, r, ell, n, rng).node_subspaces
        except _Branch as branch:
            scripts += [script + [j] for j in range(branch.k)]
            continue
        except SamplingExhaustedError:
            family = None
        dist[family] = dist.get(family, 0) + rng.weight
    return dist


def _shuffled_walk(field, r, ell, n, order):
    """One attempt of the sampler before random_mds_code drew its members.

    Walks the pool in the given order and keeps each candidate whose point
    mask misses every span of r-1 members so far; returns the finished
    family, is_mds not yet applied, or None.
    """
    pool = all_subspaces(field, r * ell, ell)
    family = []
    forbidden = 0
    for idx in order:
        cand = pool[idx]
        if cand.point_mask & forbidden:
            continue
        if len(family) >= r - 2 and len(family) + 1 < n:
            spans = [functools.reduce(subspace_sum, group, cand)
                     for group in itertools.combinations(family, r - 2)]
            if any(s.dim < (r - 1) * ell for s in spans):
                return None
            for s in spans:
                forbidden |= s.point_mask
        family.append(cand)
        if len(family) == n:
            return tuple(family)
    return None


@pytest.mark.parametrize("q, ell, r, n, families", [
    (2, 1, 3, 3, 168), (2, 1, 3, 4, 168), (3, 1, 2, 4, 24),
])
def test_random_mds_code_samples_as_the_shuffled_walk(monkeypatch, q, ell, r, n, families):
    # every draw sequence against every order of the 7- or 4-point pool, exactly
    monkeypatch.setattr(repair, "_RETRY_CAP", 1)
    field = field_of_order(q)
    size = len(all_subspaces(field, r * ell, ell))
    verdicts = {None: False}
    walk = {}
    for order in itertools.permutations(range(size)):
        family = _shuffled_walk(field, r, ell, n, order)
        if family not in verdicts:
            verdicts[family] = is_mds(code_from_intrinsic(family)).ok
        family = family if verdicts[family] else None
        walk[family] = walk.get(family, 0) + Fraction(1, math.factorial(size))
    drawn = _draw_distribution(field, r, ell, n)
    assert drawn == walk
    assert len(drawn) == families and None not in drawn
    assert sum(drawn.values()) == 1


def _rank_walk_mds_code(field, r, ell, n, rng, retry_cap):
    """The rank-based sampler that random_mds_code's point-mask draw replaced.

    Each member is drawn from a live list in pool order; after it joins,
    the live list keeps the candidates whose stacked bases with it and
    every r-2 other members have full rank.  Returns the code, or None at
    the retry cap, with the number of finished families and of attempts
    whose first r-1 members were dependent.
    """
    pool = all_subspaces(field, r * ell, ell)
    d = r * ell
    finished = dependent = 0

    def fits(cand, newest, others):
        return all(
            rank(MatrixGF(field, d, d, b"".join(s.entries for s in (cand, newest, *group)))) == d
            for group in itertools.combinations(others, r - 2)
        )

    for _ in range(retry_cap):
        live = list(range(len(pool)))
        family = []
        while live:
            family.append(pool[live.pop(rng.randrange(len(live)))])
            if len(family) == r - 1:
                rows = [row for s in family for row in s.basis_rows()]
                dependent += Subspace.from_rows(field, d, rows).dim < (r - 1) * ell
            if len(family) == n:
                break
            if len(family) >= r - 1:
                live = [i for i in live if fits(pool[i], family[-1], family[:-1])]
        if len(family) < n:
            continue
        finished += 1
        code = code_from_intrinsic(tuple(family))
        if is_mds(code).ok:
            return code, finished, dependent
    return None, finished, dependent


# (q, ell, r, lengths, retry_cap); some lengths sit at or past the length bound
# q^ell + r - 1, where the small caps run out
_SAMPLER_GRID = (
    (2, 2, 2, (2, 3, 5, 6), 3),
    (3, 2, 2, (3, 6, 10), 2),
    (2, 3, 2, (4,), 2),
    (2, 2, 3, (3, 6, 7), 3),
    (3, 1, 3, (4, 5), 3),
    (2, 1, 4, (4, 5), 3),
    (3, 1, 4, (5, 6), 3),
)


def test_random_mds_code_matches_rank_walk(monkeypatch):
    verdicts = []

    def recording_is_mds(code):
        check = is_mds(code)
        verdicts.append(check.ok)
        return check

    monkeypatch.setattr(repair, "is_mds", recording_is_mds)
    dependent_by_r = {2: 0, 3: 0, 4: 0}
    exhausted = sampled = 0
    for q, ell, r, lengths, cap in _SAMPLER_GRID:
        field = field_of_order(q)
        monkeypatch.setattr(repair, "_RETRY_CAP", cap)
        for n in lengths:
            for seed in range(5):
                tag = (q, ell, r, n, seed)
                ref_rng, rng = random.Random(seed), random.Random(seed)
                ref, finished, dependent = _rank_walk_mds_code(field, r, ell, n, ref_rng, cap)
                dependent_by_r[r] += dependent
                verdicts.clear()
                try:
                    got = random_mds_code(field, r, ell, n, rng)
                except SamplingExhaustedError:
                    got = None
                if ref is None:
                    exhausted += 1
                    assert got is None, tag
                else:
                    sampled += 1
                    assert got is not None and serialize(got) == serialize(ref), tag
                # one randrange per draw, and only independent families finish
                assert rng.getstate() == ref_rng.getstate(), tag
                assert verdicts == [True] * finished, tag
    # r = 2 cannot start dependent; both other kinds of walk must end some
    # attempt on a dead family
    assert dependent_by_r[3] > 0 and dependent_by_r[4] > 0
    assert exhausted > 0 and sampled > 0


def _pool_walk_mds_code(field, r, ell, n, rng, retry_cap):
    """random_mds_code as it drew from a list of positions into all_subspaces.

    Each member is popped from a live list in pool order; once spans start,
    the list keeps the positions whose point mask misses the new spans.
    Returns the code, or None at the retry cap.
    """
    pool = all_subspaces(field, r * ell, ell)
    for _ in range(retry_cap):
        live = list(range(len(pool)))
        family = []
        while live:
            cand = pool[live.pop(rng.randrange(len(live)))]
            if len(family) >= r - 2 and len(family) + 1 < n:
                spans = [functools.reduce(subspace_sum, group, cand)
                         for group in itertools.combinations(family, r - 2)]
                if any(s.dim < (r - 1) * ell for s in spans):
                    break
                new = functools.reduce(operator.or_, (s.point_mask for s in spans))
                live = [i for i in live if not pool[i].point_mask & new]
            family.append(cand)
            if len(family) == n:
                break
        if len(family) == n:
            code = code_from_intrinsic(tuple(family))
            if is_mds(code).ok:
                return code
    return None


@pytest.mark.parametrize("q, ell, r, cap", [
    (2, 2, 2, None), (3, 2, 2, None), (2, 2, 3, None), (2, 3, 2, None), (3, 1, 4, 3),
])
def test_random_mds_code_draws_as_the_pool_walk(monkeypatch, q, ell, r, cap):
    # the bitset over the incidence picks the member the list of pool
    # positions popped, at every length of the sweep mix; (3, 1, 4) has no
    # code at n = 6, where both sides exhaust a small cap alike
    if cap is not None:
        monkeypatch.setattr(repair, "_RETRY_CAP", cap)
    field = field_of_order(q)
    outcomes = set()
    for n in range(r, length_bound(q, ell, r) + 1):
        for seed in range(5):
            tag = (q, ell, r, n, seed)
            ref_rng, rng = random.Random(seed), random.Random(seed)
            ref = _pool_walk_mds_code(field, r, ell, n, ref_rng, repair._RETRY_CAP)
            try:
                got = random_mds_code(field, r, ell, n, rng)
            except SamplingExhaustedError:
                got = None
            assert (got is None) == (ref is None), tag
            if ref is not None:
                assert serialize(got) == serialize(ref), tag
            assert rng.getstate() == ref_rng.getstate(), tag
            outcomes.add(ref is None)
    assert outcomes == ({False, True} if cap is not None else {False})


@pytest.mark.parametrize("width", [1, 63, 64, 65, 1_395, 200_787])
def test_nth_bit_indexes_the_set_bits(width):
    rng = random.Random(width)
    for mask in (rng.getrandbits(width) | 1 << (width - 1) | 1, (1 << width) - 1):
        positions = [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]
        ks = {0, len(positions) - 1, *(rng.randrange(len(positions)) for _ in range(5))}
        for k in ks:
            assert repair._nth_bit(mask, k) == positions[k], (width, k)


def test_sampler_builds_no_subspace_pool(monkeypatch):
    # the sampler reads the point incidence, built from the pivot sets: it
    # never enumerates its candidates, and the 1,395 planes of GF(2)^6 do
    # not outlive a draw
    def refuse(*args, **kwargs):
        raise AssertionError("the sampler enumerated its candidates")

    for module in (linalg, repair):
        monkeypatch.setattr(module, "all_subspaces", refuse, raising=False)
        monkeypatch.setattr(module, "enumerate_subspaces", refuse, raising=False)
    linalg.subspace_incidence.cache_clear()
    before = _live_subspaces()
    for q, ell, r, n in ((2, 3, 2, 6), (2, 2, 3, 5), (3, 1, 3, 4)):
        code = random_mds_code(field_of_order(q), r, ell, n, random.Random(n))
        assert is_mds(code).ok
    assert _live_subspaces() - before < 100
    assert repair.verify_bound_sweep(2, 2, 3, trials=2, seed=1).ok
