import dataclasses
import random

import pytest

from mdsrepair import sim
from mdsrepair.code import CodewordArr, code_from_intrinsic, codeword_space
from mdsrepair.constructions import build_exceptional, build_two_parity_code
from mdsrepair.geometry import desarguesian_spread
from mdsrepair.gf import field_of_order
from mdsrepair.linalg import Subspace
from mdsrepair.repair import optimal_alpha, random_mds_code
from mdsrepair.sim import erase_and_repair, sample_codeword


def test_sample_codeword_is_deterministic_and_valid():
    code, _ = build_two_parity_code(3, 2, 8)
    a = sample_codeword(code, 5)
    b = sample_codeword(code, 5)
    c = sample_codeword(code, 6)
    assert a == b
    assert a != c
    h = code.parity_matrix()
    assert not any(h.mul_vec(a.flat()))
    assert len(a.blocks) == code.n
    assert all(len(blk) == code.ell for blk in a.blocks)


def _reference_sample(code, seed):
    """The blocks of a codeword combined entry by entry, one draw per basis row in order."""
    field = code.field
    rng = random.Random(seed)
    flat = [0] * (code.n * code.ell)
    for row in codeword_space(code).basis_rows():
        c = rng.randrange(field.q)
        if c == 0:
            continue
        for t, v in enumerate(row):
            flat[t] = field.add(flat[t], field.mul(c, v))
    return tuple(tuple(flat[i * code.ell : (i + 1) * code.ell]) for i in range(code.n))


def test_sample_codeword_matches_the_reference_combination():
    # combine_rows over the bytes basis rows gives the entry-by-entry combination
    # of the same draws, over GF(2), GF(3) and GF(4) and at r = 2 and 3
    codes = [build_two_parity_code(3, 2, 8)[0], build_exceptional("q4n9")[0],
             build_two_parity_code(4, 2, 17)[0],
             random_mds_code(field_of_order(2), 3, 2, 5, random.Random(51))]
    for code in codes:
        for seed in range(20):
            assert sample_codeword(code, seed).blocks == _reference_sample(code, seed)


def test_a_corrupted_codeword_basis_is_refused(monkeypatch):
    # H B = 0 is checked once, when the basis of a code is built: a basis
    # with one entry off must make sampling raise, since no per-sample
    # check is left to catch it
    code, _ = build_two_parity_code(3, 2, 8)
    rows = [list(row) for row in codeword_space(code).basis_rows()]
    rows[0][0] = code.field.add(rows[0][0], 1)
    bad = Subspace.from_rows(code.field, code.n * code.ell, rows)
    monkeypatch.setattr(sim, "codeword_space", lambda c: bad)
    sim._codeword_basis.cache_clear()
    try:
        with pytest.raises(AssertionError, match="^sampled word violates the parity equation$"):
            sample_codeword(code, 0)
    finally:
        sim._codeword_basis.cache_clear()


def test_sampled_words_spread_over_the_code():
    code, _ = build_two_parity_code(3, 2, 8)
    words = {sample_codeword(code, seed).flat() for seed in range(25)}
    assert len(words) >= 20


def test_repair_recovers_every_node_of_the_planted_schemes():
    code, wits = build_two_parity_code(3, 2, 8)
    for seed in range(5):
        cw = sample_codeword(code, seed)
        for node, wit in enumerate(wits):
            trace = erase_and_repair(code, cw, node, wit)
            assert trace.match
            assert trace.recovered == cw.blocks[node]
            assert trace.total_downloaded == wit.bw == 10
            assert trace.total_accessed == wit.io == 10


def _basis_replay_misses(code, witness):
    """Rows of the codeword basis whose erased block the witness does not rebuild exactly.

    Repair is linear, so no miss here means every codeword is recovered.
    """
    ell = code.ell
    misses = 0
    for row in sim._codeword_basis(code):
        cw = CodewordArr(tuple(tuple(row[i * ell : (i + 1) * ell]) for i in range(code.n)))
        misses += not erase_and_repair(code, cw, witness.node, witness).match
    return misses


def test_a_wrong_sign_in_the_helper_sum_fails_the_basis_replay(monkeypatch):
    # over GF(3), -1 != 1: summing the helpers' transmissions with +1 rebuilds
    # the negated block, which the replay must catch at every node
    code, wits = build_two_parity_code(3, 2, 8)
    assert [_basis_replay_misses(code, wit) for wit in wits] == [0] * code.n
    combine = sim.combine_rows
    monkeypatch.setattr(
        sim,
        "combine_rows",
        lambda field, coeffs, rows, width: combine(field, [1] * len(coeffs), rows, width),
    )
    assert all(_basis_replay_misses(code, wit) > 0 for wit in wits)


def test_repair_counters_match_witness_profile():
    code, wits = build_exceptional("q4n9")
    cw = sample_codeword(code, 3)
    for node, wit in enumerate(wits):
        trace = erase_and_repair(code, cw, node, wit)
        assert trace.match
        assert dict(trace.downloaded) == {
            j: code.ell - d for j, d in wit.helper_dims
        }
        assert dict(trace.accessed) == {
            j: code.ell - z for j, z in wit.helper_points
        }


def test_masked_access_is_sufficient():
    # transmissions are computed from masked blocks, so a successful match
    # certifies that the unread coordinates never mattered
    code, wits = build_two_parity_code(3, 2, 9)
    cw = sample_codeword(code, 11)
    for node in (0, 4, 8):
        trace = erase_and_repair(code, cw, node, wits[node])
        assert trace.match
        for j, y in trace.transmitted:
            assert len(y) == code.ell


def test_repair_with_optimal_witness_on_random_codes():
    rng = random.Random(50)
    field = field_of_order(2)
    for _ in range(4):
        code = random_mds_code(field, 2, 2, 5, rng)
        for node in range(code.n):
            _, wit = optimal_alpha(code, node)
            cw = sample_codeword(code, rng.randrange(1 << 30))
            trace = erase_and_repair(code, cw, node, wit)
            assert trace.match
            assert trace.total_downloaded == wit.bw


def test_repair_rejects_mismatched_witness():
    code, wits = build_two_parity_code(3, 2, 8)
    cw = sample_codeword(code, 0)
    with pytest.raises(ValueError):
        erase_and_repair(code, cw, 1, wits[0])


def test_repair_rejects_tampered_profile():
    code, wits = build_exceptional("q4n9")
    cw = sample_codeword(code, 3)
    wit = wits[2]
    (j, d), *rest = wit.helper_dims
    with pytest.raises(AssertionError, match=f"helper {j}"):
        erase_and_repair(code, cw, 2, dataclasses.replace(wit, helper_dims=((j, d + 1), *rest)))
    *rest, (j, z) = wit.helper_points
    with pytest.raises(AssertionError, match=f"helper {j}"):
        erase_and_repair(code, cw, 2, dataclasses.replace(wit, helper_points=(*rest, (j, z - 1))))


def test_repair_rejects_witness_with_foreign_space():
    # the matrix still repairs node 0 at the witness's costs; only its
    # kernel differs from the recorded space
    code, wits = build_two_parity_code(3, 2, 8)
    cw = sample_codeword(code, 4)
    other = next(w.space for w in wits[1:] if w.space != wits[0].space)
    with pytest.raises(ValueError, match="kernel"):
        erase_and_repair(code, cw, 0, dataclasses.replace(wits[0], space=other))


def test_full_download_repair_baseline():
    # the witness from any feasible W repairs; a plain spread code without
    # planted structure still recovers through its optimal witness
    code = code_from_intrinsic(desarguesian_spread(2, 2).members)
    cw = sample_codeword(code, 9)
    for node in range(code.n):
        _, wit = optimal_alpha(code, node)
        trace = erase_and_repair(code, cw, node, wit)
        assert trace.match
        assert trace.total_downloaded <= code.ell * (code.n - 1)


def test_witness_checks_run_once_per_witness(monkeypatch):
    # the kernel, M H_i and per-helper checks depend on the witness alone:
    # five trials through one witness reduce its matrix's kernel once, and a
    # tampered witness still fails on every trial
    code, wits = build_two_parity_code(3, 2, 8)
    calls = []
    real = sim.kernel

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(sim, "kernel", counting)
    sim._repair_plan.cache_clear()
    traces = [erase_and_repair(code, sample_codeword(code, seed), 2, wits[2]) for seed in range(5)]
    assert all(t.match for t in traces)
    assert len(calls) == 1
    (j, d), *rest = wits[2].helper_dims
    tampered = dataclasses.replace(wits[2], helper_dims=((j, d + 1), *rest))
    for seed in range(2):
        with pytest.raises(AssertionError, match=f"helper {j}"):
            erase_and_repair(code, sample_codeword(code, seed), 2, tampered)
    assert len(calls) == 3
