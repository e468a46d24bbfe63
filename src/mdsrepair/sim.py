"""End to end node repair on sampled codewords.

A trial samples a codeword, erases one block, and rebuilds it from the
helper transmissions y_j = (M H_j) C_j using the parity identity
sum_j H_j C_j = 0, which gives C_i = -(M H_i)^{-1} sum_{j != i} y_j.
Helpers are only allowed to read the coordinates under nonzero columns
of M H_j; the rest are masked out before the product, so the access
accounting is enforced rather than merely reported.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .code import ArrayCode, CodewordArr, codeword_space
from .linalg import MatrixGF, combine_rows, inverse, kernel, rank
from .repair import RepairWitness


@dataclass(frozen=True)
class RepairTrace:
    """One repair trial: per helper accounting plus the rebuilt block."""

    node: int
    downloaded: tuple[tuple[int, int], ...]  # (j, rank(M H_j))
    accessed: tuple[tuple[int, int], ...]  # (j, nonzero columns of M H_j)
    transmitted: tuple[tuple[int, tuple[int, ...]], ...]  # (j, (M H_j) C_j)
    recovered: tuple[int, ...]
    match: bool

    @property
    def total_downloaded(self) -> int:
        return sum(c for _, c in self.downloaded)

    @property
    def total_accessed(self) -> int:
        return sum(c for _, c in self.accessed)


@lru_cache(maxsize=1)
def _codeword_basis(code: ArrayCode) -> tuple[bytes, ...]:
    """The rows of a basis B of ker(H) as bytes, kept for the code sampled last.

    H b = 0 is checked here for each row b, once per code: every sample is
    a combination of B's rows, so it satisfies the parity equation whenever
    B does.
    """
    space = codeword_space(code)
    width = space.ambient_dim
    rows = tuple(space.entries[i * width : (i + 1) * width] for i in range(space.dim))
    h = code.parity_matrix()
    if any(any(h.mul_vec(b)) for b in rows):
        raise AssertionError("sampled word violates the parity equation")
    return rows


def sample_codeword(code: ArrayCode, seed: int) -> CodewordArr:
    """A codeword drawn uniformly from ker(H), deterministic per seed.

    One coefficient is drawn per basis vector, in order, and the codeword
    is their combination, taken over the basis rows by combine_rows.
    """
    rows = _codeword_basis(code)
    rng = random.Random(seed)
    q = code.field.q
    ell = code.ell
    flat = combine_rows(code.field, [rng.randrange(q) for _ in rows], rows, code.n * ell)
    return CodewordArr(tuple(tuple(flat[i * ell : (i + 1) * ell]) for i in range(code.n)))


@lru_cache(maxsize=1)
def _repair_plan(
    code: ArrayCode, witness: RepairWitness
) -> tuple[tuple[tuple[int, MatrixGF, tuple[int, ...], int], ...], MatrixGF]:
    """Per helper (j, M H_j, its live columns, rank(M H_j)), and (M H_i)^-1.

    Nothing here depends on the codeword, so the checks run once per
    witness, the one used last being kept: the matrix's kernel is the
    witness's space, M H_i is invertible, and each helper's measured
    download and reads equal the witness's profile.
    """
    node = witness.node
    ell = code.ell
    m = witness.matrix
    if kernel(m) != witness.space:
        raise ValueError("the repair matrix's kernel is not the witness's space")
    mhi = m.mul(code.blocks[node])
    if rank(mhi) != ell:
        raise ValueError("M H_i is singular, the witness cannot repair this node")
    expected = {
        j: (ell - d, ell - z)
        for (j, d), (_, z) in zip(witness.helper_dims, witness.helper_points)
    }
    helpers = []
    for j in range(code.n):
        if j == node:
            continue
        prod = m.mul(code.blocks[j])
        live = tuple(t for t in range(ell) if any(prod.col(t)))
        down = rank(prod)
        if expected.get(j) != (down, len(live)):
            raise AssertionError(f"helper {j}: simulated cost differs from the witness profile")
        helpers.append((j, prod, live, down))
    return tuple(helpers), inverse(mhi)


def erase_and_repair(
    code: ArrayCode, cw: CodewordArr, node: int, witness: RepairWitness
) -> RepairTrace:
    """Rebuild block `node` of cw through the witness's repair matrix.

    The matrix must have the witness's space W as its kernel.  Each
    helper's measured download rank(M H_j) and reads (nonzero columns of
    M H_j) are asserted to equal ell - dim(W meet H_j) and ell minus the
    captured column points, as recorded in the witness's profile.  Those
    checks and the products depend on the witness alone and run once per
    witness in _repair_plan; a trial masks, multiplies, and sums the
    negated transmissions by combine_rows.
    """
    if witness.node != node:
        raise ValueError("witness was built for a different node")
    field = code.field
    ell = code.ell
    helpers, mhi_inv = _repair_plan(code, witness)
    transmitted = tuple(
        (j, prod.mul_vec([cw.blocks[j][t] if t in live else 0 for t in range(ell)]))
        for j, prod, live, _ in helpers
    )
    ys = [bytes(y) for _, y in transmitted]
    recovered = mhi_inv.mul_vec(combine_rows(field, [field.neg(1)] * len(ys), ys, ell))
    return RepairTrace(
        node=node,
        downloaded=tuple((j, down) for j, _, _, down in helpers),
        accessed=tuple((j, len(live)) for j, _, live, _ in helpers),
        transmitted=transmitted,
        recovered=recovered,
        match=recovered == tuple(cw.blocks[node]),
    )
