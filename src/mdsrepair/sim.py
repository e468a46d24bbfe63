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
from .linalg import MatrixGF, inverse, kernel, rank
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
def _codeword_basis(code: ArrayCode) -> MatrixGF:
    """A basis of ker(H) as the columns of one matrix, kept for the code sampled last.

    H B = 0 is checked here, once per code: every sample is a combination
    of B's columns, so it satisfies the parity equation whenever B does.
    """
    basis = codeword_space(code).basis_matrix.transpose()
    if any(code.parity_matrix().mul(basis).entries):
        raise AssertionError("sampled word violates the parity equation")
    return basis


def sample_codeword(code: ArrayCode, seed: int) -> CodewordArr:
    """A codeword drawn uniformly from ker(H), deterministic per seed.

    One coefficient is drawn per basis vector, in order, and the codeword
    is their combination, one product with the basis matrix.
    """
    basis = _codeword_basis(code)
    rng = random.Random(seed)
    flat = basis.mul_vec([rng.randrange(code.field.q) for _ in range(basis.cols)])
    return CodewordArr(tuple(flat[i * code.ell : (i + 1) * code.ell] for i in range(code.n)))


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
    witness in _repair_plan; a trial masks, multiplies and sums.
    """
    if witness.node != node:
        raise ValueError("witness was built for a different node")
    field = code.field
    ell = code.ell
    helpers, mhi_inv = _repair_plan(code, witness)
    downloaded = []
    accessed = []
    transmitted = []
    acc = [0] * ell
    for j, prod, live, down in helpers:
        masked = tuple(cw.blocks[j][t] if t in live else 0 for t in range(ell))
        y = prod.mul_vec(masked)
        acc = [field.add(a, v) for a, v in zip(acc, y)]
        downloaded.append((j, down))
        accessed.append((j, len(live)))
        transmitted.append((j, y))
    rhs = tuple(field.neg(a) for a in acc)
    recovered = mhi_inv.mul_vec(rhs)
    return RepairTrace(
        node=node,
        downloaded=tuple(downloaded),
        accessed=tuple(accessed),
        transmitted=tuple(transmitted),
        recovered=recovered,
        match=recovered == tuple(cw.blocks[node]),
    )
