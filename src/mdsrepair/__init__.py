"""Exact repair of MDS array codes over small finite fields.

The package constructs (n, n-r, ell) array codes from subspace families,
finds their optimal linear repair bandwidth and I/O by exhaustive search,
checks both against the projective counting bound, and simulates the
repair of an erased node symbol by symbol.  Everything runs in pure
Python over lookup table fields GF(q), q <= 256.
"""
from .code import (
    ArrayCode,
    CodewordArr,
    MdsCheck,
    code_from_intrinsic,
    codeword_space,
    deserialize,
    is_mds,
    length_bound,
    serialize,
)
from .constructions import (
    BlockBoundCert,
    ConverseReport,
    build_exceptional,
    build_two_parity_code,
    check_block_intersection_bound,
    hit_set,
    mobius_image,
    norm_kernel,
    regular_spread_converse_check,
    w_g_subspace,
    wb_subspace,
)
from .geometry import (
    INF,
    Regulus,
    Spread,
    desarguesian_spread,
    is_regular_spread,
    is_spread,
    regulus_through,
)
from .gf import ExtensionCtx, FieldCtx, field_of_order, make_extension, make_field
from .linalg import (
    BudgetExceededError,
    MatrixGF,
    Subspace,
    all_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    intersect_dim,
    kernel,
    proj_point,
    projective_point_count,
    projective_points,
    rank,
    rref,
    subspace_intersection,
    subspace_sum,
)
from .repair import (
    NodeRepair,
    RepairReport,
    RepairWitness,
    SweepResult,
    counting_bound,
    make_witness,
    make_witnesses,
    optimal_alpha,
    random_mds_code,
    repair_report,
    verify_bound_sweep,
)
from .sim import RepairTrace, erase_and_repair, sample_codeword

__version__ = "0.1.0"
# The row reduction kernel is always the pure Python one; result files
# stamp this name.
BACKEND = "pure"
