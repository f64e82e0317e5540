"""Exact-arithmetic toolkit for automorphisms of Z^n.

Involutions of GL(n, Z) and their canonical bases, transvections and
their conjugacy invariant, principal congruence subgroups with shear
factorization and mod-2 lifting, plus seeded verification suites and a
JSON command line interface.
"""

from .congruence import (
    CommutatorReport,
    ElementaryFactor,
    FactorClass,
    Factorization,
    braid_involution_solutions,
    commutator_identities,
    elementary_factorization,
    factor_mod2_classes,
    in_gamma,
    lift_mod2,
    lift_row_to_sl3,
    unipotent_sqrt_sl2,
)
from .exactmat import (
    IntMatrix,
    Lattice,
    Vector,
    basis_completion,
    content_and_primitive,
    element_order,
    kernel_lattice,
    random_elementary_word,
    random_unimodular,
    rank_mod2,
    rational_rank,
    restriction_matrix,
    row_hermite,
    summand_index,
)
from .involution import (
    BlockLayout,
    CanonicalBasis,
    InvolutionKind,
    InvolutionProfile,
    canonical_block,
    canonical_form,
    classify,
    eigen_lattices,
    four_involution_witness,
    involution_from_splitting,
    involutions_conjugate,
    is_involution,
    order3_witness,
    profile,
    residue,
    standard_commuting_family,
)
from .transvection import (
    MutualSubgroup,
    TransvectionData,
    make_transvection,
    mutual_subgroup,
    recognize_transvection,
    shared_summand_predicate,
    transvections_conjugate,
)
from .verify import SUITE_IDS, SuiteReport, run_suite

__version__ = "0.1.0"
