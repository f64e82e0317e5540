"""The public input checks, one row each: the call, the exception type and
a fragment of its message."""

import pytest

from glnz.congruence import Factorization, lift_mod2
from glnz.exactmat import (
    IntMatrix,
    Lattice,
    basis_completion,
    element_order,
    random_elementary_word,
    random_unimodular,
    restriction_matrix,
    row_hermite,
    summand_index,
)
from glnz.involution import canonical_block, standard_commuting_family
from glnz.transvection import make_transvection, shared_summand_predicate
from glnz.verify import run_suite

I2, I3 = IntMatrix.identity(2), IntMatrix.identity(3)
F = standard_commuting_family(3)

CHECKS = {
    "shear with i == j": (
        lambda: Factorization(3, ((1, 1, 2),)).product(), ValueError, "indices must differ"),
    "ragged row_hermite": (lambda: row_hermite([[1, 2], [3]]), ValueError, "ragged matrix"),
    "non-square IntMatrix": (lambda: IntMatrix(((1, 2),)), ValueError, "square and non-empty"),
    "non-square columns": (
        lambda: IntMatrix.from_columns([(1, 2), (3,)]), ValueError, "square and non-empty"),
    "empty diagonal": (lambda: IntMatrix.diagonal([]), ValueError, "square and non-empty"),
    "empty canonical block": (
        lambda: canonical_block(0, 0, 0), ValueError, "square and non-empty"),
    "product size mismatch": (lambda: I2 * I3, ValueError, "dimension mismatch"),
    "Lattice(0)": (lambda: Lattice(0), ValueError, "ambient rank must be positive"),
    "contains wrong length": (
        lambda: Lattice(2).contains((1, 2, 3)), ValueError, "dimension mismatch"),
    "summand_index across ranks": (
        lambda: summand_index(Lattice(2), Lattice(3)), ValueError, "dimension mismatch"),
    "element_order bound 0": (lambda: element_order(I2, 0), ValueError, "bound must be positive"),
    "random_unimodular n = 0": (
        lambda: random_unimodular(0, 1, 1, 0), ValueError, "parameters out of range"),
    "random_unimodular bound 0": (
        lambda: random_unimodular(2, 1, 0, 0), ValueError, "parameters out of range"),
    "random_elementary_word n = 1": (
        lambda: random_elementary_word(1, 1, 1, 0), ValueError, "parameters out of range"),
    "random_elementary_word length -1": (
        lambda: random_elementary_word(2, -1, 1, 0), ValueError, "parameters out of range"),
    "restriction to zero lattice": (
        lambda: restriction_matrix(I2, Lattice(2)), ValueError, "zero lattice"),
    "completion of no columns": (lambda: basis_completion([]), ValueError, "nothing to complete"),
    "completion of unsaturated columns": (
        lambda: basis_completion([(2, 0)]), ValueError, "do not span a saturated lattice"),
    "transvection length mismatch": (
        lambda: make_transvection((1, 0), (0, 1, 0)), ValueError, "dimension mismatch"),
    "pair sharing nothing": (
        lambda: shared_summand_predicate((F[0], F[1]), (F[0], F[2])),
        ValueError, "each pair must share an eigen-summand"),
    "zero trials": (lambda: run_suite("L1_7", 4, 0, 0), ValueError, "trials must be positive"),
    "non-square lift_mod2": (lambda: lift_mod2([[1, 0]]), ValueError, "square and non-empty"),
}


@pytest.mark.parametrize("call, error, fragment", CHECKS.values(), ids=CHECKS.keys())
def test_input_check(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
