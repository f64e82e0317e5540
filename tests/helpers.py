"""Helpers that more than one test module uses; no test module imports
another."""

import json
import os
import random
from pathlib import Path

from glnz.exactmat import IntMatrix, random_elementary_word

ROOT = Path(__file__).resolve().parents[1]

# (suite, n, trials) of one quick run of each suite; scripts/output_dump.py
# reads this list without importing the module
SMOKE = [
    ("L1_3", 4, 10),
    ("L1_4_partial", 5, 10),
    ("L1_5", 9, 5),
    ("L1_6", 5, 20),
    ("L1_7", 4, 20),
    ("P1_8", 4, 5),
    ("P1_9", 5, 10),
    ("C2_1_claim1", 3, 1),
    ("C2_1_claim3", 3, 5),
    ("MU_SURJ", 4, 20),
]


def report_key(report):
    d = report.to_jsonable()
    d.pop("elapsed_ms")
    return json.dumps(d, sort_keys=True)


def child_env() -> dict[str, str]:
    """This environment with src first on PYTHONPATH, so that a child
    process imports the glnz of this checkout without an install."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def determinant_not_one_inputs() -> list:
    """Matrices of determinant 0, -1, 2 and -2 at n = 2..6, dense from
    shear words on both sides, small ones that end the reduction at each
    of its three rejections, and a determinant -1 word with 30-digit
    entries."""
    rng = random.Random(15)
    out = [
        IntMatrix(((1, 1), (1, 1))),
        IntMatrix(((2, 0), (0, 1))),
        IntMatrix(((1, 0), (0, -1))),
        IntMatrix(((0, 1), (1, 0))),
    ]
    for n in range(2, 7):
        for d in (0, -1, 2, -2):
            left, right = (random_elementary_word(n, 8, 3, rng.randrange(1 << 30)) for _ in "lr")
            out.append(left * IntMatrix.diagonal([d] + [1] * (n - 1)) * right)
    big = random_elementary_word(4, 12, 10**30, 17) * IntMatrix.diagonal((1, 1, 1, -1))
    assert max(len(str(abs(x))) for r in big.rows for x in r) >= 30
    return out + [big]


def shear_conjugate(M, left, delta, right):
    """A stand-in for the witnesses' rank update M + left delta right that
    gives a wrong witness which is still an involution of M's class:
    V M V^-1 for the unit shear V = I + E_08."""
    V = IntMatrix.elementary(M.n, 0, 8, 1)
    return V * M * V.inverse()
