"""Exact-arithmetic toolkit for automorphisms of Z^n.

Involutions of GL(n, Z) and their canonical bases, transvections and
their conjugacy invariant, principal congruence subgroups with shear
factorization and mod-2 lifting, plus seeded verification suites and a
JSON command line interface.  The package exports exactly the
``__all__`` of each module below.
"""

from .congruence import *
from .exactmat import *
from .involution import *
from .transvection import *
from .verify import *

__version__ = "0.1.0"
