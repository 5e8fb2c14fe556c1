"""stablelimit: an exact verification engine for the characteristic-7
degeneration geometry of an explicit quintic surface.

The package re-derives and machine-checks, with exact arithmetic only,
a catalog of finite computations: the defining cubic's root mod 7^3,
the 7-adic expansion of the quintic, branch-curve geometry over
GF(49), first-order equisingular deformation systems, Picard-lattice
identities, linear-series dimension counts, and ramification profiles
of the induced genus-2 fibrations.
"""

from .rings import (
    ZZ,
    DualNumbers,
    Element,
    NonUnitError,
    PrimeField,
    QuadraticField,
    RingMismatchError,
    ZMod,
)
from .poly import MPoly, ParseError, VarRegistry, parse_poly
from .linalg import LinearSystem, SolutionSet, eliminate, rank, rowspace_equal, solve_affine

__all__ = [
    "ZZ",
    "ZMod",
    "PrimeField",
    "QuadraticField",
    "DualNumbers",
    "Element",
    "NonUnitError",
    "RingMismatchError",
    "VarRegistry",
    "MPoly",
    "parse_poly",
    "ParseError",
    "LinearSystem",
    "SolutionSet",
    "rank",
    "solve_affine",
    "eliminate",
    "rowspace_equal",
]

__version__ = "0.1.0"
