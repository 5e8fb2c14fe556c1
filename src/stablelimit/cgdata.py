"""Concrete input data for the verification scenarios.

This module holds, as plain data, every equation the engine re-checks:
the quintic family with its coefficient polynomials in the cubic root r,
the four forms of its 7-adic expansion, the two branch-curve sections and
their bidegree-(3,3) equations on the quadric, the diagonal-curve chart
data, the intersection points over GF(49), the published 28-equation
first-order rigidity system, the 21 published eliminations with the seven
leftover relations, and the composition of the eight published linear
systems together with their stated dimensions and report wording.

All polynomial text is written in the package grammar so that reading it
through ``parsed``, once per process, is the only ingestion step; no
algebra happens here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .poly import MPoly, VarRegistry, parse_poly

PRIME = 7


@lru_cache(maxsize=None)
def parsed(text: str, registry: VarRegistry, ring) -> MPoly:
    """The polynomial of a constant text, parsed once and shared; keyed by
    the text itself, so an edited text is parsed anew."""
    return parse_poly(text, registry, ring)


# ----------------------------------------------------------------------
# ambient coordinates

XYZT = VarRegistry(("x", "y", "z", "t"))

# bihomogeneous coordinates on the quadric x z + y t = 0, written
# (al : al') x (be : be') with al = x/y = -t/z and be = x/t = -y/z
AB = VarRegistry(("al", "al'", "be", "be'"))
FIRST_PAIR = ("al", "al'")
SECOND_PAIR = ("be", "be'")

# parametrization of the quadric: pulls a form in x,y,z,t back to AB
QUADRIC_PARAM = {
    "x": "al*be",
    "y": "al'*be",
    "z": "-al'*be'",
    "t": "al*be'",
}

# ----------------------------------------------------------------------
# the quintic family

# coefficient polynomials in the root r of the cubic below, as
# (constant, linear, quadratic) integer coefficients
CUBIC_COEFFS = (-1, 0, 1, 1)            # r^3 + r^2 - 1, low degree first
SIMPLE_ROOT_MOD_P = 3

COEFF_POLYS = {
    "a": (0, 0, 7),
    "b": (18, 13, -2),
    "c": (92, 75, 73),
    "e": (9, 24, -1),
    "f": (163, 241, 181),
    "m": (1, 5, 3),
}

# the ten coefficient multipliers and their monomial orbits under the
# cyclic symmetry x -> y -> z -> t -> x
QUINTIC_ORBITS = (
    ("a*a", "x^2*y^3+x^3*t^2+y^2*z^3+z^2*t^3"),
    ("m*m", "x^3*z^2+x^2*z^3+y^3*t^2+y^2*t^3"),
    ("2*a*m", "x*y*z^3+x*y^3*t+x^3*z*t+y*z*t^3"),
    ("14*m", "x^3*y*z+y^3*z*t+x*z^3*t+x*y*t^3"),
    ("7*b", "x^2*y^2*z+y^2*z^2*t+x^2*y*t^2+x*z^2*t^2"),
    ("14*a", "x*y^3*z+x^3*y*t+y*z^3*t+x*z*t^3"),
    ("c", "x^2*y*z^2+x^2*z^2*t+x*y^2*t^2+y^2*z*t^2"),
    ("7*e", "x*y^2*z^2+x^2*y^2*t+x^2*z*t^2+y*z^2*t^2"),
    ("f", "x^2*y*z*t+x*y^2*z*t+x*y*z^2*t+x*y*z*t^2"),
    ("49", "x^3*y^2+y^3*z^2+z^3*t^2+x^2*t^3"),
)

# ----------------------------------------------------------------------
# the degeneration forms over GF(7): plane, quadric, and two correction
# terms of the 7-adic expansion  f1*f2^2 + 7*f2*f3 + 49*f5

F1 = "x+y+z+t"
F2 = "x*z+y*t"
F3 = ("2*(x^2*y+y^2*z+z^2*t+x*t^2)+x^2*z+x*z^2+y^2*t+y*t^2"
      "-3*(x*y^2+y*z^2+x^2*t+z*t^2+x*y*z+x*y*t+x*z*t+y*z*t)")
F5 = ("x^3*y^2+x^3*z^2+y^3*z^2+x^2*z^3+y^3*t^2+z^3*t^2+x^2*t^3+y^2*t^3"
      "+x^3*y*z+y^3*z*t+x*z^3*t+x*y*t^3"
      "-x*y^2*z^2-x^2*y^2*t-x^2*z*t^2-y*z^2*t^2"
      "-x^2*y*z*t-x*y^2*z*t-x*y*z^2*t-x*y*z*t^2"
      "-3*x^2*y^3-3*y^2*z^3-3*x^3*t^2-3*z^2*t^3"
      "-2*x^2*y^2*z-2*x^2*y*z^2-2*x^2*z^2*t-2*y^2*z^2*t"
      "-2*x^2*y*t^2-2*x*y^2*t^2-2*y^2*z*t^2-2*x*z^2*t^2"
      "-3*x*y^3*z-3*x^3*y*t-3*y*z^3*t-3*x*z*t^3")

# the two branch-curve cuts of the quadric, as cubic sections in x,y,z,t
B1_SECTION = "x*y^2+3*x^2*z-3*y^2*z+3*x*z^2-3*x*t^2+z*t^2"
B2_SECTION = "y*z^2+3*y^2*t-3*z^2*t+3*y*t^2-3*y*x^2+t*x^2"

# their bidegree-(3,3) equations in the AB coordinates
G1 = ("-al*al'^2*be^3+3*al^2*al'*be^2*be'-3*be^2*be'*al'^3"
      "-3*al*al'^2*be*be'^2+3*al^3*be*be'^2+al^2*al'*be'^3")
G2 = ("-be*be'^2*al'^3-3*al*al'^2*be^2*be'+3*al*al'^2*be'^3"
      "-3*be*be'^2*al^2*al'+3*be^3*al^2*al'-be^2*be'*al^3")

# ----------------------------------------------------------------------
# charts at the four base points of the curve pair
#
# Chart k sets two coordinates to 1 and keeps the listed pair as local
# coordinates (first-factor side, then second-factor side).  The chart
# origins are the four singular points of the union of the two curves;
# the first curve has its double points on charts 1 and 4, the second on
# charts 2 and 3.  The displacement unknowns (c_k, d_k) of the rigidity
# system attach to chart k in this order.

CHARTS = {
    1: ("al'", "be'"),    # al = be = 1,   origin (infinity, infinity)
    2: ("al'", "be"),     # al = be' = 1,  origin (infinity, 0)
    3: ("al", "be'"),     # al' = be = 1,  origin (0, infinity)
    4: ("al", "be"),      # al' = be' = 1, origin (0, 0)
}
CURVE1_DOUBLE_CHARTS = (1, 4)
CURVE2_DOUBLE_CHARTS = (2, 3)

# diagonal curve: intersection of the plane with the quadric, in chart 4
DELTA_CHART4 = "al*(1+be)+be-1"
# solving for al along the diagonal: al = (1-be)/(1+be)
DELTA_NUMERATOR = "1-be"
DELTA_DENOMINATOR = "1+be"

# restrictions of the curve equations to the diagonal (degree six in be)
G1_ON_DELTA = "(be^2+1)*(be^2+4*be+6)^2"
G2_ON_DELTA = "(be^2+1)*(be^2+6*be+6)^2"
F3_ON_DELTA = "(be^2+1)*(be^2+4*be+6)*(be^2+6*be+6)"

# published affine coordinates (al, be) of the six diagonal points over
# GF(49), as ((re, im), (re, im)) integer pairs: i denotes a square root
# of -1.  Points 1, 2 are the transverse crossings; 3, 4 the first
# curve's tangencies; 5, 6 the second curve's.
Q_POINTS = {
    1: ((0, -1), (0, 1)),
    2: ((0, 1), (0, -1)),
    3: ((3, -5), (-2, 4)),
    4: ((3, 5), (-2, -4)),
    5: ((-5, 4), (-3, 5)),
    6: ((-5, -4), (-3, -5)),
}

# ----------------------------------------------------------------------
# unknowns of the first-order rigidity system

A_NAMES = tuple(f"a{i}{j}" for i in range(4) for j in range(4))
B_NAMES = tuple(f"b{i}{j}" for i in range(4) for j in range(4))
C_NAMES = tuple(f"c{k}" for k in range(1, 5))
D_NAMES = tuple(f"d{k}" for k in range(1, 5))
MAIN_UNKNOWNS = A_NAMES + B_NAMES + C_NAMES + D_NAMES    # 40

ESSENTIAL_UNKNOWNS = (
    "c1", "c2", "c3", "c4", "d1", "d2", "d3", "d4",
    "a20", "a21", "a31", "a02", "a12", "a03",
    "b10", "b11", "b22", "b32", "b23",
)                                                        # 19

# the published display of the 28 linear rigidity equations
# (four blocks of seven, one block per chart)
PUBLISHED_28 = (
    "a33",
    "b33-(d1-3*c1)",
    "a32-(-3*c1-6*d1)",
    "a23-(2*c1-3*d1)",
    "a22-(a31+b23+3*b32)",
    "a13-(2*a31-2*b32+4*b23)",
    "2*c1-d1+3*a12+a03+2*a21-a30",
    "a30-(-c2-3*d2)",
    "b30",
    "b31-(3*c2+2*d2)",
    "b20-(3*d2+c2)",
    "b32-(2*b10+4*a31+2*a20)",
    "b21-(6*b10+6*a31+3*a20)",
    "5*c2+3*d2+5*b00+3*b11+6*b22+5*b33",
    "a03-(c3+3*d3)",
    "b03",
    "b02-(2*d3+3*c3)",
    "b13-(3*d3+c3)",
    "b01-(5*a13+2*b23+3*a02)",
    "b12-(4*a13+6*b23+a02)",
    "c3+2*d3-3*b11+b33+2*b22+b00",
    "a00",
    "b00-(d4-3*c4)",
    "a01-(3*c4+6*d4)",
    "a10-(3*d4-2*c4)",
    "a20-(2*a02+2*b01+3*b10)",
    "a11-(a02+4*b01+6*b10)",
    "4*c4+5*d4+2*a03+3*a12+a21+5*a30",
)

# the published elimination of 21 unknowns, verbatim as it was run
PUBLISHED_SUBSTITUTIONS = {
    "a33": "0",
    "b33": "d1-3*c1",
    "a32": "-3*c1-6*d1",
    "a23": "2*c1-3*d1",
    "a22": "2*a31+4*b23-2*b32",
    "a13": "2*a31-2*b32+4*b23",
    "a30": "2*c1-d1+3*a12+2*a21+a03",
    "b30": "0",
    "b31": "3*c2+2*d2",
    "b20": "3*d2+c2",
    "b21": "6*b10+6*a31+3*a20",
    "b00": "-c2-2*d2-2*b11-4*b22-b33",
    "b03": "0",
    "b02": "2*d3+3*c3",
    "b13": "3*d3+c3",
    "b01": "5*a13+2*b23+3*a02",
    "b12": "4*a13+6*b23+a02",
    "a00": "0",
    "a01": "3*c4+6*d4",
    "a10": "3*d4-2*c4",
    "a11": "a02+4*b01+6*b10",
}

# the seven relations the elimination leaves among the 19 essentials,
# included as generators in every published system
LEFTOVER_RELATIONS = (
    "a30+c2+3*d2",
    "b32-2*b10-4*a31-2*a20",
    "a03-c3-3*d3",
    "c3+2*d3-3*b11+b33+2*b22+b00",
    "b00-d4+3*c4",
    "a20-2*a02-2*b01-3*b10",
    "4*c4+5*d4+2*a03+3*a12+a21+5*a30",
)

# ----------------------------------------------------------------------
# the eight published linear systems
#
# Each deformation system is the seven leftover relations plus point and
# tangency rows: "zero" rows are set to 0 and the single "unit" row to 1.
# Row names: Bc-Qk is the value row of curve c's deformation cloud at the
# k-th diagonal point; dBc-Qk its derivative row along the diagonal.

class SystemSpec(NamedTuple):
    """One published linear system and the wording of its report."""

    id: str
    zero_rows: tuple[str, ...]
    unit_rows: tuple[str, ...]
    kind: str                   # "point-moving" | "tangency" | "flex"
    published_dim: int
    published_generators: int
    claim: str                  # the line printed by `stablelimit list`
    citation: str               # the claim as the report states it
    label_reading: str          # what the published dimension label counts
    note: str = ""


def _deformation_system(n, zero_rows, unit_rows, kind, dim, generators):
    return SystemSpec(
        f"system-I{n}", zero_rows, unit_rows, kind, dim, generators,
        f"published deformation system {n} ({kind})",
        f"published deformation system ({kind} direction {unit_rows[0]}): "
        "consistency over GF(49) and essential dimension",
        "polynomial variables of the original run (its stated correction "
        "accounts for one of the two)")


SYSTEM_SPECS = (
    _deformation_system(
        1, ("B1Q1", "B1Q2", "B2Q1", "B2Q2", "B1Q3", "dB1Q3", "B2Q5", "B2Q6"),
        ("B1Q4",), "point-moving", 4, 16),
    _deformation_system(
        2, ("B1Q1", "B1Q2", "B2Q1", "B2Q2", "B1Q3", "dB1Q3", "B1Q4", "B2Q6"),
        ("B2Q5",), "point-moving", 4, 16),
    _deformation_system(
        3, ("B1Q1", "B1Q2", "B2Q1", "B2Q2", "B1Q3", "dB1Q3", "B1Q4", "B2Q5"),
        ("B2Q6",), "point-moving", 4, 16),
    _deformation_system(
        4, ("B1Q1", "B1Q2", "B2Q1", "B2Q2", "B1Q3", "B1Q4", "B2Q5", "B2Q6"),
        ("dB1Q3",), "tangency", 4, 16),
    _deformation_system(
        5, ("B1Q1", "B1Q2", "B2Q1", "B2Q2", "B1Q3", "B1Q4", "B2Q5", "B2Q6",
            "dB1Q3"),
        ("dB1Q4",), "tangency", 3, 17),
    _deformation_system(
        6, ("B1Q1", "B1Q2", "B2Q1", "B2Q2", "B1Q3", "B1Q4", "B2Q5", "B2Q6",
            "dB1Q3"),
        ("dB2Q5",), "tangency", 3, 17),
    _deformation_system(
        7, ("B1Q1", "B1Q2", "B2Q1", "B2Q2", "B1Q3", "B1Q4", "B2Q5", "B2Q6",
            "dB1Q3"),
        ("dB2Q6",), "tangency", 3, 17),
)

# flex-destroying system: deformation must keep the two transverse points
# and rotate the first curve off its doubled fiber contacts there
LEFSCHETZ_SPEC = SystemSpec(
    "system-lefschetz", ("van1", "van2"), ("dB1Q1", "dB1Q2"), "flex", 10, 11,
    "flex-destroying deformation system",
    "flex-destroying deformation system: keep the two transverse points, "
    "rotate the first curve off its doubled fiber contacts",
    "variables (and a parameter entangled in the published derivative rows)",
    "derivative rows imposed at the points themselves (value of the "
    "fiber-direction derivative), the reading under which consistency "
    "certifies a flex-destroying first-order deformation")
