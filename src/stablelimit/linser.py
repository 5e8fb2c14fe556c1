"""Dimension counts for linear series of bihomogeneous forms on a quadric.

A series is the space of bidegree-(a, b) forms in two pairs of projective
coordinates, cut down by point conditions: passing through a point,
having a prescribed multiplicity there, or being tangent to a prescribed
direction.  Every condition is a linear constraint on the (a+1)(b+1)
monomial coefficients, so dimensions are exact rank computations.

Points are pairs of projective coordinate pairs over the working field.
No genericity is ever assumed: independence of conditions is whatever the
rank says on the concrete points.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .linalg import rank
from .poly import MPoly, VarRegistry
from .rings import Element, Ring

Point = tuple[tuple[Element, Element], tuple[Element, Element]]


class MalformedPointError(ValueError):
    """A projective coordinate pair was (0 : 0)."""


class PassThrough(NamedTuple):
    point: Point


class MultiplicityAtLeast(NamedTuple):
    point: Point
    m: int


class TangentDirection(NamedTuple):
    """Vanishing of the directional derivative in the point's affine chart."""

    point: Point
    direction: tuple[Element, Element]


Condition = object


def _check_point(pt: Point) -> None:
    for pair in pt:
        if pair[0].is_zero() and pair[1].is_zero():
            raise MalformedPointError("projective pair (0 : 0)")


def _monomials(a: int, b: int):
    return [(i, j) for i in range(a + 1) for j in range(b + 1)]


_LOCAL = VarRegistry(("u", "v"))


def _local_expansions(a: int, b: int, pt: Point, ring: Ring) -> list[MPoly]:
    """Each basis monomial expanded in affine coordinates centered at pt.

    The chart normalizes the larger pattern of the projective pair: for a
    pair (p0 : p1) with p1 != 0 the affine value is p0/p1 and the local
    coordinate u satisfies value = p0/p1 + u; when p1 = 0 the chart is at
    infinity and u is the reciprocal coordinate.
    """
    _check_point(pt)
    (a0, a1), (b0, b1) = pt
    one = MPoly.constant(_LOCAL, ring.one())
    u = MPoly.variable(_LOCAL, ring, "u")
    v = MPoly.variable(_LOCAL, ring, "v")

    def coords(p0, p1, var):
        # returns (first, second) substitutions for the projective pair
        if not p1.is_zero():
            affine = p0 * p1.inverse()
            return MPoly.constant(_LOCAL, affine) + var, one
        return one, var  # point at infinity: (1 : u), u = 0 at the point

    au, av = coords(a0, a1, u)
    bu, bv = coords(b0, b1, v)
    out = []
    for i, j in _monomials(a, b):
        out.append((au ** i) * (av ** (a - i)) * (bu ** j) * (bv ** (b - j)))
    return out


def _condition_rows(a: int, b: int, cond, ring: Ring) -> list[list[Element]]:
    if isinstance(cond, PassThrough):
        _check_point(cond.point)
        (a0, a1), (b0, b1) = cond.point
        row = []
        for i, j in _monomials(a, b):
            row.append((a0 ** i) * (a1 ** (a - i)) * (b0 ** j) * (b1 ** (b - j)))
        return [row]
    if isinstance(cond, MultiplicityAtLeast):
        if cond.m < 1:
            raise ValueError("multiplicity must be at least 1")
        expansions = _local_expansions(a, b, cond.point, ring)
        rows = []
        for du in range(cond.m):
            for dv in range(cond.m - du):
                rows.append([p.coefficient({"u": du, "v": dv})
                             for p in expansions])
        return rows
    if isinstance(cond, TangentDirection):
        du, dv = cond.direction
        if du.is_zero() and dv.is_zero():
            raise ValueError("tangent direction must be nonzero")
        expansions = _local_expansions(a, b, cond.point, ring)
        row = [p.coefficient({"u": 1}) * du + p.coefficient({"v": 1}) * dv
               for p in expansions]
        return [row]
    raise TypeError(f"unknown condition {cond!r}")


def series_dimension(bidegree: tuple[int, int],
                     conditions: Iterable[Condition], ring: Ring) -> int:
    """Dimension of the space of bidegree forms satisfying the conditions."""
    a, b = bidegree
    rows: list[list[Element]] = []
    for cond in conditions:
        rows.extend(_condition_rows(a, b, cond, ring))
    n = (a + 1) * (b + 1)
    if not rows:
        return n
    return n - rank(rows, ring)


def split_sections_vanishing(points: Sequence[Point], ring: Ring) -> int:
    """Pairs of forms of bidegrees (0,2) and (2,0) both vanishing at the
    listed points; the building block of the rank-two cotangent count."""
    zero = ring.zero()
    rows = []
    for pt in points:
        _check_point(pt)
        (a0, a1), (b0, b1) = pt
        rows.append([b0 ** j * b1 ** (2 - j) for j in range(3)] + [zero] * 3)
        rows.append([zero] * 3 + [a0 ** i * a1 ** (2 - i) for i in range(3)])
    if not rows:
        return 6
    return 6 - rank(rows, ring)


def distinct_fiber_counts(points: Sequence[Point]) -> tuple[int, int]:
    """Number of distinct first-factor and second-factor fibers through
    the points (the positional hypothesis behind the vanishing count)."""
    firsts = set()
    seconds = set()
    for (A, B) in points:
        firsts.add(normalize_pair(A))
        seconds.add(normalize_pair(B))
    return len(firsts), len(seconds)


def normalize_pair(pair: tuple[Element, Element]):
    """Canonical label of a projective pair (p0 : p1): ("affine", the int
    payload of p0/p1), or ("infinity",)."""
    p0, p1 = pair
    if not p1.is_zero():
        return ("affine", (p0 * p1.inverse()).payload)
    return ("infinity",)
