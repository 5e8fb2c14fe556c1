"""Dimension counts for linear series of bihomogeneous forms on a quadric.

A series is the space of bidegree-(a, b) forms in two pairs of projective
coordinates, cut down by point conditions: passing through a point, or
being tangent to a prescribed direction there.  Every condition is a
linear constraint on the (a+1)(b+1) monomial coefficients, so dimensions
are exact rank computations.  ``condition_row``, the package's one
formula for a form's value or derivative at a point, also builds the
deformation module's point rows; the Taylor coefficients behind a
tangency are read off binomial formulas, one factor at a time.  A pair of
forms of bidegrees (0, 2) and (2, 0) vanishing at the same points is
counted as the sum of the two series' dimensions: the pair's conditions
form a block-diagonal matrix, whose rank is the sum of its blocks' ranks.

Points are pairs of projective coordinate pairs over the working field.
No genericity is ever assumed: independence of conditions is whatever the
rank says on the concrete points.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .linalg import rank
from .rings import Element, Ring

Point = tuple[tuple[Element, Element], tuple[Element, Element]]


class MalformedPointError(ValueError):
    """A projective coordinate pair was (0 : 0)."""


class PassThrough(NamedTuple):
    point: Point


class TangentDirection(NamedTuple):
    """Vanishing of the directional derivative in the point's affine chart."""

    point: Point
    direction: tuple[Element, Element]


Condition = object


def _check_point(pt: Point) -> None:
    for pair in pt:
        if pair[0].is_zero() and pair[1].is_zero():
            raise MalformedPointError("projective pair (0 : 0)")


def _chart_coefficients(pair: tuple[Element, Element], d: int, k: int,
                        ring: Ring) -> list[Element]:
    """Coefficient of t^k in each x^i y^(d-i), i = 0..d, at the pair
    (p0 : p1), which the caller has checked is not (0 : 0):
    C(i, k) (p0/p1)^(i-k) in the chart x = p0/p1 + t, y = 1, and
    [d - i = k] at infinity (p1 = 0), where x = 1, y = t."""
    p0, p1 = pair
    zero = ring.zero()
    if p1.is_zero():
        return [ring.one() if d - i == k else zero for i in range(d + 1)]
    x0 = p0 * p1.inverse()
    return [ring.from_int(comb(i, k)) * x0 ** (i - k) if i >= k else zero
            for i in range(d + 1)]


# bounded: any caller's points reach it; typed: a bare tuple is refused
@lru_cache(maxsize=256, typed=True)
def condition_row(a: int, b: int, cond, ring: Ring) -> tuple[Element, ...]:
    """The row that ``cond`` imposes on the bidegree-(a, b) monomials
    x^i y^(a-i) z^j w^(b-j), i outer and j inner: their values at the
    point, or their derivatives along the direction in its affine chart."""
    if not isinstance(cond, (PassThrough, TangentDirection)):
        raise TypeError(f"unknown condition {cond!r}")
    _check_point(cond.point)
    A, B = cond.point
    if isinstance(cond, PassThrough):
        xs, ys = ([p ** i * q ** (d - i) for i in range(d + 1)]
                  for (p, q), d in ((A, a), (B, b)))
        return tuple(x * y for x in xs for y in ys)
    du, dv = cond.direction
    if du.is_zero() and dv.is_zero():
        raise ValueError("tangent direction must be nonzero")
    x0, x1 = (_chart_coefficients(A, a, k, ring) for k in (0, 1))
    y0, y1 = ([y * w for y in _chart_coefficients(B, b, k, ring)]
              for k, w in ((0, du), (1, dv)))
    return tuple(x1[i] * y0[j] + x0[i] * y1[j]
                 for i in range(a + 1) for j in range(b + 1))


def series_dimension(bidegree: tuple[int, int],
                     conditions: Iterable[Condition], ring: Ring) -> int:
    """Dimension of the space of bidegree forms satisfying the conditions."""
    a, b = bidegree
    rows = [condition_row(a, b, cond, ring) for cond in conditions]
    return (a + 1) * (b + 1) - rank(rows, ring)


def split_sections_vanishing(points: Sequence[Point], ring: Ring) -> int:
    """Pairs of forms of bidegrees (0,2) and (2,0) both vanishing at the
    listed points; the building block of the rank-two cotangent count."""
    conds = [PassThrough(pt) for pt in points]
    return (series_dimension((0, 2), conds, ring)
            + series_dimension((2, 0), conds, ring))


def distinct_fiber_counts(points: Sequence[Point]) -> tuple[int, int]:
    """Number of distinct first-factor and second-factor fibers through
    the points (the positional hypothesis behind the vanishing count)."""
    return (len({normalize_pair(A) for A, _ in points}),
            len({normalize_pair(B) for _, B in points}))


def normalize_pair(pair: tuple[Element, Element]):
    """Canonical label of a projective pair (p0 : p1): ("affine", the int
    payload of p0/p1), or ("infinity",).  (0 : 0) is refused."""
    p0, p1 = pair
    if not p1.is_zero():
        return ("affine", (p0 * p1.inverse()).payload)
    if p0.is_zero():
        raise MalformedPointError("projective pair (0 : 0)")
    return ("infinity",)
