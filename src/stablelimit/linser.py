"""Dimension counts for linear series of bihomogeneous forms on a quadric.

A series is the space of bidegree-(a, b) forms in two pairs of projective
coordinates, cut down by point conditions: passing through a point, or
being tangent to a prescribed direction there.  Every condition is a
linear constraint on the (a+1)(b+1) monomial coefficients, so dimensions
are exact rank computations.  The Taylor coefficients behind a tangency
condition are read off binomial formulas, one factor of the quadric at a
time.

Points are pairs of projective coordinate pairs over the working field.
No genericity is ever assumed: independence of conditions is whatever the
rank says on the concrete points.
"""

from __future__ import annotations

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


def _condition_rows(a: int, b: int, cond, ring: Ring) -> list[list[Element]]:
    if not isinstance(cond, (PassThrough, TangentDirection)):
        raise TypeError(f"unknown condition {cond!r}")
    _check_point(cond.point)
    if isinstance(cond, PassThrough):
        (a0, a1), (b0, b1) = cond.point
        return [[a0 ** i * a1 ** (a - i) * b0 ** j * b1 ** (b - j)
                 for i in range(a + 1) for j in range(b + 1)]]
    du, dv = cond.direction
    if du.is_zero() and dv.is_zero():
        raise ValueError("tangent direction must be nonzero")
    A, B = cond.point
    x0, x1 = (_chart_coefficients(A, a, k, ring) for k in (0, 1))
    y0, y1 = (_chart_coefficients(B, b, k, ring) for k in (0, 1))
    return [[x1[i] * y0[j] * du + x0[i] * y1[j] * dv
             for i in range(a + 1) for j in range(b + 1)]]


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
