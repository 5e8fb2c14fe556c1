"""Linear-series dimension counts on the quadric."""

import random

import pytest

from stablelimit import MPoly, PrimeField, QuadraticField, VarRegistry, scenarios
from stablelimit.linser import (MalformedPointError, PassThrough,
                                TangentDirection,
                                _condition_rows, distinct_fiber_counts,
                                normalize_pair, series_dimension,
                                split_sections_vanishing)
from stablelimit.linalg import rank
from test_deformation import _gf7_rank, _realify

F49 = QuadraticField(7)
F7 = PrimeField(7)

ONE = F49.one()
ZERO = F49.zero()
I = F49.i()


def pt(a, b):
    """Affine point (a, b) as projective pairs."""
    return ((a, ONE), (b, ONE))


def pt_at_infinity_both():
    return ((ONE, ZERO), (ONE, ZERO))


CORNERS = [
    ((ONE, ZERO), (ONE, ZERO)),
    ((ONE, ZERO), (ZERO, ONE)),
    ((ZERO, ONE), (ONE, ZERO)),
    ((ZERO, ONE), (ZERO, ONE)),
]


def random_points(seed, count):
    rng = random.Random(seed)
    return [pt(F49.random_element(rng), F49.random_element(rng))
            for _ in range(count)]


MONOTONE_POINTS = random_points(71, 5)
SWAP_POINTS = random_points(73, 3)
TANGENT_POINT = pt(F49.from_int(2), F49.from_int(3))


def test_unconstrained_dimensions():
    assert series_dimension((2, 2), (), F49) == 9
    assert series_dimension((1, 1), (), F49) == 4
    assert series_dimension((0, 0), (), F49) == 1


def test_four_general_points_kill_11_forms():
    conds = [PassThrough(p) for p in CORNERS]
    assert series_dimension((1, 1), conds, F49) == 0
    # brute-force oracle: the 4x4 evaluation matrix has full rank
    rows = []
    for (A, B) in CORNERS:
        a0, a1 = A
        b0, b1 = B
        rows.append([(a0 ** i) * (a1 ** (1 - i)) * (b0 ** j) * (b1 ** (1 - j))
                     for i in (0, 1) for j in (0, 1)])
    assert rank(rows, F49) == 4


def test_conditions_monotone():
    conds = []
    last = series_dimension((2, 2), conds, F49)
    for p in MONOTONE_POINTS:
        conds.append(PassThrough(p))
        now = series_dimension((2, 2), conds, F49)
        assert now <= last
        last = now


def test_tangent_direction_is_one_condition():
    p = TANGENT_POINT
    conds = [PassThrough(p), TangentDirection(p, (ONE, F49.from_int(5)))]
    assert series_dimension((2, 2), conds, F49) == 7


def test_swap_invariance():
    conds = [PassThrough(p) for p in SWAP_POINTS]
    swapped = [PassThrough((B, A)) for (A, B) in SWAP_POINTS]
    assert series_dimension((2, 3), conds, F49) == \
        series_dimension((3, 2), swapped, F49)


def test_split_sections_examples():
    assert split_sections_vanishing((), F49) == 6
    assert split_sections_vanishing((pt(ZERO, ZERO),), F49) == 4
    five = [pt(I, -I)] + CORNERS
    assert distinct_fiber_counts(five) == (3, 3)
    assert split_sections_vanishing(five, F49) == 0


def test_malformed_point_rejected():
    bad = ((ZERO, ZERO), (ONE, ONE))
    with pytest.raises(MalformedPointError):
        series_dimension((1, 1), [PassThrough(bad)], F49)
    with pytest.raises(MalformedPointError):
        split_sections_vanishing((bad,), F49)
    with pytest.raises(MalformedPointError):
        normalize_pair((ZERO, ZERO))
    with pytest.raises(MalformedPointError):
        distinct_fiber_counts([bad, ((ONE, ZERO), (ONE, ONE))])


def test_points_at_infinity_handled():
    conds = [PassThrough(pt_at_infinity_both())]
    assert series_dimension((1, 1), conds, F49) == 3
    conds.append(TangentDirection(pt_at_infinity_both(), (ONE, ONE)))
    assert series_dimension((1, 1), conds, F49) == 2


# ----------------------------------------------------------------------
# condition rows against a polynomial-expansion reference

_UV = VarRegistry(("u", "v"))


def reference_condition_rows(a, b, cond, ring):
    """Tangency rows read off each basis monomial expanded as a
    polynomial in local coordinates u, v at the point: a second route to
    the rows, through polynomial arithmetic."""
    one = MPoly.constant(_UV, ring.one())

    def coords(p0, p1, var):
        if not p1.is_zero():
            return MPoly.constant(_UV, p0 * p1.inverse()) + var, one
        return one, var

    (a0, a1), (b0, b1) = cond.point
    au, av = coords(a0, a1, MPoly.variable(_UV, ring, "u"))
    bu, bv = coords(b0, b1, MPoly.variable(_UV, ring, "v"))
    expansions = [au ** i * av ** (a - i) * bu ** j * bv ** (b - j)
                  for i in range(a + 1) for j in range(b + 1)]
    du, dv = cond.direction
    return [[p.coefficient({"u": 1}) * du + p.coefficient({"v": 1}) * dv
             for p in expansions]]


def _nonzero(rng, ring):
    while True:
        x = ring.random_element(rng)
        if not x.is_zero():
            return x


def _random_pair(rng, ring):
    """A projective pair: affine (any p0, nonzero p1) or at infinity
    (nonzero p0, p1 = 0)."""
    if rng.randrange(3) == 0:
        return _nonzero(rng, ring), ring.zero()
    return ring.random_element(rng), _nonzero(rng, ring)


@pytest.mark.parametrize("ring", [F49, F7], ids=["GF(49)", "GF(7)"])
def test_condition_rows_match_the_expansion_reference(ring):
    rng = random.Random(1409)
    for _ in range(200):
        a, b = rng.randrange(5), rng.randrange(5)
        point = (_random_pair(rng, ring), _random_pair(rng, ring))
        direction = (ring.random_element(rng), _nonzero(rng, ring))
        cond = TangentDirection(point, direction[::rng.choice((1, -1))])
        assert _condition_rows(a, b, cond, ring) == \
            reference_condition_rows(a, b, cond, ring), cond


# ----------------------------------------------------------------------
# a second oracle: the condition rows ranked by sympy


def _oracle_dimension(bidegree, conditions, ring) -> int:
    """(a+1)(b+1) minus the rank of the GF(49) condition rows, which is
    half the rank sympy finds for them realified over GF(7)."""
    a, b = bidegree
    rows = [row for cond in conditions
            for row in _condition_rows(a, b, cond, ring)]
    if not rows:
        return (a + 1) * (b + 1)
    real_rank = _gf7_rank(_realify(rows))
    assert real_rank % 2 == 0
    return (a + 1) * (b + 1) - real_rank // 2


def _examples():
    """(bidegree, conditions) of each dimension the tests above take."""
    yield from (((2, 2), ()), ((1, 1), ()), ((0, 0), ()))
    yield (1, 1), [PassThrough(p) for p in CORNERS]
    for k in range(len(MONOTONE_POINTS) + 1):
        yield (2, 2), [PassThrough(p) for p in MONOTONE_POINTS[:k]]
    yield (2, 2), [PassThrough(TANGENT_POINT),
                   TangentDirection(TANGENT_POINT, (ONE, F49.from_int(5)))]
    yield (2, 3), [PassThrough(p) for p in SWAP_POINTS]
    yield (3, 2), [PassThrough((B, A)) for (A, B) in SWAP_POINTS]
    corner = pt_at_infinity_both()
    yield (1, 1), [PassThrough(corner)]
    yield (1, 1), [PassThrough(corner), TangentDirection(corner, (ONE, ONE))]


def test_series_dimensions_agree_with_sympy():
    for bidegree, conditions in _examples():
        assert series_dimension(bidegree, conditions, F49) == \
            _oracle_dimension(bidegree, conditions, F49), bidegree


def test_scenario_series_dimensions_agree_with_sympy(monkeypatch):
    calls = []

    def recorded(bidegree, conditions, ring):
        dim = series_dimension(bidegree, conditions, ring)
        calls.append((bidegree, tuple(conditions), ring, dim))
        return dim

    monkeypatch.setattr(scenarios, "series_dimension", recorded)
    scenarios.run_many(None)
    assert len(calls) >= 4          # lattice once, gamma three times
    for bidegree, conditions, ring, dim in calls:
        assert _oracle_dimension(bidegree, conditions, ring) == dim
