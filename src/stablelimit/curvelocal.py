"""Local analysis of plane-curve germs and of curve-to-line projections.

A germ is a polynomial in two chart coordinates, considered at the chart
origin.  The operations cover exactly what the verification scenarios
need: multiplicity and tangent cone, node/double-contact classification,
intersection multiplicity against a parametrized smooth curve, the branch
locus of a bidegree-(3,3) curve under one of the two rulings of a quadric
(via the binary-cubic discriminant), and exact division of a binary form
by a linear one.

Everything is exact; no floating point, no genericity assumptions.
"""

from __future__ import annotations

from typing import NamedTuple

from .poly import MPoly
from .rings import Element, Frozen


class ZeroGermError(ValueError):
    """The zero polynomial has no multiplicity."""


class DegenerateProjectionError(ValueError):
    """The curve is not generically a cubic over the chosen ruling."""


class ChartGerm(Frozen):
    """A plane-curve germ at the origin of a named chart; immutable."""

    __slots__ = ("chart_id", "poly", "local_vars")

    def __init__(self, chart_id: str, poly: MPoly,
                 local_vars: tuple[str, str]):
        u, v = local_vars
        for name in (u, v):
            if name not in poly.registry:
                raise KeyError(f"chart variable {name!r} not in registry")
        extra = poly.variables_used() - set(local_vars)
        if extra:
            raise ValueError(f"germ involves non-chart variables {extra}")
        object.__setattr__(self, "chart_id", chart_id)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "local_vars", local_vars)

    def _key(self):
        return self.chart_id, self.poly, self.local_vars

    def __eq__(self, other):
        if type(other) is not ChartGerm:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class SingularityVerdict(NamedTuple):
    multiplicity: int
    tangent_cone: MPoly
    kind: str  # "smooth" | "node" | "tacnode_or_degeneration" | "other"


def multiplicity_at(germ: ChartGerm) -> int:
    """Smallest total degree in the chart variables with a nonzero part."""
    if germ.poly.is_zero():
        raise ZeroGermError("multiplicity of the zero germ is undefined")
    idx = [germ.poly.registry.index[n] for n in germ.local_vars]
    return min(e[idx[0]] + e[idx[1]] for e in germ.poly.terms)


def tangent_cone(germ: ChartGerm) -> MPoly:
    return germ.poly.graded_part(multiplicity_at(germ), germ.local_vars)


def _quadratic_coefficients(cone: MPoly, u: str, v: str):
    a = cone.coefficient({u: 2})
    b = cone.coefficient({u: 1, v: 1})
    c = cone.coefficient({v: 2})
    return a, b, c


def _double_line(cone: MPoly, u: str, v: str) -> MPoly:
    """For a nonzero binary quadratic a u^2 + b uv + c v^2 of zero
    discriminant, the line l with cone = unit * l^2: u + (b/2a) v, or v
    when a = 0 (then b = 0 as well)."""
    ring = cone.ring
    registry = cone.registry
    a, b, _ = _quadratic_coefficients(cone, u, v)
    if a.is_zero():
        return MPoly.variable(registry, ring, v)
    # a(u + (b/2a) v)^2
    shift = b * ring.from_int(2).inverse() * a.inverse()
    return (MPoly.variable(registry, ring, u)
            + MPoly.variable(registry, ring, v).scale(shift))


def _divide_by_linear(target: MPoly, linear: MPoly, u: str, v: str):
    """Quotient q with target = linear * q, or None if not divisible: the
    synthetic division of a binary form by p u + q v, with u and v swapped
    when p = 0, checked by multiplying back."""
    ring, registry = target.ring, target.registry
    if target.is_zero():
        return MPoly.zero(registry, ring)
    p, q = linear.coefficient({u: 1}), linear.coefficient({v: 1})
    if p.is_zero():
        u, v, p, q = v, u, q, p
    if p.is_zero():
        return None
    n, p_inv = target.total_degree(), p.inverse()
    terms, c = {}, ring.zero()
    for k in range(n):
        c = (target.coefficient({u: n - k, v: k}) - q * c) * p_inv
        exps = [0] * len(registry)
        exps[registry.index[u]], exps[registry.index[v]] = n - 1 - k, k
        terms[tuple(exps)] = c
    quotient = MPoly(registry, ring, terms)
    return quotient if linear * quotient == target else None


def classify(germ: ChartGerm) -> SingularityVerdict:
    """Classify a germ of multiplicity at most 2.

    Multiplicity 1 is smooth.  At multiplicity 2 the tangent cone decides:
    two distinct lines give a node; a double line l^2 whose cubic part is
    divisible by l gives a double contact point (tacnode or a degeneration
    of one), since completing the square removes every degree-3 term.
    Anything else is reported as "other".
    """
    ring = germ.poly.ring
    if ring.characteristic() == 2:
        raise ValueError("classification unsupported in characteristic 2")
    mult = multiplicity_at(germ)
    cone = tangent_cone(germ)
    if mult == 0:
        return SingularityVerdict(0, cone, "other")  # unit germ: not on curve
    if mult == 1:
        return SingularityVerdict(1, cone, "smooth")
    if mult > 2:
        return SingularityVerdict(mult, cone, "other")
    u, v = germ.local_vars
    a, b, c = _quadratic_coefficients(cone, u, v)
    four = ring.from_int(4)
    disc = b * b - four * a * c
    if not disc.is_zero():
        return SingularityVerdict(2, cone, "node")
    line = _double_line(cone, u, v)
    cubic = germ.poly.graded_part(3, germ.local_vars)
    if _divide_by_linear(cubic, line, u, v) is not None:
        return SingularityVerdict(2, cone, "tacnode_or_degeneration")
    return SingularityVerdict(2, cone, "other")


def intersection_multiplicity(germ: ChartGerm,
                              param: tuple[MPoly, MPoly],
                              truncation: int | None = None) -> int | None:
    """Vanishing order of the germ pulled back along a parametrized curve.

    ``param`` gives the two chart coordinates as polynomials in a single
    parameter vanishing at 0 (truncated power series are fine as long as
    ``truncation`` exceeds the contact order being measured).  Returns
    None when the pullback vanishes identically to the stated precision:
    the germ contains the parametrized branch.
    """
    pu, pv = param
    if pu.registry != pv.registry or len(pu.registry) != 1:
        raise ValueError("parametrization must be univariate")
    for comp in (pu, pv):
        if not comp.coefficient({}).is_zero():
            raise ValueError("parametrization must pass through the origin")
    u, v = germ.local_vars
    out = germ.poly.substitute({u: pu, v: pv})
    if truncation is not None:
        out = out.truncate(pu.registry.names[0], truncation)
    if out.is_zero():
        return None
    return min(e[0] for e in out.terms)


def infinitely_near_multiplicity(germ: ChartGerm,
                                 direction: tuple[Element, Element]) -> int:
    """Multiplicity of the proper transform at the point of the exceptional
    line corresponding to ``direction`` after one blowup of the origin.

    The direction (du, dv) must be nonzero.  Charts: for du != 0 use
    u = w, v = w*(dv/du + t); symmetrically otherwise.
    """
    ring = germ.poly.ring
    registry = germ.poly.registry
    u, v = germ.local_vars
    du, dv = direction
    if du.is_zero() and dv.is_zero():
        raise ValueError("direction must be nonzero")
    m = multiplicity_at(germ)
    uvar = MPoly.variable(registry, ring, u)
    vvar = MPoly.variable(registry, ring, v)
    if not du.is_zero():
        # chart u = w, v = w*(slope + t); the origin is the direction point
        slope = dv * du.inverse()
        sub = {v: uvar * (vvar + MPoly.constant(registry, slope))}
        wname = u
    else:
        # direction along the v-axis: chart v = w, u = w*t
        sub = {u: vvar * uvar}
        wname = v
    total = germ.poly.substitute(sub)
    # strip the exceptional factor w^m
    proper, removed = strip_monomial_content(total, (wname,))
    if removed[wname] != m:
        raise ArithmeticError("blowup did not divide by the multiplicity")
    return multiplicity_at(ChartGerm(germ.chart_id + "'", proper,
                                     germ.local_vars))


_CUBIC = 3


def branch_locus(g: MPoly, moving: tuple[str, str], base: tuple[str, str]) -> MPoly:
    """Discriminant of g as a binary cubic in the moving pair.

    g must be a bidegree-(3, 3) form in moving+base variables.  Returns
    the classical degree-4 discriminant invariant, a binary form in the
    base pair, with its monomial content (powers of the base variables
    dividing every term) stripped.  The zero set with multiplicity of the
    result is the branch divisor of the curve's projection to the base
    line, away from the fibers through singular points of the curve.
    """
    ring = g.ring
    registry = g.registry
    mi = [registry.index[n] for n in moving]
    bi = [registry.index[n] for n in base]
    coeffs: dict[int, dict[tuple[int, ...], Element]] = {}
    for exps, c in g.terms.items():
        if exps[mi[0]] + exps[mi[1]] != _CUBIC:
            raise DegenerateProjectionError(
                "form is not cubic along the moving pair")
        key = exps[mi[1]]  # exponent of the dehomogenizing coordinate
        mono = [0] * len(registry)
        mono[bi[0]], mono[bi[1]] = exps[bi[0]], exps[bi[1]]
        coeffs.setdefault(key, {})[tuple(mono)] = c
    a, b, c_, d = (MPoly(registry, ring, coeffs.get(k, {})) for k in range(4))
    if a.is_zero() and d.is_zero():
        raise DegenerateProjectionError("leading and trailing cubic "
                                        "coefficients both vanish")
    n = lambda k: MPoly.constant(registry, ring.from_int(k))
    disc = (n(18) * a * b * c_ * d - n(4) * b ** 3 * d + b ** 2 * c_ ** 2
            - n(4) * a * c_ ** 3 - n(27) * a ** 2 * d ** 2)
    if disc.is_zero():
        raise DegenerateProjectionError("identically vanishing discriminant")
    stripped, _ = strip_monomial_content(disc, base)
    return stripped


def strip_monomial_content(p: MPoly, names) -> tuple[MPoly, dict[str, int]]:
    """Divide out the largest monomial in ``names`` dividing every term."""
    idx = {n: p.registry.index[n] for n in names}
    mins = {n: min(e[i] for e in p.terms) for n, i in idx.items()}
    terms = {}
    for exps, c in p.terms.items():
        ne = list(exps)
        for n, i in idx.items():
            ne[i] -= mins[n]
        terms[tuple(ne)] = c
    return MPoly(p.registry, p.ring, terms), mins
