"""Local analysis of plane-curve germs and of curve-to-line projections.

A germ holds a polynomial and two chart variables, at whose origin it is
taken.  The operations cover exactly what the verification scenarios
need: multiplicity; ``classify``, which returns a germ's kind, one of
"smooth", "node", "tacnode_or_degeneration" and "other"; intersection
multiplicity against a parametrized smooth curve; the branch locus of a
bidegree-(3,3) curve under one of the two rulings of a quadric (via the
binary-cubic discriminant); and whether a linear form divides a binary
form: exactly when the form vanishes at the line's root.

Everything is exact; no floating point, no genericity assumptions.
"""

from __future__ import annotations

from .poly import MPoly
from .rings import Element, Frozen


class ZeroGermError(ValueError):
    """The zero polynomial has no multiplicity."""


class DegenerateProjectionError(ValueError):
    """The curve is not generically a cubic over the chosen ruling."""


class ChartGerm(Frozen):
    """A plane-curve germ at the origin of two chart variables; immutable."""

    __slots__ = ("poly", "local_vars")

    def __init__(self, poly: MPoly, local_vars: tuple[str, str]):
        u, v = local_vars
        for name in (u, v):
            if name not in poly.registry:
                raise KeyError(f"chart variable {name!r} not in registry")
        extra = poly.variables_used() - set(local_vars)
        if extra:
            raise ValueError(f"germ involves non-chart variables {extra}")
        _set_poly(self, poly)
        _set_local_vars(self, local_vars)

    def __eq__(self, other):
        if type(other) is not ChartGerm:
            return NotImplemented
        return self.poly == other.poly and self.local_vars == other.local_vars

    def __hash__(self):
        return hash((self.poly, self.local_vars))


# filled through the slot descriptors, which bypass the guard of ``Frozen``
_set_poly, _set_local_vars = (
    getattr(ChartGerm, name).__set__ for name in ChartGerm.__slots__)


def multiplicity_at(germ: ChartGerm) -> int:
    """Smallest total degree in the chart variables with a nonzero part."""
    if germ.poly.is_zero():
        raise ZeroGermError("multiplicity of the zero germ is undefined")
    idx = [germ.poly.registry.index[n] for n in germ.local_vars]
    return min(e[idx[0]] + e[idx[1]] for e in germ.poly.terms)


def line_root(line: MPoly, u: str, v: str) -> tuple[Element, Element]:
    """The root (q, -p) of the linear form p u + q v."""
    return line.coefficient({v: 1}), -line.coefficient({u: 1})


def divides(line: MPoly, form: MPoly, u: str, v: str) -> bool:
    """Whether the linear form p u + q v divides the binary form: exactly
    when the form vanishes at the line's root (q, -p) (Fulton, *Algebraic
    Curves*, ch. 2).  The zero form is divisible by every line, and the
    zero line divides only the zero form.  A form that is not binary in u
    and v (homogeneous, and in them alone) raises ``ValueError``."""
    if form.graded_part(form.total_degree(), (u, v)) != form:
        raise ValueError(f"not a binary form in {u} and {v}: {form}")
    if form.is_zero():
        return True
    root = line_root(line, u, v)
    if root[0].is_zero() and root[1].is_zero():
        return False
    return form.evaluate(dict(zip((u, v), root))).is_zero()


def classify(germ: ChartGerm) -> str:
    """The kind of a germ, as one of four strings.

    Multiplicity 1 is "smooth".  At multiplicity 2 the degree-2 part
    decides: two distinct lines give a "node"; a double line l^2 whose
    cubic part is divisible by l gives a double contact point, a tacnode or
    a degeneration of one ("tacnode_or_degeneration"), since completing the
    square removes every degree-3 term.  Anything else is "other".
    """
    ring = germ.poly.ring
    if ring.characteristic() == 2:
        raise ValueError("classification unsupported in characteristic 2")
    mult = multiplicity_at(germ)
    if mult == 1:
        return "smooth"
    if mult != 2:
        return "other"
    u, v = germ.local_vars
    a, b, c = map(germ.poly.coefficient, ({u: 2}, {u: 1, v: 1}, {v: 2}))
    disc = b * b - ring.from_int(4) * a * c
    if not disc.is_zero():
        return "node"
    # the degree-2 part is a unit times line^2 for the line 2a u + b v, or
    # v when a = 0 (then b = 0 as well)
    U, V = (MPoly.variable(germ.poly.registry, ring, n) for n in (u, v))
    line = V if a.is_zero() else U.scale(ring.from_int(2) * a) + V.scale(b)
    cubic = germ.poly.graded_part(3, (u, v))
    return "tacnode_or_degeneration" if divides(line, cubic, u, v) else "other"


def intersection_multiplicity(germ: ChartGerm,
                              param: tuple[MPoly, MPoly],
                              truncation: int | None = None) -> int | None:
    """Vanishing order of the germ pulled back along a parametrized curve.

    ``param`` gives the two chart coordinates as polynomials in a single
    parameter s vanishing at 0.  Precision rule: the order is read off the
    coefficients of s^0 .. s^truncation of the pullback (``pullback_order``;
    all of them when ``truncation`` is None), so truncated series are fine
    when ``truncation`` is at least the contact order and below their own
    precision.  None: the pullback vanishes there (the germ holds the branch).
    """
    return germ.poly.pullback_order(dict(zip(germ.local_vars, param)),
                                    truncation)


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
    return multiplicity_at(ChartGerm(proper, germ.local_vars))


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
