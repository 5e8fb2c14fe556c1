"""First-order equisingular deformation machinery for the curve pair.

The two bidegree-(3,3) curves carry a fixed singularity pattern: each has
two double points of tacnodal type whose tangent cones match the other
curve's tangent line.  A first-order deformation moves the base point of
chart k by (c_k, d_k) and adds a general coefficient cloud to each
equation.  Every quantity met below is a classical polynomial plus a
first-order part that is linear in the unknowns, kept as a *linear form*
``{unknown: polynomial in the chart coordinates}``.  The derivation only
multiplies classical polynomials by first-order parts, so the Leibniz rule
gives every first-order part directly; in chart (u, v) a curve g with
cloud gbar has first-order part  c*dg/du + d*dg/dv + gbar.  Preserving the
pattern imposes, per double point:

  * the deformed curve passes through the displaced point,
  * it is singular there,
  * its quadratic part is proportional to the square of the partner
    curve's deformed linear part,
  * its cubic part is divisible by that deformed linear part,

and, per smooth base point, passage through the displaced point.  The
classical part of each condition must vanish, and each chart monomial of
its first-order part is one row.  After projecting out the
proportionality and quotient auxiliaries, this module produces the
resulting homogeneous linear system in the 40 coefficient and
displacement unknowns.  The derivation runs once: it records which raw
rows impose the first curve's cubic-divisibility condition, and the
weakened negative control is the same raw rows without those, eliminated
on its own.  Independently the module builds the diagonal-point value
and derivative rows used by the published deformation systems, each a
linear form evaluated at a point, pushes each of them down to the 19
essential unknowns once, and solves those systems over GF(49).

The derivation reads the packed terms of ``poly.MPoly`` directly where it
only moves exponents or copies coefficients (``dehomogenize``,
``_monomial_rows``).

Everything below is derived symbolically from the two curve equations;
the published displays enter only as comparison targets in the scenario
layer.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from . import cgdata
from .curvelocal import _divide_by_linear
from .linalg import LinearSystem, eliminate, solve_affine
from .poly import _MASK, MPoly, VarRegistry, unit_match
from .rings import Element, QuadraticField


F49 = QuadraticField(cgdata.PRIME)

AUX_UNKNOWNS = tuple(
    [f"m'{k}" for k in cgdata.CURVE1_DOUBLE_CHARTS]
    + [f"n'{k}" for k in cgdata.CURVE2_DOUBLE_CHARTS]
    + [f"h1u{k}q{t}" for k in cgdata.CURVE1_DOUBLE_CHARTS for t in range(3)]
    + [f"h2u{k}q{t}" for k in cgdata.CURVE2_DOUBLE_CHARTS for t in range(3)]
)
_ALL_UNKNOWNS = cgdata.MAIN_UNKNOWNS + AUX_UNKNOWNS
_COLUMN = {name: k for k, name in enumerate(_ALL_UNKNOWNS)}

# A linear form over the unknowns: unknown -> polynomial coefficient.
Form = Mapping[str, MPoly]


def _add(*forms: Form) -> dict[str, MPoly]:
    out: dict[str, MPoly] = {}
    for form in forms:
        for name, p in form.items():
            out[name] = out[name] + p if name in out else p
    return out


def _times(factor: MPoly, form: Form) -> dict[str, MPoly]:
    return {name: factor * p for name, p in form.items()}


def _graded(form: Form, degree: int, names) -> dict[str, MPoly]:
    return {name: p.graded_part(degree, names) for name, p in form.items()}


def derivative(form: Form, var: str) -> dict[str, MPoly]:
    """A linear form with each entry differentiated in ``var``."""
    return {name: p.partial_derivative(var) for name, p in form.items()}


def _row_at(form: Form, point: Mapping[str, Element]) -> tuple[Element, ...]:
    """Each entry of a linear form evaluated at a point, as a row over
    the 40 main unknowns."""
    zero = F49.zero()
    return tuple(form[n].evaluate(point) if n in form else zero
                 for n in cgdata.MAIN_UNKNOWNS)


def _monomial_rows(form: Form) -> list[list[Element]]:
    """One row per monomial of a linear form over ``cgdata.AB``, in sorted
    order of exponent vectors: the coefficients of the unknowns at that
    monomial.  Only the distinct monomials are decoded, to sort them."""
    zero = F49.zero()
    rows: dict[int, list[Element]] = {}
    for name, p in form.items():
        column, wrap = _COLUMN[name], p._coeffs.wrap
        for e, c in p._terms.items():
            rows.setdefault(e, [zero] * len(_ALL_UNKNOWNS))[column] = wrap(c)
    packed = list(rows)
    return [rows[e] for _, e in sorted(zip(cgdata.AB._unpack_all(packed),
                                           packed))]


def _coefficient_form(prefix: str) -> dict[str, MPoly]:
    """A bidegree-(3,3) coefficient cloud: unknown -> its monomial."""
    one = F49.one()
    return {f"{prefix}{i}{j}": MPoly(cgdata.AB, F49,
                                     {(i, 3 - i, j, 3 - j): one})
            for i in range(4) for j in range(4)}


def dehomogenize(p: MPoly, chart: int) -> MPoly:
    """Set the two coordinates that a chart does not keep to 1: their
    exponents become 0, and the coefficients that then collide add up.
    Each packed monomial loses the exponent fields of the dropped
    coordinates, and their share of the total degree."""
    registry = p.registry
    dropped = [(shift, registry._unit(i))
               for i, (name, shift) in enumerate(zip(registry.names,
                                                     registry._shifts))
               if name not in cgdata.CHARTS[chart]]
    coeffs = p._coeffs
    acc: dict = {}
    for e, c in p._terms.items():
        cut = sum(((e >> shift) & _MASK) * unit for shift, unit in dropped)
        coeffs.addmul(acc, -cut, coeffs.one, {e: c})
    return p._like(coeffs.finish(acc))


class DerivedSystem:
    """Output of the symbolic derivation: the raw rows over all 56
    unknowns, and their projection onto the 40 main unknowns.

    ``cubic_rows`` holds the positions of the raw rows that impose the
    first curve's cubic-divisibility condition.
    """

    def __init__(self, rows, classical_ok, scales, cubic_rows=frozenset()):
        zero = F49.zero()
        self.raw = LinearSystem(_ALL_UNKNOWNS, rows,
                                [zero] * len(rows), F49)
        self.classical_ok = classical_ok
        self.tangent_scales = scales
        self.cubic_rows = cubic_rows
        # over cgdata.MAIN_UNKNOWNS in order: eliminate keeps the order of
        # the columns it does not project out
        self.system = eliminate(self.raw, AUX_UNKNOWNS)

    @property
    def rank(self) -> int:
        """The rank of the projected system: the pivots of its reduced
        form left of the right-hand-side column."""
        n = len(self.system.variables)
        return sum(c < n for c in self.system.reduced_form()[1])

    def without_cubic_condition(self) -> "DerivedSystem":
        """The sensitivity control: the same raw rows with the first
        curve's cubic-divisibility rows left out, eliminated anew; its row
        space must be strictly smaller.  The classical part is not
        re-checked, it is this system's."""
        rows = [row for k, row in enumerate(self.raw.rows)
                if k not in self.cubic_rows]
        return DerivedSystem(rows, self.classical_ok, self.tangent_scales)


def derive_rigidity_system() -> DerivedSystem:
    """Build the first-order rigidity system from the curve equations, in
    one pass; ``DerivedSystem.without_cubic_condition`` gives the weakened
    control from the same rows."""
    curves = {1: cgdata.parsed(cgdata.G1, cgdata.AB, F49),
              2: cgdata.parsed(cgdata.G2, cgdata.AB, F49)}
    clouds = {1: _coefficient_form("a"), 2: _coefficient_form("b")}
    rows: list[list[Element]] = []
    cubic_rows: list[int] = []
    classical_ok = True
    scales: dict[tuple[int, int], Element] = {}

    def deformed(tag: int, chart: int) -> tuple[MPoly, dict[str, MPoly]]:
        """A curve in a chart: classical part, first-order part."""
        u, v = cgdata.CHARTS[chart]
        g = dehomogenize(curves[tag], chart)
        form = {n: dehomogenize(p, chart) for n, p in clouds[tag].items()}
        form[f"c{chart}"] = g.partial_derivative(u)
        form[f"d{chart}"] = g.partial_derivative(v)
        return g, form

    def impose(classical: MPoly, first_order: Form) -> range:
        """Record a condition; returns the positions of its rows."""
        nonlocal classical_ok
        classical_ok = classical_ok and classical.is_zero()
        start = len(rows)
        rows.extend(_monomial_rows(first_order))
        return range(start, len(rows))

    for tag, partner, double_charts, scale_aux in (
            (1, 2, cgdata.CURVE1_DOUBLE_CHARTS, "m'"),
            (2, 1, cgdata.CURVE2_DOUBLE_CHARTS, "n'")):
        for chart in (1, 2, 3, 4):
            u, v = uv = cgdata.CHARTS[chart]
            g, form = deformed(tag, chart)
            # passes through the point
            impose(g.graded_part(0, uv), _graded(form, 0, uv))
            if chart not in double_charts:
                continue
            # singular at the point
            impose(g.graded_part(1, uv), _graded(form, 1, uv))
            gp, gp_form = deformed(partner, chart)
            p1, p1_form = gp.graded_part(1, uv), _graded(gp_form, 1, uv)
            g2, p1_sq = g.graded_part(2, uv), p1 * p1
            lam = unit_match(g2, p1_sq)
            if lam is None:
                raise ArithmeticError("quadratic parts are not proportional")
            scales[(tag, chart)] = lam
            # G2 = (lam + m') * P1^2
            impose(g2 - p1_sq.scale(lam),
                   _add(_graded(form, 2, uv),
                        _times(p1.scale(F49.from_int(-2) * lam), p1_form),
                        {f"{scale_aux}{chart}": -p1_sq}))
            g3 = g.graded_part(3, uv)
            h = _divide_by_linear(g3, p1, u, v)
            if h is None:
                raise ArithmeticError(
                    "cubic part is not divisible by the tangent line")
            # G3 = P1 * (h + h1), h1 a general quadratic form in u, v
            U, V = (MPoly.variable(cgdata.AB, F49, n) for n in uv)
            h1 = {f"h{tag}u{chart}q{t}": -(p1 * m)
                  for t, m in enumerate((U * U, U * V, V * V))}
            cubic = impose(g3 - p1 * h,
                           _add(_graded(form, 3, uv), _times(-h, p1_form), h1))
            if tag == 1:
                cubic_rows.extend(cubic)
    return DerivedSystem(rows, classical_ok, scales, frozenset(cubic_rows))


# ----------------------------------------------------------------------
# diagonal-point rows

_X = VarRegistry(("x",))


@lru_cache(maxsize=None)
def diagonal_cloud(prefix: str) -> Mapping[str, MPoly]:
    """Coefficient cloud restricted to the diagonal curve, denominators
    cleared: substitute the first-factor coordinates (1-x, 1+x).  A linear
    form over the cloud's 16 unknowns with entries in x."""
    return MappingProxyType({
        f"{prefix}{i}{j}": cgdata.parsed(f"(1+x)^{3 - i}*(1-x)^{i}*x^{j}",
                                         _X, F49)
        for i in range(4) for j in range(4)})


def q_beta(k: int) -> Element:
    """The be-coordinate of the k-th diagonal point of ``cgdata.Q_POINTS``."""
    return F49.element(cgdata.Q_POINTS[k][1])


@lru_cache(maxsize=None)
def diagonal_rows() -> Mapping[str, tuple[Element, ...]]:
    """The published value/derivative rows at the six diagonal points,
    as linear forms over the 40 main unknowns."""
    g1hat = diagonal_cloud("a")
    g2hat = diagonal_cloud("b")
    dg1hat = derivative(g1hat, "x")
    dg2hat = derivative(g2hat, "x")

    def at(form: Form, k: int) -> tuple[Element, ...]:
        return _row_at(form, {"x": q_beta(k)})

    rows = {
        "B1Q1": at(g1hat, 1), "B1Q2": at(g1hat, 2),
        "B2Q1": at(g2hat, 1), "B2Q2": at(g2hat, 2),
        "B1Q3": at(g1hat, 3), "B1Q4": at(g1hat, 4),
        "B2Q5": at(g2hat, 5), "B2Q6": at(g2hat, 6),
        "dB1Q3": at(dg1hat, 3), "dB1Q4": at(dg1hat, 4),
        "dB2Q5": at(dg2hat, 5), "dB2Q6": at(dg2hat, 6),
    }
    rows.update(flex_rows())
    return MappingProxyType(rows)


_YX = VarRegistry(("y", "x"))


def affine_cloud(prefix: str) -> dict[str, MPoly]:
    """A curve's coefficient cloud in the affine coordinates y = al,
    x = be of chart 4, as a linear form with entries in (y, x)."""
    one = F49.one()
    return {f"{prefix}{i}{j}": MPoly(_YX, F49, {(i, j): one})
            for i in range(4) for j in range(4)}


def affine_row(form: Form, alpha: Element,
               beta: Element) -> tuple[Element, ...]:
    """The linear form of an affine cloud at (alpha, beta), as a row over
    the 40 main unknowns."""
    return _row_at(form, {"y": alpha, "x": beta})


@lru_cache(maxsize=None)
def flex_rows() -> Mapping[str, tuple[Element, ...]]:
    """Value and fiber-direction derivative rows of the first curve's
    cloud at the two transverse diagonal points 1 and 2 of
    ``cgdata.Q_POINTS`` (affine chart 4)."""
    cloud = affine_cloud("a")
    d_along_fiber = derivative(cloud, "y")
    out = {}
    for k in (1, 2):
        alpha, beta = map(F49.element, cgdata.Q_POINTS[k])
        out[f"van{k}"] = affine_row(cloud, alpha, beta)
        out[f"dB1Q{k}"] = affine_row(d_along_fiber, alpha, beta)
    return MappingProxyType(out)


# ----------------------------------------------------------------------
# substitution maps and the published systems

_MAIN_REG = VarRegistry(cgdata.MAIN_UNKNOWNS)


@lru_cache(maxsize=None)
def published_substitution_map() -> Mapping[str, MPoly]:
    """The 21 published eliminations, iterated until every dependent
    unknown is expressed over the 19 essentials."""
    dependents = set(cgdata.PUBLISHED_SUBSTITUTIONS)
    maps = {var: cgdata.parsed(text, _MAIN_REG, F49)
            for var, text in cgdata.PUBLISHED_SUBSTITUTIONS.items()}
    changed = True
    while changed:
        changed = False
        for var, p in maps.items():
            unresolved = p.variables_used() & dependents
            bindable = {n: maps[n] for n in unresolved
                        if not maps[n].variables_used() & dependents}
            if bindable:
                maps[var] = p.substitute(bindable)
                changed = True
    for var, p in maps.items():
        if p.variables_used() & dependents:
            raise ArithmeticError(f"substitution for {var} did not resolve")
    return MappingProxyType(maps)


@lru_cache(maxsize=None)
def essential_coefficients() -> Mapping[str, tuple[tuple[int, Element], ...]]:
    """Each main unknown's nonzero coefficients on the 19 essentials, as
    (position, coefficient) pairs: an essential is itself, and a dependent
    unknown is read once from the published substitution map."""
    table = {v: ((k, F49.one()),)
             for k, v in enumerate(cgdata.ESSENTIAL_UNKNOWNS)}
    for name, p in published_substitution_map().items():
        coeffs = (p.coefficient({v: 1}) for v in cgdata.ESSENTIAL_UNKNOWNS)
        table[name] = tuple((k, c) for k, c in enumerate(coeffs)
                            if not c.is_zero())
    return MappingProxyType(table)


def to_essential(row) -> tuple[Element, ...]:
    """Push a 40-unknown row down to the 19 essentials via the published
    substitution map."""
    table = essential_coefficients()
    acc = [F49.zero()] * len(cgdata.ESSENTIAL_UNKNOWNS)
    for name, coeff in zip(cgdata.MAIN_UNKNOWNS, row):
        if not coeff.is_zero():
            for k, c in table[name]:
                acc[k] = acc[k] + coeff * c
    return tuple(acc)


def rows_from_texts(texts) -> list[list[Element]]:
    """Homogeneous linear forms given as grammar text, over the 40 main
    unknowns."""
    rows = []
    for text in texts:
        p = cgdata.parsed(text, _MAIN_REG, F49)
        if p.graded_part(1) != p:
            raise ArithmeticError("expected a homogeneous linear form")
        row = [F49.zero()] * len(_MAIN_REG)
        for exps, c in p.terms.items():
            row[exps.index(1)] = c
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def leftover_rows() -> tuple[tuple[Element, ...], ...]:
    rows40 = rows_from_texts(cgdata.LEFTOVER_RELATIONS)
    return tuple(to_essential(r) for r in rows40)


@lru_cache(maxsize=None)
def essential_diagonal_rows() -> Mapping[str, tuple[Element, ...]]:
    """Each of the ``diagonal_rows``, pushed down to the 19 essentials."""
    return MappingProxyType({name: to_essential(row)
                             for name, row in diagonal_rows().items()})


def stacked_system(unknowns, rows, named_rows: Mapping[str, tuple],
                   zero_rows, unit_rows) -> LinearSystem:
    """The homogeneous ``rows``, then the ``named_rows`` listed in
    ``zero_rows`` set to 0 and those in ``unit_rows`` set to 1."""
    rows = [*rows, *(named_rows[n] for n in (*zero_rows, *unit_rows))]
    rhs = ([F49.zero()] * (len(rows) - len(unit_rows))
           + [F49.one()] * len(unit_rows))
    return LinearSystem(unknowns, rows, rhs, F49)


@lru_cache(maxsize=None)
def build_published_system(zero_rows, unit_rows) -> LinearSystem:
    """A published deformation system over the 19 essentials; built once
    for each pair of row-name tuples, so its reduced form is kept."""
    return stacked_system(cgdata.ESSENTIAL_UNKNOWNS, leftover_rows(),
                          essential_diagonal_rows(), zero_rows, unit_rows)


def solve_published_system(spec) -> tuple[bool, int | None]:
    sol = solve_affine(build_published_system(spec.zero_rows,
                                              spec.unit_rows))
    if not sol.is_consistent():
        return False, None
    return True, sol.dimension
