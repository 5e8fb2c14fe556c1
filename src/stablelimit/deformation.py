"""First-order equisingular deformation machinery for the curve pair.

The two bidegree-(3,3) curves carry a fixed singularity pattern: each has
two double points of tacnodal type whose tangent cones match the other
curve's tangent line.  A first-order deformation moves the base point of
chart k by (c_k, d_k) and adds a general coefficient cloud to each
equation.  ``chart_curve`` gives a curve g in chart (u, v) with its
first-order part c*dg/du + d*dg/dv + gbar, kept as a *linear form*: the
chart monomial of each cloud unknown, and the polynomial in the chart
coordinates of each of c and d.  Preserving the pattern
imposes passage through each displaced base point and, at a double point,
that the curve is singular there, that its quadratic part G2 is a multiple
of the square of the partner's deformed tangent line p1 = alpha*u +
beta*v, and that its cubic part G3 is divisible by p1.  Each condition is
read against monomial weights at a point: passage and singularity at the
origin, the rest at the root r = (beta, -alpha) of p1, with w a coordinate
in which d_w p1 != 0.  A binary quadratic is a multiple of p1^2 exactly
when it and its w-derivative vanish at r, and a binary cubic is divisible
by p1 exactly when it vanishes at r.  With P1' the first-order part of
p1, ``tacnode_rows`` gives the five rows of one double point from the
chart and the two curves' classical parts and forms: the two singular
rows, then

  G2'(r),   d_w G2'(r) - s * P1'(r),   G3'(r) - h(r) * P1'(r),

with s = d_w d_w G2 / d_w p1 and h(r) = d_w G3(r) / d_w p1, and whether
every classical part vanished and s was nonzero.
``derive_rigidity_system`` stacks the eight passage rows and the rows of
the four double points: 28 rows over the 40 coefficient and displacement
unknowns, held with ``classical_ok`` in an immutable ``DerivedSystem``.
The weakened negative control is those rows without the first curve's
cubic ones.

Independently the module builds the diagonal-point value and derivative
rows used by the published deformation systems, each a coefficient cloud
or its derivative at a point, pushes each of them down to the 19
essential unknowns once, and solves those systems over GF(49).

The packed monomials of ``poly.MPoly`` stay inside ``poly``: this module
reads polynomials through their ``terms`` view, not ``MPoly.evaluate``,
and changes charts with ``MPoly.dehomogenize``.  The derivation changes
each curve to each chart once and works on GF(49) codes: the weights are
codes from power ladders, a polynomial is read by the codes of its terms
through ``F49.mul`` and ``F49.add``, and a cloud unknown's entry is the
weight of its monomial; its rows become interned ``Element``s at the
end.  Point rows of a cloud come from ``linser.condition_row``; the
diagonal rows, which the scenario layer checks against them, have their
own route on codes: the binomial closed form and one power ladder.
Published linear forms are read from the codes of their terms.  Rows are
tuples of interned ``Element``s.

Everything below is derived symbolically from the two curve equations;
the published displays enter only as comparison targets in the scenario
layer.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Mapping

from . import cgdata
from .linalg import LinearSystem, solve_affine
from .linser import PassThrough, TangentDirection, condition_row
from .poly import MPoly, VarRegistry
from .rings import Element, Frozen, QuadraticField


F49 = QuadraticField(cgdata.PRIME)

_MAIN_REG = VarRegistry(cgdata.MAIN_UNKNOWNS)

# A linear form over the unknowns: the chart monomial of each coefficient
# cloud unknown, and the polynomial coefficient of each other unknown.
Form = tuple[Mapping[str, tuple[int, ...]], Mapping[str, MPoly]]
# Monomial weights: exponent vector over ``cgdata.AB`` -> code of its weight.
Weights = Mapping[tuple[int, ...], int]


def _weights(uv, degree: int, point, along: int | None) -> Weights:
    """The chart monomials u^i v^j of one degree, weighted by the codes of
    their values at the ``point`` of codes, or, with ``along`` 0 (u) or 1
    (v), of their derivatives in that coordinate there (0 for a monomial
    free of it)."""
    # each coordinate's powers, or along ``along`` its slopes
    xs, ys = (_ladders(x, degree)[k == along] for k, x in enumerate(point))
    iu, iv = (cgdata.AB.index[name] for name in uv)
    out = {}
    for i in range(degree + 1):
        monomial = [0] * len(cgdata.AB)
        monomial[iu], monomial[iv] = i, degree - i
        out[tuple(monomial)] = F49.mul[xs[i]][ys[degree - i]]
    return out


def _read(p: MPoly, weights: Weights) -> int:
    """The code of the sum of c * weights[m] over the terms c*m of p whose
    monomial m has a weight."""
    mul, add, terms = F49.mul, F49.add, p.terms
    acc = 0
    for exps, weight in weights.items():
        c = terms.get(exps)
        if c is not None:
            acc = add[acc][mul[c.payload][weight]]
    return acc


def _row(form: Form, weights: Weights) -> list[int]:
    """A linear form read against monomial weights: a row of codes over
    the 40 main unknowns."""
    cloud, coefficients = form
    row = [0] * len(_MAIN_REG)
    for name, monomial in cloud.items():
        row[_MAIN_REG.index[name]] = weights.get(monomial, 0)
    for name, p in coefficients.items():
        row[_MAIN_REG.index[name]] = _read(p, weights)
    return row


class DerivedSystem(Frozen):
    """Output of the symbolic derivation: the homogeneous rigidity system
    over the 40 main unknowns, one row per imposed condition, and whether
    the classical part of every condition held; immutable, so the one
    cached derivation cannot be changed by whoever reads it.

    ``cubic_rows`` holds the positions of the rows that impose the first
    curve's cubic-divisibility condition, one per double point.
    """

    __slots__ = ("system", "classical_ok", "cubic_rows")

    def __init__(self, rows, classical_ok, cubic_rows=frozenset()):
        _set_system(self, LinearSystem(cgdata.MAIN_UNKNOWNS, rows,
                                       [F49.zero()] * len(rows), F49))
        _set_classical_ok(self, classical_ok)
        _set_cubic_rows(self, cubic_rows)

    @property
    def rank(self) -> int:
        """The rank of the system: the pivots of its reduced form, none of
        them in the zero right-hand-side column."""
        return len(self.system.reduced_form()[1])

    def without_cubic_condition(self) -> "DerivedSystem":
        """The sensitivity control: the same rows with the first curve's
        cubic-divisibility rows left out; its row space must be strictly
        smaller.  The classical part is not re-checked, it is this
        system's."""
        rows = [row for k, row in enumerate(self.system.rows)
                if k not in self.cubic_rows]
        return DerivedSystem(rows, self.classical_ok)


# filled through the slot descriptors, which bypass the guard of ``Frozen``
_set_system, _set_classical_ok, _set_cubic_rows = (
    getattr(DerivedSystem, name).__set__ for name in DerivedSystem.__slots__)


# the suffix ij of each cloud unknown, and its exponents over ``cgdata.AB``
_CLOUD_EXPONENTS = tuple((f"{i}{j}", (i, 3 - i, j, 3 - j))
                         for i in range(4) for j in range(4))


def chart_curve(curve: MPoly, prefix: str, chart: int) -> tuple[MPoly, Form]:
    """A bidegree-(3,3) curve in the coordinates (u, v) of a chart: its
    classical part g, and its first-order form, the coefficient cloud
    ``prefix`` plus c_chart * dg/du + d_chart * dg/dv.  The cloud unknown
    prefix{i}{j} stands for the chart monomial of al^i al'^(3-i) be^j
    be'^(3-j), the two coordinates that the chart drops set to 1."""
    kept = u, v = cgdata.CHARTS[chart]
    g = curve.dehomogenize(kept)
    mask = [int(name in kept) for name in cgdata.AB.names]
    cloud = {prefix + ij: tuple(map(operator.mul, exps, mask))
             for ij, exps in _CLOUD_EXPONENTS}
    return g, (cloud, {f"c{chart}": g.partial_derivative(u),
                       f"d{chart}": g.partial_derivative(v)})


def tacnode_rows(chart: int, g: MPoly, form: Form, gp: MPoly,
                 gp_form: Form) -> tuple[list[list[Element]], bool]:
    """The five rows of a double point at the origin of a chart, for the
    curve (g, form) and its partner (gp, gp_form): the two singular rows,
    then G2'(r), d_w G2'(r) - s * P1'(r) and G3'(r) - h(r) * P1'(r).  Also
    whether every classical part vanished and s != 0."""
    uv = cgdata.CHARTS[chart]
    mul, sub = F49.mul, F49.sub
    singular = [_weights(uv, 1, (0, 0), w) for w in (0, 1)]
    # the partner's tangent line p1 = alpha*u + beta*v has the root
    # r = (beta, -alpha); w is a coordinate with d_w p1 != 0
    alpha, beta = (_read(gp, weights) for weights in singular)
    w = 0 if alpha else 1
    # 1 / d_w p1, and 0 when p1 = 0, which fails the check s != 0
    inverse = F49.inv[(alpha, beta)[w]] or 0
    root = (beta, sub[0][alpha])
    tangent = _row(gp_form, _weights(uv, 1, root, None))       # P1'(r)
    # G2 = lambda p1^2 with lambda != 0: G2 and d_w G2 vanish at r, and
    # the first-order part follows p1 at the rate
    # s = d_w d_w G2 / d_w p1 = 2 lambda d_w p1
    s = mul[_read(g, _weights(uv, 2, ((1, 0), (0, 1))[w], w))][inverse]
    # G3 = p1 h: G3 vanishes at r, and h(r) = d_w G3(r) / d_w p1
    h = mul[_read(g, _weights(uv, 3, root, w))][inverse]
    rows = [_row(form, weights) for weights in singular]
    classical = [_read(g, weights) for weights in singular]
    for weights, scale in ((_weights(uv, 2, root, None), 0),
                           (_weights(uv, 2, root, w), s),
                           (_weights(uv, 3, root, None), h)):
        classical.append(_read(g, weights))
        rows.append([sub[a][mul[scale][b]]
                     for a, b in zip(_row(form, weights), tangent)])
    elements = F49._elements
    return ([[elements[c] for c in row] for row in rows],
            s != 0 and not any(classical))


def derive_rigidity_system() -> DerivedSystem:
    """Build the first-order rigidity system from the curve equations, in
    one pass: per curve and chart the passage row, and at each double
    point the ``tacnode_rows``.  ``DerivedSystem.without_cubic_condition``
    gives the weakened control from the same rows."""
    curves = {"a": cgdata.parsed(cgdata.G1, cgdata.AB, F49),
              "b": cgdata.parsed(cgdata.G2, cgdata.AB, F49)}
    # each curve in each chart, built once: a double chart of one curve
    # reads the other curve there too
    charts = {(prefix, chart): chart_curve(curve, prefix, chart)
              for prefix, curve in curves.items() for chart in (1, 2, 3, 4)}
    # passage through a chart's origin: the constant term
    passage = {(0,) * len(cgdata.AB): 1}
    elements = F49._elements
    rows, cubic_rows, classical_ok = [], [], True
    for prefix, partner, double_charts in (
            ("a", "b", cgdata.CURVE1_DOUBLE_CHARTS),
            ("b", "a", cgdata.CURVE2_DOUBLE_CHARTS)):
        for chart in (1, 2, 3, 4):
            g, form = charts[(prefix, chart)]
            classical_ok = classical_ok and not _read(g, passage)
            rows.append([elements[c] for c in _row(form, passage)])
            if chart in double_charts:
                tacnode, ok = tacnode_rows(chart, g, form,
                                           *charts[(partner, chart)])
                rows += tacnode
                classical_ok = classical_ok and ok
                if prefix == "a":
                    cubic_rows.append(len(rows) - 1)
    return DerivedSystem(rows, classical_ok, frozenset(cubic_rows))


# ----------------------------------------------------------------------
# point rows of a coefficient cloud
#
# A row entry is the value at a point of one polynomial of a coefficient
# cloud, or of its derivative: from ``linser.condition_row`` in chart 4,
# and from the cleared cloud's terms and one power ladder on the diagonal.


def _ladders(x: int, top: int) -> tuple[list[int], list[int]]:
    """The codes of x**k and of its derivative k * x**(k-1), for the code x
    and k = 0 .. ``top``."""
    mul, add = F49.mul, F49.add
    powers, slopes, k = [1], [0], 0
    for _ in range(top):
        k = add[k][1]                       # the code of the next k
        slopes.append(mul[k][powers[-1]])
        powers.append(mul[x][powers[-1]])
    return powers, slopes


def cloud_row(prefix: str, entries) -> tuple[Element, ...]:
    """A row over the 40 main unknowns: the 16 ``entries`` at the unknowns
    prefix{i}{j} of one cloud, i outer and j inner, and 0 at the others.
    The cloud's unknowns stand in that order in ``cgdata.MAIN_UNKNOWNS``."""
    start = _MAIN_REG.index[f"{prefix}00"]
    row = [F49.zero()] * len(_MAIN_REG)
    row[start:start + 16] = entries
    return tuple(row)


_X = VarRegistry(("x",))


@lru_cache(maxsize=None)
def diagonal_cloud(prefix: str) -> Mapping[str, MPoly]:
    """Coefficient cloud restricted to the diagonal curve, denominators
    cleared: substitute the first-factor coordinates (1-x, 1+x).  A linear
    form over the cloud's 16 unknowns with entries in x.  The entry of
    prefix{i}{j} is (1+x)^(3-i) * (1-x)^i * x^j, whose coefficient of
    x^(j+m) is the sum over s of (-1)^s * C(i, s) * C(3-i, m-s)."""
    cloud = {}
    for i in range(4):
        binomial = [
            F49.from_int(sum((-1) ** s * comb(i, s) * comb(3 - i, m - s)
                             for s in range(m + 1)))
            for m in range(4)]
        for j in range(4):
            cloud[f"{prefix}{i}{j}"] = MPoly(_X, F49, {
                (j + m,): c for m, c in enumerate(binomial)})
    return MappingProxyType(cloud)


def q_point(k: int) -> tuple[Element, Element]:
    """The k-th diagonal point of ``cgdata.Q_POINTS``: its affine
    coordinates (al, be) in chart 4."""
    return tuple(map(F49.element, cgdata.Q_POINTS[k]))


def _diagonal_row(prefix: str, k: int,
                  slope: bool = False) -> tuple[Element, ...]:
    """``diagonal_cloud(prefix)`` at x = be of the k-th diagonal point, or
    with ``slope`` its derivative in x there, as a row over the 40 main
    unknowns."""
    mul, add = F49.mul, F49.add
    powers, slopes = _ladders(q_point(k)[1].payload, 6)
    ladder = slopes if slope else powers
    entries = []
    for p in diagonal_cloud(prefix).values():
        acc = 0
        for (e,), c in p.terms.items():
            acc = add[acc][mul[c.payload][ladder[e]]]
        entries.append(F49._elements[acc])
    return cloud_row(prefix, entries)


@lru_cache(maxsize=None)
def diagonal_rows() -> Mapping[str, tuple[Element, ...]]:
    """The published value/derivative rows at the six diagonal points,
    as linear forms over the 40 main unknowns."""
    at = _diagonal_row
    rows = {
        "B1Q1": at("a", 1), "B1Q2": at("a", 2),
        "B2Q1": at("b", 1), "B2Q2": at("b", 2),
        "B1Q3": at("a", 3), "B1Q4": at("a", 4),
        "B2Q5": at("b", 5), "B2Q6": at("b", 6),
        "dB1Q3": at("a", 3, True), "dB1Q4": at("a", 4, True),
        "dB2Q5": at("b", 5, True), "dB2Q6": at("b", 6, True),
    }
    rows.update(flex_rows())
    return MappingProxyType(rows)


def point_row(prefix: str, alpha: Element, beta: Element,
              direction=None) -> tuple[Element, ...]:
    """``linser.condition_row`` of a cloud at the point (alpha, beta) of
    chart 4, where prefix{i}{j} stands for y^i x^j with y = al, x = be: its
    value, or its derivative along the tangent vector ``direction``."""
    point = ((alpha, F49.one()), (beta, F49.one()))
    cond = (PassThrough(point) if direction is None
            else TangentDirection(point, direction))
    return cloud_row(prefix, condition_row(3, 3, cond, F49))


@lru_cache(maxsize=None)
def flex_rows() -> Mapping[str, tuple[Element, ...]]:
    """Value and fiber-direction derivative rows of the first curve's
    cloud at the two transverse diagonal points 1 and 2 of
    ``cgdata.Q_POINTS`` (affine chart 4)."""
    fiber = (F49.one(), F49.zero())
    out = {}
    for k in (1, 2):
        out[f"van{k}"] = point_row("a", *q_point(k))
        out[f"dB1Q{k}"] = point_row("a", *q_point(k), fiber)
    return MappingProxyType(out)


# ----------------------------------------------------------------------
# substitution maps and the published systems

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


def _linear_codes(p: MPoly) -> dict[int, int]:
    """The code of each nonzero coefficient of a homogeneous linear form
    over the main unknowns, keyed by the unknown's column: the position
    of the one exponent of its term.  Any other polynomial raises
    ``ArithmeticError``."""
    codes = {}
    for exps, c in p.terms.items():
        if sum(exps) != 1:
            raise ArithmeticError("expected a homogeneous linear form")
        codes[exps.index(1)] = c.payload
    return codes


@lru_cache(maxsize=None)
def essential_coefficients() -> Mapping[str, tuple[tuple[int, int], ...]]:
    """Each main unknown's nonzero coefficients on the 19 essentials, as
    (position, code) pairs in order of position: an essential is itself,
    and a dependent unknown is read once from the published substitution
    map."""
    position = {_MAIN_REG.index[v]: k
                for k, v in enumerate(cgdata.ESSENTIAL_UNKNOWNS)}
    table = {v: ((k, 1),) for k, v in enumerate(cgdata.ESSENTIAL_UNKNOWNS)}
    for name, p in published_substitution_map().items():
        table[name] = tuple(sorted((position[column], c) for column, c
                                   in _linear_codes(p).items()))
    return MappingProxyType(table)


def to_essential(row) -> tuple[Element, ...]:
    """Push a 40-unknown row down to the 19 essentials via the published
    substitution map, on the codes."""
    table = essential_coefficients()
    mul, add = F49.mul, F49.add
    acc = [0] * len(cgdata.ESSENTIAL_UNKNOWNS)
    for name, coeff in zip(cgdata.MAIN_UNKNOWNS, row):
        if coeff.payload:
            times = mul[coeff.payload]
            for k, c in table[name]:
                acc[k] = add[acc[k]][times[c]]
    return tuple(map(F49._elements.__getitem__, acc))


def rows_from_texts(texts) -> list[list[Element]]:
    """Homogeneous linear forms given as grammar text, over the 40 main
    unknowns."""
    elements = F49._elements
    rows = []
    for text in texts:
        row = [elements[0]] * len(_MAIN_REG)
        for column, c in _linear_codes(cgdata.parsed(text, _MAIN_REG,
                                                     F49)).items():
            row[column] = elements[c]
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
