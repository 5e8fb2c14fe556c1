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
coefficient cloud or its derivative at a point, pushes each of them down
to the 19 essential unknowns once, and solves those systems over GF(49).

The packed monomials of ``poly.MPoly`` stay inside ``poly``: this module
reads polynomials through their ``terms`` view and changes charts with
``MPoly.dehomogenize``.  The derivation changes each curve to each chart
once and builds each cloud in chart coordinates.  Point rows of a cloud
come from ``linser.condition_row``; the diagonal rows, which the scenario
layer checks against them, keep their own route on GF(49) codes: the
binomial closed form and one power ladder.  Published linear forms are
read from the codes of their terms.  Rows are tuples of interned
``Element``s.

Everything below is derived symbolically from the two curve equations;
the published displays enter only as comparison targets in the scenario
layer.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Mapping

from . import cgdata
from .curvelocal import _divide_by_linear
from .linalg import LinearSystem, eliminate, solve_affine
from .linser import PassThrough, TangentDirection, condition_row
from .poly import MPoly, VarRegistry, unit_match
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
    """The nonzero graded parts of a linear form's entries."""
    return {name: part for name, p in form.items()
            if not (part := p.graded_part(degree, names)).is_zero()}


def _monomial_rows(form: Form) -> list[list[Element]]:
    """One row per monomial of a linear form over ``cgdata.AB``, in sorted
    order of exponent vectors: the coefficients of the unknowns at that
    monomial."""
    zero = F49.zero()
    rows: dict[tuple[int, ...], list[Element]] = {}
    for name, p in form.items():
        column = _COLUMN[name]
        for exps, c in p.terms.items():
            rows.setdefault(exps, [zero] * len(_ALL_UNKNOWNS))[column] = c
    return [rows[exps] for exps in sorted(rows)]


def _coefficient_form(prefix: str, chart: int) -> dict[str, MPoly]:
    """A bidegree-(3,3) coefficient cloud in the coordinates of a chart:
    unknown -> its monomial, with the two coordinates that the chart does
    not keep set to 1."""
    one = F49.one()
    kept = [name in cgdata.CHARTS[chart] for name in cgdata.AB.names]
    return {f"{prefix}{i}{j}": MPoly(cgdata.AB, F49, {
        tuple(e if k else 0 for e, k in zip((i, 3 - i, j, 3 - j), kept)): one})
        for i in range(4) for j in range(4)}


class DerivedSystem:
    """Output of the symbolic derivation: the raw rows over all 56
    unknowns, and their projection onto the 40 main unknowns.

    ``cubic_rows`` holds the positions of the raw rows that impose the
    first curve's cubic-divisibility condition.
    """

    def __init__(self, rows, classical_ok, cubic_rows=frozenset()):
        zero = F49.zero()
        self.raw = LinearSystem(_ALL_UNKNOWNS, rows,
                                [zero] * len(rows), F49)
        self.classical_ok = classical_ok
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
        return DerivedSystem(rows, self.classical_ok)


def derive_rigidity_system() -> DerivedSystem:
    """Build the first-order rigidity system from the curve equations, in
    one pass; ``DerivedSystem.without_cubic_condition`` gives the weakened
    control from the same rows."""
    curves = {1: cgdata.parsed(cgdata.G1, cgdata.AB, F49),
              2: cgdata.parsed(cgdata.G2, cgdata.AB, F49)}
    rows: list[list[Element]] = []
    cubic_rows: list[int] = []
    classical_ok = True

    def deformed(tag: int, chart: int) -> tuple[MPoly, dict[str, MPoly]]:
        """A curve in a chart: classical part, first-order part."""
        kept = u, v = cgdata.CHARTS[chart]
        g = curves[tag].dehomogenize(kept)
        form = _coefficient_form({1: "a", 2: "b"}[tag], chart)
        form[f"c{chart}"] = g.partial_derivative(u)
        form[f"d{chart}"] = g.partial_derivative(v)
        return g, form

    # each curve in each chart, built once: a double chart of one curve
    # reads the other curve there too
    charts = {(tag, chart): deformed(tag, chart)
              for tag in (1, 2) for chart in (1, 2, 3, 4)}

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
            g, form = charts[(tag, chart)]
            # passes through the point
            impose(g.graded_part(0, uv), _graded(form, 0, uv))
            if chart not in double_charts:
                continue
            # singular at the point
            impose(g.graded_part(1, uv), _graded(form, 1, uv))
            gp, gp_form = charts[(partner, chart)]
            p1, p1_form = gp.graded_part(1, uv), _graded(gp_form, 1, uv)
            g2, p1_sq = g.graded_part(2, uv), p1 * p1
            lam = unit_match(g2, p1_sq)
            if lam is None:
                raise ArithmeticError("quadratic parts are not proportional")
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
    return DerivedSystem(rows, classical_ok, frozenset(cubic_rows))


# ----------------------------------------------------------------------
# point rows of a coefficient cloud
#
# A row entry is the value at a point of one polynomial of a coefficient
# cloud, or of its derivative: from ``linser.condition_row`` in chart 4,
# and from the cleared cloud's terms and one power ladder on the diagonal.

_MAIN_REG = VarRegistry(cgdata.MAIN_UNKNOWNS)


def _ladders(x: Element, top: int) -> tuple[list[int], list[int]]:
    """The codes of x**k and of its derivative k * x**(k-1), for k = 0 ..
    ``top``."""
    mul = F49.tables.mul
    powers = [1]
    for _ in range(top):
        powers.append(mul[x.payload][powers[-1]])
    slopes = [0] + [mul[F49.from_int(k).payload][powers[k - 1]]
                    for k in range(1, top + 1)]
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
    mul, add = F49.tables.mul, F49.tables.add
    powers, slopes = _ladders(q_point(k)[1], 6)
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
    mul, add = F49.tables.mul, F49.tables.add
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
