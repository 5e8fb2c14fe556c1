"""First-order equisingular deformation machinery for the curve pair.

The two bidegree-(3,3) curves carry a fixed singularity pattern: each has
two double points of tacnodal type whose tangent cones match the other
curve's tangent line.  A first-order deformation moves each double point
to a displaced position (eps*c_k, eps*d_k) in its chart and perturbs the
two equations by general eps-linear coefficient clouds.  Preserving the
pattern imposes, per double point:

  * the deformed curve passes through the displaced point,
  * it is singular there,
  * its quadratic part is proportional to the square of the partner
    curve's deformed linear part,
  * its cubic part is divisible by that deformed linear part,

and, per smooth base point, passage through the displaced point.  After
projecting out the proportionality and quotient auxiliaries, this module
produces the resulting homogeneous linear system in the 40 coefficient
and displacement unknowns; independently it builds the diagonal-point
value and derivative rows used by the published deformation systems, and
solves those systems over GF(49).

Everything below is derived symbolically from the two curve equations;
the published displays enter only as comparison targets in the scenario
layer.
"""

from __future__ import annotations

from functools import lru_cache

from . import cgdata
from .curvelocal import _divide_by_linear
from .linalg import LinearSystem, eliminate, rank, solve_affine
from .poly import MPoly, VarRegistry, parse_poly, unit_match
from .rings import Element, QuadraticField


F49 = QuadraticField(cgdata.PRIME)

AUX_UNKNOWNS = tuple(
    [f"m'{k}" for k in cgdata.CURVE1_DOUBLE_CHARTS]
    + [f"n'{k}" for k in cgdata.CURVE2_DOUBLE_CHARTS]
    + [f"h1u{k}q{t}" for k in cgdata.CURVE1_DOUBLE_CHARTS for t in range(3)]
    + [f"h2u{k}q{t}" for k in cgdata.CURVE2_DOUBLE_CHARTS for t in range(3)]
)

BIG = VarRegistry(("al", "al'", "be", "be'", "eps")
                  + cgdata.MAIN_UNKNOWNS + AUX_UNKNOWNS)
_ALL_UNKNOWNS = cgdata.MAIN_UNKNOWNS + AUX_UNKNOWNS
_UNKNOWN_INDEX = {n: BIG.index[n] for n in _ALL_UNKNOWNS}
_LOCAL_INDEX = tuple(BIG.index[n] for n in ("al", "al'", "be", "be'"))


def _p(text: str) -> MPoly:
    return parse_poly(text, BIG, F49)


def _coefficient_cloud(prefix: str) -> MPoly:
    terms = [f"{prefix}{i}{j}*al^{i}*al'^{3 - i}*be^{j}*be'^{3 - j}"
             for i in range(4) for j in range(4)]
    return _p("+".join(terms))


def dehomogenize(p: MPoly, chart: int) -> MPoly:
    """Set the two coordinates that a chart does not keep to 1."""
    u, v = cgdata.CHARTS[chart]
    one = MPoly.constant(p.registry, p.ring.one())
    return p.substitute({n: one for n in cgdata.AB.names if n not in (u, v)})


def _eps_truncate(p: MPoly) -> MPoly:
    return p.truncate("eps", 1)


def _split_eps(p: MPoly) -> tuple[MPoly, MPoly]:
    """(classical part, coefficient of eps) of an eps-linear polynomial."""
    e = BIG.index["eps"]
    classical, linear = {}, {}
    for exps, c in p.terms.items():
        if exps[e] == 0:
            classical[exps] = c
        else:
            stripped = list(exps)
            stripped[e] = 0
            linear[tuple(stripped)] = c
    return MPoly(BIG, F49, classical), MPoly(BIG, F49, linear)


def _linear_rows(eps_part: MPoly, unknowns) -> list[list[Element]]:
    """Group an eps-coefficient polynomial by local monomial into rows."""
    grouped: dict[tuple, dict[str, Element]] = {}
    for exps, c in eps_part.terms.items():
        local = tuple(exps[i] for i in _LOCAL_INDEX)
        carriers = [n for n, i in _UNKNOWN_INDEX.items() if exps[i] > 0]
        if len(carriers) != 1 or exps[_UNKNOWN_INDEX[carriers[0]]] != 1:
            raise ArithmeticError("eps-part is not linear in the unknowns")
        grouped.setdefault(local, {})[carriers[0]] = c
    zero = F49.zero()
    return [[grouped[loc].get(n, zero) for n in unknowns]
            for loc in sorted(grouped)]


def _h1_cloud(curve_tag: str, chart: int) -> MPoly:
    u, v = cgdata.CHARTS[chart]
    return (_p(f"h{curve_tag}u{chart}q0*{u}^2")
            + _p(f"h{curve_tag}u{chart}q1*{u}*{v}")
            + _p(f"h{curve_tag}u{chart}q2*{v}^2"))


class DerivedSystem:
    """Output of the symbolic derivation."""

    def __init__(self, rows, classical_ok, scales):
        zero = F49.zero()
        self.raw = LinearSystem(_ALL_UNKNOWNS, rows,
                                [zero] * len(rows), F49)
        self.classical_ok = classical_ok
        self.tangent_scales = scales
        self.system = eliminate(self.raw, AUX_UNKNOWNS)
        order = [self.system.variables.index(v)
                 for v in cgdata.MAIN_UNKNOWNS]
        self.system = LinearSystem(
            cgdata.MAIN_UNKNOWNS,
            [[row[i] for i in order] for row in self.system.rows],
            self.system.rhs, F49)

    @property
    def rank(self) -> int:
        return rank(self.system.rows, F49)


def derive_rigidity_system(skip_cubic_condition: bool = False) -> DerivedSystem:
    """Build the first-order rigidity system from the curve equations.

    ``skip_cubic_condition`` drops the divisibility condition on the
    first curve's cubic parts; it exists solely as a sensitivity control
    (the resulting row space must be strictly smaller).
    """
    g1, g2 = _p(cgdata.G1), _p(cgdata.G2)
    g1bar, g2bar = _coefficient_cloud("a"), _coefficient_cloud("b")
    rows: list[list[Element]] = []
    classical_ok = True
    scales: dict[tuple[int, int], Element] = {}

    def displaced(p: MPoly, chart: int) -> MPoly:
        u, v = cgdata.CHARTS[chart]
        return _eps_truncate(p.substitute({
            u: _p(u) + _p(f"eps*c{chart}"),
            v: _p(v) + _p(f"eps*d{chart}"),
        }))

    def add(identity: MPoly) -> None:
        nonlocal classical_ok
        classical, eps_part = _split_eps(identity)
        classical_ok = classical_ok and classical.is_zero()
        rows.extend(_linear_rows(eps_part, _ALL_UNKNOWNS))

    def impose(curve, partner, curve_bar, partner_bar, double_charts,
               scale_aux, h_tag, skip_cubic):
        for chart in (1, 2, 3, 4):
            u, v = cgdata.CHARTS[chart]
            G = displaced(dehomogenize(curve, chart)
                          + _p("eps") * dehomogenize(curve_bar, chart), chart)
            add(G.graded_part(0, (u, v)))          # passes through the point
            if chart not in double_charts:
                continue
            Gp = displaced(dehomogenize(partner, chart)
                           + _p("eps") * dehomogenize(partner_bar, chart),
                           chart)
            add(G.graded_part(1, (u, v)))          # singular at the point
            cls2 = dehomogenize(curve, chart).graded_part(2, (u, v))
            cls1 = dehomogenize(partner, chart).graded_part(1, (u, v))
            lam = unit_match(cls2, cls1 * cls1)
            if lam is None:
                raise ArithmeticError("quadratic parts are not proportional")
            scales[(int(h_tag), chart)] = lam
            Gp1 = Gp.graded_part(1, (u, v))
            lam_cloud = (MPoly.constant(BIG, lam)
                         + _p(f"eps*{scale_aux}{chart}"))
            add(_eps_truncate(G.graded_part(2, (u, v))
                              - lam_cloud * Gp1 * Gp1))
            if skip_cubic:
                continue
            h = _divide_by_linear(
                dehomogenize(curve, chart).graded_part(3, (u, v)),
                cls1, u, v)
            if h is None:
                raise ArithmeticError(
                    "cubic part is not divisible by the tangent line")
            add(_eps_truncate(G.graded_part(3, (u, v))
                              - Gp1 * (h + _p("eps") * _h1_cloud(h_tag, chart))))

    impose(g1, g2, g1bar, g2bar, cgdata.CURVE1_DOUBLE_CHARTS, "m'", "1",
           skip_cubic_condition)
    impose(g2, g1, g2bar, g1bar, cgdata.CURVE2_DOUBLE_CHARTS, "n'", "2",
           False)
    return DerivedSystem(rows, classical_ok, scales)


# ----------------------------------------------------------------------
# diagonal-point rows

_HAT = VarRegistry(("x",) + cgdata.MAIN_UNKNOWNS)


def _hp(text: str) -> MPoly:
    return parse_poly(text, _HAT, F49)


@lru_cache(maxsize=None)
def diagonal_cloud(prefix: str) -> MPoly:
    """Coefficient cloud restricted to the diagonal curve, denominators
    cleared: substitute the first-factor coordinates (1-x, 1+x)."""
    acc = MPoly.zero(_HAT, F49)
    for i in range(4):
        block = _hp("+".join(f"{prefix}{i}{j}*x^{j}" for j in range(4)))
        acc = acc + _hp(f"(1+x)^{3 - i}*(1-x)^{i}") * block
    return acc


def _row_of_linear_form(p: MPoly, registry: VarRegistry,
                        unknowns) -> list[Element]:
    zero = F49.zero()
    row = {n: zero for n in unknowns}
    for exps, c in p.terms.items():
        carriers = [k for k, e in enumerate(exps) if e]
        if len(carriers) != 1 or exps[carriers[0]] != 1:
            raise ArithmeticError("expected a homogeneous linear form")
        name = registry.names[carriers[0]]
        row[name] = row[name] + c
    return [row[n] for n in unknowns]


def q_beta(k: int) -> Element:
    re, im = cgdata.Q_BETA[k]
    return F49.element((re % 7, im % 7))


@lru_cache(maxsize=None)
def diagonal_rows() -> dict[str, list[Element]]:
    """The published value/derivative rows at the six diagonal points,
    as linear forms over the 40 main unknowns."""
    g1hat = diagonal_cloud("a")
    g2hat = diagonal_cloud("b")
    dg1hat = g1hat.partial_derivative("x")
    dg2hat = g2hat.partial_derivative("x")

    def at(p: MPoly, k: int) -> list[Element]:
        value = p.substitute({"x": MPoly.constant(_HAT, q_beta(k))})
        return _row_of_linear_form(value, _HAT, cgdata.MAIN_UNKNOWNS)

    rows = {
        "B1Q1": at(g1hat, 1), "B1Q2": at(g1hat, 2),
        "B2Q1": at(g2hat, 1), "B2Q2": at(g2hat, 2),
        "B1Q3": at(g1hat, 3), "B1Q4": at(g1hat, 4),
        "B2Q5": at(g2hat, 5), "B2Q6": at(g2hat, 6),
        "dB1Q3": at(dg1hat, 3), "dB1Q4": at(dg1hat, 4),
        "dB2Q5": at(dg2hat, 5), "dB2Q6": at(dg2hat, 6),
    }
    rows.update(flex_rows())
    return rows


_AFFINE = VarRegistry(("y", "x") + cgdata.MAIN_UNKNOWNS)


def affine_cloud(prefix: str) -> MPoly:
    """A curve's coefficient cloud in the affine coordinates y = al,
    x = be of chart 4."""
    return parse_poly("+".join(f"{prefix}{i}{j}*y^{i}*x^{j}"
                               for i in range(4) for j in range(4)),
                      _AFFINE, F49)


def affine_row(p: MPoly, alpha: Element, beta: Element) -> list[Element]:
    """The linear form p(alpha, beta) of an affine cloud polynomial, as a
    row over the 40 main unknowns."""
    sub = {"y": MPoly.constant(_AFFINE, alpha),
           "x": MPoly.constant(_AFFINE, beta)}
    return _row_of_linear_form(p.substitute(sub), _AFFINE,
                               cgdata.MAIN_UNKNOWNS)


@lru_cache(maxsize=None)
def flex_rows() -> dict[str, list[Element]]:
    """Value and fiber-direction derivative rows of the first curve's
    cloud at the two transverse diagonal points (affine chart 4)."""
    cloud = affine_cloud("a")
    d_along_fiber = cloud.partial_derivative("y")
    i_unit = F49.i()
    points = {1: (-i_unit, i_unit), 2: (i_unit, -i_unit)}
    out = {}
    for k, (alpha, beta) in points.items():
        out[f"van{k}"] = affine_row(cloud, alpha, beta)
        out[f"dB1Q{k}"] = affine_row(d_along_fiber, alpha, beta)
    return out


# ----------------------------------------------------------------------
# substitution maps and the published systems

_MAIN_REG = VarRegistry(cgdata.MAIN_UNKNOWNS)


@lru_cache(maxsize=None)
def published_substitution_map() -> dict[str, MPoly]:
    """The 21 published eliminations, iterated until every dependent
    unknown is expressed over the 19 essentials."""
    dependents = set(cgdata.PUBLISHED_SUBSTITUTIONS)
    maps = {var: parse_poly(text, _MAIN_REG, F49)
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
    return maps


def to_essential(row: list[Element],
                 maps: dict[str, MPoly]) -> list[Element]:
    """Push a 40-unknown row down to the 19 essentials via the maps."""
    zero = F49.zero()
    acc = {v: zero for v in cgdata.ESSENTIAL_UNKNOWNS}
    for name, coeff in zip(cgdata.MAIN_UNKNOWNS, row):
        if coeff.is_zero():
            continue
        if name in acc:
            acc[name] = acc[name] + coeff
        else:
            expansion = maps[name]
            for v in cgdata.ESSENTIAL_UNKNOWNS:
                acc[v] = acc[v] + coeff * expansion.coefficient({v: 1})
    return [acc[v] for v in cgdata.ESSENTIAL_UNKNOWNS]


def rows_from_texts(texts, variables) -> list[list[Element]]:
    """Homogeneous linear forms given as grammar text, over the variables."""
    registry = VarRegistry(variables)
    rows = []
    for text in texts:
        p = parse_poly(text, registry, F49)
        rows.append(_row_of_linear_form(p, registry, variables))
    return rows


@lru_cache(maxsize=None)
def leftover_rows() -> list[list[Element]]:
    maps = published_substitution_map()
    rows40 = rows_from_texts(cgdata.LEFTOVER_RELATIONS, cgdata.MAIN_UNKNOWNS)
    return [to_essential(r, maps) for r in rows40]


def build_published_system(zero_rows, unit_rows) -> LinearSystem:
    """A published deformation system over the 19 essentials."""
    maps = published_substitution_map()
    drows = diagonal_rows()
    zero, one = F49.zero(), F49.one()
    rows = [list(r) for r in leftover_rows()]
    rhs = [zero] * len(rows)
    for name in zero_rows:
        rows.append(to_essential(drows[name], maps))
        rhs.append(zero)
    for name in unit_rows:
        rows.append(to_essential(drows[name], maps))
        rhs.append(one)
    return LinearSystem(cgdata.ESSENTIAL_UNKNOWNS, rows, rhs, F49)


def solve_published_system(spec) -> tuple[bool, int | None]:
    sol = solve_affine(build_published_system(spec.zero_rows,
                                              spec.unit_rows))
    if not sol.is_consistent():
        return False, None
    return True, sol.dimension
