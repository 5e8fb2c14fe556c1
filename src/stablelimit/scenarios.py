"""The named verification scenarios.

Each scenario re-derives one finite claim from first principles and
compares the result with the published value, producing a structured
report.  Scenarios are pure and deterministic.  A cached value is an
``lru_cache``d pure function of published constants alone, with an
immutable value that the first run in a process computes and later runs
read.  Curves, restrictions, germs, branch loci, constant rows, linear
systems (with their reduced forms) and the two blown-up lattices of the
``lattice`` scenario are cached, and so are two results: the GF(49)
scan's set of singular points (``rational_singular_points``) and the
branch curves' multiplicities at the chart origins
(``_curve_multiplicities``).  Every run computes the unit matches,
classifications, contact orders, the ranks that ``linser`` counts, the
lattices' determinants, signatures, classes and pairings, and every
``check``.  A published value carries the provenance tag "published";
values frozen from an independent oracle of this package carry "derived".
"""

from __future__ import annotations

import time
from functools import lru_cache, partial, reduce
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import cgdata, deformation
from .curvelocal import (ChartGerm, branch_locus, classify, divides,
                         infinitely_near_multiplicity,
                         intersection_multiplicity, line_root,
                         multiplicity_at)
from .deformation import F49, q_point
from .linalg import LinearSystem, outside_span, rowspace_equal, solve_affine
from .linser import (PassThrough, TangentDirection, distinct_fiber_counts,
                     normalize_pair, series_dimension,
                     split_sections_vanishing)
from .picard import (DivisorClass, Lattice, blowup, double_cover_stats,
                     gram_determinant, intersect, quadric_lattice, signature,
                     verify_class_relation)
from .poly import MPoly, VarRegistry, grevlex_key, unit_match
from .report import VerificationReport
from .rings import Element, PrimeField, Ring, ZMod

F7 = PrimeField(cgdata.PRIME)
Z343 = ZMod(cgdata.PRIME, 3)

_BE = VarRegistry(("be",))


# ----------------------------------------------------------------------
# shared construction helpers


def coefficient_value(name: str, ring, r: Element) -> Element:
    c0, c1, c2 = cgdata.COEFF_POLYS[name]
    return (ring.from_int(c0) + ring.from_int(c1) * r
            + ring.from_int(c2) * r * r)


@lru_cache(maxsize=None)
def build_quintic(ring, r: Element) -> MPoly:
    """The quintic family member at parameter r, over the given ring."""
    values = {n: coefficient_value(n, ring, r) for n in cgdata.COEFF_POLYS}
    out = MPoly.zero(cgdata.XYZT, ring)
    for multiplier_text, orbit_text in cgdata.QUINTIC_ORBITS:
        factor = ring.one()
        for piece in multiplier_text.split("*"):
            factor = factor * (values[piece] if piece in values
                               else ring.from_int(int(piece)))
        out = out + cgdata.parsed(orbit_text, cgdata.XYZT, ring).scale(factor)
    return out


@lru_cache(maxsize=None)
def degeneration_forms(ring: Ring):
    return tuple(cgdata.parsed(t, cgdata.XYZT, ring)
                 for t in (cgdata.F1, cgdata.F2, cgdata.F3, cgdata.F5))


@lru_cache(maxsize=None)
def restrict_to_quadric(p: MPoly) -> MPoly:
    """Pull a form in x,y,z,t back along the quadric parametrization."""
    return p.substitute({name: cgdata.parsed(text, cgdata.AB, p.ring)
                         for name, text in cgdata.QUADRIC_PARAM.items()})


@lru_cache(maxsize=None)
def curve_pair(ring: Ring) -> tuple[MPoly, MPoly]:
    return (cgdata.parsed(cgdata.G1, cgdata.AB, ring),
            cgdata.parsed(cgdata.G2, cgdata.AB, ring))


@lru_cache(maxsize=None)
def union_product(ring: Ring) -> MPoly:
    """The curve union g1 * g2."""
    g1, g2 = curve_pair(ring)
    return g1 * g2


@lru_cache(maxsize=None)
def delta_restrict(g: MPoly) -> MPoly:
    """Restriction to the diagonal with denominators cleared: substitute
    the first-factor pair (1-be, 1+be) at be' = 1, a polynomial in be."""
    ring = g.ring
    return g.substitute({
        "al": cgdata.parsed(cgdata.DELTA_NUMERATOR, _BE, ring),
        "al'": cgdata.parsed(cgdata.DELTA_DENOMINATOR, _BE, ring),
        "be": MPoly.variable(_BE, ring, "be"),
        "be'": MPoly.constant(_BE, ring.one()),
    })


@lru_cache(maxsize=None)
def chart_germ(g: MPoly, chart: int) -> ChartGerm:
    """The germ of a bidegree form at a chart origin."""
    return ChartGerm(f"chart{chart}", g.dehomogenize(cgdata.CHARTS[chart]),
                     cgdata.CHARTS[chart])


def chart_point(chart: int, a: Element, b: Element):
    """The projective point ((al : al'), (be : be')) at local coordinates
    (a, b) of a chart: each local coordinate takes its value, its partner
    in the pair is 1."""
    one = a.ring.one()
    u, v = cgdata.CHARTS[chart]
    return ((a, one) if u == "al" else (one, a),
            (b, one) if v == "be" else (one, b))


@lru_cache(maxsize=None)
def translated_germ(g: MPoly, alpha: Element, beta: Element) -> ChartGerm:
    """Germ of g at an affine point of chart 4, moved to the origin."""
    chart4 = cgdata.CHARTS[4]
    moved = g.dehomogenize(chart4).translate({"al": alpha, "be": beta})
    return ChartGerm("chart4", moved, chart4)


_S = VarRegistry(("s",))


def fiber_param(ring):
    """Parametrize the fiber through a translated germ's origin: the
    first local coordinate moves, the second stays at zero."""
    s = MPoly.variable(_S, ring, "s")
    return (s, MPoly.zero(_S, ring))


@lru_cache(maxsize=None)
def diagonal_param(beta0: Element):
    """Series parametrization of the diagonal alpha = (1-beta)/(1+beta)
    through (alpha0, beta0), in coordinates already translated so the
    point is the origin, to order 12 in the parameter: with u = 1 + beta0,
    alpha(s) - alpha0 = 2/(u+s) - 2/u = 2 * sum_{k>=1} (-s)^k / u^(k+1)."""
    ratio = -(F49.one() + beta0).inverse()
    coeff = F49.from_int(-2) * ratio            # 2/u
    terms = {}
    for k in range(1, 13):
        coeff = coeff * ratio
        terms[(k,)] = coeff
    return (MPoly(_S, F49, terms), MPoly.variable(_S, F49, "s"))


# ----------------------------------------------------------------------
# scenario: expansion


def scenario_expansion() -> VerificationReport:
    rep = VerificationReport(
        "expansion",
        citation=("7-adic expansion of the quintic at the lifted root: "
                  "plane * quadric^2 plus 7- and 49-correction terms, "
                  "exactly modulo 343"))
    # the root mod 343 among the 49 lifts of the root mod 7; none or two: error
    p = cgdata.PRIME
    (root,) = [r for r in range(cgdata.SIMPLE_ROOT_MOD_P, p ** 3, p)
               if reduce(lambda acc, c: acc * r + c,
                         reversed(cgdata.CUBIC_COEFFS), 0) % p ** 3 == 0]
    rep.check("root mod 7^3", root, 143)
    r = Z343.from_int(root)
    quintic = build_quintic(Z343, r)
    f1, f2, f3, f5 = degeneration_forms(Z343)
    target = (f1 * f2 * f2 + f2.scale(Z343.from_int(7)) * f3
              + f5.scale(Z343.from_int(49)))

    # the unit coefficient at the largest monomial in grevlex order
    units = [t for t in quintic.terms.items() if t[1].payload % cgdata.PRIME]
    lead = max(units, key=lambda t: grevlex_key(t[0]), default=None)
    lam = matched = None
    if lead is not None:
        exps, cq = lead
        matched = dict(zip(cgdata.XYZT.names, exps))
        lam = target.terms.get(exps, Z343.zero()) * cq.inverse()
    rep.note(f"unit fixed at monomial {matched} (unit = {lam!r})")
    if not rep.require("a unit scalar exists", lam is not None):
        return rep
    rep.check("unit * quintic equals the expansion mod 343",
              (quintic.scale(lam) - target).is_zero(), True)
    rep.check("matching unit", str(lam), "1", tag="derived")

    # modulo 7 the family degenerates to plane * quadric^2
    q7 = build_quintic(F7, F7.from_int(cgdata.SIMPLE_ROOT_MOD_P))
    f1_7, f2_7, _, _ = degeneration_forms(F7)
    lam7 = unit_match(q7, f1_7 * f2_7 * f2_7)
    rep.check("mod 7 fiber is unit * plane * quadric^2",
              lam7 is not None, True)

    # sensitivity control: a unit perturbation of one 49-level coefficient
    # must break the congruence
    bump = next(iter(f5.terms))
    f5_bad = f5 + MPoly(cgdata.XYZT, Z343, {bump: Z343.one()})
    bad_target = (f1 * f2 * f2 + f2.scale(Z343.from_int(7)) * f3
                  + f5_bad.scale(Z343.from_int(49)))
    rep.require("negative control: perturbed correction term fails",
                not (quintic.scale(lam) - bad_target).is_zero(),
                "perturbing one coefficient went undetected")
    return rep


# ----------------------------------------------------------------------
# scenario: branch


def scenario_branch() -> VerificationReport:
    rep = VerificationReport(
        "branch",
        citation=("on the quadric, the doubled-fiber discriminant "
                  "splits as the product of the two bidegree-(3,3) "
                  "branch curves"))
    f1, _, f3, f5 = degeneration_forms(F7)
    four = MPoly.constant(cgdata.XYZT, F7.from_int(4))
    section = f3 * f3 - four * f1 * f5
    restricted = restrict_to_quadric(section)
    g1, g2 = curve_pair(F7)
    u = unit_match(restricted, union_product(F7))
    rep.require("discriminant section restricts to unit * g1 * g2",
                u is not None)
    rep.note(f"splitting unit: {u!r}")

    b1 = restrict_to_quadric(cgdata.parsed(cgdata.B1_SECTION, cgdata.XYZT, F7))
    b2 = restrict_to_quadric(cgdata.parsed(cgdata.B2_SECTION, cgdata.XYZT, F7))
    rep.require("first cubic section restricts to unit * g1",
                unit_match(b1, g1) is not None)
    rep.require("second cubic section restricts to unit * g2",
                unit_match(b2, g2) is not None)

    # the middle form vanishes on the diagonal exactly at the six
    # intersection points, once each
    f3_delta = delta_restrict(restrict_to_quadric(f3))
    target = cgdata.parsed(cgdata.F3_ON_DELTA, _BE, F7)
    rep.require("middle form on the diagonal matches the six-point divisor",
                unit_match(f3_delta, target) is not None)

    # symmetry control: the product is insensitive to swapping the factors
    rep.require("swapping the two curve factors preserves the identity",
                unit_match(restricted, g2 * g1) is not None)
    return rep


# ----------------------------------------------------------------------
# scenario: delta


def scenario_delta() -> VerificationReport:
    rep = VerificationReport(
        "delta",
        citation=("diagonal restrictions of the branch curves factor as "
                  "(be^2+1) times the square of an irreducible quadratic; "
                  "the six intersection points match the published list"))
    # the diagonal is the plane section of the quadric: its chart-4
    # equation must be the restriction of the linear form
    f1, _, _, _ = degeneration_forms(F7)
    f1_chart4 = chart_germ(restrict_to_quadric(f1), 4).poly
    chart_eq = cgdata.parsed(cgdata.DELTA_CHART4, cgdata.AB, F7)
    rep.require("diagonal chart equation is the plane restricted to the "
                "quadric", unit_match(f1_chart4, chart_eq) is not None)

    # both sides have GF(7) coefficients, so a unit matching them over
    # GF(49) is a ratio of GF(7) values: the factorizations hold over GF(7)
    d1, d2 = map(delta_restrict, curve_pair(F49))
    t1 = cgdata.parsed(cgdata.G1_ON_DELTA, _BE, F49)
    t2 = cgdata.parsed(cgdata.G2_ON_DELTA, _BE, F49)
    rep.require("first curve on the diagonal factors as published",
                unit_match(d1, t1) is not None)
    rep.require("second curve on the diagonal factors as published",
                unit_match(d2, t2) is not None)

    # the root set over GF(49), with the diagonal's alpha-coordinates,
    # must match the published six points up to one global conjugation
    one, elements = F49.one(), F49._elements
    computed = set()
    for code in {*root_codes(d1), *root_codes(d2)}:
        x = elements[code]
        computed.add(((one - x) * (one + x).inverse(), x))
    published = {q_point(k) for k in range(1, 7)}
    conjugated = {tuple(map(F49.conjugate, pt)) for pt in published}
    matched = computed in (published, conjugated)
    if matched:
        rep.note("point identification: " + (
            "direct labeling matched" if computed == published
            else "matched after one global conjugation"))
    rep.check("six diagonal points match the published list", matched, True)

    # quadratic factors: no roots over GF(7), two roots over GF(49)
    for label, text in (("first", "be^2+4*be+6"), ("second", "be^2+6*be+6")):
        roots7 = root_codes(cgdata.parsed(text, _BE, F7))
        roots49 = root_codes(cgdata.parsed(text, _BE, F49))
        rep.check(f"{label} quadratic: roots over GF(7)", len(roots7), 0,
                  tag="derived")
        rep.check(f"{label} quadratic: roots over GF(49)", len(roots49), 2,
                  tag="derived")
    return rep


def _roots(ring: Ring, coeffs: Sequence[int], codes: Iterable[int]) -> list[int]:
    """The ``codes`` at which the polynomial with coefficient codes
    ``coeffs``, low degree first, vanishes in a ring with code tables, in
    one loop: p(x) = x q(x) + c0 is zero where x q(x) = -c0, and q(x) is
    Horner's rule on the tables from its leading coefficient."""
    mul, add = ring.mul, ring.add
    c0, *rest = coeffs or (0,)
    lead, *high = rest[::-1] or (0,)
    target = ring.sub[0][c0]
    found = []
    for x in codes:
        times_x, acc = mul[x], lead
        for c in high:
            acc = add[times_x[acc]][c]
        if times_x[acc] == target:
            found.append(x)
    return found


def root_codes(poly: MPoly) -> list[int]:
    """The codes of the elements of a small field at which a univariate
    polynomial over it vanishes: ``_roots`` at every element of the
    field."""
    coeffs = [0] * (poly.total_degree() + 1)
    for (k,), c in poly.terms.items():
        coeffs[k] = c.payload
    return _roots(poly.ring, coeffs, range(len(poly.ring.mul)))


# ----------------------------------------------------------------------
# scenario: singularities


# The scan's cover of P^1 x P^1(GF(49)): (chart, codes of the first local
# coordinate, codes of the second).  Chart 4 holds every point with both
# factors affine; chart 2 at al' = 0 adds the first factor at infinity,
# chart 3 at be' = 0 the second, chart 1 at its origin both; 2,500 points,
# each once.
_ALL_CODES = tuple(range(len(F49.mul)))
SCAN_COVER = ((4, _ALL_CODES, _ALL_CODES), (2, (0,), _ALL_CODES),
              (3, _ALL_CODES, (0,)), (1, (0,), (0,)))


@lru_cache(maxsize=None)
def rational_singular_points() -> frozenset:
    """All GF(49)-rational singular points of the curve union, scanned
    exhaustively over one cover of P^1 x P^1; canonical projective labels.

    A point is singular iff the chart germ and both its chart partials
    vanish there.  Of the two chart coordinates, the one with fewer codes
    in the cover is fixed at each of them in turn, and the three are
    restricted to univariate code vectors in the other one, by Horner's
    rule on the field tables; ``_roots`` scans the germ's at every code
    of the other coordinate, and each partial's at the roots left.
    """
    product = union_product(F49)
    mul, add, elements = F49.mul, F49.add, F49._elements
    found = set()
    for chart, firsts, seconds in SCAN_COVER:
        uv, germ = cgdata.CHARTS[chart], chart_germ(product, chart).poly
        step = -1 if len(seconds) < len(firsts) else 1
        (fixed, scanned), ordered = (firsts, seconds)[::step], uv[::step]
        grids = [_code_grid(p, *ordered)
                 for p in (germ, *map(germ.partial_derivative, uv))]
        for a in fixed:
            roots = scanned
            for rows in grids:
                times_a, acc = mul[a], rows[-1]
                for row in reversed(rows[:-1]):
                    acc = [add[times_a[x]][c] for x, c in zip(acc, row)]
                if not (roots := _roots(F49, acc, roots)):
                    break
            for b in roots:
                found.add(_projective_label(
                    chart, *(elements[a], elements[b])[::step]))
    return frozenset(found)


def _code_grid(poly: MPoly, u: str, v: str) -> list[list[int]]:
    """Codes of a polynomial in the chart coordinates u, v: one row per
    power of u, listing the coefficients by the power of v."""
    iu, iv = cgdata.AB.index[u], cgdata.AB.index[v]
    du = max((e[iu] for e in poly.terms), default=0)
    dv = max((e[iv] for e in poly.terms), default=0)
    grid = [[0] * (dv + 1) for _ in range(du + 1)]
    for exps, c in poly.terms.items():
        grid[exps[iu]][exps[iv]] = c.payload
    return grid


def _projective_label(chart: int, a: Element, b: Element):
    """Canonical label of the chart point with local coordinates (a, b)."""
    return tuple(normalize_pair(pair) for pair in chart_point(chart, a, b))


def _double_and_smooth(g1: MPoly, g2: MPoly) -> dict:
    """Chart -> (label, curve, partner): each chart origin is a double
    point of one curve, which its partner passes through smoothly."""
    return {**dict.fromkeys(cgdata.CURVE1_DOUBLE_CHARTS, ("first", g1, g2)),
            **dict.fromkeys(cgdata.CURVE2_DOUBLE_CHARTS, ("second", g2, g1))}


def scenario_singularities() -> VerificationReport:
    rep = VerificationReport(
        "singularities",
        citation=("the eight first-order rigidity conditions hold "
                  "verbatim for the undeformed pair; the two transverse "
                  "diagonal points are nodes of the union"))
    g1, g2 = curve_pair(F49)
    at_origin = _double_and_smooth(g1, g2)

    for chart in (1, 2, 3, 4):
        u, v = cgdata.CHARTS[chart]
        double_for, own, partner = at_origin[chart]
        for label, g in (("first", g1), ("second", g2)):
            germ = chart_germ(g, chart)
            rep.require(
                f"{label} curve passes through chart-{chart} origin",
                germ.poly.coefficient({}).is_zero())
        germ = chart_germ(own, chart)
        pgerm = chart_germ(partner, chart)
        rep.require(
            f"double curve is singular at chart-{chart} origin",
            germ.poly.graded_part(1, (u, v)).is_zero())
        cone = germ.poly.graded_part(2, (u, v))
        line = pgerm.poly.graded_part(1, (u, v))
        lam = unit_match(cone, line * line)
        rep.require(
            f"chart {chart}: tangent cone is a scale of the partner "
            f"line squared", lam is not None)
        if lam is not None:
            rep.note(f"chart {chart}: cone scale {lam!r} "
                     f"({double_for} curve)")
        cubic = germ.poly.graded_part(3, (u, v))
        rep.require(
            f"chart {chart}: cubic part divisible by the tangent line",
            divides(line, cubic, u, v))
        verdict = classify(germ)
        rep.check(f"chart {chart}: double-point classification",
                  verdict.kind, "tacnode_or_degeneration", tag="derived")

    for k in (1, 2):
        alpha, beta = q_point(k)
        verdict = classify(translated_germ(union_product(F49), alpha, beta))
        rep.check(f"union at transverse point {k}", verdict.kind, "node")

    # multiplicity profile of the first curve across the chart origins
    profile = tuple(multiplicity_at(chart_germ(g1, chart))
                    for chart in (1, 2, 3, 4))
    rep.check("first-curve multiplicities at the four origins",
              list(profile), [2, 1, 1, 2], tag="derived")

    # exhaustive rational-point smoothness scan: the union is singular
    # only at the four origins and the two transverse diagonal points
    sing = rational_singular_points()
    rep.check("rational singular points of the union", len(sing), 6,
              tag="derived")
    rep.note("smoothness over the algebraic closure at non-rational "
             "points is certified only through the rational scan and the "
             "local analysis at the six singular points; recorded as a "
             "partial check")
    return rep


# ----------------------------------------------------------------------
# scenario: deform-derive


@lru_cache(maxsize=None)
def derived_system_cached(skip_cubic: bool = False):
    """The derived rigidity system, or with ``skip_cubic`` its weakened
    control, built from the same rows."""
    if skip_cubic:
        return derived_system_cached(False).without_cubic_condition()
    return deformation.derive_rigidity_system()


def _homogeneous_system(texts) -> LinearSystem:
    rows = deformation.rows_from_texts(texts)
    zero = F49.zero()
    return LinearSystem(cgdata.MAIN_UNKNOWNS, rows, [zero] * len(rows), F49)


@lru_cache(maxsize=None)
def _published_system_28() -> LinearSystem:
    return _homogeneous_system(cgdata.PUBLISHED_28)


@lru_cache(maxsize=None)
def _elimination_system_28() -> LinearSystem:
    return _homogeneous_system(
        tuple(f"{var}-({text})" for var, text
              in cgdata.PUBLISHED_SUBSTITUTIONS.items())
        + cgdata.LEFTOVER_RELATIONS)


def scenario_deform_derive() -> VerificationReport:
    rep = VerificationReport(
        "deform-derive",
        citation=("the machine-derived first-order rigidity system "
                  "coincides with the published 28-equation display; "
                  "diagonal constraint rows rebuilt two independent ways"))
    derived = derived_system_cached(False)
    rep.require("all order-zero identities hold for the undeformed pair",
                derived.classical_ok)
    rep.check("derived system rank", derived.rank, 28, tag="derived")
    published = _published_system_28()
    rep.check("derived row space equals the published 28-equation display",
              rowspace_equal(derived.system, published), True)

    elimination = _elimination_system_28()
    elim_equal = rowspace_equal(derived.system, elimination)
    rep.record("published elimination list matches derived relations",
               elim_equal, "derived")
    if not elim_equal:
        sub_items = list(cgdata.PUBLISHED_SUBSTITUTIONS)
        labels = []
        outside = outside_span(derived.system, elimination.rows)
        for k, row_outside in enumerate(outside):
            if row_outside:
                if k < len(sub_items):
                    labels.append(f"elimination of {sub_items[k]}")
                else:
                    labels.append("leftover "
                                  + cgdata.LEFTOVER_RELATIONS[k - len(sub_items)])
        rep.record("rows outside the derived span", labels, "derived")
        rep.flag("published elimination list disagrees with the derived "
                 f"relations at: {', '.join(labels)}; the published "
                 "28-equation display is the consistent one")
        # the discrepancy is load-bearing for one published system
        feasible = _corrected_system_feasible("system-I5")
        rep.record("fifth system feasible under corrected relations",
                   feasible, "derived")
        if not feasible:
            rep.flag("under the corrected relations the fifth published "
                     "system normalization becomes infeasible; its "
                     "published feasibility rests on the discrepant "
                     "elimination row")

    # diagonal rows: the cleared-denominator construction must agree with
    # direct evaluation of the coefficient cloud at each point ...
    drows = deformation.diagonal_rows()
    direct = _direct_value_rows()
    for name, curve, k in (("B1Q1", "1", 1), ("B1Q2", "1", 2),
                           ("B2Q1", "2", 1), ("B2Q2", "2", 2),
                           ("B1Q3", "1", 3), ("B1Q4", "1", 4),
                           ("B2Q5", "2", 5), ("B2Q6", "2", 6)):
        times = F49.mul[((F49.one() + q_point(k)[1]) ** 3).payload]
        same = all(a.payload == times[b.payload]
                   for a, b in zip(drows[name], direct[f"val{curve}@{k}"]))
        rep.require(f"{name}: cleared row is the unit multiple of the "
                    f"direct evaluation row", same)
    # ... and the derivative rows must agree with the chain-rule route
    chain = _chain_rule_rows()
    for name in ("dB1Q3", "dB1Q4", "dB2Q5", "dB2Q6"):
        rep.require(f"{name}: derivative row matches the chain-rule "
                    f"construction", drows[name] == chain[name])

    # sensitivity control: dropping the cubic-divisibility condition
    # must strictly shrink the row space
    weakened = derived_system_cached(True)
    rep.check("negative control: weakened derivation rank",
              weakened.rank, 26, tag="derived")
    rep.require("negative control: dropped condition detected",
                not rowspace_equal(weakened.system, published),
                "weakened system unexpectedly matches the published one")
    return rep


@lru_cache(maxsize=None)
def _corrected_system(system_id: str) -> LinearSystem:
    """A published system with the 28 corrected relations in place of the
    published elimination list (40 unknowns); built once, so its reduced
    form is kept."""
    spec = next(s for s in cgdata.SYSTEM_SPECS if s.id == system_id)
    return deformation.stacked_system(
        cgdata.MAIN_UNKNOWNS, derived_system_cached(False).system.rows,
        deformation.diagonal_rows(), spec.zero_rows, spec.unit_rows)


def _corrected_system_feasible(system_id: str) -> bool:
    """Feasibility of a published system under the corrected relations."""
    return solve_affine(_corrected_system(system_id)).is_consistent()


@lru_cache(maxsize=None)
def _direct_value_rows() -> Mapping[str, tuple[Element, ...]]:
    """First-principles value rows: the two coefficient clouds evaluated
    at the six points' affine coordinates."""
    out = {}
    for tag, prefix in (("1", "a"), ("2", "b")):
        for k in range(1, 7):
            out[f"val{tag}@{k}"] = deformation.point_row(prefix, *q_point(k))
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def _chain_rule_rows() -> Mapping[str, tuple[Element, ...]]:
    """Derivative rows rebuilt by the product/chain rule on
    (1+be)^3 * cloud(alpha(be), be) instead of differentiating the
    cleared polynomial: an independent construction path.  With
    u = 1+be and alpha = (1-be)/u, so that alpha' = -2/u^2, the derivative
    is 3u^2 * cloud - 2u * cloud_y + u^3 * cloud_x: the value row, and the
    derivative along the diagonal's tangent vector (-2u, u^3)."""
    out = {}
    one = F49.one()
    for tag, prefix, points in (("1", "a", (3, 4)), ("2", "b", (5, 6))):
        for k in points:
            beta = q_point(k)[1]
            u = one + beta
            alpha = (one - beta) * u.inverse()
            three_u2 = F49.from_int(3) * u * u
            value = deformation.point_row(prefix, alpha, beta)
            along = deformation.point_row(prefix, alpha, beta,
                                          (F49.from_int(-2) * u, u ** 3))
            out[f"dB{tag}Q{k}"] = tuple(three_u2 * a + b
                                        for a, b in zip(value, along))
    return MappingProxyType(out)


# ----------------------------------------------------------------------
# scenarios: the published linear systems


def scenario_system(spec: cgdata.SystemSpec) -> VerificationReport:
    rep = VerificationReport(spec.id, citation=spec.citation)
    rep.check("generator count",
              len(cgdata.LEFTOVER_RELATIONS) + len(spec.zero_rows)
              + len(spec.unit_rows),
              spec.published_generators)
    consistent, dim = deformation.solve_published_system(spec)
    rep.check("system is consistent", consistent, True)
    if consistent:
        rep.record("essential dimension", dim, "published",
                   spec.published_dim)
        if dim != spec.published_dim:
            rep.flag(
                f"essential dimension over the 19 unknowns is {dim}; the "
                f"published label {spec.published_dim} counts spectator "
                + spec.label_reading)
        if spec.note:
            rep.note(spec.note)
    return rep


# ----------------------------------------------------------------------
# scenario: basis-count


def scenario_basis_count() -> VerificationReport:
    rep = VerificationReport(
        "basis-count",
        citation=("the seven published deformation systems realize the "
                  "seven-dimensional obstruction basis: three move one "
                  "tangency point off the diagonal, four rotate one "
                  "tangency direction"))
    specs = cgdata.SYSTEM_SPECS
    rep.check("number of systems", len(specs), 7)
    signatures = {(s.zero_rows, s.unit_rows) for s in specs}
    rep.check("systems pairwise distinct", len(signatures), 7,
              tag="definitional")
    point_moving = [s for s in specs if s.kind == "point-moving"]
    tangency = [s for s in specs if s.kind == "tangency"]
    rep.check("point-moving systems", len(point_moving), 3)
    rep.check("tangency systems", len(tangency), 4)
    for s in point_moving:
        rep.require(f"{s.id}: single unit row of value type",
                    len(s.unit_rows) == 1
                    and not s.unit_rows[0].startswith("d"))
    for s in tangency:
        rep.require(f"{s.id}: single unit row of derivative type",
                    len(s.unit_rows) == 1 and s.unit_rows[0].startswith("d"))
    rep.check("unit rows cover the published seven directions",
              sorted(s.unit_rows[0] for s in specs),
              ["B1Q4", "B2Q5", "B2Q6", "dB1Q3", "dB1Q4", "dB2Q5", "dB2Q6"])
    return rep


# ----------------------------------------------------------------------
# scenario: ramification


@lru_cache(maxsize=None)
def _branch_locus(g: MPoly, moving, base) -> MPoly:
    """The branch locus of a constant curve, computed once per process."""
    return branch_locus(g, moving, base)


def scenario_ramification() -> VerificationReport:
    rep = VerificationReport(
        "ramification",
        citation=("branch loci of the two curves under both rulings, "
                  "triple contact of the doubled branch fibers, and the "
                  "flex-destroying system's consistency"))
    g1, g2 = curve_pair(F7)
    second_of = {"first": cgdata.SECOND_PAIR, "second": cgdata.FIRST_PAIR}
    moving_of = {"first": cgdata.FIRST_PAIR, "second": cgdata.SECOND_PAIR}

    expectations = {
        ("g1", "first"): "(be^2+be'^2)^2",
        ("g2", "first"): "be^4+4*be^2*be'^2+be'^4",
        ("g2", "second"): "(al^2+al'^2)^2",
        ("g1", "second"): "al^4+4*al^2*al'^2+al'^4",
    }
    curves = {"g1": g1, "g2": g2}
    for (curve, ruling), target_text in expectations.items():
        disc = _branch_locus(curves[curve], moving_of[ruling],
                             second_of[ruling])
        target = cgdata.parsed(target_text, cgdata.AB, F7)
        rep.require(f"branch locus of {curve}, {ruling} ruling, is "
                    f"unit * {target_text}", unit_match(disc, target) is not None)

    # the doubled branch points are exactly the transverse diagonal
    # points, each a double root of the discriminant
    i_unit = F49.i()
    disc1 = _branch_locus(curve_pair(F49)[0], cgdata.FIRST_PAIR,
                          cgdata.SECOND_PAIR)
    for label, beta in (("+i", i_unit), ("-i", -i_unit)):
        vals = {"be": beta, "be'": F49.one(),
                "al": F49.zero(), "al'": F49.zero()}
        slope = disc1.partial_derivative("be")
        v0 = disc1.evaluate(vals)
        v1 = slope.evaluate(vals)
        v2 = slope.partial_derivative("be").evaluate(vals)
        rep.require(f"discriminant vanishes to order exactly 2 at {label}",
                    v0.is_zero() and v1.is_zero() and not v2.is_zero())

    # flex contacts: the doubled-branch fibers meet the curve with
    # multiplicity three at the transverse points
    g1_49, g2_49 = curve_pair(F49)
    for k in (1, 2):
        alpha, beta = q_point(k)
        germ1 = translated_germ(g1_49, alpha, beta)
        contact = intersection_multiplicity(
            germ1, fiber_param(F49))
        rep.check(f"fiber contact of first curve at transverse point {k}",
                  contact, 3)
    # mirrored statement for the second ruling: roles interchanged
    swapped = _swap_rulings(g2_49)
    for k in (1, 2):
        alpha, beta = q_point(k)
        germ2 = translated_germ(swapped, beta, alpha)
        contact = intersection_multiplicity(germ2, fiber_param(F49))
        rep.check(f"fiber contact of second curve at transverse point {k}, "
                  "second ruling", contact, 3, tag="derived")

    # diagonal contacts: simple at the transverse points, double at the
    # first curve's tangency points
    for k, expected in ((1, 1), (3, 2), (4, 2)):
        alpha, beta = q_point(k)
        germ = translated_germ(g1_49, alpha, beta)
        contact = intersection_multiplicity(germ, diagonal_param(beta),
                                            truncation=10)
        rep.check(f"diagonal contact of first curve at point {k}",
                  contact, expected)

    consistent, _ = deformation.solve_published_system(cgdata.LEFSCHETZ_SPEC)
    rep.check("flex-destroying system is consistent", consistent, True)
    return rep


@lru_cache(maxsize=None)
def _swap_rulings(g: MPoly) -> MPoly:
    """Exchange the two projective factors."""
    ring = g.ring
    sub = {"al": MPoly.variable(cgdata.AB, ring, "be"),
           "al'": MPoly.variable(cgdata.AB, ring, "be'"),
           "be": MPoly.variable(cgdata.AB, ring, "al"),
           "be'": MPoly.variable(cgdata.AB, ring, "al'")}
    return g.substitute(sub)


# ----------------------------------------------------------------------
# scenario: lattice


@lru_cache(maxsize=None)
def _blowup_lattice() -> Lattice:
    """The rank-12 lattice: quadric blown up at the two transverse
    diagonal points and twice over each chart origin."""
    lat = quadric_lattice()
    names = ["n1", "n2"] + [x for k in range(1, 5) for x in (f"g{k}", f"e{k}")]
    for name in names:
        lat = blowup(lat, name)
    return lat


@lru_cache(maxsize=None)
def _extended_lattice(lat: Lattice) -> Lattice:
    """Continue to rank 20: two infinitely-near blowups over each of the
    four tangency points of the diagonal with the branch curves."""
    for k in range(3, 7):
        lat = blowup(blowup(lat, f"c{k}"), f"f{k}")
    return lat


@lru_cache(maxsize=None)
def _curve_multiplicities() -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each branch curve, and at the origin of each chart 1..4, the
    multiplicity there and at the infinitely-near center, from the local
    curve analysis."""
    def mult_data(g):
        per_chart = []
        for chart in (1, 2, 3, 4):
            germ = chart_germ(g, chart)
            # the infinitely-near center is the direction of the union's
            # tangent cone, carried by whichever curve is smooth there
            # (the double curve's cone is that same line squared; checked
            # in the singularities scenario)
            m1 = infinitely_near_multiplicity(germ, _cone_direction(chart))
            per_chart.append((multiplicity_at(germ), m1))
        return tuple(per_chart)

    return tuple(map(mult_data, curve_pair(F49)))


def _curve_classes(lat: Lattice):
    """Divisor classes of the configuration, with every multiplicity
    taken from the local curve analysis rather than asserted."""
    def curve_class(mults):
        coeffs = {"h1": 3, "h2": 3, "n1": -1, "n2": -1}
        for chart, (m0, m1) in enumerate(mults, start=1):
            coeffs[f"g{chart}"] = -m0
            coeffs[f"e{chart}"] = -m1
        return lat.cls(coeffs)

    mults = _curve_multiplicities()
    b1, b2 = map(curve_class, mults)
    rulings = [lat.cls({"h1": 1, "g1": -1, "g2": -1}),
               lat.cls({"h1": 1, "g3": -1, "g4": -1}),
               lat.cls({"h2": 1, "g1": -1, "g3": -1}),
               lat.cls({"h2": 1, "g2": -1, "g4": -1})]
    gbar = [lat.cls({f"g{k}": 1, f"e{k}": -1}) for k in range(1, 5)]
    ebar = [lat.cls({f"e{k}": 1}) for k in range(1, 5)]
    nbar = [lat.cls({"n1": 1}), lat.cls({"n2": 1})]
    return b1, b2, rulings, gbar, ebar, nbar, mults


def scenario_lattice() -> VerificationReport:
    rep = VerificationReport(
        "lattice",
        citation=("divisor-class identities on the blown-up quadric, the "
                  "double-cover invariants of the resolved limit surface, "
                  "and its canonical class as one sixth of a fiber"))
    lat = _blowup_lattice()
    rep.check("rank after the ten blowups", lat.rank, 12)
    rep.check("intersection form unimodular",
              abs(gram_determinant(lat)), 1, tag="definitional")
    rep.check("signature", list(signature(lat)), [1, 11],
              tag="definitional")

    b1, b2, rulings, gbar, ebar, nbar, mults = _curve_classes(lat)
    rep.check("first-curve multiplicity pattern",
              {str(chart): list(m)
               for chart, m in enumerate(mults[0], start=1)},
              {"1": [2, 2], "2": [1, 1], "3": [1, 1], "4": [2, 2]},
              tag="derived")

    sigma_11 = lat.cls({"h1": 1, "h2": 1})
    sum_g = sum(gbar[1:], gbar[0])
    sum_e = sum(ebar[1:], ebar[0])
    sum_rulings = sum(rulings[1:], rulings[0])
    two_n = 2 * nbar[0] + 2 * nbar[1]

    fiber = b1 + b2 + two_n
    rep.check("triple-fiber relation (ruling form)",
              verify_class_relation(fiber, 3 * (sum_rulings + sum_g)), True)
    rep.check("triple-fiber relation (pullback form)",
              verify_class_relation(
                  fiber, 6 * sigma_11 - 3 * sum_g - 6 * sum_e), True)
    rep.note("validated encoding: first-level exceptional symbols are "
             "proper transforms, second-level are total classes")

    branch = b1 + b2 + sum_g
    bundle = lat.cls({"h1": 3, "h2": 3, "n1": -1, "n2": -1,
                      "g1": -1, "g2": -1, "g3": -1, "g4": -1,
                      "e1": -2, "e2": -2, "e3": -2, "e4": -2})
    rep.check("branch relation: branch curve is twice the bundle",
              verify_class_relation(
                  branch,
                  2 * (3 * sigma_11 - nbar[0] - nbar[1] - 3 * sum_e - sum_g)),
              True)
    rep.check("bundle class consistent", verify_class_relation(
        branch, 2 * bundle), True, tag="definitional")

    K = lat.canonical
    twist = -2 * sigma_11 + nbar[0] + nbar[1] + sum_g + 2 * sum_e
    rep.check("duality twist equals the canonical class",
              verify_class_relation(twist, K), True, tag="derived")
    for name, curve in (("first", b1), ("second", b2)):
        rep.record(f"{name} curve . twist", str(intersect(curve, twist)),
                   "published", "-4")
    if intersect(b1, twist) != -4 or intersect(b2, twist) != -4:
        rep.status = "fail"
        rep.note("identity failed: curve . twist -- the exact value is "
                 "+2 (adjunction: the curve classes are smooth rational "
                 "of square -4, and the twist is the canonical class); "
                 "the published -4 is incompatible with the published "
                 "triple-fiber relation, which pins the same multiplicity "
                 "data used here")

    # double-cover invariants, then contraction of the four (-1)-curves
    stats = double_cover_stats(branch, bundle, K)
    rep.check("cover canonical square before contraction",
              str(stats.k_squared), "-4", tag="derived")
    rep.check("resolved-surface canonical square",
              str(stats.k_squared + 4), "0")
    rep.check("holomorphic Euler characteristic", str(stats.chi), "1")

    # section count of the adjoint class: bidegree (1,1) through the four
    # origins with the tangent-cone directions
    rep.check("adjoint sections vanish", series_dimension((1, 1),
              _origin_conditions(), F49), 0)

    # canonical class of the resolved surface: six times it is a fiber
    six_k = 6 * (stats.adjoint) - 3 * sum_g
    rep.check("six times the resolved canonical class is the fiber class",
              verify_class_relation(six_k, fiber), True)
    per_basis = all(intersect(six_k, e) == intersect(fiber, e)
                    for e in map(lat.basis, lat.names))
    rep.check("fiber identity against every basis class", per_basis, True)
    # F/6 = -F + F/2 + 2*(F/3), multiplied through by 6
    rep.check("multiple-fiber decomposition",
              verify_class_relation(
                  fiber, -6 * fiber + 3 * fiber + 2 * (2 * fiber)),
              True, tag="definitional")

    # extended lattice: the diagonal separates from the branch curve
    lat1 = _extended_lattice(lat)
    rep.check("extended rank", lat1.rank, 20)
    rep.check("extended signature", list(signature(lat1)), [1, 19],
              tag="definitional")
    delta1 = lat1.cls({"h1": 1, "h2": 1, "n1": -1, "n2": -1,
                       "c3": -1, "f3": -1, "c4": -1, "f4": -1,
                       "c5": -1, "f5": -1, "c6": -1, "f6": -1})
    b1_ext = _extend(lat1, b1, {"c3": -1, "f3": -1, "c4": -1, "f4": -1})
    b2_ext = _extend(lat1, b2, {"c5": -1, "f5": -1, "c6": -1, "f6": -1})
    gbar_ext = [_extend(lat1, g, {}) for g in gbar]
    cbar = [lat1.cls({f"c{k}": 1, f"f{k}": -1}) for k in range(3, 7)]
    sum_c = sum(cbar[1:], cbar[0])
    branch1 = b1_ext + b2_ext + sum(gbar_ext[1:], gbar_ext[0]) + sum_c
    rep.check("diagonal is disjoint from the extended branch curve",
              str(intersect(delta1, branch1)), "0", tag="derived")
    rep.check("diagonal self-intersection upstairs (etale preimage)",
              str(intersect(delta1, delta1)), "-8", tag="derived")
    fbars = [lat1.cls({f"f{k}": 1}) for k in range(3, 7)]
    meets = [str(intersect(delta1, f)) for f in fbars]
    rep.check("diagonal meets each second-level tangency exceptional once",
              meets, ["1", "1", "1", "1"], tag="derived")
    # each of the four contractions raises the square by one
    rep.check("component self-intersection after contraction",
              str(intersect(delta1, delta1) + 4), "-4")

    # preimages of the first-level transverse exceptionals: (-2)-curves
    for k, n in enumerate(nbar, start=1):
        rep.check(f"transverse exceptional {k}: branch contacts",
                  str(intersect(n, branch)), "2", tag="derived")
        rep.check(f"transverse exceptional {k}: preimage square",
                  str(2 * intersect(n, n)), "-2")
    # preimages of the second-level origin exceptionals: elliptic, and
    # square -1 after contracting the four (-1)-curves
    for k, e in enumerate(ebar, start=1):
        rep.check(f"origin exceptional {k}: branch contacts",
                  str(intersect(e, branch)), "4", tag="derived")
        g_meet = intersect(e, gbar[k - 1])
        rep.check(f"origin exceptional {k}: square after contraction",
                  str(2 * intersect(e, e) + g_meet * g_meet), "-1")

    # configuration sanity of the proper transforms
    rep.check("first-level exceptional squares",
              sorted(str(intersect(g, g)) for g in gbar),
              ["-2", "-2", "-2", "-2"], tag="definitional")
    rep.check("first/second-level meeting numbers",
              sorted(str(intersect(g, e)) for g, e in zip(gbar, ebar)),
              ["1", "1", "1", "1"], tag="definitional")

    # extended-lattice canonical bookkeeping
    L1 = _extend(lat1, bundle, {"f3": -1, "f4": -1, "f5": -1, "f6": -1})
    rep.check("extended branch is twice the extended bundle",
              verify_class_relation(branch1, 2 * L1), True, tag="derived")
    K1 = lat1.canonical
    sum_f = sum(fbars[1:], fbars[0])
    sum_e1 = _extend(lat1, sum_e, {})
    adjoint_display = lat1.cls({"h1": 1, "h2": 1}) - sum_e1 + sum_c + sum_f
    rep.check("adjoint display on the extended lattice",
              verify_class_relation(K1 + L1, adjoint_display), True)
    return rep


def _extend(lat1: Lattice, cls: DivisorClass, extra: dict) -> DivisorClass:
    coeffs = {n: c for n, c in zip(cls.lattice.names, cls.coeffs) if c}
    coeffs.update(extra)
    return lat1.cls(coeffs)


@lru_cache(maxsize=None)
def _origin_conditions() -> tuple:
    """Passage through the four chart origins with the tangent-cone
    direction at each: the conditions of the adjoint and gamma counts,
    built once per process (the counts themselves run every time)."""
    zero = F49.zero()
    conditions = []
    for chart in (1, 2, 3, 4):
        pt = chart_point(chart, zero, zero)
        conditions.append(PassThrough(pt))
        conditions.append(TangentDirection(pt, _cone_direction(chart)))
    return tuple(conditions)


def _cone_direction(chart: int):
    smooth = _double_and_smooth(*curve_pair(F49))[chart][2]
    uv = cgdata.CHARTS[chart]
    return line_root(chart_germ(smooth, chart).poly.graded_part(1, uv), *uv)


# ----------------------------------------------------------------------
# scenario: diophantine


def multiple_fiber_scan(target: int, bound: int) -> list[tuple[int, int, int]]:
    """All (lambda, m1, m2) with lambda*(m1*m2 - m1 - m2) = target,
    2 <= m1 < m2 <= bound coprime, lambda >= 1, by exhaustive scan.

    With lambda >= 1 the target must be positive, and v = m1*m2 - m1 - m2
    a positive divisor of it, so v <= target.  For fixed m1 the value
    v = (m1 - 1)*m2 - m1 grows with m2, so v <= target exactly when
    m2 <= (target + m1) // (m1 - 1): each row stops there, and the scan
    stops at the first m1 whose row is empty, since that bound falls as
    m1 grows.  Every pair it skips has v > target, so the scan misses no
    solution.
    """
    out = []
    if target < 1:
        return out
    for m1 in range(2, bound + 1):
        top = min(bound, (target + m1) // (m1 - 1))
        if top <= m1:
            break
        for m2 in range(m1 + 1, top + 1):
            v = m1 * m2 - m1 - m2
            if v > 0 and target % v == 0 and gcd(m1, m2) == 1:
                out.append((target // v, m1, m2))
    return sorted(out)


def scenario_diophantine() -> VerificationReport:
    rep = VerificationReport(
        "diophantine",
        citation=("the multiple-fiber equation lambda*(m1*m2-m1-m2) = 2 "
                  "has the single coprime solution lambda=2, (2,3)"))
    rep.check("solutions up to bound 100", multiple_fiber_scan(2, 100),
              [(2, 2, 3)])
    rep.check("solutions up to bound 3", multiple_fiber_scan(2, 3),
              [(2, 2, 3)])
    rep.check("regression: target 3 solution set",
              multiple_fiber_scan(3, 100), [(1, 2, 5), (3, 2, 3)],
              tag="derived")
    return rep


# ----------------------------------------------------------------------
# scenario: gamma


def scenario_gamma() -> VerificationReport:
    rep = VerificationReport(
        "gamma",
        citation=("a bidegree-(2,2) curve through the four double points "
                  "with the tangent-cone directions exists: eight "
                  "conditions on nine coefficients"))
    conditions = _origin_conditions()
    dim = series_dimension((2, 2), conditions, F49)
    rep.check("unconstrained section count",
              series_dimension((2, 2), (), F49), 9)
    rep.require("constrained dimension is positive", dim >= 1)
    rep.check("constrained dimension (regression)", dim, 1, tag="derived")
    dim_minus = series_dimension((2, 2), conditions[:-1], F49)
    rep.check("dropping one direction condition", dim_minus, 2,
              tag="derived")
    # the five-point vanishing behind the cotangent count, with its
    # positional hypothesis checked first
    zero = F49.zero()
    q2 = chart_point(4, *q_point(2))
    pts = [q2] + [chart_point(c, zero, zero) for c in (1, 2, 3, 4)]
    fibers = distinct_fiber_counts(pts)
    rep.check("positional hypothesis: distinct fibers", list(fibers),
              [3, 3])
    rep.check("split-bundle sections vanishing at the five points",
              split_sections_vanishing(pts, F49), 0)
    rep.check("split-bundle sections, no conditions",
              split_sections_vanishing((), F49), 6, tag="definitional")
    rep.check("split-bundle sections, one point",
              split_sections_vanishing((q2,), F49), 4,
              tag="derived")
    rep.note("the count is verified on the characteristic-7 configuration; "
             "the characteristic-zero existence statement is a dimension "
             "count of the same shape, not a computation performed here")
    return rep


# ----------------------------------------------------------------------
# registry and runner

# every scenario in canonical report order: id -> (short claim, run)
SCENARIOS = {
    "expansion": ("7-adic expansion of the quintic at the lifted root",
                  scenario_expansion),
    "branch": ("discriminant section splits into the two branch curves",
               scenario_branch),
    "delta": ("diagonal factorizations and the six intersection points",
              scenario_delta),
    "singularities": ("rigidity conditions and node classification",
                      scenario_singularities),
    "deform-derive": ("first-order rigidity system re-derivation",
                      scenario_deform_derive),
    **{spec.id: (spec.claim, partial(scenario_system, spec))
       for spec in cgdata.SYSTEM_SPECS + (cgdata.LEFSCHETZ_SPEC,)},
    "basis-count": ("seven systems realize the obstruction basis",
                    scenario_basis_count),
    "ramification": ("branch loci and flexes of the two rulings",
                     scenario_ramification),
    "lattice": ("divisor-class identities and double-cover invariants",
                scenario_lattice),
    "diophantine": ("multiple-fiber multiplicity equation",
                    scenario_diophantine),
    "gamma": ("existence count for the bidegree-(2,2) tangent curve",
              scenario_gamma),
}


def run_scenario(scenario_id: str) -> VerificationReport:
    if scenario_id not in SCENARIOS:
        raise KeyError(f"unknown scenario {scenario_id!r}")
    start = time.perf_counter()
    try:
        rep = SCENARIOS[scenario_id][1]()
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        rep = VerificationReport(scenario_id, status="error")
        rep.note(f"{type(exc).__name__}: {exc}")
    rep.millis = (time.perf_counter() - start) * 1000.0
    return rep


def run_many(ids=None) -> list[VerificationReport]:
    """Run each given scenario (default: all) once, in the order first
    given, and return their reports in canonical order."""
    ids = list(dict.fromkeys(ids)) if ids else list(SCENARIOS)
    for sid in ids:
        if sid not in SCENARIOS:
            raise KeyError(f"unknown scenario {sid!r}")
    reports = [run_scenario(sid) for sid in ids]
    order = {sid: k for k, sid in enumerate(SCENARIOS)}
    reports.sort(key=lambda r: order[r.scenario_id])
    return reports
