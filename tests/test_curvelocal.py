"""Plane-curve germs: multiplicity, classification, contacts, branch loci."""

import random

import pytest

from stablelimit import MPoly, PrimeField, QuadraticField, VarRegistry, parse_poly
from stablelimit import cgdata
from stablelimit.linalg import LinearSystem, solve_affine
from stablelimit.curvelocal import (ChartGerm, DegenerateProjectionError,
                                    ZeroGermError, branch_locus, classify,
                                    divides,
                                    infinitely_near_multiplicity,
                                    intersection_multiplicity,
                                    multiplicity_at,
                                    strip_monomial_content)
from stablelimit.scenarios import (chart_germ, curve_pair, diagonal_param,
                                   fiber_param, q_point, translated_germ)
from test_poly import sorted_terms

F7 = PrimeField(7)
F49 = QuadraticField(7)
UV = VarRegistry(("u", "v"))
S = VarRegistry(("s",))


def germ(text, ring=F49):
    return ChartGerm("test", parse_poly(text, UV, ring), ("u", "v"))


# ----------------------------------------------------------------------
# multiplicity and classification


def test_multiplicity_examples():
    assert multiplicity_at(germ("u^2+v^3")) == 2
    assert multiplicity_at(germ("u+v^2")) == 1
    assert multiplicity_at(germ("u^3*v")) == 4
    with pytest.raises(ZeroGermError):
        multiplicity_at(ChartGerm("z", MPoly.zero(UV, F49), ("u", "v")))


def test_curve_germ_multiplicities():
    g1, _ = curve_pair("F49")
    assert multiplicity_at(chart_germ(g1, 1)) == 2
    assert multiplicity_at(chart_germ(g1, 2)) == 1
    assert multiplicity_at(chart_germ(g1, 3)) == 1
    assert multiplicity_at(chart_germ(g1, 4)) == 2


def test_classification_examples():
    assert classify(germ("u*v+u^3")).kind == "node"
    assert classify(germ("u^2-v^4")).kind == "tacnode_or_degeneration"
    assert classify(germ("u^2-v^5")).kind == "tacnode_or_degeneration"
    assert classify(germ("u^2+v^3")).kind == "other"          # cusp
    assert classify(germ("u+v^2")).kind == "smooth"
    assert classify(germ("u^3+v^3")).kind == "other"
    # a double line with a = 0 (the line is v), and one in both u and v
    assert classify(germ("v^2+u^3")).kind == "other"
    assert classify(germ("v^2+u^2*v")).kind == "tacnode_or_degeneration"
    assert classify(germ("(u+2*v)^2+(u+2*v)*u^2")).kind == \
        "tacnode_or_degeneration"
    assert classify(germ("(u+2*v)^2+v^3")).kind == "other"


def test_classification_at_transverse_points():
    g1, g2 = curve_pair("F49")
    product = g1 * g2
    for k in (1, 2):
        alpha, beta = q_point(k)
        verdict = classify(translated_germ(product, alpha, beta))
        assert verdict.kind == "node"


def test_classification_at_double_points():
    g1, g2 = curve_pair("F49")
    for g, charts in ((g1, (1, 4)), (g2, (2, 3))):
        for chart in charts:
            assert classify(chart_germ(g, chart)).kind == \
                "tacnode_or_degeneration"


def test_multiplicity_invariant_under_linear_change():
    rng = random.Random(83)
    g1, _ = curve_pair("F49")
    base = chart_germ(g1, 4)
    u = MPoly.variable(cgdata.AB, F49, "al")
    v = MPoly.variable(cgdata.AB, F49, "be")
    for _ in range(20):
        while True:
            a, b, c, d = (F49.random_element(rng) for _ in range(4))
            if not (a * d - b * c).is_zero():
                break
        changed = base.poly.substitute({
            "al": u.scale(a) + v.scale(b),
            "be": u.scale(c) + v.scale(d),
        })
        assert multiplicity_at(ChartGerm("chg", changed, ("al", "be"))) == \
            multiplicity_at(base)


# ----------------------------------------------------------------------
# intersection multiplicity


def param(alpha_text, beta_text):
    return (parse_poly(alpha_text, S, F49), parse_poly(beta_text, S, F49))


def test_intersection_multiplicity_examples():
    # the parabola v = u^2 against the u-axis parametrized as (s, 0):
    # order 2
    g = germ("v-u^2")
    assert intersection_multiplicity(g, param("s", "0")) == 2
    # along its own branch the order is infinite
    assert intersection_multiplicity(g, param("s", "s^2")) is None


def test_intersection_multiplicity_additive():
    rng = random.Random(89)
    for _ in range(20):
        e1 = rng.randrange(1, 4)
        e2 = rng.randrange(1, 4)
        g = germ(f"(v-u^{e1})*(v+u^{e2}+u)")
        expected = (intersection_multiplicity(germ(f"v-u^{e1}"),
                                              param("s", "0"))
                    + intersection_multiplicity(germ(f"v+u^{e2}+u"),
                                                param("s", "0")))
        assert intersection_multiplicity(g, param("s", "0")) == expected


def test_flex_contacts():
    g1, g2 = curve_pair("F49")
    for k in (1, 2):
        alpha, beta = q_point(k)
        g = translated_germ(g1, alpha, beta)
        assert intersection_multiplicity(g, fiber_param(F49)) == 3


def test_diagonal_contacts():
    g1, _ = curve_pair("F49")
    for k, expected in ((1, 1), (2, 1), (3, 2), (4, 2)):
        alpha, beta = q_point(k)
        g = translated_germ(g1, alpha, beta)
        assert intersection_multiplicity(
            g, diagonal_param(beta), truncation=10) == expected


def test_param_must_pass_through_origin():
    with pytest.raises(ValueError):
        intersection_multiplicity(germ("u+v"), param("1+s", "0"))


def test_contact_orders_at_and_beyond_each_precision():
    # v - u^k against the u-axis: order k, found at the first precision
    # (below s^4) for k < 4 and at a doubled one otherwise; a pure power at
    # the precision itself is skipped without reading its power
    for k in (1, 3, 4, 5, 8, 9):
        g = germ(f"v-u^{k}")
        assert intersection_multiplicity(g, param("s", "0")) == k
        assert intersection_multiplicity(g, param("s", "0"), truncation=k) == k
        assert intersection_multiplicity(g, param("s", "0"),
                                         truncation=k - 1) is None
    assert intersection_multiplicity(germ("3+u"), param("s", "0"), -1) is None


def truncate(p, name, max_degree):
    """The terms of p whose exponent of ``name`` is at most ``max_degree``
    (once ``MPoly.truncate``)."""
    i = p.registry.index[name]
    return MPoly(p.registry, p.ring,
                 {e: c for e, c in p.terms.items() if e[i] <= max_degree})


def reference_intersection_multiplicity(g, param, truncation=None):
    """``intersection_multiplicity`` as it was first written: the whole
    pullback by ``substitute``, then cut above s^truncation."""
    out = g.poly.substitute(dict(zip(g.local_vars, param)))
    if truncation is not None:
        out = truncate(out, param[0].registry.names[0], truncation)
    return None if out.is_zero() else min(e[0] for e in out.terms)


@pytest.mark.parametrize("ring", [F7, F49], ids=["GF7", "GF49"])
def test_contact_orders_match_the_substitute_and_truncate_route(ring):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    if ring is F7:
        values = [ring.element(a) for a in range(7)]
    else:
        values = [ring.element((a, b)) for a in range(7) for b in range(7)]
    coeffs = st.sampled_from(values)
    # germs with exponents up to 5, so that a pure power reaches the first
    # precision, s^4; series without constant term, the zero one included
    germs = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                            coeffs, max_size=8).map(
        lambda terms: MPoly(UV, ring, terms))
    series = st.dictionaries(st.integers(1, 6).map(lambda k: (k,)), coeffs,
                             max_size=4).map(lambda terms: MPoly(S, ring, terms))
    U, V, s = (MPoly.variable(UV, ring, "u"), MPoly.variable(UV, ring, "v"),
               MPoly.variable(S, ring, "s"))

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                         database=None)
    @hypothesis.given(germs, series, series, st.booleans(),
                      st.one_of(st.none(), st.integers(-1, 14)))
    def agree(poly, pu, pv, on_branch, truncation):
        if on_branch:
            # the branch (s, f(s)) of v - f(u): the pullback vanishes
            poly = poly * (V - pv.substitute({"s": U}))
            pu = s
        g = ChartGerm("test", poly, ("u", "v"))
        full = reference_intersection_multiplicity(g, (pu, pv))
        if on_branch:
            assert full is None
        for t in (truncation, full, None if full is None else full - 1):
            assert intersection_multiplicity(g, (pu, pv), t) == \
                reference_intersection_multiplicity(g, (pu, pv), t)
        if full is not None:
            assert intersection_multiplicity(g, (pu, pv), full) == full
            assert intersection_multiplicity(g, (pu, pv), full - 1) is None

    agree()


# ----------------------------------------------------------------------
# infinitely-near multiplicities (tacnode pattern [2, 2])


def test_tacnode_multiplicity_sequence():
    g = germ("u^2-v^4")
    assert multiplicity_at(g) == 2
    assert infinitely_near_multiplicity(g, (F49.zero(), F49.one())) == 2
    # a node drops to multiplicity 1 immediately in either branch direction
    n = germ("u*v+v^3")
    assert infinitely_near_multiplicity(n, (F49.one(), F49.zero())) == 1


def test_curve_multiplicity_sequences():
    from stablelimit.scenarios import _cone_direction
    g1, _ = curve_pair("F49")
    for chart, expected in ((1, 2), (2, 1), (3, 1), (4, 2)):
        g = chart_germ(g1, chart)
        assert infinitely_near_multiplicity(g, _cone_direction(chart)) == \
            expected


# ----------------------------------------------------------------------
# branch loci


def test_branch_loci_of_the_two_curves():
    g1, g2 = curve_pair("F7")
    d1 = branch_locus(g1, cgdata.FIRST_PAIR, cgdata.SECOND_PAIR)
    target1 = parse_poly("(be^2+be'^2)^2", cgdata.AB, F7)
    lead = sorted_terms(target1)[0]
    u = d1.terms[lead[0]] * lead[1].inverse()
    assert (d1 - target1.scale(u)).is_zero()

    d2 = branch_locus(g2, cgdata.FIRST_PAIR, cgdata.SECOND_PAIR)
    target2 = parse_poly("be^4+4*be^2*be'^2+be'^4", cgdata.AB, F7)
    lead = sorted_terms(target2)[0]
    u = d2.terms[lead[0]] * lead[1].inverse()
    assert (d2 - target2.scale(u)).is_zero()


def test_branch_locus_split_cubic_is_constant():
    # a product of three distinct horizontal lines times a cubic in the
    # base: the discriminant carries no base dependence after stripping
    g = parse_poly("al*(al-al')*(al+al')*be^3", cgdata.AB, F7)
    d = branch_locus(g, cgdata.FIRST_PAIR, cgdata.SECOND_PAIR)
    assert d.total_degree() == 0 and not d.is_zero()


def test_branch_locus_flex_consistency():
    # a fiberwise cubic with a triple root over be = 0 has a branch
    # divisor vanishing there to order at least 2
    g = parse_poly("al^3*be'^3+al'^3*be^3", cgdata.AB, F7)
    d = branch_locus(g, cgdata.FIRST_PAIR, cgdata.SECOND_PAIR)
    stripped, removed = strip_monomial_content(d, ("be", "be'"))
    assert removed["be"] >= 2 or stripped.coefficient({"be'": 8}).is_zero()


def test_branch_locus_rejects_degenerate_input():
    with pytest.raises(DegenerateProjectionError):
        branch_locus(parse_poly("al*al'*be*be'", cgdata.AB, F7),
                     cgdata.FIRST_PAIR, cgdata.SECOND_PAIR)


# ----------------------------------------------------------------------
# the stays-tangent criterion at a diagonal point


def test_tangency_criterion_matches_diagonal_rows():
    """The stays-tangent criterion for the fourth diagonal point is the
    vanishing of the deformation cloud there: exactly the published
    value row (rebuilt independently in the deformation module)."""
    from stablelimit import deformation
    g1, _ = curve_pair("F49")
    alpha, beta = q_point(4)
    # normalize coordinates: diagonal as first axis through the point
    g = translated_germ(g1, alpha, beta)
    assert intersection_multiplicity(g, diagonal_param(beta),
                                     truncation=10) == 2
    row = deformation.diagonal_rows()["B1Q4"]
    # the row is the linear form gbar |-> gbar(point), up to the chart
    # unit: evaluate the basis cloud directly and compare
    unit = (F49.one() + beta) ** 3
    expected = deformation.point_row("a", alpha, beta)
    for coeff, value in zip(row, expected):
        assert coeff == value * unit


# ----------------------------------------------------------------------
# divisibility by a linear form, against a linear-solve reference


def reference_divide_by_linear(target, linear, u, v):
    """The quotient by solving linear * q = target for the coefficients
    of a general binary form q of one degree less: a second route to the
    quotient, through linear algebra."""
    ring, registry = target.ring, target.registry
    if target.is_zero():
        return MPoly.zero(registry, ring)
    qdeg = target.total_degree() - 1
    U, V = (MPoly.variable(registry, ring, n) for n in (u, v))
    basis = [U ** (qdeg - k) * V ** k for k in range(qdeg + 1)]
    prods = [linear * q for q in basis]
    monos = sorted({e for p in prods for e in p.terms} | set(target.terms))
    rows = [[p.terms.get(m, ring.zero()) for p in prods] for m in monos]
    rhs = [target.terms.get(m, ring.zero()) for m in monos]
    names = [f"q{k}" for k in range(qdeg + 1)]
    sol = solve_affine(LinearSystem(names, rows, rhs, ring))
    if not sol.is_consistent():
        return None
    out = MPoly.zero(registry, ring)
    for q, name in zip(basis, names):
        out = out + q.scale(sol.particular[name])
    return out


def _binary_form(rng, u, v, degree):
    """A random binary form of the degree in the chart variables u, v."""
    U, V = (MPoly.variable(cgdata.AB, F49, n) for n in (u, v))
    out = MPoly.zero(cgdata.AB, F49)
    for k in range(degree + 1):
        out = out + (U ** (degree - k) * V ** k).scale(F49.random_element(rng))
    return out


def test_divides_refuses_a_form_that_is_not_binary():
    U = parse_poly("u", UV, F49)
    # v^2 + v has no root rule: u does not divide it, though it vanishes
    # at u's root (0, 1)
    for text in ("v^2+v", "u^2*v+u", "1+u"):
        with pytest.raises(ValueError):
            divides(U, parse_poly(text, UV, F49), "u", "v")
    UVW = VarRegistry(("u", "v", "w"))
    with pytest.raises(ValueError):
        divides(parse_poly("u", UVW, F49), parse_poly("u*w", UVW, F49),
                "u", "v")
    # a nonzero constant is a binary form of degree 0 that no line divides
    assert divides(U, parse_poly("3", UV, F49), "u", "v") is False


def test_division_matches_the_linear_solve_reference():
    rng = random.Random(2024)
    divisible = 0
    for trial in range(400):
        u, v = cgdata.CHARTS[trial % 4 + 1]
        U, V = (MPoly.variable(cgdata.AB, F49, n) for n in (u, v))
        p = F49.zero() if trial % 5 == 0 else F49.random_element(rng)
        q = F49.random_element(rng)
        if p.is_zero() and q.is_zero():
            q = F49.one()
        linear = U.scale(p) + V.scale(q)
        degree = rng.randrange(5)
        if trial % 7 == 0:
            target = MPoly.zero(cgdata.AB, F49)
        elif degree > 0 and trial % 2:
            target = linear * _binary_form(rng, u, v, degree - 1)
        else:
            target = _binary_form(rng, u, v, degree)
        expected = reference_divide_by_linear(target, linear, u, v)
        assert divides(linear, target, u, v) == (expected is not None), \
            (target, linear)
        divisible += expected is not None and not target.is_zero()
    assert 100 < divisible < 300
    # the zero line divides the zero form and no other
    zero = MPoly.zero(cgdata.AB, F49)
    for target in (zero, parse_poly("al^2+3*al*be", cgdata.AB, F49)):
        expected = reference_divide_by_linear(target, zero, "al", "be")
        assert divides(zero, target, "al", "be") == (expected is not None) \
            == target.is_zero()
