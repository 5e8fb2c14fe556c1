"""Sparse polynomials: parser, ring operations, calculus, restriction."""

import random

import pytest

from stablelimit import (ZZ, DualNumbers, MPoly, ParseError, PrimeField,
                         QuadraticField, VarRegistry, ZMod, parse_poly)
from stablelimit import cgdata
from stablelimit.scenarios import build_quintic

F7 = PrimeField(7)
F49 = QuadraticField(7)
Z343 = ZMod(7, 3)

XYZT = VarRegistry(("x", "y", "z", "t"))
AB = cgdata.AB


def rand_poly(registry, ring, rng, max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_exp) for _ in registry.names)
        terms[exps] = ring.random_element(rng)
    return MPoly(registry, ring, terms)


# ----------------------------------------------------------------------
# parsing and printing


def test_parse_simple_forms():
    f2 = parse_poly("x*z+y*t", XYZT, F7)
    assert len(f2.terms) == 2
    assert str(f2) == "x*z+y*t"
    assert parse_poly("x - x", XYZT, F7).is_zero()
    assert parse_poly("-x^2+3*(y-z)*t", XYZT, F7) == \
        parse_poly("6*x^2+3*y*t+4*z*t", XYZT, F7)


def test_parse_print_roundtrip_random():
    rng = random.Random(3)
    for ring in (F7, Z343, ZZ):
        for _ in range(60):
            p = rand_poly(XYZT, ring, rng)
            assert parse_poly(str(p), XYZT, ring) == p


def test_print_parse_canonical_identity():
    texts = ["x*z+y*t", "1+x+x^2", "3*x^2*y-2*z*t+5"]
    for text in texts:
        p = parse_poly(text, XYZT, Z343)
        assert str(parse_poly(str(p), XYZT, Z343)) == str(p)


def test_parser_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x*z +\n y*w", XYZT, F7)
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_poly("x y", XYZT, F7)      # no implicit multiplication
    with pytest.raises(ParseError):
        parse_poly("x*", XYZT, F7)
    with pytest.raises(ParseError):
        parse_poly("(x+y", XYZT, F7)
    with pytest.raises(ParseError):
        parse_poly("x^-2", XYZT, F7)     # unary minus only at term head


def test_primed_variable_names():
    p = parse_poly("al*al'^2+be'", AB, F7)
    assert p.degree_in("al'") == 2
    assert parse_poly(str(p), AB, F7) == p


def test_registry_rejects_duplicates():
    with pytest.raises(ValueError):
        VarRegistry(("x", "x"))
    with pytest.raises(ValueError):
        VarRegistry(("x", "2y"))


def test_deterministic_ordering():
    # identical polynomials built in different term orders print identically
    a = parse_poly("x^2+y^2+z^2+x*y", XYZT, F7)
    b = parse_poly("z^2+x*y+y^2+x^2", XYZT, F7)
    assert str(a) == str(b)
    assert list(a.sorted_terms()) == list(b.sorted_terms())


# ----------------------------------------------------------------------
# the quintic as a parser stress case, against a naive expansion oracle


def naive_orbit_expansion():
    """Independent term-by-term evaluator for the quintic's orbit data:
    parses nothing, multiplies nothing symbolic; counts monomials by
    splitting the orbit strings by hand."""
    root = 143
    values = {}
    for name, (c0, c1, c2) in cgdata.COEFF_POLYS.items():
        values[name] = (c0 + c1 * root + c2 * root * root) % 343
    counts = {}
    for multiplier, orbit in cgdata.QUINTIC_ORBITS:
        factor = 1
        for piece in multiplier.split("*"):
            factor = factor * (values.get(piece, None)
                               if piece in values else int(piece)) % 343
        for monomial in orbit.split("+"):
            exps = [0, 0, 0, 0]
            for part in monomial.split("*"):
                if "^" in part:
                    var, e = part.split("^")
                    exps["xyzt".index(var)] += int(e)
                else:
                    exps["xyzt".index(part)] += 1
            key = tuple(exps)
            counts[key] = (counts.get(key, 0) + factor) % 343
    return {k: v for k, v in counts.items() if v}


def test_quintic_against_naive_oracle():
    quintic = build_quintic(Z343, Z343.from_int(143))
    oracle = naive_orbit_expansion()
    assert len(quintic.terms) == len(oracle)
    for exps, coeff in quintic.terms.items():
        assert coeff.payload == oracle[exps]


# ----------------------------------------------------------------------
# substitution


def test_substitute_defining_relation():
    reg = VarRegistry(("be",))
    p = parse_poly("be^2+1", reg, F49)
    i = MPoly.constant(reg, F49.i())
    assert p.substitute({"be": i}).is_zero()


def test_substitute_diagonal_chart_identity():
    # the (1,1) form of the diagonal vanishes under the rational section
    # al = (1-be)/(1+be) once denominators are cleared
    dh = parse_poly("al*be+al*be'+al'*be-al'*be'", AB, F7)
    assert dh.is_bihomogeneous((1, 1), (("al", "al'"), ("be", "be'")))
    one = MPoly.constant(AB, F7.one())
    cleared = dh.substitute({
        "al": parse_poly("1-be", AB, F7),
        "al'": parse_poly("1+be", AB, F7),
        "be'": one,
    })
    assert cleared.is_zero()


def test_substitute_is_ring_homomorphism():
    rng = random.Random(9)
    reg = VarRegistry(("x", "y", "z"))
    for _ in range(100):
        p = rand_poly(reg, F7, rng)
        q = rand_poly(reg, F7, rng)
        sigma = {name: rand_poly(reg, F7, rng, max_terms=3, max_exp=2)
                 for name in reg.names}
        lhs = (p * q).substitute(sigma)
        rhs = p.substitute(sigma) * q.substitute(sigma)
        assert lhs == rhs
        # direct-evaluation oracle at 20 random points
        for _ in range(20):
            point = {name: F7.random_element(rng) for name in reg.names}
            assert lhs.evaluate(point) == rhs.evaluate(point)


def test_substitute_unbound_passthrough():
    p = parse_poly("x*y+z", XYZT, F7)
    q = p.substitute({"x": parse_poly("y", XYZT, F7)})
    assert q == parse_poly("y^2+z", XYZT, F7)


# ----------------------------------------------------------------------
# derivative, graded parts, translation


def test_partial_derivative_examples():
    reg = VarRegistry(("be",))
    assert parse_poly("be^2+1", reg, F7).partial_derivative("be") == \
        parse_poly("2*be", reg, F7)
    assert parse_poly("be^7", reg, F7).partial_derivative("be").is_zero()


def test_leibniz_rule():
    rng = random.Random(23)
    reg = VarRegistry(("x", "y"))
    for _ in range(100):
        p = rand_poly(reg, F7, rng)
        q = rand_poly(reg, F7, rng)
        lhs = (p * q).partial_derivative("x")
        rhs = p * q.partial_derivative("x") + q * p.partial_derivative("x")
        assert lhs == rhs


def test_graded_parts():
    f2 = parse_poly("x*z+y*t", XYZT, F7)
    assert f2.graded_part(2, XYZT.names) == f2
    reg = VarRegistry(("x",))
    p = parse_poly("1+x+x^2", reg, F7)
    assert p.graded_part(0, ("x",)) == parse_poly("1", reg, F7)
    total = MPoly.zero(reg, F7)
    for d in range(3):
        total = total + p.graded_part(d, ("x",))
    assert total == p


def test_graded_parts_reassemble_random():
    rng = random.Random(31)
    for _ in range(40):
        p = rand_poly(XYZT, F7, rng)
        acc = MPoly.zero(XYZT, F7)
        for d in range(p.total_degree() + 1):
            acc = acc + p.graded_part(d, XYZT.names)
        assert acc == p


def test_translate_examples():
    reg = VarRegistry(("x",))
    p = parse_poly("x^2", reg, F7)
    assert p.translate({"x": F7.one()}) == parse_poly("x^2+2*x+1", reg, F7)
    # first-order offsets over the dual numbers
    D = DualNumbers(F49)
    x = MPoly.variable(reg, D, "x")
    c = D.element((F49.zero(), F49.from_int(5)))   # 5*eps
    shifted = x.translate({"x": c})
    assert shifted == x + MPoly.constant(reg, c)


def test_translate_inverse():
    rng = random.Random(41)
    reg = VarRegistry(("x", "y"))
    for _ in range(50):
        p = rand_poly(reg, F7, rng)
        a = {"x": F7.random_element(rng), "y": F7.random_element(rng)}
        back = {k: -v for k, v in a.items()}
        assert p.translate(a).translate(back) == p


def test_translate_matches_evaluation():
    rng = random.Random(43)
    reg = VarRegistry(("x", "y"))
    for _ in range(30):
        p = rand_poly(reg, F7, rng)
        a = {"x": F7.random_element(rng), "y": F7.random_element(rng)}
        q = p.translate(a)
        pt = {"x": F7.random_element(rng), "y": F7.random_element(rng)}
        shifted = {k: pt[k] + a[k] for k in pt}
        assert q.evaluate(pt) == p.evaluate(shifted)


# ----------------------------------------------------------------------
# bihomogeneity


def test_bihomogeneous_examples():
    g1 = parse_poly(cgdata.G1, AB, F7)
    assert g1.is_bihomogeneous((3, 3), (("al", "al'"), ("be", "be'")))
    f2q = parse_poly("al*be+al'*be'", AB, F7)
    assert f2q.is_bihomogeneous((1, 1), (("al", "al'"), ("be", "be'")))
    # the quadric form itself fails at (1,1) under the wrong split:
    # the term x*z has degree (2, 0) there
    f2 = parse_poly("x*z+y*t", XYZT, F7)
    assert not f2.is_bihomogeneous((1, 1), (("x", "z"), ("y", "t")))


def test_chart1_degree_one_part_vanishes():
    # the double curve has no linear part at the first chart origin
    g1 = parse_poly(cgdata.G1, AB, F7)
    one = MPoly.constant(AB, F7.one())
    local = g1.substitute({"al": one, "be": one})
    assert local.graded_part(1, ("al'", "be'")).is_zero()
