"""Sparse polynomials: parser, ring operations, calculus, restriction."""

import ast
import functools
import itertools
import operator
import pathlib
import random

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:     # only the properties at the end need hypothesis
    given = settings = st = None

from stablelimit import (ZZ, DualNumbers, MPoly, ParseError, PrimeField,
                         QuadraticField, RingMismatchError, VarRegistry, ZMod,
                         parse_poly)
from stablelimit import cgdata, poly
from stablelimit.poly import MAX_DEGREE
from stablelimit.scenarios import build_quintic, curve_pair

F7 = PrimeField(7)
F49 = QuadraticField(7)
Z343 = ZMod(7, 3)

XYZT = VarRegistry(("x", "y", "z", "t"))
AB = cgdata.AB


def degree_in(p, name):
    """Highest exponent of ``name`` in p; -1 for the zero polynomial."""
    i = p.registry.index[name]
    return max((e[i] for e in p.terms), default=-1)


def is_bihomogeneous(p, bidegree, split):
    """True iff every term of p has the given degrees in the two variable
    sets."""
    first, second = ([p.registry.index[n] for n in names] for names in split)
    return all((sum(e[i] for i in first), sum(e[i] for i in second))
               == tuple(bidegree) for e in p.terms)


def sorted_terms(p):
    """The terms of p in descending graded reverse lexicographic order, as
    ``str`` prints them (once ``MPoly.sorted_terms``)."""
    return sorted(p.terms.items(), key=lambda t: poly.grevlex_key(t[0]),
                  reverse=True)


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
    # integer and variable factors on both sides of a parenthesised one
    assert parse_poly("2*x^2*(y+1)^2*3*z", XYZT, F7) == \
        parse_poly("6*x^2*y^2*z+5*x^2*y*z+6*x^2*z", XYZT, F7)


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
    assert degree_in(p, "al'") == 2
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
    assert sorted_terms(a) == sorted_terms(b)


@pytest.mark.parametrize("ring", [ZZ, Z343, F7, F49],
                         ids=["ZZ", "Z/343", "GF(7)", "GF(49)"])
def test_parse_zero_and_empty_powers(ring):
    one, zero = MPoly.constant(XYZT, ring.one()), MPoly.zero(XYZT, ring)
    assert parse_poly("0^0", XYZT, ring) == one
    assert parse_poly("(x+y)^0", XYZT, ring) == one
    assert parse_poly("0*x", XYZT, ring) == zero
    assert parse_poly("3*(x-x)^2", XYZT, ring) == zero


# 0*x^65536 raises as 0 * x**65536 does: the power exceeds the bound
# before the product makes it zero
@pytest.mark.parametrize("text", ["x^65536", "(x*y)^32768", "x^65535*y",
                                  "(x+1)^65536", "0*x^65536"])
def test_parse_raises_above_the_degree_bound(text):
    with pytest.raises(OverflowError):
        parse_poly(text, XYZT, F7)


@pytest.mark.parametrize("text", ["x^65536", "(x+1)^65536", "0*x^65536"])
def test_parse_checks_the_degree_of_a_power_before_any_product(monkeypatch,
                                                                text):
    plain_product = poly._product
    products = [0]

    def counted_product(*args):
        products[0] += 1
        return plain_product(*args)

    monkeypatch.setattr(poly, "_product", counted_product)
    with pytest.raises(OverflowError):
        parse_poly(text, XYZT, ZZ)
    assert products[0] == 0


def test_parse_raises_a_literal_to_a_power_by_squaring(monkeypatch):
    coeffs = poly._coeffs(F7)
    plain_mul = coeffs.mul
    products = [0]

    def counted_mul(a, b):
        products[0] += 1
        return plain_mul(a, b)

    monkeypatch.setattr(coeffs, "mul", counted_mul)
    n = 10 ** 9
    assert parse_poly(f"2^{n}", XYZT, F7) == \
        MPoly.constant(XYZT, F7.from_int(pow(2, n, 7)))
    assert 0 < products[0] <= 2 * n.bit_length()


@pytest.mark.parametrize("text, message", [
    ("x*z +\n y*w", "unknown variable 'w' (line 2, column 4)"),
    ("x y", "trailing input starting at 'y' (line 1, column 3)"),
    ("x*", "expected a value, found 'end of input' (line 1, column 3)"),
    ("(x+y", "expected ), found '' (line 1, column 5)"),
    ("x^-2", "expected INT, found '-' (line 1, column 3)"),
    ("x+#", "unexpected character '#' (line 1, column 3)"),
    # an unexpected character is reported first, wherever it stands
    ("\n\n  x*(y+#)", "unexpected character '#' (line 3, column 8)"),
    ("  x  +  # ", "unexpected character '#' (line 1, column 9)"),
    ("x^65536*y+#", "unexpected character '#' (line 1, column 11)"),
    ("(x+1)^65536 _", "unexpected character '_' (line 1, column 13)"),
    ("x^", "expected INT, found '' (line 1, column 3)"),
    ("x^2^3", "trailing input starting at '^' (line 1, column 4)"),
    ("3x", "trailing input starting at 'x' (line 1, column 2)"),
    ("(x))", "trailing input starting at ')' (line 1, column 4)"),
    ("--x", "expected a value, found '-' (line 1, column 2)"),
    ("", "expected a value, found 'end of input' (line 1, column 1)"),
])
def test_parse_error_messages_and_positions(text, message):
    with pytest.raises(ParseError) as err:
        parse_poly(text, XYZT, F7)
    assert str(err.value) == message


# ----------------------------------------------------------------------
# value semantics: powers, hashing, immutability, the degree bound


def test_power_multiplies_only_while_bits_remain(monkeypatch):
    plain_mul = MPoly.__mul__
    products = [0]

    def counted_mul(self, other):
        products[0] += 1
        return plain_mul(self, other)

    p = parse_poly("x+2*y-z", XYZT, F7)
    monkeypatch.setattr(MPoly, "__mul__", counted_mul)
    repeated = MPoly.constant(XYZT, F7.one())
    for n in range(41):
        products[0] = 0
        assert p ** n == repeated
        # one squaring per bit below the top, one product per further bit:
        # p**1 takes none and p**2 takes one
        assert products[0] == max(0, n.bit_length() + bin(n).count("1") - 2)
        repeated = plain_mul(repeated, p)


def test_hash_agrees_with_equality():
    a = parse_poly("x^2+y^2+z^2+x*y", XYZT, F7)
    b = parse_poly("z^2+x*y+y^2+x^2", XYZT, F7)
    c = MPoly(XYZT, F7, dict(reversed(list(a.terms.items()))))
    # the registry and the ring constructed again: the same objects
    d = parse_poly("x*y+x^2+z^2+y^2", VarRegistry(XYZT.names), PrimeField(7))
    assert a == b == c == d
    assert len({hash(a), hash(b), hash(c), hash(d)}) == 1
    assert len({a, b, c, d}) == 1
    assert a != parse_poly("x^2+y^2+z^2+2*x*y", XYZT, F7)
    assert a != parse_poly("x^2+y^2+z^2+x*y", XYZT, ZMod(7, 2))


def test_hash_is_computed_once_and_cannot_be_set(monkeypatch):
    p = parse_poly("x^2+y^2+z^2+x*y", XYZT, F7)
    plain = hash((XYZT, frozenset(p._terms.items())))
    built = []
    monkeypatch.setattr(poly, "frozenset",
                        lambda items: built.append(1) or frozenset(items),
                        raising=False)
    assert hash(p) == hash(p) == plain and len(built) == 1
    with pytest.raises(AttributeError):
        p._hash = 0
    with pytest.raises(AttributeError):
        del p._hash
    assert hash(p) == plain and len(built) == 1


def test_terms_are_decoded_once_and_kept(monkeypatch):
    p = parse_poly("x^2+3*y*z+t-1", XYZT, F7)
    unpack_all = VarRegistry._unpack_all
    decoded = []

    def recorded(registry, packed):
        decoded.append(registry)
        return unpack_all(registry, packed)

    monkeypatch.setattr(VarRegistry, "_unpack_all", recorded)
    first = p.terms
    for _ in range(3):
        assert len(p.terms) == 4 and set(p.terms) == set(first)
        assert p.terms.get((2, 0, 0, 0)) == F7.one()
        assert p.terms.get((9, 0, 0, 0)) is None
        assert dict(p.terms.items()) == dict(first)
    str(p)
    assert p.terms is first and decoded == [XYZT]
    with pytest.raises(AttributeError):
        p._decoded = None
    with pytest.raises(TypeError):
        p.terms[[2, 0, 0, 0]]


def test_cached_curves_cannot_be_changed():
    g1 = curve_pair(F49)[0]
    before = str(g1)
    exps = next(iter(g1.terms))
    with pytest.raises(TypeError):
        g1.terms[exps] = F49.zero()
    with pytest.raises(AttributeError):
        g1.ring = None
    with pytest.raises(AttributeError):
        g1.registry = XYZT
    with pytest.raises(AttributeError):
        del g1.ring
    assert curve_pair(F49)[0] is g1 and str(g1) == before


def test_degree_bound_guards_the_packed_fields():
    reg = VarRegistry(("x", "y"))
    x, y = (MPoly.variable(reg, F7, n) for n in reg.names)
    top = x ** MAX_DEGREE
    assert top.total_degree() == MAX_DEGREE
    with pytest.raises(OverflowError):
        top * y
    with pytest.raises(OverflowError):
        MPoly(reg, F7, {(MAX_DEGREE, 1): F7.one()})
    with pytest.raises(OverflowError):
        (x ** (MAX_DEGREE - 1) * y).substitute({"y": y * y})
    with pytest.raises(ValueError):
        MPoly(reg, F7, {(2, -1): F7.one()})
    with pytest.raises(ValueError):
        MPoly(reg, F7, {(1, 1, 1): F7.one()})


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
    assert is_bihomogeneous(dh, (1, 1), (("al", "al'"), ("be", "be'")))
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


def reference_unit_match(p, target):
    """``unit_match`` as it was first written: the unit fixed at the
    leading monomial of the target in graded reverse lexicographic
    order."""
    for exps, c in sorted_terms(target):
        cp = p.terms.get(exps)
        if cp is None:
            return None
        u = cp * c.inverse()
        return u if (target.scale(u) - p).is_zero() else None
    return None


@pytest.mark.parametrize("ring", [F7, F49], ids=["GF7", "GF49"])
def test_unit_match_matches_the_leading_term_reference(ring):
    rng = random.Random(18)
    reg = VarRegistry(("x", "y", "z"))
    matched = 0
    for _ in range(200):
        target = rand_poly(reg, ring, rng)
        scale = ring.random_element(rng)
        p = (target.scale(scale) if rng.random() < 0.6
             else target.scale(scale) + rand_poly(reg, ring, rng, 2))
        u = poly.unit_match(p, target)
        assert u == reference_unit_match(p, target)
        matched += u is not None
    assert 0 < matched < 200


@pytest.mark.parametrize("ring", [ZZ, Z343], ids=["ZZ", "Z/343"])
def test_unit_match_refuses_a_ring_that_is_no_field(ring):
    reg = VarRegistry(("x", "y"))
    # refused where a unit would match, and for a zero target too
    for p, target in (("-2-x", "2+x"), ("8*x+8*y", "x+y"), ("0", "0")):
        with pytest.raises(ValueError, match="needs a field"):
            poly.unit_match(parse_poly(p, reg, ring),
                            parse_poly(target, reg, ring))


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


@pytest.mark.parametrize("ring", [ZZ, Z343, F7, F49],
                         ids=["ZZ", "Z/343", "GF(7)", "GF(49)"])
def test_dehomogenize_matches_substitution_on_random_polynomials(ring):
    # terms of any degrees, so that monomials collide once the dropped
    # variables are 1; less the polynomial in one set of kept variables,
    # so that in that set all of them cancel.  Every set of kept
    # variables, from all four down to none, against the substitution.
    rng = random.Random(37)
    one = MPoly.constant(AB, ring.one())
    collided = cancelled = 0
    for _ in range(40):
        p = rand_poly(AB, ring, rng, max_terms=12, max_exp=4)
        p = p - p.substitute({n: one for n in AB.names[rng.randrange(5):]})
        for mask in itertools.product((False, True), repeat=len(AB)):
            kept = [n for n, k in zip(AB.names, mask) if k]
            reference = p.substitute({n: one for n in AB.names
                                      if n not in kept})
            result = p.dehomogenize(kept)
            assert result == reference
            moved = {tuple(e * k for e, k in zip(exps, mask))
                     for exps in p.terms}
            collided += len(moved) < len(p.terms)
            cancelled += len(result.terms) < len(moved)
    assert collided and cancelled


@pytest.mark.parametrize("ring", [F7, F49, Z343],
                         ids=["GF(7)", "GF(49)", "Z/343"])
def test_linear_payloads_match_the_decoded_terms(ring):
    # seeded homogeneous linear forms over the 40 main unknowns and over
    # four variables, read off the packed monomials and off the decoded
    # exponent tuples; every position is hit, the last one included
    rng = random.Random(41)
    for registry in (VarRegistry(cgdata.MAIN_UNKNOWNS), XYZT):
        n = len(registry)
        assert MPoly.zero(registry, ring).linear_payloads() == {}
        seen = set()
        for _ in range(60):
            terms = {}
            for i in rng.sample(range(n), rng.randrange(1, n + 1)):
                exps = [0] * n
                exps[i] = 1
                terms[tuple(exps)] = ring.random_element(rng)
            p = MPoly(registry, ring, terms)
            payloads = p.linear_payloads()
            assert payloads == {exps.index(1): c.payload
                                for exps, c in p.terms.items()}
            seen |= payloads.keys()
        assert seen == set(range(n))


@pytest.mark.parametrize("text", ["3", "x*y", "x+2*y+z^2"],
                         ids=["constant", "degree-2", "mixed-degree"])
def test_linear_payloads_refuse_what_is_not_a_linear_form(text):
    with pytest.raises(ArithmeticError, match="homogeneous linear form"):
        parse_poly(text, XYZT, F49).linear_payloads()


def test_translate_examples():
    reg = VarRegistry(("x",))
    p = parse_poly("x^2", reg, F7)
    assert p.translate({"x": F7.one()}) == parse_poly("x^2+2*x+1", reg, F7)


# what only ``poly`` may know of a polynomial: its packed monomials, raw
# coefficients and kept decoded terms, and the registry's packing of
# exponent vectors
_PACKED_LAYOUT = {"_terms", "_coeffs", "_unpack_all", "_units", "_unit",
                  "_shifts", "_degree_shift", "_decoded"}


def test_only_poly_reads_the_packed_monomial_layout():
    package = pathlib.Path(poly.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level, node.module) in {(1, "poly"),
                                                      (0, "stablelimit.poly")}):
                found += [(path.name, node.lineno, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute)
                  and node.attr in _PACKED_LAYOUT):
                found.append((path.name, node.lineno, node.attr))
    assert found == []


def test_rings_without_a_coefficient_path_have_no_polynomials():
    reg = VarRegistry(("x",))
    for ring in (DualNumbers(F7), DualNumbers(F49)):
        with pytest.raises(TypeError):
            MPoly(reg, ring)
        with pytest.raises(TypeError):
            MPoly.variable(reg, ring, "x")
        with pytest.raises(TypeError):
            parse_poly("x+1", reg, ring)


@pytest.mark.parametrize("call", [
    lambda x: MPoly(x.registry, F7, {(1,): 3}),
    lambda x: MPoly.constant(x.registry, 3),
    lambda x: x.scale(2),
    lambda x: x.evaluate({"x": 2}),
    lambda x: x.translate({"x": 2})],
    ids=["constructor", "constant", "scale", "evaluate", "translate"])
def test_a_plain_int_coefficient_is_refused(call):
    # an int has no ring: Element._check refuses it, as the operators do
    x = MPoly.variable(VarRegistry(("x",)), F7, "x")
    with pytest.raises(RingMismatchError, match="expected a ring element"):
        call(x)


@pytest.mark.parametrize("call, name", [
    (lambda x: x.substitute({"x": 3}), "x"),
    (lambda x: x.pullback_order({"x": 3}), "x"),
    (lambda x: x.substitute({"x": x, "y": 3}), "y")],
    ids=["substitute", "pullback_order", "second-binding"])
def test_a_plain_int_binding_is_refused(call, name):
    # an int is no polynomial: the refusal names the binding
    x = MPoly.variable(VarRegistry(("x", "y")), F7, "x")
    with pytest.raises(RingMismatchError, match=f"binding for '{name}': "
                                                f"expected a polynomial"):
        call(x)


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
    assert is_bihomogeneous(g1, (3, 3), (("al", "al'"), ("be", "be'")))
    f2q = parse_poly("al*be+al'*be'", AB, F7)
    assert is_bihomogeneous(f2q, (1, 1), (("al", "al'"), ("be", "be'")))
    # the quadric form itself fails at (1,1) under the wrong split:
    # the term x*z has degree (2, 0) there
    f2 = parse_poly("x*z+y*t", XYZT, F7)
    assert not is_bihomogeneous(f2, (1, 1), (("x", "z"), ("y", "t")))


def test_chart1_degree_one_part_vanishes():
    # the double curve has no linear part at the first chart origin
    g1 = parse_poly(cgdata.G1, AB, F7)
    one = MPoly.constant(AB, F7.one())
    local = g1.substitute({"al": one, "be": one})
    assert local.graded_part(1, ("al'", "be'")).is_zero()


# ----------------------------------------------------------------------
# hypothesis properties: the same identities as the seeded samplers
# above, with shrinking to a minimal counterexample.  Derandomized with a
# fixed example count, so every run checks the same polynomials.

XYZ = VarRegistry(("x", "y", "z"))
PROPERTY_EXAMPLES = 50
COEFFS = {
    "ZZ": (ZZ, lambda: st.integers(-60, 60)),
    "Z/343": (Z343, lambda: st.integers(0, 342)),
    "GF(7)": (F7, lambda: st.integers(0, 6)),
    "GF(49)": (F49, lambda: st.tuples(st.integers(0, 6), st.integers(0, 6))),
}


ST = VarRegistry(("s", "t"))
S1 = VarRegistry(("s",))


def _without_constant(p):
    return p - MPoly.constant(p.registry, p.coefficient({}))


@functools.lru_cache(maxsize=None)
def polys(key, max_terms=6, max_exp=3, registry=XYZ):
    """Polynomials in x, y, z (or another registry's variables) over one
    ring, shaped like ``rand_poly``'s."""
    ring, coeffs = COEFFS[key]
    exps = st.tuples(*[st.integers(0, max_exp - 1)] * len(registry))
    terms = st.lists(st.tuples(exps, coeffs().map(ring.element)),
                     max_size=max_terms)
    return terms.map(lambda pairs: MPoly(registry, ring, dict(pairs)))


@functools.lru_cache(maxsize=None)
def points(key, registry=XYZ):
    ring, coeffs = COEFFS[key]
    return st.fixed_dictionaries(
        {name: coeffs().map(ring.element) for name in registry.names})


def poly_property(make_strategies, examples=PROPERTY_EXAMPLES):
    """``given`` over the strategies ``make_strategies(key)`` returns, for
    each ring key the test is parametrized over, on ``examples`` examples;
    a skip without hypothesis."""
    def decorate(test):
        if given is None:
            def run(key):
                pytest.skip("hypothesis is not installed")
        else:
            @settings(derandomize=True, max_examples=examples,
                      deadline=None, database=None)
            @given(st.data())
            def run(key, data):
                test(*(data.draw(s) for s in make_strategies(key)))
        run.__name__ = test.__name__
        return run
    return decorate


@pytest.mark.parametrize("key", ["ZZ", "Z/343", "GF(7)"])
@poly_property(lambda key: (polys(key),))
def test_property_print_parse_roundtrip(p):
    assert parse_poly(str(p), p.registry, p.ring) == p


@pytest.mark.parametrize("key", ["GF(7)", "Z/343", "GF(49)"])
@poly_property(lambda key: (polys(key), polys(key),
                            *[polys(key, max_terms=3, max_exp=2)] * 3))
def test_property_substitute_is_ring_homomorphism(p, q, sx, sy, sz):
    sigma = {"x": sx, "y": sy, "z": sz}
    assert (p * q).substitute(sigma) == \
        p.substitute(sigma) * q.substitute(sigma)
    assert (p + q).substitute(sigma) == \
        p.substitute(sigma) + q.substitute(sigma)


@pytest.mark.parametrize("key", ["GF(7)", "Z/343", "GF(49)"])
@poly_property(lambda key: (polys(key), polys(key),
                            *[polys(key, 3, 2, ST)] * 3, points(key, ST)))
def test_property_substitution_into_another_registry(p, q, sx, sy, sz,
                                                     point):
    sigma = {"x": sx, "y": sy, "z": sz}
    image = p.substitute(sigma)
    assert image.registry == ST
    assert (p * q).substitute(sigma) == image * q.substitute(sigma)
    assert (p + q).substitute(sigma) == image + q.substitute(sigma)
    # p(sigma) at a point is p at the image of that point under sigma
    assert image.evaluate(point) == \
        p.evaluate({n: s.evaluate(point) for n, s in sigma.items()})


def test_substitution_into_another_registry_binds_every_used_variable():
    p = parse_poly("x^2*y+3", XYZ, F7)
    s, t = (MPoly.variable(ST, F7, n) for n in ST.names)
    # z is unused, so it may stay unbound
    assert p.substitute({"x": s + t, "y": s}) == \
        parse_poly("(s+t)^2*s+3", ST, F7)
    with pytest.raises(KeyError):       # y is used and unbound
        p.substitute({"x": s})
    with pytest.raises(KeyError):       # no such variable
        p.substitute({"w": s})
    with pytest.raises(RingMismatchError):      # two registries
        p.substitute({"x": s, "y": MPoly.variable(XYZ, F7, "y")})
    with pytest.raises(RingMismatchError):      # another ring
        p.substitute({"x": s, "y": MPoly.variable(ST, Z343, "s")})


def test_pullback_order_refuses_what_it_cannot_read():
    p = parse_poly("x*y+x^2", XYZ, F7)           # z is unused
    S = VarRegistry(("s",))
    s = MPoly.variable(S, F7, "s")
    cases = [
        (ValueError, {}),                                   # no registry
        (ValueError, {"x": MPoly.variable(ST, F7, "s"),
                      "y": MPoly.variable(ST, F7, "t")}),   # two variables
        (RingMismatchError, {"x": s, "y": MPoly.variable(
            VarRegistry(("r",)), F7, "r")}),                # two registries
        (ValueError, {"x": s + MPoly.constant(S, F7.one()), "y": s}),
        (KeyError, {"x": s, "y": s, "w": s}),               # no such variable
        (KeyError, {"x": s}),                               # y is unbound
        (RingMismatchError, {"x": s, "y": MPoly.variable(S, F49, "s")}),
        (OverflowError, {"x": s ** 40000, "y": s}),         # bound 80000
    ]
    for error, bindings in cases:
        with pytest.raises(error):
            p.pullback_order(bindings)
    assert p.pullback_order({"x": s, "y": s ** 2}) == 2
    assert p.pullback_order({"x": s ** 40000, "y": s}, 1) is None


def test_a_term_at_the_precision_raises_no_binding_to_a_power(monkeypatch):
    # below s^4, x^4 + y^2 along (s, 0) leaves only y^2, whose power of 0
    # is the one product; x^4 is skipped, not raised to a power that the
    # cut then drops
    S = VarRegistry(("s",))
    s, zero = MPoly.variable(S, F7, "s"), MPoly.zero(S, F7)
    p = parse_poly("x^4+y^2", XYZ, F7)
    product, products = poly._product, []

    def recorded(*args):
        products.append(args)
        return product(*args)

    monkeypatch.setattr(poly, "_product", recorded)
    assert p.pullback_order({"x": s, "y": zero}, truncation=3) is None
    assert len(products) == 2       # y's ladder: y^1, y^2
    products.clear()
    # the degree bound 4 caps the second precision at s^5, where x^4 counts
    assert p.pullback_order({"x": s, "y": zero}) == 4
    assert len(products) == 2 + 2 + 4       # y^1, y^2 twice; x^1 .. x^4


def reference_substitute(p, bindings):
    """``substitute`` as it was first written, without its checks of the
    arguments: one product of the bound powers per term, each power
    ``value ** k`` by squaring, memoized per binding."""
    registry, coeffs = p.registry, p._coeffs
    target = next((v.registry for v in bindings.values()), registry)
    top = target._degree_shift
    bound = [(registry._shifts[registry.index[n]],
              registry._unit(registry.index[n]), v, {})
             for n, v in bindings.items()]
    acc = {}
    for e, c in p._terms.items():
        residual, piece = e, None
        for shift, unit, value, powers in bound:
            k = (e >> shift) & poly._MASK
            if k:
                residual -= k * unit
                power = powers.get(k)
                if power is None:
                    power = powers[k] = value ** k
                piece = power if piece is None else piece * power
        terms = {0: coeffs.one} if piece is None else piece._terms
        if terms:
            poly._check_degree((residual >> top) + (max(terms) >> top))
            coeffs.addmul(acc, residual, c, terms)
    return poly._init(poly._new(MPoly), target, p.ring, coeffs,
                      coeffs.finish(acc))


def outcome(substitution, *args):
    """The result of a substitution, or ``OverflowError`` if it raised
    that."""
    try:
        return substitution(*args)
    except OverflowError:
        return OverflowError


def assert_same_terms(result, expected):
    assert result.registry == expected.registry
    assert result.ring == expected.ring
    assert result._terms == expected._terms


@pytest.mark.parametrize("key", ["ZZ", "Z/343", "GF(7)", "GF(49)"])
@poly_property(lambda key: (polys(key), st.sets(st.sampled_from(XYZ.names)),
                            *[polys(key, max_terms=3, max_exp=3)] * 3))
def test_substitute_matches_the_reference_in_its_own_registry(p, names, sx,
                                                              sy, sz):
    # the variables left out of the bindings pass through
    values = {"x": sx, "y": sy, "z": sz}
    sigma = {name: values[name] for name in sorted(names)}
    assert_same_terms(p.substitute(sigma), reference_substitute(p, sigma))


@pytest.mark.parametrize("key", ["ZZ", "Z/343", "GF(7)", "GF(49)"])
@poly_property(lambda key: (polys(key), *[polys(key, 3, 3, ST)] * 3))
def test_substitute_matches_the_reference_into_another_registry(p, sx, sy,
                                                                sz):
    sigma = {"x": sx, "y": sy, "z": sz}
    assert_same_terms(p.substitute(sigma), reference_substitute(p, sigma))


@pytest.mark.parametrize("key", ["ZZ", "Z/343", "GF(7)", "GF(49)"])
@poly_property(lambda key: (polys(key, 6, 5),
                            *[polys(key, 3, 4, S1).map(_without_constant)] * 3,
                            st.one_of(st.none(), st.integers(-1, 12))))
def test_pullback_order_matches_the_substitute_route(p, sx, sy, sz,
                                                     truncation):
    sigma = {"x": sx, "y": sy, "z": sz}
    image = p.substitute(sigma)
    orders = [e[0] for e in image.terms
              if truncation is None or e[0] <= truncation]
    assert p.pullback_order(sigma, truncation) == min(orders, default=None)


@pytest.mark.parametrize("key", ["ZZ", "Z/343", "GF(7)", "GF(49)"])
@poly_property(lambda key: (polys(key), points(key)))
def test_translate_matches_the_reference(p, offsets):
    shift = {name: MPoly.variable(XYZ, p.ring, name)
             + MPoly.constant(XYZ, off) for name, off in offsets.items()}
    assert_same_terms(p.translate(offsets), reference_substitute(p, shift))


def near_the_bound(key, registry):
    """Polynomials of total degree close to ``MAX_DEGREE``: a small one
    times a power of one variable."""
    ring = COEFFS[key][0]
    return st.tuples(polys(key, 3, 2, registry),
                     st.sampled_from(registry.names),
                     st.integers(MAX_DEGREE // 5, MAX_DEGREE - 3)).map(
        lambda args: args[0] * MPoly.variable(registry, ring, args[1])
        ** args[2])


# over a domain the degree of a product is the sum of the degrees, so the
# per-term route and the ladders raise on exactly the same inputs
@pytest.mark.parametrize("key", ["ZZ", "GF(7)", "GF(49)"])
@poly_property(lambda key: (polys(key), st.sets(st.sampled_from(XYZ.names)),
                            *[st.one_of(polys(key, 3, 2),
                                        near_the_bound(key, XYZ))] * 3,
                            *[st.one_of(polys(key, 3, 2, ST),
                                        near_the_bound(key, ST))] * 3))
def test_substitute_overflows_where_the_reference_does(p, names, sx, sy, sz,
                                                       tx, ty, tz):
    own = {"x": sx, "y": sy, "z": sz}
    own = {name: own[name] for name in sorted(names)}
    other = {"x": tx, "y": ty, "z": tz}
    for sigma in (own, other):
        result = outcome(p.substitute, sigma)
        expected = outcome(reference_substitute, p, sigma)
        if expected is OverflowError:
            assert result is OverflowError
        else:
            assert_same_terms(result, expected)


@pytest.mark.parametrize("key", ["ZZ", "GF(7)", "Z/343", "GF(49)"])
@poly_property(lambda key: (polys(key), polys(key), points(key)))
def test_property_evaluation_is_multiplicative(p, q, point):
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@pytest.mark.parametrize("key", ["ZZ", "GF(7)", "Z/343", "GF(49)"])
@poly_property(lambda key: (polys(key), polys(key),
                            st.sampled_from(XYZ.names)))
def test_property_leibniz_rule(p, q, name):
    d = MPoly.partial_derivative
    assert d(p * q, name) == d(p, name) * q + p * d(q, name)


@functools.lru_cache(maxsize=None)
def expression_trees(depth=3):
    """Trees of the grammar over x, y, z and integer literals (0 among
    them), ``depth`` levels deep: sums with an optional leading minus,
    products, powers from ^0 to ^3 and redundant parentheses."""
    leaves = st.one_of(st.integers(0, 400).map(lambda n: ("int", n)),
                       st.sampled_from(XYZ.names).map(lambda v: ("var", v)))
    if not depth:
        return leaves
    sub = expression_trees(depth - 1)
    signed = st.tuples(st.sampled_from("+-"), sub)
    return st.one_of(
        leaves,
        st.tuples(st.just("sum"), st.booleans(), sub,
                  st.lists(signed, max_size=3)),
        st.tuples(st.just("*"), st.lists(sub, min_size=2, max_size=3)),
        st.tuples(st.just("^"), sub, st.integers(0, 3)),
        st.tuples(st.just("()"), sub))


_LEVEL = {"expr": 0, "term": 1, "factor": 2, "base": 3}


def render(tree, slot="expr"):
    """Grammar text of a tree, parenthesized where it cannot stand in
    ``slot``."""
    op, *args = tree
    if op in ("int", "var"):
        return str(args[0])
    if op == "()":
        return f"({render(args[0])})"
    if op == "sum":
        negate, first, rest = args
        text = ("-" if negate else "") + render(first, "term") + "".join(
            sign + render(t, "term") for sign, t in rest)
        level = "expr"
    elif op == "*":
        text, level = "*".join(render(f, "factor") for f in args[0]), "term"
    else:
        text, level = f"{render(args[0], 'base')}^{args[1]}", "factor"
    return text if _LEVEL[level] >= _LEVEL[slot] else f"({text})"


def evaluate(tree, ring):
    """The same tree, built with MPoly arithmetic."""
    op, *args = tree
    if op == "int":
        return MPoly.constant(XYZ, ring.from_int(args[0]))
    if op == "var":
        return MPoly.variable(XYZ, ring, args[0])
    if op == "()":
        return evaluate(args[0], ring)
    if op == "^":
        return evaluate(args[0], ring) ** args[1]
    if op == "*":
        return functools.reduce(operator.mul,
                                (evaluate(f, ring) for f in args[0]))
    negate, first, rest = args
    acc = evaluate(first, ring)
    if negate:
        acc = -acc
    for sign, t in rest:
        acc = acc + evaluate(t, ring) if sign == "+" \
            else acc - evaluate(t, ring)
    return acc


@pytest.mark.parametrize("key", ["ZZ", "Z/343", "GF(7)", "GF(49)"])
# small trees come first, so this property draws more of them
@poly_property(lambda key: (st.just(COEFFS[key][0]), expression_trees()),
               examples=150)
def test_property_parse_matches_arithmetic(ring, tree):
    assert parse_poly(render(tree), XYZ, ring) == evaluate(tree, ring)
