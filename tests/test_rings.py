"""Exact-ring arithmetic: axioms, canonical forms, Hensel lifting."""

import operator
import random
from fractions import Fraction

import pytest

from stablelimit import (ZZ, DualNumbers, Element, MPoly, NonUnitError,
                         NotSimpleRootError, PrimeField, QuadraticField,
                         RingMismatchError, VarRegistry, ZMod, hensel_lift)
from stablelimit.rings import eval_int_poly, field_tables

F7 = PrimeField(7)
F49 = QuadraticField(7)
Z343 = ZMod(7, 3)
D49 = DualNumbers(F49)
D7 = DualNumbers(F7)

ALL_RINGS = [ZZ, F7, F49, Z343, D49, D7]


def all_elements(field: QuadraticField):
    """Every element a+bi of GF(p)[i], for a and b in 0 .. p-1."""
    for a in range(field.p):
        for b in range(field.p):
            yield field.element((a, b))


def ring_axiom_samples(ring, samples, seed=0):
    rng = random.Random(seed)
    one = ring.one()
    zero = ring.zero()
    for _ in range(samples):
        x = ring.random_element(rng)
        y = ring.random_element(rng)
        z = ring.random_element(rng)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        try:
            inv = x.inverse()
        except NonUnitError:
            pass
        else:
            assert inv * x == one


@pytest.mark.parametrize("ring", ALL_RINGS, ids=repr)
def test_ring_axioms_quick(ring):
    ring_axiom_samples(ring, 2000, seed=17)


def test_defining_relations():
    i = F49.i()
    assert i * i == -F49.one()
    eps = D49.element((0, 1))
    assert (eps * eps).is_zero()
    assert eps * eps == D49.zero()


def test_canonical_residues():
    assert Z343.from_int(-1).payload == 342
    # a GF(49) payload is the code a + 7b of a+bi; an int is its image,
    # never read as a code
    assert F49.element((9, -1)).payload == 2 + 7 * 6
    assert repr(F49.element((2, 6))) == "2+6i"
    for a in range(7):
        for b in range(7):
            assert F49.element((a, b)).payload == a + 7 * b
    assert F49.element(10) == F49.from_int(3)
    assert F49.element(10).payload == 3
    assert Z343.from_int(143) * Z343.from_int(143) == Z343.from_int(212)
    # independent oracle: plain integer long division
    assert divmod(143 * 143, 343)[1] == 212


# non-integer payloads: a float, an integral float, a string, a fraction
NOT_INTEGERS = (3.7, 3.0, "3", Fraction(7, 2))


def test_integers_reject_non_integer_payloads():
    for bad in NOT_INTEGERS:
        with pytest.raises(TypeError):
            ZZ.element(bad)
    assert ZZ.element(True) == ZZ.one()


def test_residues_reject_non_integer_payloads():
    # 7/2 is 0 in GF(7); truncating it to 3 would be wrong
    for ring in (F7, Z343):
        for bad in NOT_INTEGERS:
            with pytest.raises(TypeError):
                ring.element(bad)


def test_gf49_rejects_non_integer_payloads():
    for bad in NOT_INTEGERS:
        for payload in (bad, (bad, 3), (1, bad)):
            with pytest.raises(TypeError):
                F49.element(payload)
    assert F49.element((9, -1)) == F49.element((2, 6))


def test_inverses():
    assert F49.one().inverse() == F49.one()
    i = F49.i()
    assert i.inverse() == -i
    assert i * (-i) == F49.one()
    with pytest.raises(NonUnitError):
        Z343.from_int(7).inverse()
    with pytest.raises(NonUnitError):
        Z343.from_int(0).inverse()
    u = Z343.from_int(143)
    assert u.inverse() * u == Z343.one()
    # dual numbers: u + v*eps invertible iff u is
    x = D49.element((F49.from_int(3), F49.i()))
    assert x.inverse() * x == D49.one()
    with pytest.raises(NonUnitError):
        D49.element((F49.zero(), F49.one())).inverse()


def test_ring_mismatch_is_typed():
    with pytest.raises(RingMismatchError):
        F7.one() + F49.one()
    with pytest.raises(RingMismatchError):
        Z343.one() * F7.one()


def test_frobenius_on_gf49():
    rng = random.Random(5)
    for _ in range(100):
        x = F49.random_element(rng)
        assert x ** 49 == x


# rings whose multiplication makes no inner Element products
@pytest.mark.parametrize("ring", [ZZ, F7, F49, Z343], ids=repr)
def test_power_squares_only_while_bits_remain(ring, monkeypatch):
    plain_mul = Element.__mul__
    products = [0]

    def counted_mul(self, other):
        products[0] += 1
        return plain_mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counted_mul)
    x = ring.random_element(random.Random(17))
    assert x ** 0 == ring.one()
    assert products[0] == 0
    repeated = ring.one()
    for n in range(1, 61):
        repeated = plain_mul(repeated, x)
        products[0] = 0
        assert x ** n == repeated
        assert products[0] <= n.bit_length() + bin(n).count("1") - 1, n


def test_elements_hash_and_immutability():
    a = F49.element((1, 2))
    b = F49.element((8, 9))
    assert a == b and hash(a) == hash(b)
    # two instances of one ring are equal, so their elements must hash
    # alike and collapse in a set
    c = QuadraticField(7).element((1, 2))
    assert a == c and len({a, c}) == 1
    with pytest.raises(AttributeError):
        a.payload = 0
    # equal payloads in different rings are different values
    three7, three49 = F7.from_int(3), F49.from_int(3)
    assert three7.payload == three49.payload
    assert three7 != three49 and len({three7, three49}) == 2


def test_public_constructor_is_ring_element():
    # Element(ring, payload) is ring.element(payload): canonical form and
    # payload validation hold for it as for every other constructor
    ten = Element(F7, 10)
    assert repr(ten) == "3"
    assert ten == F7.element(3) and hash(ten) == hash(F7.element(3))
    with pytest.raises(TypeError):
        Element(F7, "x")
    pair = Element(F49, (1, 2))
    assert pair.payload == 1 + 7 * 2 and pair == F49.element((1, 2))
    assert pair * F49.i() == F49.element((-2, 1))   # (1+2i)i = -2+i
    assert Element(ZZ, 10) == ZZ.element(10)


# rings that intern their elements: every element they hand out is one of
# ``ring._elements``, the tuple built when the ring was constructed
INTERNED = [F7, F49, Z343]


def assert_interned(x, ring):
    """x is the interned element of its ring, and that ring equals
    ``ring``; values cached per ring value, such as a table set or a
    polynomial coefficient path, belong to the first equal ring built."""
    assert x.ring == ring
    assert x is x.ring._elements[x.payload]


@pytest.mark.parametrize("ring", INTERNED, ids=repr)
def test_constructors_return_the_rings_own_elements(ring):
    # the operations are checked against a model below
    own = ring._elements
    assert len(own) == (49 if ring is F49 else ring.modulus)
    assert all(x.ring is ring and x.payload == k for k, x in enumerate(own))
    assert ring.zero() is own[0] and ring.one() is own[1]
    assert own[3] ** 5 is own[(own[3] ** 5).payload]
    for n in (-10, -1, 0, 2, 48, 400, 10**9):
        assert ring.from_int(n) is own[ring.from_int(n).payload]
        assert ring.element(n) is ring.from_int(n)
        assert Element(ring, n) is ring.from_int(n)
    rng = random.Random(9)
    for _ in range(200):
        x = ring.random_element(rng)
        assert x is own[x.payload]
    if ring is F49:
        assert sorted(x.payload for x in all_elements(F49)) == list(range(49))
        assert all(x is own[x.payload] for x in all_elements(F49))
        assert F49.i() is own[7]
        assert F49.conjugate(F49.i()) is own[6 * 7]


@pytest.mark.parametrize("ring", INTERNED, ids=repr)
def test_tables_and_polynomials_hand_out_interned_elements(ring):
    if ring.is_field():
        tables = field_tables(ring)
        for k, x in enumerate(tables.elements):
            assert x.payload == k
            assert_interned(x, ring)
        assert tables.elements is tables.elements[0].ring._elements
    xy = VarRegistry(("x", "y"))
    p = MPoly(xy, ring, {(1, 0): ring.from_int(3), (0, 2): ring.one(),
                         (0, 0): -ring.one()})
    for c in p.terms.values():
        assert_interned(c, ring)
    assert_interned(p.coefficient({"x": 1}), ring)
    assert_interned(p.coefficient({"x": 5, "y": 5}), ring)   # absent: 0
    value = p.evaluate({"x": ring.from_int(2), "y": ring.from_int(4)})
    assert value == ring.from_int(3 * 2 + 16 - 1)
    assert_interned(value, ring)


def test_rings_above_the_limit_allocate():
    big = ZMod(7, 5)            # 16807 elements: above the interning limit
    ring_axiom_samples(big, 500, seed=4)
    assert not hasattr(big, "_elements")
    assert big.one() is not big.one()
    assert big.from_int(5) + big.one() is not big.from_int(6)
    assert big.from_int(5) + big.one() == big.from_int(6)
    assert ZZ.one() is not ZZ.one()


def test_equal_rings_give_equal_elements():
    for make in (lambda: ZMod(7, 3), lambda: PrimeField(7),
                 lambda: QuadraticField(7)):
        a, b = make(), make()
        assert a == b and a is not b
        for n in range(-3, 60, 7):
            x, y = a.from_int(n), b.from_int(n)
            assert x == y and hash(x) == hash(y) and len({x, y}) == 1
            assert x + y == a.from_int(2 * n) == y + x
            assert x * y == b.from_int(n * n)


def _residues(m):
    values = range(m)
    return (values, lambda a: a, lambda a, b: (a + b) % m,
            lambda a, b: (a - b) % m, lambda a, b: a * b % m, 1)


def _pair_mul(u, v):
    (a, b), (c, d) = u, v
    return ((a * c - b * d) % 7, (a * d + b * c) % 7)


# The plain int models of the interned rings, as (values, code of a value,
# add, sub, mul, one): residues mod m for Z/343 and GF(7), and pairs
# (a, b) for a+bi in GF(49), multiplied by (ac - bd, ad + bc) mod 7.
PLAIN_MODELS = {
    "Z/343": _residues(343),
    "GF(7)": _residues(7),
    "GF(49)": ([(a, b) for a in range(7) for b in range(7)],
               lambda u: u[0] + 7 * u[1],
               lambda u, v: ((u[0] + v[0]) % 7, (u[1] + v[1]) % 7),
               lambda u, v: ((u[0] - v[0]) % 7, (u[1] - v[1]) % 7),
               _pair_mul, (1, 0)),
}


def test_interned_arithmetic_matches_a_plain_int_model():
    # the oracle: the plain models above; inverses by search.  The
    # operators of GF(7) and GF(49) read only the field's tables.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    models = {name: (ring, *PLAIN_MODELS[name])
              for name, ring in (("Z/343", Z343), ("GF(7)", F7),
                                 ("GF(49)", F49))}
    inverses = {name: {u: next((v for v in values if mul(u, v) == one), None)
                       for u in values}
                for name, (_, values, _, _, _, mul, one) in models.items()}

    def check(name, u, v):
        ring, _, code, add, sub, mul, _ = models[name]
        own = ring._elements
        x, y = ring.element(u), ring.element(v)
        assert x is own[code(u)] and y is own[code(v)]
        assert x + y is own[code(add(u, v))]
        assert x - y is own[code(sub(u, v))]
        assert x * y is own[code(mul(u, v))]
        assert -x is own[code(sub(sub(u, u), u))]      # 0 - u
        inv = inverses[name][u]
        if inv is None:
            with pytest.raises(NonUnitError):
                x.inverse()
        else:
            assert x.inverse() is own[code(inv)]

    @st.composite
    def cases(draw):
        name = draw(st.sampled_from(sorted(models)))
        values = st.sampled_from(models[name][1])
        return name, draw(values), draw(values)

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None,
                         database=None)
    @hypothesis.given(cases())
    def agree(case):
        check(*case)

    agree()
    # a sample could miss one wrong table entry: the fields in full
    for name in ("GF(7)", "GF(49)"):
        values = models[name][1]
        for u in values:
            for v in values:
                check(name, u, v)


@pytest.mark.parametrize("make, name", [(lambda: PrimeField(7), "GF(7)"),
                                        (lambda: QuadraticField(7), "GF(49)")],
                         ids=["GF7", "GF49"])
def test_table_field_operators_match_the_pair_model_on_every_pair(make, name):
    # Two equal rings built apart share the table set of the first equal
    # ring ever built, elements included; each operator, and ``inverse``,
    # must still hand out an element of its own left operand's ring.
    a, b = make(), make()
    assert a == b and a is not b and a.tables is b.tables
    own = a._elements
    assert a.tables.elements is not own
    values, code, add, sub, mul, one = PLAIN_MODELS[name]
    for u in values:
        x = a.element(u)
        assert -x is own[code(sub(sub(u, u), u))]      # 0 - u
        # the inverse by search: none for zero, one for every other value
        inv = [v for v in values if mul(u, v) == one]
        if code(u) == 0:
            assert inv == []
            with pytest.raises(NonUnitError):
                x.inverse()
        else:
            assert len(inv) == 1 and x.inverse() is own[code(inv[0])]
            assert b.element(u).inverse() is b._elements[code(inv[0])]
        for v in values:
            y = b.element(v)
            assert x + y is own[code(add(u, v))]
            assert x - y is own[code(sub(u, v))]
            assert x * y is own[code(mul(u, v))]
            assert y - x is b._elements[code(sub(v, u))]
    # GF(7) and GF(49) share the codes 0..6, but not a ring
    other = F49 if name == "GF(7)" else F7
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((a, other), (other, a)):
            with pytest.raises(RingMismatchError):
                op(left.from_int(3), right.from_int(3))


def reference_field_tables(p, q):
    """(mul, add, sub, inv) as ``field_tables`` first built them: one pair
    formula per entry, on the codes a + p*b of a+bi (b = 0 when q = p)."""
    pairs = [(c % p, c // p) for c in range(q)]
    add = tuple(tuple((a + c) % p + p * ((b + d) % p) for c, d in pairs)
                for a, b in pairs)
    mul = tuple(tuple((a * c - b * d) % p + p * ((a * d + b * c) % p)
                      for c, d in pairs)
                for a, b in pairs)
    negatives = [row.index(0) for row in add]
    sub = tuple(tuple(row[y] for y in negatives) for row in add)
    inv = (None, *(row.index(1) for row in mul[1:]))
    return mul, add, sub, inv


@pytest.mark.parametrize("ring", [PrimeField(2), PrimeField(3), PrimeField(7),
                                  PrimeField(251), QuadraticField(3),
                                  QuadraticField(7), QuadraticField(11)],
                         ids=repr)
def test_field_tables_from_logarithms_match_the_pair_formulas(ring):
    q = ring.characteristic() ** (2 if isinstance(ring, QuadraticField) else 1)
    tables = field_tables(ring)
    assert (tables.mul, tables.add, tables.sub, tables.inv) == \
        reference_field_tables(ring.characteristic(), q)
    assert all(type(part) is tuple and all(type(row) is tuple for row in part)
               for part in (tables.mul, tables.add, tables.sub))


def test_element_operators_see_every_ring_operation(monkeypatch):
    # The benchmark counts ring operations by wrapping these attributes of
    # ``Element`` (``_install_counters`` of bench/layers.py).  An operator
    # that calls another one would be counted twice, and a result reached
    # around the operators not at all.
    counts = {}
    for attr in ("__add__", "__sub__", "__neg__", "__mul__", "inverse"):
        def counted(*args, fn=getattr(Element, attr),
                    cell=counts.setdefault(attr, [0])):
            cell[0] += 1
            return fn(*args)
        monkeypatch.setattr(Element, attr, counted)
    rng = random.Random(20)
    for ring in (F7, F49, Z343, ZZ):
        for cell in counts.values():
            cell[0] = 0
        expected = dict.fromkeys(counts, 0)
        for _ in range(40):
            x, y = ring.random_element(rng), ring.random_element(rng)
            s, d, n, p = x + y, x - y, -x, x * y
            q = s * d - n * p
            assert type(q) is Element and q == x * x - y * y + x * p
            for attr, k in (("__add__", 2), ("__sub__", 3), ("__neg__", 1),
                            ("__mul__", 6), ("inverse", 1)):
                expected[attr] += k
            try:
                inv = x.inverse()
            except NonUnitError:
                continue
            assert inv * x == ring.one()
            expected["__mul__"] += 1
        assert {attr: cell[0] for attr, cell in counts.items()} == expected, ring


CUBIC = (-1, 0, 1, 1)  # r^3 + r^2 - 1


def test_hensel_examples():
    assert hensel_lift(CUBIC, 7, 3, 1) == 3
    assert hensel_lift(CUBIC, 7, 3, 2) == 45
    assert hensel_lift(CUBIC, 7, 3, 3) == 143
    # brute-force oracle for the k=2 value: scan all residues mod 49
    roots = [r for r in range(49)
             if eval_int_poly(CUBIC, r) % 49 == 0 and r % 7 == 3]
    assert roots == [45]


def test_hensel_consistency_tower():
    top = hensel_lift(CUBIC, 7, 3, 6)
    for k in range(1, 7):
        assert hensel_lift(CUBIC, 7, 3, k) == top % 7 ** k
    assert eval_int_poly(CUBIC, top) % 7 ** 6 == 0


def test_hensel_random_consistency():
    rng = random.Random(11)
    found = 0
    while found < 20:
        coeffs = [rng.randrange(-20, 20) for _ in range(4)]
        if coeffs[-1] == 0:
            continue
        deriv = [i * c for i, c in enumerate(coeffs)][1:]
        for r0 in range(7):
            if (eval_int_poly(coeffs, r0) % 7 == 0
                    and eval_int_poly(deriv, r0) % 7 != 0):
                top = hensel_lift(coeffs, 7, r0, 4)
                assert eval_int_poly(coeffs, top) % 7 ** 4 == 0
                assert top % 7 == r0
                for k in (1, 2, 3):
                    assert hensel_lift(coeffs, 7, r0, k) == top % 7 ** k
                found += 1
                break


def test_hensel_rejects_non_simple_roots():
    with pytest.raises(NotSimpleRootError):
        hensel_lift((0, 0, 1), 7, 0, 3)   # r^2: double root at 0
    with pytest.raises(NotSimpleRootError):
        hensel_lift(CUBIC, 7, 1, 2)       # 1 is not a root mod 7


def test_quadratic_field_requires_nonsquare():
    with pytest.raises(ValueError):
        QuadraticField(5)   # -1 is a square mod 5
    with pytest.raises(ValueError):
        QuadraticField(8)
    with pytest.raises(ValueError):
        QuadraticField(19)  # 361 elements: above the table order limit


def test_dual_numbers_do_not_nest():
    with pytest.raises(ValueError):
        DualNumbers(D49)
