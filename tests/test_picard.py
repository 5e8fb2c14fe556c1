"""Divisor-class lattices: blowups, pairings, double-cover invariants."""

import random
from fractions import Fraction

import pytest

from stablelimit.picard import (BranchParityError, DivisorClass, Lattice,
                                LatticeMismatchError, blowup,
                                double_cover_stats, gram_determinant,
                                intersect, quadric_lattice, signature,
                                verify_class_relation)
from stablelimit.scenarios import _blowup_lattice, _extended_lattice


def test_quadric_lattice_basics():
    q = quadric_lattice()
    h1, h2 = q.basis("h1"), q.basis("h2")
    assert intersect(h1, h2) == 1
    assert intersect(h1, h1) == 0
    assert intersect(q.canonical, q.canonical) == 8
    assert gram_determinant(q) == -1
    assert signature(q) == (1, 1)


def test_class_arithmetic_equals_the_validated_constructor():
    # sums, differences, negatives and multiples skip the int check of the
    # constructor; each must still equal, and hash like, the class that
    # Lattice.cls builds from the same coefficients
    lat = _extended_lattice(_blowup_lattice())
    rng = random.Random(31)

    def random_class():
        return lat.cls({n: rng.randrange(-5, 6) for n in lat.names})

    for _ in range(50):
        a, b = random_class(), random_class()
        k = rng.choice([-3, 0, 2, True])
        for result, vector in (
                (a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)]),
                (a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)]),
                (-a, [-x for x in a.coeffs]),
                (k * a, [int(k) * x for x in a.coeffs])):
            expected = lat.cls(dict(zip(lat.names, vector)))
            assert type(result) is DivisorClass and result.lattice is lat
            assert result == expected and hash(result) == hash(expected)
            assert all(type(c) is int for c in result.coeffs)
            with pytest.raises(AttributeError):
                result.coeffs = expected.coeffs


@pytest.mark.parametrize("make", [
    _blowup_lattice, lambda: _extended_lattice(_blowup_lattice())],
    ids=["blowup", "extended"])
def test_cached_lattices_are_immutable(make):
    lat = make()
    assert make() is lat
    for name in ("names", "gram", "index", "_canonical", "_support"):
        with pytest.raises(AttributeError):
            setattr(lat, name, getattr(lat, name))
        with pytest.raises(AttributeError):
            delattr(lat, name)
    with pytest.raises(AttributeError):
        lat.extra = 1
    with pytest.raises(TypeError):
        lat.index["h1"] = 3
    with pytest.raises(TypeError):
        del lat.index["h1"]
    assert lat.index["h1"] == 0 and lat.names[0] == "h1"
    assert lat.cls({"h1": 1}) == lat.basis("h1")


def test_blowup_chain_reaches_rank_12():
    lat = quadric_lattice()
    for name in ("n1", "n2", "g1", "e1", "g2", "e2", "g3", "e3", "g4", "e4"):
        lat = blowup(lat, name)
    assert lat.rank == 12
    assert abs(gram_determinant(lat)) == 1
    assert signature(lat) == (1, 11)
    e1 = lat.basis("e1")
    assert intersect(e1, e1) == -1
    # canonical class: pullback plus one unit per exceptional vector
    K = lat.canonical
    assert intersect(K, K) == 8 - 10
    gbar = lat.cls({"g1": 1, "e1": -1})
    assert intersect(gbar, gbar) == -2
    assert intersect(gbar, e1) == 1


def test_blowup_rejects_duplicate_names():
    lat = quadric_lattice()
    lat = blowup(lat, "n1")
    with pytest.raises(ValueError):
        blowup(lat, "n1")


def test_pullback_is_isometry():
    rng = random.Random(61)
    lat = quadric_lattice()
    big = blowup(lat, "e")
    for _ in range(100):
        # a class pulls back to the same coefficients, with 0 at "e"
        a = {"h1": rng.randrange(-5, 6), "h2": rng.randrange(-5, 6)}
        b = {"h1": rng.randrange(-5, 6), "h2": rng.randrange(-5, 6)}
        assert (intersect(big.cls(a), big.cls(b))
                == intersect(lat.cls(a), lat.cls(b)))


def test_class_relation_and_mismatch():
    lat = quadric_lattice()
    a = lat.cls({"h1": 2, "h2": 3})
    assert verify_class_relation(a, lat.cls({"h1": 2, "h2": 3}))
    assert not verify_class_relation(a, lat.cls({"h1": 3, "h2": 2}))
    other = blowup(lat, "e")
    with pytest.raises(LatticeMismatchError):
        intersect(a, other.basis("e"))


def test_lattices_compare_by_identity():
    # two lattices built apart from the same data are two lattices: their
    # classes are unequal, and adding or pairing them is refused
    make = lambda: Lattice(("h1", "h2"), ((0, 1), (1, 0)), (-2, -2))
    a, b = make(), make()
    assert "__eq__" not in vars(Lattice) and "__hash__" not in vars(Lattice)
    assert a != b and a == a
    assert quadric_lattice() is quadric_lattice()
    for other in (b, quadric_lattice()):
        ca, cb = a.basis("h1"), other.basis("h1")
        assert ca != cb and ca == a.basis("h1")
        for call in (lambda: ca + cb, lambda: ca - cb,
                     lambda: intersect(ca, cb),
                     lambda: verify_class_relation(ca, cb),
                     lambda: double_cover_stats(2 * cb, ca, a.canonical)):
            with pytest.raises(LatticeMismatchError):
                call()


def test_double_cover_trivial_branch():
    # empty branch: two disjoint copies of the quadric
    q = quadric_lattice()
    stats = double_cover_stats(q.cls({}), q.cls({}), q.canonical)
    assert stats.k_squared == 16
    assert stats.chi == 2


def euler_characteristic_oracle(a, b):
    """Noether-formula bookkeeping for a cover branched in a smooth
    bidegree-(a, b) curve: chi = (K^2 + e)/12 with e = 2*e(base) - e(branch)."""
    genus = (a - 1) * (b - 1)
    e_branch = 2 - 2 * genus
    e_cover = 2 * 4 - e_branch
    q = quadric_lattice()
    branch = q.cls({"h1": a, "h2": b})
    bundle = q.cls({"h1": a // 2, "h2": b // 2})
    stats = double_cover_stats(branch, bundle, q.canonical)
    assert (stats.k_squared + e_cover) % 12 == 0
    return stats.k_squared, Fraction(stats.k_squared + e_cover, 12), stats.chi


def test_double_cover_against_euler_oracle():
    # branch (2, 2): an elliptic branch curve; the formula's chi must
    # agree with the Noether bookkeeping
    k2, chi_noether, chi_formula = euler_characteristic_oracle(2, 2)
    assert (k2, chi_noether) == (4, 1)
    assert chi_formula == chi_noether
    # branch (4, 2): canonical square drops to zero
    k2, chi_noether, chi_formula = euler_characteristic_oracle(4, 2)
    assert (k2, chi_noether) == (0, 1)
    assert chi_formula == chi_noether


def test_double_cover_branch_parity_error():
    q = quadric_lattice()
    branch = q.cls({"h1": 3, "h2": 3})
    bundle = q.cls({"h1": 1, "h2": 1})
    with pytest.raises(BranchParityError):
        double_cover_stats(branch, bundle, q.canonical)


def test_double_cover_rejects_an_odd_adjunction_number():
    # L.(L + K) is even for a surface's canonical class K; with the class
    # (1, 0) in its place, L = (1, 1) gives L.(L + K) = 3
    q = quadric_lattice()
    bundle = q.cls({"h1": 1, "h2": 1})
    with pytest.raises(ValueError, match="odd"):
        double_cover_stats(2 * bundle, bundle, q.cls({"h1": 1}))


def test_signature_of_negative_definite_block():
    lat = Lattice(("a", "b"), ((-2, 1), (1, -2)))
    assert signature(lat) == (0, 2)
    assert gram_determinant(lat) == 3


def test_integer_classes_keep_int_coefficients():
    q = quadric_lattice()
    lat = blowup(q, "e")
    # an integer of another type, a bool here, is stored as an int
    c = lat.cls({"h1": 2, "e": True})
    for d in (c, lat.cls({}), lat.canonical, lat.basis("e"), lat.basis("h1"),
              3 * c, True * c, c + c, c - c, -c):
        assert all(type(x) is int for x in d.coeffs), d
    assert type(intersect(c, c)) is int


def test_classes_reject_non_rational_scalars():
    q = quadric_lattice()
    h1 = q.basis("h1")
    for bad in (0.5, 1.0, "1", Fraction(1, 2)):
        with pytest.raises(TypeError):
            q.cls({"h1": bad})
        with pytest.raises(TypeError):
            bad * h1
        with pytest.raises(TypeError):
            h1.__rmul__(bad)


def test_lattice_rejects_non_integer_entries():
    for bad in (1.5, 1.0, "1", Fraction(1, 2)):
        with pytest.raises(TypeError):
            Lattice(("a", "b"), ((-2, bad), (bad, -2)))
        with pytest.raises(TypeError):
            Lattice(("a", "b"), ((-2, 1), (1, -2)), (bad, 0))


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sympy_determinant_and_signature(lattice):
    """Determinant and signature of the Gram matrix from sympy over QQ.
    A symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs on its characteristic polynomial p(x) counts the positive ones
    exactly, and on p(-x) the negative ones."""
    sympy = pytest.importorskip("sympy")
    gram = sympy.Matrix(lattice.gram)
    coeffs = gram.charpoly(sympy.Symbol("x")).all_coeffs()
    mirrored = [c * (-1) ** k for k, c in enumerate(coeffs)]
    return (Fraction(int(gram.det())),
            (_sign_changes(coeffs), _sign_changes(mirrored)))


@pytest.mark.parametrize("make", [
    quadric_lattice, _blowup_lattice,
    lambda: _extended_lattice(_blowup_lattice()),
    lambda: Lattice(("a", "b"), ((-2, 1), (1, -2)))],
    ids=["quadric", "blowup", "extended", "negative-definite"])
def test_gram_invariants_agree_with_sympy(make):
    lattice = make()
    assert (gram_determinant(lattice), signature(lattice)) == \
        _sympy_determinant_and_signature(lattice)


def test_gram_invariants_agree_with_sympy_on_random_forms():
    """Symmetric integer forms up to 6x6, half of them with a zero
    diagonal, so that zero pivots coupled to other rows are common."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def forms(draw):
        n = draw(st.integers(0, 6))
        hollow = draw(st.booleans())
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i != j or not hollow:
                    gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
        return Lattice([f"x{k}" for k in range(n)], gram)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                         database=None)
    @hypothesis.given(forms())
    def agree(lattice):
        assert (gram_determinant(lattice), signature(lattice)) == \
            _sympy_determinant_and_signature(lattice)

    agree()
