"""Sparse multivariate polynomials over the exact rings, plus a text grammar.

A polynomial is a map from monomials to nonzero coefficients, all sharing
one ring and one variable registry.  The registry fixes the variable
order, and with it the graded reverse lexicographic order used for
canonical printing.  There is one registry per tuple of names, as there
is one ring per value, so both are compared by identity.

Inside, ``MPoly`` stores ``{packed monomial: raw coefficient}``, a layout
that no other module reads (they use ``terms`` and the methods):

* A monomial is packed into one int, in the manner of Monagan and Pearce
  ("Polynomial division using dynamic arrays, heaps, and packed exponent
  vectors", CASC 2007).  The exponent of variable i sits in bits
  [16 i, 16 i + 16), and the total degree sits above all of them, so
  multiplying two monomials is one int addition and the total degree of a
  monomial is one shift.  No term may have total degree above
  ``MAX_DEGREE``, which keeps every exponent inside its field; the bound is
  checked on construction and on every multiplication, and crossing it
  raises ``OverflowError``.
* A coefficient is the payload of its ring element: an integer over ZZ
  and Z/p^k, and over GF(p)[i] the code a + p*b of a+bi, read through
  the ring's code tables ``mul`` and ``add``.  Each ring has one
  coefficient path (``_coeffs``), which every operation uses; over the
  integer rings sums and products are reduced once per operation rather
  than once per step.  The dual numbers have no polynomials.

``substitute`` is the general polynomial rewrite: a Taylor shift and a
pullback into another registry along a parametrization (of the quadric,
of the diagonal, of a branch) are each one call.  It builds one power
ladder per binding on raw terms and runs Horner's scheme over the
bindings: the terms that differ only in one binding's exponent are
summed first, and each group costs one product.  A change of chart sets
the dropped variables to 1; ``dehomogenize`` does that by cutting their
exponent fields out of each packed monomial, with no product.

``Element``s are built only at the boundary: ``coefficient``, the value of
``evaluate``, and ``terms``.  ``terms`` is a read-only mapping from
exponent tuples to ``Element``s, decoded once, on first read, and kept
with the polynomial; like any dict it raises ``TypeError`` for an
unhashable key.  Polynomials are immutable: the mapping has no setters
and attributes cannot be assigned, so an ``lru_cache``d polynomial can be
shared safely.

The grammar accepted by ``parse_poly`` is deliberately tiny::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := int | var | '(' expr ')'
    var    := [A-Za-z][A-Za-z0-9']*

Whitespace is insignificant and there is no implicit multiplication.
Integer literals map into the coefficient ring through its canonical
``from_int``.  The parser reads each term once, into raw terms, and
builds one ``MPoly`` at the end.  Its tokens come from one ``findall``; a
token's line and column are found only when a ``ParseError`` is raised,
and an unexpected character is reported before any other error.  A term
whose factors are integers and variables becomes one raw coefficient and
one packed monomial with no polynomial product; a parenthesised factor
goes through the raw product of ``MPoly.__mul__``.  A power is checked
against the degree bound first and then taken by squaring.
``parse_poly`` is not cached; ``cgdata.parsed`` parses each published
text once per process.  GF(p)[i] text is write-only: ``str`` prints
``(a+bi)`` for a coefficient with an imaginary part, which ``parse_poly``
rejects.
"""

from __future__ import annotations

import operator
import re
import struct
from functools import lru_cache, partial
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .rings import (Element, Frozen, IntegerRing, NonUnitError,
                    QuadraticField, Ring, RingMismatchError, ZMod, _power)

_FIELD_BITS = 16                      # one unsigned 16-bit field per variable
MAX_DEGREE = (1 << _FIELD_BITS) - 1   # bound on the total degree of a term
_MASK = MAX_DEGREE


class VarRegistry(Frozen):
    """An ordered list of distinct variable names, and the packing of
    exponent vectors over them; immutable, and one object per tuple of
    names.  ``index`` maps each name to its position, read-only."""

    __slots__ = ("names", "index", "_fields", "_to_bytes", "_shifts",
                 "_degree_shift", "_units")

    def __new__(cls, names: Sequence[str]):
        names = tuple(names)
        registry = _REGISTRIES.get(names)
        if registry is None:
            registry = object.__new__(cls)
            registry._build(names)      # refuses bad names
            registry = _REGISTRIES.setdefault(names, registry)  # as for rings
        return registry

    def _build(self, names: tuple[str, ...]) -> None:
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not _is_valid_var(name):
                raise ValueError(f"invalid variable name: {name!r}")
        n = len(names)
        _set_names(self, names)
        _set_index(self, MappingProxyType(dict(zip(names, range(n)))))
        # variable i in bits [16 i, 16 i + 16), the total degree in the
        # 16 bits above them
        _set_fields(self, struct.Struct(f"<{n}H"))
        _set_to_bytes(self, operator.methodcaller("to_bytes", 2 * n + 2,
                                                  "little"))
        _set_shifts(self, tuple(range(0, _FIELD_BITS * n, _FIELD_BITS)))
        _set_degree_shift(self, _FIELD_BITS * n)
        _set_units(self, {name: self._unit(i) for i, name in enumerate(names)})

    def __len__(self):
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __repr__(self):
        return f"VarRegistry({', '.join(self.names)})"

    def _pack(self, exps: Sequence[int]) -> int:
        if len(exps) != len(self.names):
            raise ValueError("exponent vector has wrong length")
        degree = sum(exps)
        _check_degree(degree)
        try:
            fields = self._fields.pack(*exps)
        except struct.error:
            raise ValueError(f"exponents must be non-negative integers, "
                             f"not {exps!r}") from None
        return int.from_bytes(fields, "little") | degree << self._degree_shift

    def _unpack_all(self, packed: Iterable[int]) -> Iterator[tuple[int, ...]]:
        return map(self._fields.unpack_from, map(self._to_bytes, packed))

    def _unit(self, i: int) -> int:
        """The packed monomial of variable i."""
        return 1 << self._shifts[i] | 1 << self._degree_shift


# the one registry of each tuple of names, filled past the guard of Frozen
_REGISTRIES: dict = {}
(_set_names, _set_index, _set_fields, _set_to_bytes, _set_shifts,
 _set_degree_shift, _set_units) = (getattr(VarRegistry, name).__set__
                                   for name in VarRegistry.__slots__)


def _fold(registry: VarRegistry) -> int:
    """Times this, the sum of 1 << 16 k for 0 < k <= ``len(registry)``, the
    fields of a monomial add up in the degree field without carrying."""
    return ((1 << registry._degree_shift) - 1) // _MASK << _FIELD_BITS


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise OverflowError(
            f"total degree {degree} exceeds the packed bound {MAX_DEGREE}")


def _is_valid_var(name: str) -> bool:
    if not name or not name[0].isalpha():
        return False
    return all(ch.isalnum() or ch == "'" for ch in name[1:])


def grevlex_key(exps: tuple[int, ...]):
    # descending total degree, ties broken reverse-lexicographically:
    # of two monomials with equal degree the larger is the one whose
    # last differing exponent is smaller.
    return (sum(exps), tuple(-e for e in reversed(exps)))


# ----------------------------------------------------------------------
# raw coefficients: one path per ring


class _Coeffs:
    """Raw coefficient arithmetic of one ring.

    ``addmul(acc, shift, scalar, terms)`` adds scalar * terms, shifted by
    the packed monomial ``shift``, into the accumulator ``acc``; ``finish``
    turns an accumulator into canonical nonzero terms.  The ring
    operations and substitution are these two steps, so an accumulator
    may hold values that only ``finish`` makes canonical.  Each subclass
    supplies ``addmul`` and ``evaluate`` for its kind of raw value.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.wrap = ring._wrap       # raw value -> Element
        self.zero, self.one = self.raw(ring.zero()), self.raw(ring.one())
        self.minus_one = self.from_int(-1)

    def raw(self, x: Element, what: str = "coefficient"):
        try:
            if x.ring is self.ring:
                return x.payload
        except AttributeError:      # no element: ``Element._check`` says so
            self.ring.zero()._check(x)
        raise RingMismatchError(f"{what} from a foreign ring")

    def from_int(self, n: int):
        return self.raw(self.ring.from_int(n))

    # zero is the raw value 0 on every path
    is_zero = staticmethod(operator.not_)

    def mul(self, a, b):
        return self.ring._mul(a, b)

    def finish(self, acc):
        zero = self.zero
        return {e: c for e, c in acc.items() if c != zero}


class _IntCoeffs(_Coeffs):
    """ZZ and Z/p^k: the raw value is the integer payload (over GF(p) it is
    also the code of the field's tables).  Accumulators hold unreduced
    sums of products; ``finish`` reduces them once."""

    def __init__(self, ring: Ring):
        self.modulus = ring.characteristic()    # 0 over ZZ
        super().__init__(ring)

    def addmul(self, acc, shift, scalar, terms):
        get = acc.get
        for e, c in terms.items():
            e += shift
            acc[e] = get(e, 0) + scalar * c

    def finish(self, acc):
        m = self.modulus
        if m:
            return {e: r for e, c in acc.items() if (r := c % m)}
        return {e: c for e, c in acc.items() if c}

    def evaluate(self, terms, ladders):
        acc = 0
        for e, c in terms.items():
            for shift, ladder in ladders:
                c *= ladder[(e >> shift) & _MASK]
            acc += c
        return acc % self.modulus if self.modulus else acc


class _TableCoeffs(_Coeffs):
    """GF(p)[i]: the raw value is the payload, a code of the ring's tables
    ``mul`` and ``add``."""

    def __init__(self, ring: Ring):
        self.tmul, self.tadd = ring.mul, ring.add
        super().__init__(ring)

    def mul(self, a, b):
        return self.tmul[a][b]

    def addmul(self, acc, shift, scalar, terms):
        get, add, row = acc.get, self.tadd, self.tmul[scalar]
        for e, c in terms.items():
            e += shift
            acc[e] = add[get(e, 0)][row[c]]

    def evaluate(self, terms, ladders):
        mul, add = self.tmul, self.tadd
        acc = 0
        for e, c in terms.items():
            for shift, ladder in ladders:
                c = mul[c][ladder[(e >> shift) & _MASK]]
            acc = add[acc][c]
        return acc


@lru_cache(maxsize=None)
def _coeffs(ring: Ring) -> _Coeffs:
    """The coefficient path of ``ring``: one per ring, so two polynomials
    have the same ring exactly when their paths are the same object.
    Rings without one (the dual numbers) raise ``TypeError``."""
    if isinstance(ring, (IntegerRing, ZMod)):
        return _IntCoeffs(ring)
    if isinstance(ring, QuadraticField):
        return _TableCoeffs(ring)
    raise TypeError(f"no polynomials over {ring!r}: it has no raw "
                    f"coefficient path")


def _product(coeffs: _Coeffs, top: int, a: dict, b: dict) -> dict:
    """The canonical raw terms of a * b, where ``top`` is the degree shift
    of their registry; raises ``OverflowError`` above ``MAX_DEGREE``."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    _check_degree((max(a) >> top) + (max(b) >> top))
    if len(b) == 1:
        # a monomial times a monomial: most products
        (e1, c1), = a.items()
        (e2, c2), = b.items()
        c = coeffs.mul(c1, c2)
        return {} if coeffs.is_zero(c) else {e1 + e2: c}
    addmul = coeffs.addmul
    acc = {}
    for e, c in a.items():
        addmul(acc, e, c, b)
    return coeffs.finish(acc)


# ----------------------------------------------------------------------
# polynomials


class MPoly(Frozen):
    """A sparse multivariate polynomial over an exact ring; immutable."""

    __slots__ = ("registry", "ring", "_coeffs", "_terms", "_hash", "_decoded")

    def __init__(self, registry: VarRegistry, ring: Ring,
                 terms: Mapping[tuple[int, ...], Element] | None = None):
        coeffs = _coeffs(ring)
        clean = {}
        if terms:
            pack, raw, is_zero = registry._pack, coeffs.raw, coeffs.is_zero
            for exps, coeff in terms.items():
                e, c = pack(exps), raw(coeff)
                if not is_zero(c):
                    clean[e] = c
        _init(self, registry, ring, coeffs, clean)

    @property
    def terms(self) -> Mapping[tuple[int, ...], Element]:
        """Read-only mapping: exponent tuple -> nonzero coefficient."""
        # decoded on first read and kept in the ``_decoded`` slot
        decoded = self._decoded
        if decoded is None:
            decoded = MappingProxyType(dict(zip(
                self.registry._unpack_all(self._terms),
                map(self._coeffs.wrap, self._terms.values()))))
            _set_decoded(self, decoded)
        return decoded

    def _like(self, terms: dict) -> "MPoly":
        """A polynomial over this one's registry and ring, with canonical
        raw ``terms``."""
        return _init(_new(MPoly), self.registry, self.ring, self._coeffs,
                     terms)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, registry: VarRegistry, ring: Ring) -> "MPoly":
        return cls(registry, ring, {})

    @classmethod
    def constant(cls, registry: VarRegistry, coeff: Element) -> "MPoly":
        zeros = (0,) * len(registry)
        # ``_check`` of the coefficient itself refuses all but an element
        return cls(registry, Element._check(coeff, coeff).ring,
                   {zeros: coeff})

    @classmethod
    def variable(cls, registry: VarRegistry, ring: Ring, name: str) -> "MPoly":
        if name not in registry:
            raise KeyError(f"unknown variable {name!r}")
        coeffs = _coeffs(ring)
        return _init(_new(MPoly), registry, ring, coeffs,
                     {registry._unit(registry.index[name]): coeffs.one})

    # ------------------------------------------------------------------
    # ring operations

    def _check(self, other: "MPoly") -> None:
        if other.registry is not self.registry:
            raise RingMismatchError("variable registries differ")
        if other._coeffs is not self._coeffs:
            raise RingMismatchError("coefficient rings differ")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        coeffs = self._coeffs
        acc = dict(self._terms)
        coeffs.addmul(acc, 0, coeffs.one, other._terms)
        return self._like(coeffs.finish(acc))

    def __neg__(self) -> "MPoly":
        coeffs = self._coeffs
        acc = {}
        coeffs.addmul(acc, 0, coeffs.minus_one, self._terms)
        return self._like(coeffs.finish(acc))

    def __sub__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        coeffs = self._coeffs
        acc = dict(self._terms)
        coeffs.addmul(acc, 0, coeffs.minus_one, other._terms)
        return self._like(coeffs.finish(acc))

    def __mul__(self, other: "MPoly") -> "MPoly":
        coeffs = self._coeffs
        if other._coeffs is not coeffs or other.registry is not self.registry:
            self._check(other)
        return self._like(_product(coeffs, self.registry._degree_shift,
                                   self._terms, other._terms))

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return MPoly.constant(self.registry, self.ring.one())
        return _power(operator.mul, self, n)

    def scale(self, coeff: Element) -> "MPoly":
        coeffs = self._coeffs
        acc = {}
        coeffs.addmul(acc, 0, coeffs.raw(coeff, "scalar"), self._terms)
        return self._like(coeffs.finish(acc))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.registry is other.registry
                and self._coeffs is other._coeffs
                and self._terms == other._terms)

    def __hash__(self):
        # computed on first use and kept in the ``_hash`` slot
        value = self._hash
        if value is None:
            value = hash((self.registry, frozenset(self._terms.items())))
            _set_hash(self, value)
        return value

    # ------------------------------------------------------------------
    # structure

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(self._terms) >> self.registry._degree_shift

    def coefficient(self, monomial: Mapping[str, int]) -> Element:
        exps = [0] * len(self.registry)
        for name, e in monomial.items():
            exps[self.registry.index[name]] = e
        coeffs = self._coeffs
        return coeffs.wrap(self._terms.get(self.registry._pack(exps),
                                           coeffs.zero))

    def variables_used(self) -> set[str]:
        union = 0
        for e in self._terms:
            union |= e
        return {name for name, shift in zip(self.registry.names,
                                            self.registry._shifts)
                if (union >> shift) & _MASK}

    # ------------------------------------------------------------------
    # calculus and restriction

    def partial_derivative(self, name: str) -> "MPoly":
        if name not in self.registry:
            raise KeyError(f"unknown variable {name!r}")
        i = self.registry.index[name]
        shift, unit = self.registry._shifts[i], self.registry._unit(i)
        coeffs = self._coeffs
        acc = {}
        for e, c in self._terms.items():
            k = (e >> shift) & _MASK
            if k:
                # a coefficient k = 0 in the ring drops out in finish,
                # e.g. d/dx x^p in characteristic p
                acc[e - unit] = coeffs.mul(c, coeffs.from_int(k))
        return self._like(coeffs.finish(acc))

    def graded_part(self, degree: int, names: Iterable[str]) -> "MPoly":
        """Sum of terms of total degree exactly ``degree`` in ``names``."""
        registry, top = self.registry, self.registry._degree_shift
        mask = sum({_MASK << registry._shifts[registry.index[n]]
                    for n in names})
        fold = _fold(registry)
        return self._like({e: c for e, c in self._terms.items()
                           if ((e & mask) * fold >> top) & _MASK == degree})

    def substitute(self, bindings: Mapping[str, "MPoly"]) -> "MPoly":
        """Ring-homomorphic substitution of polynomials for variables.

        The bindings share this polynomial's ring and one registry.  In its
        own registry unbound variables pass through; in another one the
        result lives there, and every variable used must be bound.  Raises
        ``KeyError`` for an unknown or an unbound used variable, and
        ``RingMismatchError`` for a binding that is no polynomial, a
        foreign ring or two registries.
        Raises ``OverflowError`` when the image of a term passes
        ``MAX_DEGREE``, counted as the sum of the degrees of its powers:
        over a domain that is its degree, while over Z/p^k two powers
        can multiply to zero, and the bound still counts their degrees.
        """
        coeffs, target = self._coeffs, self._target(bindings)
        top = target._degree_shift
        groups = self._horner({n: v._terms for n, v in bindings.items()},
                              {e: {0: c} for e, c in self._terms.items()},
                              partial(_product, coeffs, top))
        # in another registry every used variable is bound, so each
        # residual is 0, the constant monomial of any registry
        acc = {}
        for residual, group in groups.items():
            coeffs.addmul(acc, residual, coeffs.one, group)
        if acc:
            _check_degree(max(acc) >> top)
        return _init(_new(MPoly), target, self.ring, coeffs,
                     coeffs.finish(acc))

    def pullback_order(self, bindings: Mapping[str, "MPoly"],
                       truncation: int | None = None) -> int | None:
        """The least exponent of s below s^(truncation + 1), or below the
        degree bound, in ``substitute(bindings)`` for series bindings in s
        vanishing at 0; None if there is none.  Exactly so, though only the
        coefficients below s^n are computed, for n = 4, 8, ...: terms of
        degree n or more are skipped, and the bindings and their powers are
        cut below s^n.  Raises as ``substitute``, ``ValueError`` for other
        bindings, and ``OverflowError`` for a cap above ``MAX_DEGREE``."""
        coeffs, target = self._coeffs, self._target(bindings)
        if not bindings or len(target) != 1 or any(
                0 in v._terms for v in bindings.values()):
            raise ValueError("bindings must be series in one variable, 0 at 0")
        cap = 1 + self.total_degree() * max(
            0, *(v.total_degree() for v in bindings.values()))
        cap = cap if truncation is None else min(cap, truncation + 1)
        _check_degree(cap - 1)
        top, out, n = self.registry._degree_shift, [], 0
        while not out and n < cap:
            n = min(max(2 * n, 4), cap)
            limit = n * target._unit(0)         # s^n
            groups = self._horner(
                {name: {e: c for e, c in v._terms.items() if e < limit}
                 for name, v in bindings.items()},
                {e: {0: c} for e, c in self._terms.items() if e >> top < n},
                lambda a, b: {e: c for e, c in _product(
                    coeffs, target._degree_shift, a, b).items() if e < limit})
            out = [e for e in coeffs.finish(groups.get(0, {})) if e < limit]
        return min(out) >> target._degree_shift if out else None

    def _target(self, bindings: Mapping[str, "MPoly"]) -> VarRegistry:
        """The registry of the bindings, checked as ``substitute`` says."""
        registry, coeffs = self.registry, self._coeffs
        target = next((v.registry for v in bindings.values()
                       if isinstance(v, MPoly)), registry)
        for name, value in bindings.items():
            if name not in registry:
                raise KeyError(f"unknown variable {name!r}")
            if not isinstance(value, MPoly):
                raise RingMismatchError(f"binding for {name!r}: expected a "
                                        f"polynomial, got {value!r}")
            if value._coeffs is not coeffs:
                raise RingMismatchError("binding over a foreign ring")
            if value.registry is not target:
                raise RingMismatchError(
                    "bindings from different variable registries")
        if target is not registry:
            unbound = self.variables_used() - bindings.keys()
            if unbound:
                raise KeyError(f"no binding for {sorted(unbound)}")
        return target

    def _horner(self, bindings: Mapping[str, dict], groups: dict,
                power) -> dict:
        """Horner's scheme over the bindings' raw terms, the last first: a
        binding merges the groups (images of the terms that agree but in the
        bindings done) that differ only in its exponent k, each times
        ladder[k] = value ** k, a rung per ``power(ladder[-1], value)``.
        Groups stay unfinished: an image that cancels keeps its monomial."""
        registry, one, addmul = (self.registry, self._coeffs.one,
                                 self._coeffs.addmul)
        for name in reversed(list(bindings)):
            i, value = registry.index[name], bindings[name]
            shift, unit = registry._shifts[i], registry._unit(i)
            ladder, merged = [{0: one}], {}
            for e, group in groups.items():
                k = (e >> shift) & _MASK
                while len(ladder) <= k:
                    ladder.append(power(ladder[-1], value))
                e -= k * unit
                total = merged.get(e)
                if total is None:
                    merged[e] = total = {}
                a, b = ladder[k], group
                if len(a) > len(b):
                    a, b = b, a
                for e1, c1 in a.items():
                    addmul(total, e1, c1, b)
            groups = merged
        return groups

    def dehomogenize(self, kept: Iterable[str]) -> "MPoly":
        """Set every variable outside ``kept`` to 1, as substituting the
        constant 1 would: each packed monomial loses the exponent fields of
        the dropped variables and their share of the total degree, and the
        coefficients that then collide add up."""
        registry, coeffs = self.registry, self._coeffs
        kept = set(kept)
        unknown = kept - registry.index.keys()
        if unknown:
            raise KeyError(f"unknown variables {sorted(unknown)}")
        mask = sum(_MASK << registry._shifts[i]
                   for name, i in registry.index.items() if name not in kept)
        # a term loses its dropped fields d and their degree, which d * fold
        # adds up in the degree field
        fold, degree = _fold(registry), _MASK << registry._degree_shift
        moved = [(e - (d := e & mask) - (d * fold & degree), c)
                 for e, c in self._terms.items()]
        terms = dict(moved)
        if len(terms) < len(moved):         # monomials collided: add up
            terms = {}
            for e, c in moved:
                coeffs.addmul(terms, e, coeffs.one, {0: c})
            terms = coeffs.finish(terms)
        return self._like(terms)

    def translate(self, offsets: Mapping[str, Element]) -> "MPoly":
        """Taylor shift: evaluate(translate(p, a), x) = evaluate(p, x + a)."""
        bindings = {}
        for name, off in offsets.items():
            var = MPoly.variable(self.registry, self.ring, name)
            bindings[name] = var + MPoly.constant(self.registry, off)
        return self.substitute(bindings)

    def evaluate(self, assignment: Mapping[str, Element]) -> Element:
        registry, coeffs = self.registry, self._coeffs
        values = {}
        for name, value in assignment.items():
            values[registry.index[name]] = coeffs.raw(value,
                                                      "assignment value")
        # an upper bound on each exponent, from the union of the monomials
        union = 0
        for e in self._terms:
            union |= e
        # ladders[k] = (shift, [1, v, v^2, ...]) for each variable k in use
        ladders = []
        for i, shift in enumerate(registry._shifts):
            bound = (union >> shift) & _MASK
            if not bound:
                continue
            if i not in values:
                raise KeyError(f"no value for {registry.names[i]!r}")
            v = values[i]
            ladder = [coeffs.one, v]
            for _ in range(bound - 1):
                ladder.append(coeffs.mul(ladder[-1], v))
            ladders.append((shift, ladder))
        return coeffs.wrap(coeffs.evaluate(self._terms, ladders))

    # ------------------------------------------------------------------
    # printing

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in sorted(self.terms.items(), reverse=True,
                                  key=lambda t: grevlex_key(t[0])):
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(self.registry.names[i])
                elif e > 1:
                    factors.append(f"{self.registry.names[i]}^{e}")
            coeff_str, negative = _format_coefficient(coeff, bool(factors))
            body = "*".join(([coeff_str] if coeff_str else []) + factors)
            if not parts:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("-" if negative else "+") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self})"


# Polynomials are built through the slot descriptors, which bypass the
# immutability guard of ``Frozen``.
_new = object.__new__
_set_registry, _set_ring = MPoly.registry.__set__, MPoly.ring.__set__
_set_coeffs, _set_terms = MPoly._coeffs.__set__, MPoly._terms.__set__
_set_hash, _set_decoded = MPoly._hash.__set__, MPoly._decoded.__set__


def _init(p: MPoly, registry: VarRegistry, ring: Ring, coeffs: _Coeffs,
          terms: dict) -> MPoly:
    _set_registry(p, registry)
    _set_ring(p, ring)
    _set_coeffs(p, coeffs)
    _set_terms(p, terms)
    _set_hash(p, None)
    _set_decoded(p, None)
    return p


def unit_match(p: MPoly, target: MPoly) -> Element | None:
    """The unit u with p = u * target, fixed from one stored term of the
    target and then verified everywhere; None if no unit works.  A unit
    that works is unique, so any term whose coefficient is a unit fixes
    it: over a field the first one does.  A zero target matches nothing,
    not even a zero ``p``.  Raises ``NonUnitError`` when no coefficient of
    the target is a unit (over ZZ and Z/p^k)."""
    error = None
    for e, c in target._terms.items():
        try:
            inverse = target._coeffs.wrap(c).inverse()
        except NonUnitError as exc:
            error = exc
            continue
        cp = p._terms.get(e)
        if cp is None:
            return None
        u = p._coeffs.wrap(cp) * inverse
        try:
            u.inverse()
        except NonUnitError:
            return None     # only a non-unit could match
        return u if (target.scale(u) - p).is_zero() else None
    if error is not None:
        raise error
    return None


def _format_coefficient(coeff: Element, has_factors: bool) -> tuple[str, bool]:
    """Render a coefficient for printing; returns (text, print_minus_sign).

    A coefficient prints as its ``repr`` with the sign carried by the
    flag (residue rings have no negative values); a leading 1 before a
    monomial is suppressed, and a value that is not a plain integer (a
    GF(p)[i] value with an imaginary part) is parenthesized.
    """
    text = repr(coeff)
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    if not text.isdigit():
        return f"({text})", negative
    if has_factors and text == "1":
        return "", negative
    return text, negative


# ----------------------------------------------------------------------
# parser


class ParseError(ValueError):
    """Syntax or semantic error in polynomial text, with position info."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


# an integer, a name (a letter, then letters, digits and primes), an
# operator, or any other character, which is an error; each after optional
# whitespace.  One ``findall`` gives the text of every token.
_TOKEN = re.compile(r"\s*(\d+|[^\W\d_](?:[^\W_]|')*|[-+*^()]|\S)")
_OPERATORS = frozenset("-+*^()")


def _is_bad(token: str) -> bool:
    """A token that no rule reads: one character that is not an operator
    and does not start an integer or a name."""
    return bool(token) and not token[0].isalnum() and token not in _OPERATORS


def _parse_error(message: str, text: str, k: int) -> ParseError:
    """A ``ParseError`` at token k of ``text``, or at its end when there
    are at most k tokens; only here are token offsets found."""
    offset = next((m.start(1) for m in islice(_TOKEN.finditer(text), k, None)),
                  len(text))
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


class _Parser:
    """Recursive descent straight into raw terms: every rule returns the
    canonical ``{packed monomial: raw coefficient}`` of what it read.  A
    token is its text, and the end of the input is the empty token."""

    def __init__(self, text: str, tokens: list[str], registry: VarRegistry,
                 ring: Ring):
        self.text = text
        self.tokens = tokens
        self.k = 0
        self.units = registry._units
        self.coeffs = _coeffs(ring)
        self.top = registry._degree_shift

    def error(self, message: str) -> ParseError:
        return _parse_error(message, self.text, self.k)

    def parse_expr(self) -> dict:
        tokens, coeffs = self.tokens, self.coeffs
        sign = coeffs.one
        if tokens[self.k] == "-":
            self.k += 1
            sign = coeffs.minus_one
        acc = {}
        coeffs.addmul(acc, 0, sign, self.parse_term())
        while (op := tokens[self.k]) == "+" or op == "-":
            self.k += 1
            sign = coeffs.one if op == "+" else coeffs.minus_one
            coeffs.addmul(acc, 0, sign, self.parse_term())
        return coeffs.finish(acc)

    def parse_term(self) -> dict:
        """Integer and variable factors are folded into one raw coefficient
        and one packed monomial, each product checked against the degree
        bound as ``_product`` checks it: only while neither side is zero.
        From the first parenthesised factor on, the rest of the term is
        multiplied out by ``_product``."""
        tokens, coeffs = self.tokens, self.coeffs
        if tokens[self.k] == "(":
            return self.parse_product(self.parse_factor())
        c, e = self.parse_monomial()
        zero = coeffs.is_zero(c)
        while tokens[self.k] == "*":
            self.k += 1
            if tokens[self.k] == "(":
                return self.parse_product(_product(
                    coeffs, self.top, {} if zero else {e: c},
                    self.parse_factor()))
            c2, e2 = self.parse_monomial()
            if zero:
                continue
            if coeffs.is_zero(c2):
                zero = True
                continue
            _check_degree((e >> self.top) + (e2 >> self.top))
            c, e = coeffs.mul(c, c2), e + e2
            zero = coeffs.is_zero(c)
        return {} if zero else {e: c}

    def parse_product(self, terms: dict) -> dict:
        """The rest of a term, multiplied onto ``terms``."""
        while self.tokens[self.k] == "*":
            self.k += 1
            terms = _product(self.coeffs, self.top, terms, self.parse_factor())
        return terms

    def parse_factor(self) -> dict:
        coeffs = self.coeffs
        if self.tokens[self.k] != "(":
            c, e = self.parse_monomial()
            return {} if coeffs.is_zero(c) else {e: c}
        self.k += 1
        base = self.parse_expr()
        if (tok := self.tokens[self.k]) != ")":
            raise self.error(f"expected ), found {tok!r}")
        self.k += 1
        n = self.parse_exponent()
        if n is None:
            return base
        if not n:
            return {0: coeffs.one}
        # the degree first, so that a power above the bound costs no product
        _check_degree((max(base, default=0) >> self.top) * n)
        return _power(partial(_product, coeffs, self.top), base, n)

    def parse_monomial(self) -> tuple:
        """An integer or a variable and its power, as (raw coefficient,
        packed monomial); the coefficient may be zero."""
        tok = self.tokens[self.k]
        coeffs = self.coeffs
        e = self.units.get(tok)
        if e is not None:
            c = coeffs.one
        elif tok[:1].isdecimal():
            c, e = coeffs.from_int(int(tok)), 0
        elif tok[:1].isalnum():
            raise self.error(f"unknown variable {tok!r}")
        else:
            raise self.error(
                f"expected a value, found {tok or 'end of input'!r}")
        self.k += 1
        n = self.parse_exponent()
        if n is None:
            return c, e
        if not n:
            return coeffs.one, 0            # 0^0 = 1 as well
        if e:
            # the degree first, as for any power
            _check_degree((e >> self.top) * n)
            return c, e * n
        return _power(coeffs.mul, c, n), 0

    def parse_exponent(self) -> int | None:
        """The uint after a '^', or None when no '^' follows."""
        tokens = self.tokens
        if tokens[self.k] != "^":
            return None
        self.k += 1
        tok = tokens[self.k]
        if not tok[:1].isdecimal():
            raise self.error(f"expected INT, found {tok!r}")
        self.k += 1
        return int(tok)


def parse_poly(text: str, registry: VarRegistry, ring: Ring) -> MPoly:
    """Parse polynomial text over the given registry and ring."""
    tokens = _TOKEN.findall(text)
    tokens.append("")
    try:
        parser = _Parser(text, tokens, registry, ring)
        terms = parser.parse_expr()
        if tokens[parser.k]:
            raise parser.error(
                f"trailing input starting at {tokens[parser.k]!r}")
    except Exception:
        # No rule reads a bad token, so a text with one always ends here,
        # and its first bad token is reported before any other failure.
        bad = next((k for k, tok in enumerate(tokens) if _is_bad(tok)), None)
        if bad is None:
            raise
        raise _parse_error(f"unexpected character {tokens[bad]!r}", text,
                           bad) from None
    return _init(_new(MPoly), registry, ring, parser.coeffs, terms)
