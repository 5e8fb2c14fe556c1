"""Exact coefficient rings.

Every computation in this package happens over one of a small family of
exact rings:

* ``ZZ`` -- arbitrary-precision integers,
* ``ZMod(p, k)`` -- integers modulo a prime power p**k,
* ``PrimeField(p)`` -- the field GF(p),
* ``QuadraticField(p)`` -- GF(p)[i] with i**2 = -1, a model of GF(p**2)
  when -1 is a non-square mod p (true for p = 7),
* ``DualNumbers(base)`` -- base[eps] with eps**2 = 0, for element
  arithmetic only: ``poly`` has no polynomials over it.

Elements are immutable values carrying a reference to their ring, under
``Frozen``, the one immutability guard of the package; mixing elements
of different rings raises ``RingMismatchError``.  Canonical form
is the least non-negative residue in each coordinate, so ``==`` and
``hash`` agree with mathematical equality.  Integer payloads are read
through ``operator.index``: a float, a string or a fraction raises
``TypeError`` instead of being truncated.

A GF(p) element's payload is its residue, and a GF(p)[i] element a+bi
has the int payload a + p*b, so zero is 0 and one is 1 and each payload
is also the element's code in the field's table set.  ``field_tables``
builds that set (products, sums, differences, inverses, and the element
of each code) once per field value, in the manner of the table-based
small fields of FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS 35(3),
2008).  GF(p) and GF(p)[i] of at most ``_TABLE_ORDER_LIMIT`` (256)
elements build it when they are constructed and keep it as
``ring.tables``; a larger GF(p)[i] is refused.  The GF(p) and GF(p)[i]
operators ``+``, ``-`` (binary and unary) and ``*`` of ``Element``, and
its ``inverse``, read the table set themselves,
``ring._elements[tables.add[a][b]]`` and so on, with no call into the
ring.  Every other ring (``ZZ``, Z/p^k for k > 1, GF(p) above the limit,
the dual numbers) goes through its payload methods ``_add``, ``_sub``,
``_neg``, ``_mul`` and ``_invert``.  Exact elimination
(``linalg``), polynomials over GF(p)[i] (``poly``) and the rational
singular-point scan (``scenarios``) run on the same codes.

``Ring._wrap(payload)`` is the one way a canonical payload becomes an
``Element``; ``Element(ring, payload)`` is ``ring.element(payload)``.
A ``ZMod`` or ``QuadraticField`` of at most ``_INTERN_ORDER_LIMIT`` (343)
elements, GF(7), GF(49) and Z/343 among them, builds the tuple of its
elements once, when it is constructed, as ``ring._elements``, and its
``_wrap`` indexes that tuple: its arithmetic and its constructors hand
out those elements and allocate nothing.  The rings that allocate a new
element for each result are ``ZZ``, ``ZMod`` rings above the limit and
the dual numbers.  Which elements are the same object is not part of the
interface: compare them with ``==``, never with ``is``.

The module also provides ``hensel_lift``, the p-power-at-a-time refinement
of a simple root of a univariate integer polynomial.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from operator import index, itemgetter
from typing import Sequence


class RingMismatchError(TypeError):
    """Two operands belong to different rings."""


class NonUnitError(ArithmeticError):
    """Inversion was requested for a non-invertible element."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"not a unit: {element!r}")


class NotSimpleRootError(ArithmeticError):
    """The residue is not a simple root, so the lift is not defined."""


# Rings with at most this many elements intern them: Z/343 and every
# field that has a table set.
_INTERN_ORDER_LIMIT = 343


class Frozen:
    """Base of the immutable value types (``Element``, ``FieldTables``,
    ``MPoly``, ``LinearSystem``, ``DerivedSystem``, ``ChartGerm``,
    ``DivisorClass``): assigning or deleting an attribute raises
    ``AttributeError``.  A subclass declares its ``__slots__`` and fills
    them through the slot descriptors, which bypass this guard."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Ring:
    """Common interface of all coefficient rings.

    ``tables`` is the ``field_tables`` set of a field that keeps one,
    GF(p) and GF(p)[i] up to ``_TABLE_ORDER_LIMIT`` elements, and None
    for every other ring; the ``Element`` operators read it in place of
    the payload methods."""

    tables = None

    def element(self, payload):
        raise NotImplementedError

    def _wrap(self, payload) -> "Element":
        """The element with the canonical ``payload``, newly allocated; a
        ring that interns its elements shadows this with ``_intern``."""
        x = object.__new__(Element)
        _set_ring(x, self)
        _set_payload(x, payload)
        return x

    def _intern(self, order: int) -> None:
        """Build the elements of payloads 0 .. order-1 once, and make
        ``_wrap`` index them, if ``order`` is at most
        ``_INTERN_ORDER_LIMIT``."""
        if order <= _INTERN_ORDER_LIMIT:
            self._elements = tuple(Ring._wrap(self, x) for x in range(order))
            self._wrap = self._elements.__getitem__

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def from_int(self, n: int):
        """Image of the integer n under the canonical map into the ring."""
        return self.element(n)

    def characteristic(self) -> int:
        raise NotImplementedError

    def is_field(self) -> bool:
        return False

    def random_element(self, rng: "random.Random"):
        raise NotImplementedError

    # payload-level arithmetic of a ring without tables; Element
    # dispatches here
    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _invert(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _repr_payload(self, a) -> str:
        return repr(a)


class Element(Frozen):
    """An immutable ring element: a ring reference plus canonical payload.

    The binary operations take a fast path when the other operand is an
    ``Element`` of the very same ring object; any other operand goes
    through ``_check``, which accepts an equal ring and raises
    ``RingMismatchError`` otherwise.  Over a ring with ``tables`` the
    result is read off the code tables and is always an element of
    ``self.ring``, the operating ring, even when ``other`` belongs to an
    equal ring built apart from it.
    """

    __slots__ = ("ring", "payload")

    def __new__(cls, ring: Ring, payload):
        """``ring.element(payload)``: the payload is validated and made
        canonical, as by every other constructor."""
        return ring.element(payload)

    def _check(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            raise RingMismatchError(f"expected a ring element, got {other!r}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring!r} vs {other.ring!r}")
        return other

    def __add__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            other = self._check(other)
        tables = ring.tables
        if tables is not None:
            return ring._elements[tables.add[self.payload][other.payload]]
        return ring._wrap(ring._add(self.payload, other.payload))

    def __sub__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            other = self._check(other)
        tables = ring.tables
        if tables is not None:
            return ring._elements[tables.sub[self.payload][other.payload]]
        return ring._wrap(ring._sub(self.payload, other.payload))

    def __neg__(self):
        ring = self.ring
        tables = ring.tables
        if tables is not None:
            return ring._elements[tables.sub[0][self.payload]]
        return ring._wrap(ring._neg(self.payload))

    def __mul__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            other = self._check(other)
        tables = ring.tables
        if tables is not None:
            return ring._elements[tables.mul[self.payload][other.payload]]
        return ring._wrap(ring._mul(self.payload, other.payload))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.ring.one()
        return _power(operator.mul, self, n)

    def inverse(self) -> "Element":
        ring = self.ring
        tables = ring.tables
        if tables is not None:
            code = tables.inv[self.payload]
            if code is None:
                raise NonUnitError(self)
            return ring._elements[code]
        return ring._wrap(ring._invert(self.payload))

    def is_zero(self) -> bool:
        return self.ring._is_zero(self.payload)

    def __eq__(self, other):
        if other.__class__ is Element and other.ring is self.ring:
            return self.payload == other.payload
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring == other.ring and self.payload == other.payload

    def __hash__(self):
        return hash((self.ring, self.payload))

    def __repr__(self):
        return self.ring._repr_payload(self.payload)


# ``Ring._wrap`` builds elements through the slot descriptors.
_set_ring = Element.ring.__set__
_set_payload = Element.payload.__set__


def _power(mul, base, n: int):
    """base ** n under ``mul`` for n >= 1, squaring only while bits remain."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


class IntegerRing(Ring):
    """Arbitrary-precision integers."""

    def element(self, payload: int) -> Element:
        return self._wrap(index(payload))

    def characteristic(self) -> int:
        return 0

    def random_element(self, rng: "random.Random") -> Element:
        return self.element(rng.randint(-10**6, 10**6))

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _invert(self, a):
        if a in (1, -1):
            return a
        raise NonUnitError(self.element(a))

    def _is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "ZZ"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("IntegerRing")


ZZ = IntegerRing()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class ZMod(Ring):
    """Integers modulo p**k for a prime p and k >= 1.  The field GF(p)
    builds its table set when it is constructed, if p is at most
    ``_TABLE_ORDER_LIMIT``."""

    def __init__(self, p: int, k: int = 1):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("exponent must be >= 1")
        self.p = p
        self.k = k
        self.modulus = p ** k
        self._intern(self.modulus)
        self.tables = (field_tables(self) if k == 1
                       and p <= _TABLE_ORDER_LIMIT else None)

    def element(self, payload: int) -> Element:
        return self._wrap(index(payload) % self.modulus)

    def characteristic(self) -> int:
        return self.modulus

    def is_field(self) -> bool:
        return self.k == 1

    def random_element(self, rng: "random.Random") -> Element:
        return self.element(rng.randrange(self.modulus))

    def _add(self, a, b):
        return (a + b) % self.modulus

    def _sub(self, a, b):
        return (a - b) % self.modulus

    def _neg(self, a):
        return (-a) % self.modulus

    def _mul(self, a, b):
        return (a * b) % self.modulus

    def _invert(self, a):
        if a % self.p == 0:
            raise NonUnitError(self.element(a))
        return pow(a, -1, self.modulus)

    def _is_zero(self, a):
        return a == 0

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"Z/{self.p}^{self.k}"

    def __eq__(self, other):
        return isinstance(other, ZMod) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash(("ZMod", self.p, self.k))


def PrimeField(p: int) -> ZMod:
    """The field GF(p)."""
    return ZMod(p, 1)


# Small enough that the q x q tables of GF(q) stay small.
_TABLE_ORDER_LIMIT = 256


class QuadraticField(Ring):
    """GF(p)[i] with i**2 = -1; a field iff -1 is a non-square mod p.

    The payload of a + b*i is the int a + p*b, its code in ``tables``,
    the table set of ``field_tables``, which the ``Element`` operators
    and ``inverse`` read: the ring has no other arithmetic.  The
    order p**2 is at most ``_TABLE_ORDER_LIMIT``.  ``element`` takes a
    pair (a, b) for a + b*i, and an int n as the image of n, not as a
    code.
    """

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p % 4 != 3:
            raise ValueError(f"-1 is a square mod {p}; GF({p})[i] is not a field")
        self.p = p
        self._intern(p * p)
        self.tables = field_tables(self)

    def element(self, payload) -> Element:
        if not isinstance(payload, tuple):
            return self._wrap(index(payload) % self.p)
        a, b = payload
        return self._wrap(index(a) % self.p + self.p * (index(b) % self.p))

    def i(self) -> Element:
        return self.element((0, 1))

    def characteristic(self) -> int:
        return self.p

    def is_field(self) -> bool:
        return True

    def order(self) -> int:
        return self.p * self.p

    def random_element(self, rng: "random.Random") -> Element:
        return self.element((rng.randrange(self.p), rng.randrange(self.p)))

    def conjugate(self, x: Element) -> Element:
        return self.element((x.payload % self.p, -(x.payload // self.p)))

    def _is_zero(self, a):
        return a == 0

    def _repr_payload(self, a):
        re, im = a % self.p, a // self.p
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i" if im != 1 else "i"
        return f"{re}+{im}i" if im != 1 else f"{re}+i"

    def __repr__(self):
        return f"GF({self.p})[i]"

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and self.p == other.p

    def __hash__(self):
        return hash(("QuadraticField", self.p))


class DualNumbers(Ring):
    """base[eps] with eps**2 = 0.  Payloads are pairs of base elements."""

    def __init__(self, base: Ring):
        if isinstance(base, DualNumbers):
            raise ValueError("dual numbers do not nest")
        self.base = base

    def element(self, payload) -> Element:
        if isinstance(payload, int):
            payload = (self.base.from_int(payload), self.base.zero())
        u, v = payload
        if not isinstance(u, Element):
            u = self.base.element(u)
        if not isinstance(v, Element):
            v = self.base.element(v)
        return self._wrap((u, v))

    def characteristic(self) -> int:
        return self.base.characteristic()

    def random_element(self, rng: "random.Random") -> Element:
        return self.element((self.base.random_element(rng),
                             self.base.random_element(rng)))

    def _add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def _neg(self, a):
        return (-a[0], -a[1])

    def _mul(self, a, b):
        return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])

    def _invert(self, a):
        # (u + v eps)^-1 = u^-1 - u^-2 v eps, defined iff u is a unit
        u, v = a
        if u.is_zero():
            raise NonUnitError(self.element(a))
        uinv = u.inverse()
        return (uinv, -(uinv * uinv * v))

    def _is_zero(self, a):
        return a[0].is_zero() and a[1].is_zero()

    def _repr_payload(self, a):
        u, v = a
        if v.is_zero():
            return repr(u)
        if u.is_zero():
            return f"({v!r})eps"
        return f"{u!r}+({v!r})eps"

    def __repr__(self):
        return f"{self.base!r}[eps]"

    def __eq__(self, other):
        return isinstance(other, DualNumbers) and self.base == other.base

    def __hash__(self):
        return hash(("DualNumbers", self.base))


class FieldTables(Frozen):
    """Arithmetic of one small field on the codes 0 .. q-1, which are the
    payloads of its elements.

    ``mul[a][b]`` is the code of a*b, ``add[a][b]`` that of a+b,
    ``sub[a][b]`` that of a-b (so ``sub[0]`` negates), ``inv[a]`` that
    of 1/a (``inv[0]`` is None), and ``elements[a]`` the ``Element`` of
    code a: ``elements`` is the interned tuple of the ring that built the
    set.  One table set is shared by all its users, equal rings included,
    so every part is a tuple and the set is ``Frozen``; the ``Element``
    operators read the codes here and hand out the operating ring's own
    elements, ``ring._elements[code]``, never ``elements``.  The parts
    are slots: an attribute read reaches them faster than the fields of
    a named tuple, and the operators read one on every call.
    """

    __slots__ = ("mul", "add", "sub", "inv", "elements")

    def __init__(self, mul, add, sub, inv, elements):
        for name, part in zip(self.__slots__, (mul, add, sub, inv, elements)):
            object.__setattr__(self, name, part)

    def horner(self, coeffs: Sequence[int], x: int) -> int:
        """Code of the sum of coeffs[k] * x**k, coefficients low degree
        first."""
        times_x, sub, neg = self.mul[x], self.sub, self.sub[0]
        acc = 0
        for c in reversed(coeffs):
            acc = sub[times_x[acc]][neg[c]]
        return acc


@lru_cache(maxsize=None)
def field_tables(ring: Ring) -> FieldTables:
    """The table set of GF(p) or GF(p)[i], built once per ring value from
    logarithms to a generator g of the units, found by the rule i**2 = -1 on
    the codes a + p*b (b = 0 in GF(p)): a * c = g**(log a + log c) and
    a + c = a (1 + c/a), each row one ``itemgetter``.  A field of more than
    ``_TABLE_ORDER_LIMIT`` elements raises ``ValueError`` first."""
    if not ring.is_field():
        raise ValueError(f"small-field tables need a field, not {ring!r}")
    p = ring.characteristic()
    q = p * p if isinstance(ring, QuadraticField) else p
    if q > _TABLE_ORDER_LIMIT:
        raise ValueError(f"{ring!r} has {q} elements, above the table "
                         f"order limit {_TABLE_ORDER_LIMIT}")
    # (a + bi)(c + di) = ac - bd + (ad + bc)i on the codes a + p*b
    times = lambda x, y: ((x % p * (y % p) - x // p * (y // p)) % p
                          + p * ((x % p * (y // p) + x // p * (y % p)) % p))
    for g in range(1, q):       # the first code whose powers fill the units
        powers = [1]
        while (x := times(powers[-1], g)) != 1:
            powers.append(x)
        if len(powers) == q - 1:
            break
    exp = powers * 2 + [0] * (q - 1)    # log 0 points into the zeros
    log = [powers.index(c) if c else 2 * q - 2 for c in range(q)]
    mul = ((0,) * q, *map(itemgetter(*log), (exp[k:] for k in log[1:])))
    inv = (None, *(exp[q - 1 - k] for k in log[1:]))
    plus_one = tuple(c + 1 - p * ((c + 1) % p == 0) for c in range(q))
    add = (tuple(range(q)), *(itemgetter(*itemgetter(*mul[inv[a]])(plus_one))(
        mul[a]) for a in range(1, q)))
    sub = tuple(map(itemgetter(*[row.index(0) for row in add]), add))
    return FieldTables(mul, add, sub, inv, ring._elements)


def eval_int_poly(coeffs: Sequence[int], x: int) -> int:
    """Evaluate an integer polynomial given low-degree-first coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def derivative_int_poly(coeffs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def hensel_lift(coeffs: Sequence[int], p: int, r0: int, k: int) -> int:
    """Lift a simple root of f mod p to the unique root mod p**k above it.

    ``coeffs`` lists the coefficients of f low degree first.  Requires
    f(r0) = 0 mod p and f'(r0) a unit mod p; raises NotSimpleRootError
    otherwise.  The refinement is the linear Newton step
    r <- r - f(r) * f'(r0)^-1, one p-power at a time.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("target exponent must be >= 1")
    r0 = r0 % p
    if eval_int_poly(coeffs, r0) % p != 0:
        raise NotSimpleRootError(f"{r0} is not a root mod {p}")
    dcoeffs = derivative_int_poly(coeffs)
    slope = eval_int_poly(dcoeffs, r0) % p
    if slope == 0:
        raise NotSimpleRootError(f"{r0} is a multiple root mod {p}")
    slope_inv = pow(slope, -1, p ** k)
    r = r0
    for j in range(2, k + 1):
        mod = p ** j
        r = (r - eval_int_poly(coeffs, r) * slope_inv) % mod
    if eval_int_poly(coeffs, r) % (p ** k) != 0:
        raise ArithmeticError(f"lifted value {r} is not a root mod {p}^{k}")
    return r
