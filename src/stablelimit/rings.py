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

There is one ring per value, so rings compare by identity: ``ZMod(7)``,
``ZMod(7, 1)`` and ``PrimeField(7)`` are one object.  Rings, and the
elements that carry a reference to their ring, are immutable under
``Frozen``, the one immutability guard of the package; mixing elements
of different rings raises ``RingMismatchError``.  Canonical form
is the least non-negative residue in each coordinate, so ``==`` and
``hash`` agree with mathematical equality.  Integer payloads are read
through ``operator.index``: a float, a string or a fraction raises
``TypeError`` instead of being truncated.

A GF(p) element's payload is its residue, a GF(p)[i] element a+bi has
the int payload a + p*b, and a dual number u + v*eps the int u + q*v of
the codes u and v in its base of order q, so zero is 0 and one is 1.
GF(p) and GF(p)[i] of at most ``_TABLE_ORDER_LIMIT`` (256) elements (a
larger GF(p)[i] is refused) keep their arithmetic on these codes as four
tables, built once from discrete logarithms in the manner of the
table-based small fields of FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS
35(3), 2008): ``ring.mul[a][b]`` is the code of a*b, ``ring.add`` and
``ring.sub`` those of a+b and a-b (``sub[0]`` negates), and ``ring.inv[a]``
that of 1/a, None at a non-unit.  GF(7)[eps] keeps tables built from its
base's, so tables do not imply a field; every other ring has them None.
The ``Element`` operators, and ``inverse``, read them themselves
(``ring._elements[ring.add[a][b]]``); every other ring goes through its
payload methods ``_add``, ``_sub``, ``_neg``, ``_mul`` and ``_invert``.
Exact elimination (``linalg``), polynomials over GF(p)[i] (``poly``) and
the rational singular-point scan (``scenarios``) run on the same codes.

``Ring._wrap(payload)`` is the one way a canonical payload becomes an
``Element``; ``Element(ring, payload)`` is ``ring.element(payload)``.
A ring of at most ``_INTERN_ORDER_LIMIT`` (2401) elements, GF(7), GF(49),
Z/343, GF(7)[eps] and GF(49)[eps] among them, builds the tuple of its
elements once, when it is first constructed, as ``ring._elements``, and its
``_wrap`` indexes that tuple: its arithmetic and its constructors hand
out those elements and allocate nothing; the larger rings, ``ZZ`` among
them, allocate a new element for each result.  Which elements are the
same object is not part of the interface: compare them with ``==``,
never with ``is``.
"""

from __future__ import annotations

import operator
from operator import index, itemgetter


class RingMismatchError(TypeError):
    """Two operands belong to different rings."""


class NonUnitError(ArithmeticError):
    """Inversion was requested for a non-invertible element."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"not a unit: {element!r}")


# Rings with at most this many elements intern them: Z/343, GF(49)[eps]
# and every ring with code tables.
_INTERN_ORDER_LIMIT = 2401
# the one ring of each value, keyed by its class and its arguments
_RINGS: dict = {}


class Frozen:
    """Base of the immutable value types (``Ring``, ``Element``, ``MPoly``,
    ``VarRegistry``, ``LinearSystem``, ``SolutionSet``, ``DerivedSystem``,
    ``ChartGerm``, ``Lattice``, ``DivisorClass``): assigning or deleting
    an attribute raises ``AttributeError``.  A subclass fills its
    ``__slots__`` through aliases of their descriptors' ``__set__``, and a
    ring its attributes through ``_fill``, past it."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Ring(Frozen):
    """Common base of the coefficient rings, one ring per value.

    Each ring provides ``element``, ``characteristic`` and
    ``random_element``; its zero has payload 0.  ``mul``, ``add``,
    ``sub`` and ``inv`` are the code tables of one small ring, GF(p) and
    GF(p)[i] up to ``_TABLE_ORDER_LIMIT`` elements and GF(7)[eps], all
    four filled by ``_build`` or all four None; the ``Element`` operators
    read them in place of the payload methods ``_add``, ``_sub``,
    ``_neg``, ``_mul`` and ``_invert``, which every other ring provides."""

    mul = add = sub = inv = None

    def __new__(cls, *args):
        """The one ring of ``cls`` on the normalized ``args``; the first call
        builds it with ``_build``, which refuses bad arguments."""
        key = (cls, *args)
        ring = _RINGS.get(key)
        if ring is None:
            ring = object.__new__(cls)
            ring._build(*args)
            ring = _RINGS.setdefault(key, ring)     # the first if threads race
        return ring

    def _build(self):
        """Check the arguments and fill the ring; ``ZZ`` takes none."""

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
            elements = tuple(Ring._wrap(self, x) for x in range(order))
            self._fill(_elements=elements, _wrap=elements.__getitem__)

    def _fill(self, **attributes) -> None:
        """Set attributes of a ring in ``_build``, past ``Frozen``."""
        for name, value in attributes.items():
            object.__setattr__(self, name, value)

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def from_int(self, n: int):
        """Image of the integer n under the canonical map into the ring."""
        return self.element(n)

    def is_field(self) -> bool:
        return False

    def _repr_payload(self, a) -> str:
        return repr(a)


class Element(Frozen):
    """An immutable ring element: a ring reference plus canonical payload.

    The binary operations take a fast path when the other operand is an
    ``Element`` of the same ring, which is the same object since there is
    one ring per value; any other operand goes through ``_check``, which
    raises ``RingMismatchError``.  Over a ring with code tables the result
    is read off its one table and is an element of ``ring._elements``.
    """

    __slots__ = ("ring", "payload")

    def __new__(cls, ring: Ring, payload):
        """``ring.element(payload)``: the payload is validated and made
        canonical, as by every other constructor."""
        return ring.element(payload)

    def _check(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            raise RingMismatchError(f"expected a ring element, got {other!r}")
        if other.ring is not self.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring!r} vs {other.ring!r}")
        return other

    def __add__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            other = self._check(other)
        add = ring.add
        if add is not None:
            return ring._elements[add[self.payload][other.payload]]
        return ring._wrap(ring._add(self.payload, other.payload))

    def __sub__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            other = self._check(other)
        sub = ring.sub
        if sub is not None:
            return ring._elements[sub[self.payload][other.payload]]
        return ring._wrap(ring._sub(self.payload, other.payload))

    def __neg__(self):
        ring = self.ring
        sub = ring.sub
        if sub is not None:
            return ring._elements[sub[0][self.payload]]
        return ring._wrap(ring._neg(self.payload))

    def __mul__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            other = self._check(other)
        mul = ring.mul
        if mul is not None:
            return ring._elements[mul[self.payload][other.payload]]
        return ring._wrap(ring._mul(self.payload, other.payload))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.ring.one()
        return _power(operator.mul, self, n)

    def inverse(self) -> "Element":
        ring = self.ring
        inv = ring.inv
        if inv is not None:
            code = inv[self.payload]
            if code is None:
                raise NonUnitError(self)
            return ring._elements[code]
        return ring._wrap(ring._invert(self.payload))

    def is_zero(self) -> bool:
        return self.payload == 0        # every ring's zero has payload 0

    def __eq__(self, other):
        if other.__class__ is Element or isinstance(other, Element):
            return other.ring is self.ring and self.payload == other.payload
        return NotImplemented

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

    def __repr__(self):
        return "ZZ"


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
    builds its code tables when it is constructed, if p is at most
    ``_TABLE_ORDER_LIMIT``."""

    def __new__(cls, p: int, k: int = 1):
        return super().__new__(cls, index(p), index(k))

    def _build(self, p: int, k: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("exponent must be >= 1")
        self._fill(p=p, k=k, modulus=p ** k)
        self._intern(self.modulus)
        if k == 1 and p <= _TABLE_ORDER_LIMIT:
            self._fill(**_log_tables(self, p))

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

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"Z/{self.p}^{self.k}"


def PrimeField(p: int) -> ZMod:
    """The field GF(p)."""
    return ZMod(p, 1)


# Small enough that the q x q tables of GF(q) stay small.
_TABLE_ORDER_LIMIT = 256


class QuadraticField(Ring):
    """GF(p)[i] with i**2 = -1; a field iff -1 is a non-square mod p.

    The payload of a + b*i is the int a + p*b, its code in the tables
    ``mul``, ``add``, ``sub`` and ``inv``, which the ``Element`` operators
    and ``inverse`` read: the ring has no other arithmetic.  The order
    p**2 is at most ``_TABLE_ORDER_LIMIT``.  ``element`` takes a
    pair (a, b) for a + b*i, and an int n as the image of n, not as a
    code.
    """

    def __new__(cls, p: int):
        return super().__new__(cls, index(p))

    def _build(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p % 4 != 3:
            raise ValueError(f"-1 is a square mod {p}; GF({p})[i] is not a field")
        self._fill(p=p)
        self._intern(p * p)
        self._fill(**_log_tables(self, p * p))

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

    def random_element(self, rng: "random.Random") -> Element:
        return self.element((rng.randrange(self.p), rng.randrange(self.p)))

    def conjugate(self, x: Element) -> Element:
        x = self.zero()._check(x)
        return self.element((x.payload % self.p, -(x.payload // self.p)))

    def _repr_payload(self, a):
        re, im = a % self.p, a // self.p
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i" if im != 1 else "i"
        return f"{re}+{im}i" if im != 1 else f"{re}+i"

    def __repr__(self):
        return f"GF({self.p})[i]"


class DualNumbers(Ring):
    """base[eps] with eps**2 = 0, on the codes u + q*v (q the base's
    order), whose payload methods read the base's code tables.  With at
    most ``_TABLE_ORDER_LIMIT`` codes (GF(7)[eps]) the ring keeps code
    tables of its own, built from the base's, with None in ``inv`` at
    each non-unit.  ``element`` takes an int n as the image of n, or a
    pair (u, v) of ints or base elements."""

    def _build(self, base: Ring):
        if isinstance(base, DualNumbers) or base.mul is None:
            raise ValueError(f"no dual numbers over {base!r}: they do not "
                             f"nest, and need a base with code tables")
        q = len(base._elements)
        self._fill(base=base, q=q)
        self._intern(q * q)
        if q * q <= _TABLE_ORDER_LIMIT:
            # (u + v eps)(x + y eps) = ux + (uy + vx) eps
            mul, add, sub = base.mul, base.add, base.sub
            codes = [(c % q, c // q) for c in range(q * q)]
            add_eps, sub_eps = (
                tuple(tuple(rows[u][x] + q * rows[v][y] for x, y in codes)
                      for u, v in codes) for rows in (add, sub))
            self._fill(
                mul=tuple(
                    tuple(mul[u][x] + q * add[mul[u][y]][mul[v][x]]
                          for x, y in codes) for u, v in codes),
                add=add_eps, sub=sub_eps,
                inv=tuple(None if base.inv[c % q] is None
                          else self._invert(c) for c in range(q * q)))

    def element(self, payload) -> Element:
        if isinstance(payload, int):
            payload = (payload, 0)
        u, v = (self.base.one()._check(x) if isinstance(x, Element)
                else self.base.element(x) for x in payload)
        return self._wrap(u.payload + self.q * v.payload)

    def characteristic(self) -> int:
        return self.base.characteristic()

    def random_element(self, rng: "random.Random") -> Element:
        return self.element((self.base.random_element(rng),
                             self.base.random_element(rng)))

    def _add(self, a, b):
        q, add = self.q, self.base.add
        return add[a % q][b % q] + q * add[a // q][b // q]

    def _sub(self, a, b):
        q, sub = self.q, self.base.sub
        return sub[a % q][b % q] + q * sub[a // q][b // q]

    def _neg(self, a):
        q, neg = self.q, self.base.sub[0]
        return neg[a % q] + q * neg[a // q]

    def _mul(self, a, b):
        q, base = self.q, self.base
        mul, x = base.mul, b % q
        row = mul[a % q]
        return row[x] + q * base.add[row[b // q]][mul[a // q][x]]

    def _invert(self, a):
        # (u + v eps)^-1 = u^-1 - u^-2 v eps, defined iff u is a unit
        q, base = self.q, self.base
        w = base.inv[a % q]
        if w is None:
            raise NonUnitError(self._wrap(a))
        return w + q * base.sub[0][base.mul[base.mul[w][w]][a // q]]

    def _repr_payload(self, a):
        elements = self.base._elements
        u, v = elements[a % self.q], elements[a // self.q]
        if v.is_zero():
            return repr(u)
        if u.is_zero():
            return f"({v!r})eps"
        return f"{u!r}+({v!r})eps"

    def __repr__(self):
        return f"{self.base!r}[eps]"


def _log_tables(ring: Ring, q: int) -> dict:
    """The code tables of GF(p) or GF(p)[i] of order q, from logarithms to
    a generator g of the units, found by the rule i**2 = -1 on the codes
    a + p*b (b = 0 in GF(p)): a * c = g**(log a + log c) and
    a + c = a (1 + c/a), each row one ``itemgetter``.  A field of more than
    ``_TABLE_ORDER_LIMIT`` elements raises ``ValueError`` first."""
    p = ring.p
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
    return {"mul": mul, "add": add, "sub": sub, "inv": inv}

