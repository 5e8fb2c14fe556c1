"""Divisor-class arithmetic on lattices of blown-up rational surfaces.

A lattice is a named basis with a symmetric integer intersection form and
a distinguished canonical class.  Blowups follow the total-transform
convention: each blowup appends one new basis vector of self-intersection
-1, orthogonal to everything else, and adds it to the canonical class; a
class pulls back by appending a 0 coefficient.
Geometric curves are then encoded as explicit integer combinations, with
multiplicities at the blown-up centers supplied by the local curve
analysis; every published class identity becomes a pure vector equality.

A coefficient is an ``int``: any scalar without ``__index__``, a float or a
``Fraction`` included, raises ``TypeError`` in the constructor, which
``Lattice.cls`` calls, and on the scalar of ``n * D``.  A sum, difference,
negative or multiple of classes has int coefficients already and skips that
check.  The determinant and the signature of the form are computed by
integer elimination (Bareiss's fraction-free scheme, and symmetric
congruence scaled by the pivot's absolute value).
"""

from __future__ import annotations

import operator
from typing import Mapping, NamedTuple, Sequence

from .rings import Frozen


class LatticeMismatchError(TypeError):
    """Two divisor classes live on different lattices."""


class BranchParityError(ValueError):
    """A double-cover branch class is not twice the given bundle class."""


class Lattice:
    """A free abelian group with named basis and integer pairing."""

    def __init__(self, names: Sequence[str], gram: Sequence[Sequence[int]],
                 canonical: Sequence[int] | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct")
        gram = tuple(tuple(map(operator.index, row)) for row in gram)
        n = len(names)
        if len(gram) != n or any(len(r) != n for r in gram):
            raise ValueError("gram matrix shape mismatch")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
            raise ValueError("gram matrix must be symmetric")
        if canonical is not None:
            canonical = tuple(map(operator.index, canonical))
            if len(canonical) != n:
                raise ValueError("canonical vector length mismatch")
        self._fill(names, gram, canonical,
                   tuple(tuple((j, g) for j, g in enumerate(row) if g)
                         for row in gram))

    def _fill(self, names, gram, canonical, support):
        self.names = names
        self.gram = gram
        self.index = {name: i for i, name in enumerate(names)}
        self._canonical = canonical
        # the nonzero (column, entry) pairs of each Gram row
        self._support = support
        return self

    @property
    def rank(self) -> int:
        return len(self.names)

    @property
    def canonical(self) -> "DivisorClass":
        if self._canonical is None:
            raise ValueError("lattice has no canonical class set")
        return DivisorClass(self, self._canonical)

    def cls(self, coeffs: Mapping[str, int]) -> "DivisorClass":
        vec = [0] * self.rank
        for name, c in coeffs.items():
            vec[self.index[name]] = c
        return DivisorClass(self, tuple(vec))

    def basis(self, name: str) -> "DivisorClass":
        return self.cls({name: 1})

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self.names == other.names
                and self.gram == other.gram
                and self._canonical == other._canonical)

    def __hash__(self):
        return hash((self.names, self.gram, self._canonical))

    def __repr__(self):
        return f"Lattice({', '.join(self.names)})"


class DivisorClass(Frozen):
    """A class on a lattice, as its coefficient vector; immutable."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: Lattice, coeffs: Sequence[int]):
        coeffs = tuple(coeffs)
        if len(coeffs) != lattice.rank:
            raise ValueError("coefficient vector length mismatch")
        if not all(type(c) is int for c in coeffs):
            coeffs = tuple(map(operator.index, coeffs))
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if type(other) is not DivisorClass:
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.lattice is other.lattice or self.lattice == other.lattice)

    def __hash__(self):
        return hash((self.lattice, self.coeffs))

    def _like(self, coeffs: tuple) -> "DivisorClass":
        """A class on this lattice from ints of its rank, set through the
        slot descriptors: no immutability guard and no int check."""
        c = object.__new__(DivisorClass)
        DivisorClass.lattice.__set__(c, self.lattice)
        DivisorClass.coeffs.__set__(c, coeffs)
        return c

    def _check(self, other: "DivisorClass"):
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeMismatchError("classes on different lattices")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return self._like(tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return self._like(tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return self._like(tuple(map(operator.neg, self.coeffs)))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        s = operator.index(scalar)
        return self._like(tuple(s * a for a in self.coeffs))

    def __repr__(self):
        parts = [f"{c}*{n}" for n, c in zip(self.lattice.names, self.coeffs)
                 if c != 0]
        return " + ".join(parts) if parts else "0"


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Value of the intersection pairing; symmetric and bilinear."""
    a._check(b)
    bc = b.coeffs
    total = 0
    for ca, support in zip(a.coeffs, a.lattice._support):
        if ca:
            for j, g in support:
                total += ca * g * bc[j]
    return total


def verify_class_relation(lhs: DivisorClass, rhs: DivisorClass) -> bool:
    """True iff the two classes have identical coefficient vectors."""
    lhs._check(rhs)
    return lhs.coeffs == rhs.coeffs


def blowup(lattice: Lattice, name: str) -> Lattice:
    """Blow up a point: append an orthogonal (-1)-vector named ``name``.

    Returns the extended lattice.  The new canonical class is the
    pullback of the old one plus the new exceptional vector.  The new
    form is symmetric because the old one is, so it is not checked again.
    """
    if name in lattice.index:
        raise ValueError(f"basis name {name!r} already used")
    n = lattice.rank
    canonical = lattice._canonical
    return Lattice.__new__(Lattice)._fill(
        lattice.names + (name,),
        tuple(row + (0,) for row in lattice.gram) + ((0,) * n + (-1,),),
        None if canonical is None else canonical + (1,),
        lattice._support + (((n, -1),),))


def quadric_lattice() -> Lattice:
    """Pic of a smooth quadric (product of two lines): hyperbolic rank 2."""
    return Lattice(("h1", "h2"), ((0, 1), (1, 0)), (-2, -2))


class DoubleCoverStats(NamedTuple):
    k_squared: int
    chi: int
    adjoint: DivisorClass  # K + L, the class controlling the genus-zero count


def double_cover_stats(branch: DivisorClass, bundle: DivisorClass,
                       canonical: DivisorClass) -> DoubleCoverStats:
    """Numerical invariants of a double cover branched along ``branch``.

    Requires branch = 2 * bundle in the lattice.  For a smooth branch
    curve on a smooth rational base (chi = 1) with canonical class K:

        K_cover^2 = 2 (K + L)^2
        chi_cover = 2 + L.(L + K) / 2

    The class K + L is returned for downstream section counts.  By
    Riemann-Roch L.(L + K) is even when K is a surface's canonical class;
    an odd value raises ``ValueError``.
    """
    branch._check(bundle)
    if not verify_class_relation(branch, 2 * bundle):
        raise BranchParityError("branch class is not twice the bundle class")
    adjoint = canonical + bundle
    t = intersect(bundle, bundle + canonical)
    if t % 2:
        raise ValueError(f"L.(L + K) = {t} is odd: K is not canonical")
    return DoubleCoverStats(2 * intersect(adjoint, adjoint), 2 + t // 2,
                            adjoint)


def gram_determinant(lattice: Lattice) -> int:
    """Determinant of the intersection form.

    Bareiss's fraction-free elimination: after each step the remaining
    block holds minors of the form, so every division is exact and every
    entry stays an integer; the last pivot is the determinant.
    """
    m = [list(row) for row in lattice.gram]
    sign = prev = 1
    while m:
        k = next((k for k, row in enumerate(m) if row[0]), None)
        if k is None:
            return 0
        if k:
            m[0], m[k] = m[k], m[0]
            sign = -sign
        top = m[0]
        p = top.pop(0)
        rest = m[1:]
        for row in rest:
            f = row.pop(0)
            if f or p != prev:
                row[:] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        m, prev = rest, p
    return sign * prev


def signature(lattice: Lattice) -> tuple[int, int]:
    """(positive, negative) inertia indices of the intersection form.

    Exact symmetric congruence elimination on integers.  A pivot d turns
    the rest of the form into |d| times its Schur complement, which has
    the same inertia and integer entries.  When every remaining diagonal
    entry is zero but some entry b_ij is not, e_i + e_j (of square 2 b_ij)
    replaces e_i as the pivot.
    """
    m = [list(row) for row in lattice.gram]
    pos = neg = 0
    while m:
        i = next((k for k, row in enumerate(m) if row[k]), None)
        if i is None:
            i, j = next(((i, j) for i, row in enumerate(m)
                         for j, x in enumerate(row) if x), (None, None))
            if i is None:
                break                       # the rest of the form is zero
            for row in m:
                row[i] += row[j]
            m[i] = [x + y for x, y in zip(m[i], m[j])]
        top = m.pop(i)
        d = top.pop(i)
        if d > 0:
            pos += 1
        else:
            neg += 1
        scale, sign = abs(d), (1 if d > 0 else -1)
        for row in m:
            f = row.pop(i)
            if f:
                row[:] = [scale * x - sign * f * y for x, y in zip(row, top)]
            elif scale != 1:
                row[:] = [scale * x for x in row]
    return pos, neg
