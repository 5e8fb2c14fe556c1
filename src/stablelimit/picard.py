"""Divisor-class arithmetic on lattices of blown-up rational surfaces.

A lattice is a named basis with a symmetric integer intersection form and
a distinguished canonical class.  Blowups follow the total-transform
convention: each blowup appends one new basis vector of self-intersection
-1, orthogonal to everything else, and adds it to the canonical class.
Geometric curves are then encoded as explicit integer (or rational)
combinations, with multiplicities at the blown-up centers supplied by the
local curve analysis; every published class identity becomes a pure
vector equality.

Rational classes carry Fraction coefficients, so statements like
"six times the canonical class is a fiber" are tested exactly.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence


class LatticeMismatchError(TypeError):
    """Two divisor classes live on different lattices."""


class BranchParityError(ValueError):
    """A double-cover branch class is not twice the given bundle class."""


class Lattice:
    """A free abelian group with named basis and integer pairing."""

    def __init__(self, names: Sequence[str], gram: Sequence[Sequence[int]],
                 canonical: Sequence[int] | None = None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("basis names must be distinct")
        self.gram = tuple(tuple(map(operator.index, row)) for row in gram)
        n = len(self.names)
        if len(self.gram) != n or any(len(r) != n for r in self.gram):
            raise ValueError("gram matrix shape mismatch")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        self.index = {name: i for i, name in enumerate(self.names)}
        self._canonical = tuple(map(operator.index, canonical)) if canonical else None

    @property
    def rank(self) -> int:
        return len(self.names)

    @property
    def canonical(self) -> "DivisorClass":
        if self._canonical is None:
            raise ValueError("lattice has no canonical class set")
        return self.cls(dict(zip(self.names, self._canonical)))

    def cls(self, coeffs: Mapping[str, int | Fraction]) -> "DivisorClass":
        vec = [Fraction(0)] * self.rank
        for name, c in coeffs.items():
            vec[self.index[name]] = Fraction(c)
        return DivisorClass(self, tuple(vec))

    def basis(self, name: str) -> "DivisorClass":
        return self.cls({name: 1})

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (Fraction(0),) * self.rank)

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self.names == other.names
                and self.gram == other.gram
                and self._canonical == other._canonical)

    def __hash__(self):
        return hash((self.names, self.gram, self._canonical))

    def __repr__(self):
        return f"Lattice({', '.join(self.names)})"


class DivisorClass:
    """A class on a lattice, as its coefficient vector; immutable."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: Lattice, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != lattice.rank:
            raise ValueError("coefficient vector length mismatch")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("a divisor class is immutable")

    def __delattr__(self, name):
        raise AttributeError("a divisor class is immutable")

    def __eq__(self, other):
        if type(other) is not DivisorClass:
            return NotImplemented
        return self.lattice == other.lattice and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.lattice, self.coeffs))

    @property
    def denominator(self) -> int:
        d = 1
        for c in self.coeffs:
            d = d * c.denominator // _gcd(d, c.denominator)
        return d

    def _check(self, other: "DivisorClass"):
        if self.lattice != other.lattice:
            raise LatticeMismatchError("classes on different lattices")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.lattice, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.lattice, tuple(
            a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar) -> "DivisorClass":
        s = Fraction(scalar)
        return DivisorClass(self.lattice, tuple(s * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coefficient(self, name: str) -> Fraction:
        return self.coeffs[self.lattice.index[name]]

    def __repr__(self):
        parts = [f"{c}*{n}" for n, c in zip(self.lattice.names, self.coeffs)
                 if c != 0]
        return " + ".join(parts) if parts else "0"


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def intersect(a: DivisorClass, b: DivisorClass) -> Fraction:
    """Value of the intersection pairing; symmetric and bilinear."""
    a._check(b)
    gram = a.lattice.gram
    total = Fraction(0)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        row = gram[i]
        for j, cb in enumerate(b.coeffs):
            if cb != 0 and row[j] != 0:
                total += ca * cb * row[j]
    return total


def verify_class_relation(lhs: DivisorClass, rhs: DivisorClass) -> bool:
    """True iff the two classes have identical coefficient vectors."""
    lhs._check(rhs)
    return lhs.coeffs == rhs.coeffs


def blowup(lattice: Lattice, name: str) -> tuple[Lattice, Callable[[DivisorClass], DivisorClass]]:
    """Blow up a point: append an orthogonal (-1)-vector named ``name``.

    Returns the extended lattice and the pullback map, an isometry onto
    its image.  The new canonical class is the pullback of the old one
    plus the new exceptional vector.
    """
    if name in lattice.index:
        raise ValueError(f"basis name {name!r} already used")
    names = lattice.names + (name,)
    n = lattice.rank
    gram = [list(row) + [0] for row in lattice.gram]
    gram.append([0] * n + [-1])
    canonical = None
    if lattice._canonical is not None:
        canonical = list(lattice._canonical) + [1]
    new = Lattice(names, gram, canonical)

    def pullback(d: DivisorClass) -> DivisorClass:
        if d.lattice != lattice:
            raise LatticeMismatchError("class is not on the blown-up lattice")
        return DivisorClass(new, d.coeffs + (Fraction(0),))

    return new, pullback


def quadric_lattice() -> Lattice:
    """Pic of a smooth quadric (product of two lines): hyperbolic rank 2."""
    return Lattice(("h1", "h2"), ((0, 1), (1, 0)), (-2, -2))


class DoubleCoverStats(NamedTuple):
    k_squared: Fraction
    chi: Fraction
    adjoint: DivisorClass  # K + L, the class controlling the genus-zero count


def double_cover_stats(branch: DivisorClass, bundle: DivisorClass,
                       canonical: DivisorClass,
                       chi_base: int = 1) -> DoubleCoverStats:
    """Numerical invariants of a double cover branched along ``branch``.

    Requires branch = 2 * bundle in the lattice.  For a smooth branch
    curve on a smooth base with invariants (K, chi):

        K_cover^2 = 2 (K + L)^2
        chi_cover = 2 chi_base + L.(L + K) / 2

    The class K + L is returned for downstream section counts.
    """
    branch._check(bundle)
    if not verify_class_relation(branch, 2 * bundle):
        raise BranchParityError("branch class is not twice the bundle class")
    adjoint = canonical + bundle
    k2 = 2 * intersect(adjoint, adjoint)
    chi = 2 * Fraction(chi_base) + Fraction(1, 2) * intersect(
        bundle, bundle + canonical)
    return DoubleCoverStats(k2, chi, adjoint)


def gram_determinant(lattice: Lattice) -> Fraction:
    """Determinant of the intersection form (exact fraction elimination)."""
    n = lattice.rank
    m = [[Fraction(x) for x in row] for row in lattice.gram]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def signature(lattice: Lattice) -> tuple[int, int]:
    """(positive, negative) inertia indices of the intersection form.

    Uses exact symmetric congruence diagonalization; a hyperbolic 2x2
    block with zero diagonal is split by the standard change of basis.
    """
    n = lattice.rank
    m = [[Fraction(x) for x in row] for row in lattice.gram]
    pos = neg = 0
    idx = list(range(n))
    while idx:
        i = idx[0]
        if m[i][i] != 0:
            d = m[i][i]
            if d > 0:
                pos += 1
            else:
                neg += 1
            rest = idx[1:]
            for r in rest:
                f = m[r][i] / d
                if f:
                    for c in rest:
                        m[r][c] -= f * m[i][c]
            # re-symmetrize the remaining block
            for r in rest:
                for c in rest:
                    m[c][r] = m[r][c]
            idx = rest
            continue
        j = next((j for j in idx[1:] if m[i][j] != 0), None)
        if j is None:
            idx = idx[1:]
            continue
        # zero-diagonal pair: x*e_i + y*e_j has square 2*b*x*y, one positive
        # and one negative index once decoupled from the rest
        rest = [k for k in idx if k not in (i, j)]
        for r in rest:
            if m[r][i] != 0 or m[r][j] != 0:
                raise NotImplementedError(
                    "coupled hyperbolic rows are not needed for the "
                    "lattices in this package")
        pos += 1
        neg += 1
        idx = rest
    return pos, neg
