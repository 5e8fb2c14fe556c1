"""Dense exact linear algebra over GF(p) and GF(p²), on int codes.

Systems are affine-linear: named variables, a coefficient matrix, and a
right-hand side, all over one exact field.  Elimination uses the fixed
pivoting rule "first nonzero entry in column order", which makes every
reduced form, kernel basis, and report deterministic.

The elimination runs on payloads, not on ``Element``s, through the
small-field table set that ``rings.field_tables`` keeps for each field:
a payload is its element's code there (a residue in GF(p), the int
a + p*b for a+bi in GF(p²)), so zero is 0 and one is 1.  Rows are
unboxed once on the way in, and the entries a caller gets back are
decoded by the ring's ``_wrap``, which returns its interned elements.
A field of more than 256 elements has no table set, and raises
``ValueError``.

The operations are rank, affine solving (inconsistency is a status, not
an error), projection of the solution set onto a subset of the variables
(``eliminate``), row-space comparison of two systems, and the test of
candidate rows against one echelon form (``outside_span``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .rings import Element, Ring, RingMismatchError, field_tables


class LinearSystem:
    """An affine-linear system  A x = b  with named variables.

    ``rows`` is a tuple of tuples and ``rhs`` a tuple, so a system shared
    through a cache cannot be changed by whoever reads it.
    """

    def __init__(self, variables: Sequence[str], rows: Iterable[Sequence[Element]],
                 rhs: Iterable[Element], ring: Ring):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.rhs = tuple(rhs)
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs count mismatch")
        for row in self.rows:
            if len(row) != len(self.variables):
                raise ValueError("row width does not match variable count")
            for entry in row:
                if entry.ring is not ring and entry.ring != ring:
                    raise RingMismatchError("matrix entry from a foreign ring")
        for entry in self.rhs:
            if entry.ring is not ring and entry.ring != ring:
                raise RingMismatchError("rhs entry from a foreign ring")

    def __repr__(self):
        return (f"LinearSystem({len(self.rows)} equations, "
                f"{len(self.variables)} variables over {self.ring!r})")


class SolutionSet:
    """Outcome of solving an affine system exactly."""

    __slots__ = ("status", "variables", "particular", "kernel_basis")

    def __init__(self, status: str, variables: tuple[str, ...] = (),
                 particular: dict[str, Element] | None = None,
                 kernel_basis: list[dict[str, Element]] | None = None):
        self.status = status  # "affine" or "inconsistent"
        self.variables = variables
        self.particular = {} if particular is None else particular
        self.kernel_basis = [] if kernel_basis is None else kernel_basis

    @property
    def dimension(self) -> int:
        if self.status != "affine":
            raise ValueError("inconsistent system has no dimension")
        return len(self.kernel_basis)

    def is_consistent(self) -> bool:
        return self.status == "affine"


def _row_echelon(rows: Iterable[Sequence[Element]],
                 ring: Ring) -> tuple[list[list[int]], list[int]]:
    """Fully reduced row echelon form of the rows.

    Returns the rows as codes (pivot rows first, each scaled to a leading
    1) and the pivot column indices.  The callers have checked that every
    entry lies in ``ring``.
    """
    tables = field_tables(ring)     # refuses a ring without tables, rows or not
    work = [[x.payload for x in row] for row in rows]
    if not work:
        return work, []
    mul, sub, inv = tables.mul, tables.sub, tables.inv
    nrows, ncols = len(work), len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # Rows r.. are zero left of column c, so only the tail changes.
        for i in range(r, nrows):
            if work[i][c]:
                break
        else:
            continue
        work[r], work[i] = work[i], work[r]
        scale = mul[inv[work[r][c]]]
        tail = [scale[y] for y in work[r][c:]]
        work[r][c:] = tail
        for i in range(nrows):
            row = work[i]
            f = row[c]
            if f and i != r:
                times_f = mul[f]
                row[c:] = [sub[x][times_f[y]] for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def _require_ring(rows: Iterable[Sequence[Element]], ring: Ring) -> None:
    for row in rows:
        for x in row:
            if x.ring is not ring and x.ring != ring:
                raise RingMismatchError("matrix entry from a foreign ring")


def rank(rows: Sequence[Sequence[Element]], ring: Ring) -> int:
    """Row rank under exact Gaussian elimination."""
    _require_ring(rows, ring)
    return len(_row_echelon(rows, ring)[1])


def outside_span(rows: Sequence[Sequence[Element]],
                 candidates: Iterable[Sequence[Element]],
                 ring: Ring) -> list[bool]:
    """For each candidate row, whether it lies outside the row span of
    ``rows``: the rows are echeloned once and each candidate is reduced
    against that form."""
    candidates = list(candidates)
    _require_ring(rows, ring)
    _require_ring(candidates, ring)
    reduced, pivots = _row_echelon(rows, ring)
    tables = field_tables(ring)
    mul, sub = tables.mul, tables.sub
    out = []
    for candidate in candidates:
        work = [x.payload for x in candidate]
        for row, c in zip(reduced, pivots):
            f = work[c]
            if f:
                # a reduced pivot row is zero at every other pivot column
                times_f = mul[f]
                work = [sub[x][times_f[y]] for x, y in zip(work, row)]
        out.append(any(work))
    return out


def solve_affine(system: LinearSystem) -> SolutionSet:
    """Particular solution plus kernel basis, or the inconsistent status."""
    variables = system.variables
    n = len(variables)
    reduced, pivots = _row_echelon(
        [(*row, b) for row, b in zip(system.rows, system.rhs)], system.ring)
    if n in pivots:
        return SolutionSet(status="inconsistent", variables=variables)
    wrap, neg = system.ring._wrap, field_tables(system.ring).sub[0]
    zero, one = wrap(0), wrap(1)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]

    particular = dict.fromkeys(variables, zero)
    for row, c in zip(reduced, pivots):
        particular[variables[c]] = wrap(row[n])

    kernel_basis = []
    for fc in free_cols:
        vec = dict.fromkeys(variables, zero)
        vec[variables[fc]] = one
        for row, c in zip(reduced, pivots):
            vec[variables[c]] = wrap(neg[row[fc]])
        kernel_basis.append(vec)

    return SolutionSet(status="affine", variables=variables,
                       particular=particular, kernel_basis=kernel_basis)


def eliminate(system: LinearSystem, aux: Iterable[str]) -> LinearSystem:
    """Project the solution set onto the non-auxiliary variables.

    Columns are reordered so the auxiliaries come first; after forward
    elimination, the rows with no auxiliary support describe exactly the
    projection (this is where exactness over a field matters).
    """
    aux = list(aux)
    for name in aux:
        if name not in system.variables:
            raise KeyError(f"unknown variable {name!r}")
    aux_set = set(aux)
    keep = [v for v in system.variables if v not in aux_set]
    order = [system.variables.index(v) for v in aux + keep]

    ring = system.ring
    reduced, pivots = _row_echelon(
        [[row[i] for i in order] + [b]
         for row, b in zip(system.rows, system.rhs)], ring)
    wrap = ring._wrap
    na = len(aux)
    out_rows, out_rhs = [], []
    for row, c in zip(reduced, pivots):
        if c < na:
            continue  # row still involves an auxiliary; not part of the projection
        out_rows.append([wrap(x) for x in row[na:-1]])
        out_rhs.append(wrap(row[-1]))
    return LinearSystem(keep, out_rows, out_rhs, ring)


def rowspace_equal(s1: LinearSystem, s2: LinearSystem) -> bool:
    """True iff the augmented row spaces coincide (mutual containment)."""
    if set(s1.variables) != set(s2.variables):
        raise ValueError("variable sets differ")
    order = s1.variables
    idx2 = [s2.variables.index(v) for v in order]
    rows1 = [(*row, b) for row, b in zip(s1.rows, s1.rhs)]
    rows2 = [(*(row[i] for i in idx2), b) for row, b in zip(s2.rows, s2.rhs)]
    ring = s1.ring
    r1 = rank(rows1, ring)
    r2 = rank(rows2, ring)
    if r1 != r2:
        return False
    return rank(rows1 + rows2, ring) == r1
