"""Exact linear algebra over GF(p) and GF(p²), on int codes.

Systems are affine-linear: named variables, a coefficient matrix, and a
right-hand side, all over one exact field.  Elimination uses the fixed
pivoting rule "first nonzero entry in column order" and reduces fully,
which makes every reduced form and report deterministic.

The elimination runs on payloads, not on ``Element``s, through the
field's code tables ``mul``, ``sub`` and ``inv``: a payload is its
element's code there (a residue in GF(p), the int a + p*b for a+bi in
GF(p²)), so zero is 0 and one is 1.  ``LinearSystem`` and ``rank``
refuse, with ``ValueError``, a ring that is no field and a field of more
than 256 elements, which has no tables.  Rows are unboxed once on the
way in, in the pass that checks each entry's ring (one ring per value:
an entry of any other ring object, or no element, is refused) and each
row's width: a system's when it is built, and kept for its elimination,
and the rows handed to ``rank`` and ``outside_span`` when they are
read; the entries a caller gets back are decoded by the ring's
``_wrap``, which returns its interned elements.  The systems are mostly zeros, so each
pivot row is kept as the list of its nonzero entries and applied to the
other rows, and to the candidates of ``outside_span``, only at those
columns.

A ``LinearSystem`` is immutable and has one reduced form of ``[A | b]``:
its nonzero code rows and pivot columns, eliminated on first use, kept on
the system as tuples and shared by every later reader.  A system built
once and kept in a cache is therefore eliminated once per process, and
the system ``eliminate`` returns is born with its form.

The operations are rank, affine solving (a verdict: consistent or not,
and the dimension), projection of the solution set onto a subset of the
variables (``eliminate``), row-space comparison of two systems (a row
space has one reduced row echelon form, so two are equal exactly when
their reduced forms are), and the test of candidate rows against the row
span of a system's matrix (``outside_span``).  ``solve_affine``,
``rowspace_equal`` and ``outside_span`` read the systems' reduced forms;
``rank`` and ``eliminate`` eliminate the rows they are handed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .rings import Element, Frozen, Ring, RingMismatchError


class LinearSystem(Frozen):
    """An affine-linear system  A x = b  with named variables; immutable.

    ``rows`` is a tuple of tuples and ``rhs`` a tuple, and no attribute
    can be assigned or deleted, so a system shared through a cache cannot
    be changed by whoever reads it.  The reduced form of ``[A | b]`` is
    computed on first use and kept on the system (``reduced_form``).
    """

    __slots__ = ("variables", "rows", "rhs", "ring", "_codes", "_reduced")

    def __init__(self, variables: Sequence[str], rows: Iterable[Sequence[Element]],
                 rhs: Iterable[Element], ring: Ring):
        _check_field(ring)
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        rows, rhs, width = tuple(map(tuple, rows)), tuple(rhs), len(variables)
        if len(rows) != len(rhs):
            raise ValueError("row/rhs count mismatch")
        # the codes, for the elimination, in the pass that checks each
        # ring; an entry with no ring or no payload (a polynomial) is no
        # element, and ``Element._check`` refuses it
        try:
            matrix = []
            for row in rows:
                if len(row) != width:
                    raise ValueError("row width does not match variable count")
                matrix.append([x.payload if x.ring is ring
                               else _foreign("matrix") for x in row])
            codes = [x.payload if x.ring is ring else _foreign("rhs")
                     for x in rhs]
        except AttributeError:
            for entry in (x for row in (*rows, rhs) for x in row):
                ring.zero()._check(entry)
            raise
        _set_variables(self, variables)
        _set_rows(self, rows)
        _set_rhs(self, rhs)
        _set_ring(self, ring)
        _set_codes(self, (matrix, codes))
        _set_reduced(self, None)

    def reduced_form(self) -> tuple[tuple[tuple[int, ...], ...],
                                    tuple[int, ...]]:
        """The nonzero rows of the fully reduced row echelon form of
        ``[A | b]``, as codes, and their pivot columns (column
        ``len(variables)`` is the right-hand side).  Eliminated once, on
        first use, and shared by every later reader."""
        form = self._reduced
        if form is None:
            matrix, rhs = self._codes
            reduced, pivots = _echelon(
                [[*row, b] for row, b in zip(matrix, rhs)], self.ring)
            form = (tuple(map(tuple, reduced[:len(pivots)])), tuple(pivots))
            _set_reduced(self, form)
        return form

    def __repr__(self):
        return (f"LinearSystem({len(self.rows)} equations, "
                f"{len(self.variables)} variables over {self.ring!r})")


# Systems are built, and their reduced form stored, through the slot
# descriptors, which bypass the immutability guard of ``Frozen``.
_set_variables, _set_rows = (LinearSystem.variables.__set__,
                             LinearSystem.rows.__set__)
_set_rhs, _set_ring = LinearSystem.rhs.__set__, LinearSystem.ring.__set__
_set_codes, _set_reduced = (LinearSystem._codes.__set__,
                            LinearSystem._reduced.__set__)


def _foreign(where: str):
    """Refuse an element of another ring in the matrix or the rhs."""
    raise RingMismatchError(f"{where} entry from a foreign ring")


class SolutionSet(Frozen):
    """The verdict of solving an affine system exactly; immutable.
    ``status`` is "affine" or "inconsistent", and ``dimension`` is the
    number of columns without a pivot: both are read, when the set is
    built, from the pivots of the system's reduced form."""

    __slots__ = ("status", "_dimension")

    def __init__(self, system: LinearSystem):
        n, pivots = len(system.variables), system.reduced_form()[1]
        _set_status(self, "inconsistent" if n in pivots else "affine")
        _set_dimension(self, n - len(pivots))

    @property
    def dimension(self) -> int:
        if self.status != "affine":
            raise ValueError("inconsistent system has no dimension")
        return self._dimension

    def is_consistent(self) -> bool:
        return self.status == "affine"


_set_status, _set_dimension = (SolutionSet.status.__set__,
                               SolutionSet._dimension.__set__)


def _unbox(rows: Iterable[Sequence[Element]], ring: Ring,
           width: int | None = None) -> list[list[int]]:
    """The payload rows of Element rows, in one pass that also checks
    each entry's ring: an entry of another ring, or no element, goes to
    ``Element._check`` of the ring's zero, which refuses it.  Every row
    must have ``width`` entries, or as many as the first row when
    ``width`` is None."""
    work = []
    try:
        for row in rows:
            work.append([x.payload if x.ring is ring
                         else ring.zero()._check(x) for x in row])
    except AttributeError:      # an entry with no ring or no payload
        for x in row:
            ring.zero()._check(x)
        raise
    if work and width is None:
        width = len(work[0])
    for row in work:
        if len(row) != width:
            raise ValueError(
                f"row of width {len(row)} among rows of width {width}")
    return work


def _check_field(ring: Ring) -> None:
    """Refuse a ring that is no field, or a field without code tables."""
    if not ring.is_field():
        raise ValueError(f"elimination needs a field, not {ring!r}")
    if ring.mul is None:
        raise ValueError(f"{ring!r} is above the table order limit")


def _row_echelon(rows: Iterable[Sequence[Element]],
                 ring: Ring) -> tuple[list[list[int]], list[int]]:
    """Fully reduced row echelon form of the rows.

    Returns the rows as codes (pivot rows first, each scaled to a leading
    1) and the pivot column indices.  Each pivot row is applied to the
    others only at its nonzero entries.
    """
    _check_field(ring)      # refuses a ring without tables, rows or not
    return _echelon(_unbox(rows, ring), ring)


def _echelon(work: list[list[int]],
             ring: Ring) -> tuple[list[list[int]], list[int]]:
    """``_row_echelon`` of code rows, which it changes in place."""
    if not work:
        return work, []
    mul, sub, inv = ring.mul, ring.sub, ring.inv
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
        pivot_row = work[i]
        work[r], work[i] = pivot_row, work[r]
        scale = mul[inv[pivot_row[c]]]
        tail = [scale[y] for y in pivot_row[c:]]
        pivot_row[c:] = tail
        nonzero = [(j, y) for j, y in enumerate(tail[1:], c + 1) if y]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                times_f = mul[f]
                row[c] = 0
                for j, y in nonzero:
                    row[j] = sub[row[j]][times_f[y]]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def rank(rows: Sequence[Sequence[Element]], ring: Ring) -> int:
    """Row rank under exact Gaussian elimination."""
    return len(_row_echelon(rows, ring)[1])


def outside_span(system: LinearSystem,
                 candidates: Iterable[Sequence[Element]]) -> list[bool]:
    """For each candidate row, whether it lies outside the row span of
    the system's coefficient matrix A.  The system's reduced form of
    ``[A | b]``, cut to the first n = ``len(variables)`` columns, is the
    reduced form of A, plus a zero row when the system is inconsistent:
    so only its pivot rows left of the rhs column are read, at columns
    below n.  Each candidate is reduced against them at the nonzero
    entries of each pivot row, and must have n entries."""
    ring, n = system.ring, len(system.variables)
    reduced, pivots = system.reduced_form()
    work = _unbox(candidates, ring, n)
    mul, sub = ring.mul, ring.sub
    # a reduced pivot row is 1 at its pivot, zero left of it and at every
    # other pivot column
    sparse = [(c, [(j, y) for j, y in enumerate(row[c + 1:n], c + 1) if y])
              for row, c in zip(reduced, pivots) if c < n]
    out = []
    for candidate in work:
        for c, nonzero in sparse:
            f = candidate[c]
            if f:
                times_f = mul[f]
                candidate[c] = 0
                for j, y in nonzero:
                    candidate[j] = sub[candidate[j]][times_f[y]]
        out.append(any(candidate))
    return out


def solve_affine(system: LinearSystem) -> SolutionSet:
    """The verdict on the system: consistent or not, and the dimension
    of its solution set."""
    return SolutionSet(system)


def eliminate(system: LinearSystem, aux: Iterable[str]) -> LinearSystem:
    """Project the solution set onto the non-auxiliary variables.

    Columns are reordered so the auxiliaries come first; after full
    elimination, the rows with no auxiliary support describe exactly the
    projection (this is where exactness over a field matters).  Cut to
    the kept columns and the rhs, those rows are already the fully
    reduced form of the projected ``[A | b]``, with every pivot moved
    left by the number of auxiliaries, so the returned system keeps them
    as its reduced form.
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
    # the pivots ascend, and a row with a pivot left of na still involves
    # an auxiliary: the projection is the pivot rows after those
    first = sum(c < na for c in pivots)
    rows = tuple(tuple(row[na:]) for row in reduced[first:len(pivots)])
    projected = LinearSystem(keep, [[wrap(x) for x in row[:-1]]
                                    for row in rows],
                             [wrap(row[-1]) for row in rows], ring)
    _set_reduced(projected, (rows, tuple(c - na for c in pivots[first:])))
    return projected


def rowspace_equal(s1: LinearSystem, s2: LinearSystem) -> bool:
    """True iff the augmented row spaces coincide: a row space has one
    reduced row echelon form, so the two systems' reduced forms agree.
    A second system whose variables are in another order is compared
    through a copy with its columns in the first one's order."""
    if s2.ring is not s1.ring:
        raise RingMismatchError("systems over different rings")
    if set(s1.variables) != set(s2.variables):
        raise ValueError("variable sets differ")
    if s2.variables != s1.variables:
        idx2 = [s2.variables.index(v) for v in s1.variables]
        s2 = LinearSystem(s1.variables,
                          [[row[i] for i in idx2] for row in s2.rows],
                          s2.rhs, s2.ring)
    return s1.reduced_form() == s2.reduced_form()
