"""Exact linear algebra: rank, affine solving, elimination, row spaces."""

import collections
import itertools
import random

import pytest

from stablelimit import (ZZ, DualNumbers, LinearSystem, MPoly, PrimeField,
                         QuadraticField, RingMismatchError, VarRegistry, ZMod,
                         eliminate, rank, rowspace_equal, solve_affine)
from stablelimit.linalg import _row_echelon, outside_span
from stablelimit.linser import series_dimension, split_sections_vanishing
from stablelimit.rings import NonUnitError

F7 = PrimeField(7)
F49 = QuadraticField(7)


def mat(rows, ring=F7):
    return [[ring.from_int(x) for x in row] for row in rows]


def span_system(rows, ring, ncols=None, rhs=None):
    """The system of the rows over unknowns x0, x1, ..., with the given
    right-hand side or a zero one."""
    ncols = len(rows[0]) if ncols is None else ncols
    rhs = [ring.zero()] * len(rows) if rhs is None else rhs
    return LinearSystem([f"x{j}" for j in range(ncols)], rows, rhs, ring)


def rand_mat(rng, nrows, ncols, ring=F7):
    return [[ring.from_int(rng.randrange(7)) for _ in range(ncols)]
            for _ in range(nrows)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def residuals(system, assignment):
    """A x - b for a full assignment; all zero iff it solves the system."""
    out = []
    for row, b in zip(system.rows, system.rhs):
        acc = system.ring.zero()
        for var, coeff in zip(system.variables, row):
            acc = acc + coeff * assignment[var]
        out.append(acc - b)
    return out


def reference_row_echelon(rows):
    """Full reduction on Element rows, pivoting on the first nonzero
    entry in column order: the rule the int-coded kernel keeps."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


# ----------------------------------------------------------------------
# rank


def test_rank_examples():
    identity = mat([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert rank(identity, F7) == 5
    assert rank(mat([[0, 0], [0, 0], [0, 0]]), F7) == 0
    assert rank([], F7) == 0


def reversed_pivot_rank(rows):
    """Independent second elimination, on Elements, running columns right
    to left."""
    return len(reference_row_echelon([list(reversed(r)) for r in rows])[1])


def test_rank_against_dual_pivoting_oracle():
    rng = random.Random(7)
    for _ in range(30):
        rows = rand_mat(rng, 6, 9)
        assert rank(rows, F7) == reversed_pivot_rank(rows)


def test_rank_transpose_invariance():
    rng = random.Random(13)
    for _ in range(100):
        rows = rand_mat(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        assert rank(rows, F7) == rank(transpose(rows), F7)


def test_rank_plus_nullity():
    rng = random.Random(19)
    for _ in range(60):
        ncols = rng.randrange(1, 7)
        rows = rand_mat(rng, rng.randrange(1, 7), ncols)
        names = [f"v{i}" for i in range(ncols)]
        system = LinearSystem(names, rows, [F7.zero()] * len(rows), F7)
        sol = solve_affine(system)
        assert sol.is_consistent()
        assert rank(rows, F7) + sol.dimension == ncols


# ----------------------------------------------------------------------
# the int-coded kernel against elimination on Elements


def rand_structured_mat(rng, nrows, ncols, ring):
    """Random rows, some of them zero and some combinations of others."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([ring.zero()] * ncols)
        elif kind < 0.45 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = ring.random_element(rng), ring.random_element(rng)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([ring.random_element(rng) for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("ring", [F7, F49], ids=["GF7", "GF49"])
def test_kernel_matches_element_elimination(ring):
    rng = random.Random(61)
    elements = ring._elements
    shapes = [(1, 1), (3, 9), (9, 3), (6, 6), (2, 12), (12, 2), (8, 8)]
    for trial in range(120):
        nrows, ncols = shapes[trial % len(shapes)]
        rows = rand_structured_mat(rng, nrows, ncols, ring)
        expected_rows, expected_pivots = reference_row_echelon(rows)
        coded, pivots = _row_echelon(rows, ring)
        assert pivots == expected_pivots
        assert [[elements[x] for x in row] for row in coded] == expected_rows


def rand_sparse_mat(rng, nrows, ncols, density, ring):
    """Seeded sparse rows like those of the deformation systems: some
    columns zero throughout, duplicate rows (some scaled), and rows that
    share the leading column of an earlier row but little else, so that
    they fill in when it is subtracted."""
    units = ring._elements[1:]
    zero = ring.zero()
    zero_columns = set(rng.sample(range(ncols), max(1, ncols // 8)))

    def sparse_row(p):
        return [rng.choice(units)
                if c not in zero_columns and rng.random() < p else zero
                for c in range(ncols)]

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1 and rows:
            s = rng.choice(units)
            rows.append([s * x for x in rng.choice(rows)])
        elif kind < 0.25 and rows:
            earlier = rng.choice(rows)
            lead = next((c for c, x in enumerate(earlier) if not x.is_zero()),
                        None)
            row = sparse_row(density / 4)
            if lead is not None:
                row[lead] = rng.choice(units)
            rows.append(row)
        elif kind < 0.35:
            rows.append(sparse_row(min(1.0, 2 * density)))
        else:
            rows.append(sparse_row(density))
    return rows


@pytest.mark.parametrize("ring", [F7, F49], ids=["GF7", "GF49"])
def test_sparse_kernel_matches_element_elimination(ring):
    # the shapes of the derived systems (28 x 41 and 56 x 41) and of the
    # published ones (16 x 20), and one wider shape (44 x 57)
    rng = random.Random(67)
    elements = ring._elements
    shapes = [(28, 41), (44, 57), (56, 41), (16, 20)]
    densities = [0.05, 0.1, 0.17, 0.3, 0.5]
    filled = 0
    for trial in range(20):     # every shape at every density
        nrows, ncols = shapes[trial % len(shapes)]
        density = densities[trial % len(densities)]
        rows = rand_sparse_mat(rng, nrows, ncols, density, ring)
        assert any(all(row[c].is_zero() for row in rows)
                   for c in range(ncols))
        expected_rows, expected_pivots = reference_row_echelon(rows)
        coded, pivots = _row_echelon(rows, ring)
        assert pivots == expected_pivots
        assert [[elements[x] for x in row] for row in coded] == expected_rows
        nonzero_in = sum(not x.is_zero() for row in rows for x in row)
        nonzero_out = sum(x != 0 for row in coded for x in row)
        filled += nonzero_out > nonzero_in
    assert filled   # some reduced forms are denser than their input


def test_fields_above_the_table_order_limit_are_refused():
    # GF(257) would need three 257 x 257 tables; the limit is checked
    # before any is built, for GF(p) as for GF(p^2)
    large = PrimeField(257)
    with pytest.raises(ValueError, match="table order limit"):
        rank([[large.one(), large.zero()]], large)
    largest = PrimeField(251)
    assert rank([[largest.one(), largest.from_int(2)]], largest) == 1


@pytest.mark.parametrize("ring", [PrimeField(257), ZZ, ZMod(7, 3)],
                         ids=repr)
def test_rings_without_tables_are_refused_with_no_rows(ring):
    # an empty system decodes nothing, but is refused all the same, and so
    # is a dimension count with no conditions
    with pytest.raises(ValueError):
        LinearSystem(["x", "y"], [], [], ring)
    for call in (lambda: rank([], ring),
                 lambda: series_dimension((1, 1), (), ring),
                 lambda: split_sections_vanishing((), ring)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("ring", [F7, F49], ids=["GF7", "GF49"])
def test_field_tables_match_ring_arithmetic(ring):
    elements = ring._elements
    q = 7 if ring == F7 else 49
    # each field has one set of tables, and its own operators read it
    twin = PrimeField(7) if q == 7 else QuadraticField(7)
    assert all(getattr(twin, name) is getattr(ring, name)
               for name in ("mul", "add", "sub", "inv"))
    # the oracle: code c is a+bi with (a, b) = (c % 7, c // 7), b = 0 in
    # GF(7); i**2 = -1, and the inverse goes through the norm a**2 + b**2
    pairs = [(c % 7, c // 7) for c in range(q)]
    code = {pair: c for c, pair in enumerate(pairs)}
    assert len(elements) == q
    assert elements[0] == ring.zero() and elements[1] == ring.one()
    assert ring.inv[0] is None
    with pytest.raises(NonUnitError):
        elements[0].inverse()
    for a, x in enumerate(elements):
        assert x.payload == a
        r, s = pairs[a]
        if a:
            n_inv = pow((r * r + s * s) % 7, -1, 7)
            inv = code[(r * n_inv % 7, -s * n_inv % 7)]
            assert ring.inv[a] == inv and x.inverse().payload == inv
        for b, y in enumerate(elements):
            t, u = pairs[b]
            product = code[((r * t - s * u) % 7, (r * u + s * t) % 7)]
            total = code[((r + t) % 7, (s + u) % 7)]
            difference = code[((r - t) % 7, (s - u) % 7)]
            assert ring.mul[a][b] == (x * y).payload == product
            assert ring.add[a][b] == (x + y).payload == total
            assert ring.sub[a][b] == (x - y).payload == difference
    # the tables are shared by every user, so none of them may change them
    with pytest.raises(TypeError):
        ring.mul[2][3] = 0


@pytest.mark.parametrize("ring", [F7, F49], ids=["GF7", "GF49"])
def test_outside_span_matches_rank(ring):
    rng = random.Random(29)
    shapes = [(0, 4), (1, 1), (3, 9), (6, 6), (9, 3), (4, 12)]
    for trial in range(60):
        nrows, ncols = shapes[trial % len(shapes)]
        basis = rand_structured_mat(rng, nrows, ncols, ring)
        candidates = rand_structured_mat(rng, 4, ncols, ring)
        for _ in range(2):  # rows inside the span, unless the basis is empty
            acc = [ring.zero()] * ncols
            for row in basis:
                s = ring.random_element(rng)
                acc = [x + s * y for x, y in zip(acc, row)]
            candidates.append(acc)
        r = rank(basis, ring)
        expected = [rank([*basis, row], ring) != r for row in candidates]
        assert outside_span(span_system(basis, ring, ncols),
                            candidates) == expected


def reference_outside_span(rows, candidates, ring):
    """The full-width loop: each candidate is reduced against the echelon
    form with one list comprehension over every column per pivot row."""
    reduced, pivots = _row_echelon(rows, ring)
    mul, sub = ring.mul, ring.sub
    out = []
    for candidate in [[x.payload for x in row] for row in candidates]:
        for row, c in zip(reduced, pivots):
            f = candidate[c]
            if f:
                times_f = mul[f]
                candidate = [sub[x][times_f[y]]
                             for x, y in zip(candidate, row)]
        out.append(any(candidate))
    return out


@pytest.mark.parametrize("ring", [F7, F49], ids=["GF7", "GF49"])
def test_sparse_outside_span_matches_the_full_width_reference(ring):
    # the shapes of deform-derive's test (28 derived rows, 28 candidates
    # over 40 unknowns) and of the published systems, sparse and dense;
    # half the candidates are combinations of the rows; odd trials have a
    # random right-hand side, which leaves some systems inconsistent
    rng = random.Random(73)
    shapes = [(28, 40), (16, 19), (44, 57), (6, 9)]
    densities = [0.05, 0.1, 0.17, 0.3, 0.5]
    seen, consistent = set(), set()
    for trial in range(20):     # every shape at every density
        nrows, ncols = shapes[trial % len(shapes)]
        density = densities[trial % len(densities)]
        rows = rand_sparse_mat(rng, nrows, ncols, density, ring)
        candidates = rand_sparse_mat(rng, nrows // 2 + 1, ncols, density,
                                     ring)
        for _ in range(nrows // 2 + 1):
            acc = [ring.zero()] * ncols
            for row in rng.sample(rows, min(3, nrows)):
                s = ring.random_element(rng)
                acc = [x + s * y for x, y in zip(acc, row)]
            candidates.append(acc)
        rhs = [ring.random_element(rng) if trial % 2 else ring.zero()
               for _ in rows]
        system = span_system(rows, ring, rhs=rhs)
        expected = reference_outside_span(rows, candidates, ring)
        assert outside_span(system, candidates) == expected
        seen.update(expected)
        consistent.add(ncols not in system.reduced_form()[1])
    assert seen == {False, True}
    assert consistent == {False, True}


def test_kernel_needs_a_field():
    z343 = ZMod(7, 3)
    rows = [[z343.from_int(x) for x in row] for row in ((1, 2), (3, 4))]
    with pytest.raises(ValueError):
        rank(rows, z343)


def test_a_dual_ring_with_a_table_set_is_refused():
    # GF(7)[eps] keeps code tables for its Element operators, but it is
    # no field, so elimination refuses it, rows or not, and so does the
    # constructor of a system
    d7 = DualNumbers(F7)
    assert d7.mul is not None
    rows = [[d7.one(), d7.element((0, 1))]]
    for call in (lambda: LinearSystem(["x", "y"], rows, [d7.zero()], d7),
                 lambda: rank(rows, d7), lambda: rank([], d7)):
        with pytest.raises(ValueError):
            call()


def test_rows_of_unequal_width_are_refused():
    with pytest.raises(ValueError, match="width"):
        rank(mat([[1, 0], [0, 0, 1]]), F7)


def test_candidates_of_another_width_are_refused():
    with pytest.raises(ValueError, match="width"):
        outside_span(span_system(mat([[1, 0]]), F7), mat([[1, 0, 1]]))
    with pytest.raises(ValueError, match="width"):
        outside_span(span_system([], F7, 2), mat([[1, 0], [1]]))


@pytest.mark.parametrize("foreign", [F49, PrimeField(5), ZMod(7, 2)], ids=repr)
def test_one_foreign_entry_is_refused(foreign):
    # the entry's payload, 3, is a valid GF(7) code: only the ring check
    # can tell it apart
    rows = mat([[1, 2, 0], [0, 1, 4]])
    bad = [list(row) for row in rows]
    bad[1][2] = foreign.from_int(3)
    with pytest.raises(RingMismatchError):
        rank(bad, F7)
    with pytest.raises(RingMismatchError):
        outside_span(span_system(bad, F7), mat([[1, 1, 1]]))
    with pytest.raises(RingMismatchError):
        outside_span(span_system(rows, F7), [bad[1]])
    names = ("x", "y")
    s1 = LinearSystem(names, mat([[1, 2]]), [F7.one()], F7)
    s2 = lambda: LinearSystem(names, [[foreign.from_int(1),
                                       foreign.from_int(2)]],
                              [foreign.one()], foreign)
    if foreign.is_field():
        with pytest.raises(RingMismatchError):
            rowspace_equal(s1, s2())
    else:
        # a system over a ring that is no field is refused when it is built
        with pytest.raises(ValueError):
            s2()


def test_rank_and_outside_span_refuse_a_plain_int_entry():
    # an int has no ring: Element._check refuses it, as the operators do
    rows = mat([[1, 2], [0, 1]])
    for bad in ([[1]], [rows[0], [F7.one(), 1]], [[1, F7.one()], rows[1]]):
        with pytest.raises(RingMismatchError, match="expected a ring element"):
            rank(bad, F7)
    with pytest.raises(RingMismatchError, match="expected a ring element"):
        outside_span(span_system(rows, F7), [rows[0], [F7.one(), 1]])


def test_a_system_refuses_a_plain_int_entry():
    # in the matrix or on the right-hand side, an int is refused when the
    # system is built; an entry of another ring still names where it is
    one = F7.one()
    for rows, rhs in (([[1]], [one]), ([[one, 1]], [one]),
                      ([[one], [one]], [one, 0])):
        with pytest.raises(RingMismatchError, match="expected a ring element"):
            LinearSystem([f"x{j}" for j in range(len(rows[0]))], rows, rhs,
                         F7)
    with pytest.raises(RingMismatchError, match="matrix"):
        LinearSystem(["x", "y"], [[F49.one(), 1]], [one], F7)


def test_a_system_refuses_a_polynomial_entry():
    # a polynomial over the system's ring has its ring but is no element:
    # it is refused when the system is built, in the matrix or on the
    # right-hand side, before any elimination
    x = MPoly.variable(VarRegistry(("x", "y")), F7, "x")
    one = F7.one()
    for rows, rhs in (([[x]], [F7.zero()]), ([[one, x]], [one]),
                      ([[one]], [x])):
        with pytest.raises(RingMismatchError, match="expected a ring element"):
            LinearSystem([f"a{j}" for j in range(len(rows[0]))], rows, rhs,
                         F7)


def test_entries_of_an_equal_ring_are_accepted():
    twin = PrimeField(7)
    assert twin is F7 and twin == F7
    rows = mat([[1, 2, 0], [0, 1, 4], [1, 3, 4]])
    mixed = [list(row) for row in rows]
    mixed[1][2] = twin.from_int(4)
    assert rank(mixed, F7) == rank(rows, F7) == 2
    candidates = mat([[1, 1, 1], [2, 4, 0]])
    expected = outside_span(span_system(rows, F7), candidates)
    assert expected == [True, False]
    assert outside_span(span_system(mixed, F7), candidates) == expected
    assert outside_span(span_system(rows, F7),
                        [[twin.from_int(x.payload) for x in row]
                         for row in candidates]) == expected
    names = ("x", "y", "z")
    s1 = LinearSystem(names, rows, [F7.one(), F7.zero(), F7.one()], F7)
    s2 = LinearSystem(names, mat(((1, 2, 0), (0, 1, 4)), twin),
                      [twin.one(), twin.zero()], twin)
    assert rowspace_equal(s1, s2) and rowspace_equal(s2, s1)


# ----------------------------------------------------------------------
# systems


def test_system_construction_refusals():
    one, zero = F7.one(), F7.zero()
    with pytest.raises(ValueError, match="distinct"):
        LinearSystem(("x", "x"), mat([[1, 2]]), [one], F7)
    with pytest.raises(ValueError, match="count"):
        LinearSystem(("x", "y"), mat([[1, 2]]), [one, zero], F7)
    with pytest.raises(ValueError, match="width"):
        LinearSystem(("x", "y"), mat([[1, 2], [1, 2, 3]]), [one, zero], F7)
    # 3 is a valid GF(7) code in every foreign ring below: only the ring
    # check can tell the entry apart
    for foreign in (F49, PrimeField(5), ZMod(7, 2)):
        bad = foreign.from_int(3)
        with pytest.raises(RingMismatchError, match="matrix"):
            LinearSystem(("x", "y"), [[one, bad]], [one], F7)
        with pytest.raises(RingMismatchError, match="rhs"):
            LinearSystem(("x", "y"), mat([[1, 2]]), [bad], F7)


def test_system_entries_of_an_equal_ring_are_accepted():
    twin = PrimeField(7)
    assert twin is F7 and twin == F7
    system = LinearSystem(("x", "y"), [[F7.one(), twin.from_int(2)]],
                          [twin.one()], F7)
    assert system.ring is F7
    assert solve_affine(system).dimension == 1


def test_systems_are_immutable_and_memoize_tuples():
    system = LinearSystem(("x", "y", "z"), mat([[1, 2, 0], [2, 4, 1]]),
                          [F7.one(), F7.zero()], F7)
    assert system._reduced is None      # eliminated on first use only
    form = system.reduced_form()
    assert system.reduced_form() is form
    rows, pivots = form
    assert pivots == (0, 2)
    assert isinstance(rows, tuple) and isinstance(pivots, tuple)
    assert all(isinstance(row, tuple) for row in rows)
    for name in ("rows", "rhs", "variables", "ring", "_reduced"):
        with pytest.raises(AttributeError):
            setattr(system, name, getattr(system, name))
        with pytest.raises(AttributeError):
            delattr(system, name)
    with pytest.raises(AttributeError):
        system.extra = 1
    assert system.reduced_form() is form


# ----------------------------------------------------------------------
# affine solving


def reference_solve_affine(system):
    """The solution set of the system, read off its reduced form:
    (status, dimension, particular, kernel basis).  The particular
    solution is zero at every free variable, and the kernel basis has one
    vector per free column, one there and zero at the other free columns,
    in column order.  An inconsistent system gives dimension None, an
    empty particular solution and no kernel vectors."""
    variables = system.variables
    n = len(variables)
    reduced, pivots = system.reduced_form()
    if n in pivots:
        return "inconsistent", None, {}, []
    wrap, neg = system.ring._wrap, system.ring.sub[0]
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
    return "affine", len(kernel_basis), particular, kernel_basis


def test_solve_affine_examples():
    s = LinearSystem(("x", "y"), mat([[1, 1]]), [F7.one()], F7)
    sol = solve_affine(s)
    assert sol.is_consistent() and sol.dimension == 1
    particular = reference_solve_affine(s)[2]
    assert all(v.is_zero() for v in residuals(s, particular))

    s2 = LinearSystem(("x",), mat([[1], [1]]),
                      [F7.zero(), F7.one()], F7)
    assert solve_affine(s2).status == "inconsistent"


def test_solutions_satisfy_system_exactly():
    rng = random.Random(29)
    for _ in range(50):
        ncols = rng.randrange(1, 6)
        nrows = rng.randrange(1, 6)
        rows = rand_mat(rng, nrows, ncols, F49)
        # make the system consistent by construction
        secret = [F49.random_element(rng) for _ in range(ncols)]
        rhs = []
        for row in rows:
            acc = F49.zero()
            for c, v in zip(row, secret):
                acc = acc + c * v
            rhs.append(acc)
        names = [f"v{i}" for i in range(ncols)]
        system = LinearSystem(names, rows, rhs, F49)
        sol = solve_affine(system)
        assert sol.is_consistent()
        _, dimension, particular, kernel_basis = reference_solve_affine(system)
        assert sol.dimension == dimension
        assert all(v.is_zero() for v in residuals(system, particular))
        for vec in kernel_basis:
            shifted = {n: particular[n] + vec[n] for n in names}
            assert all(v.is_zero() for v in residuals(system, shifted))


@pytest.mark.parametrize("ring", [F7, F49], ids=["GF7", "GF49"])
def test_lazy_solutions_match_the_eager_reference(ring):
    rng = random.Random(71)
    shapes = [(1, 1), (3, 3), (5, 5), (2, 6), (6, 2), (4, 7), (7, 4)]
    kinds = collections.Counter()
    for trial in range(210):
        nrows, ncols = shapes[trial % len(shapes)]
        rows = rand_structured_mat(rng, nrows, ncols, ring)
        if trial % 3:       # a consistent right-hand side: A times a point
            point = [ring.random_element(rng) for _ in range(ncols)]
            rhs = [sum((a * x for a, x in zip(row, point)), ring.zero())
                   for row in rows]
        else:
            rhs = [ring.random_element(rng) for _ in range(nrows)]
        system = span_system(rows, ring, ncols, rhs)
        status, dimension, particular, kernel_basis = \
            reference_solve_affine(system)
        sol = solve_affine(system)
        assert sol.status == status
        assert sol.is_consistent() == (status == "affine")
        if dimension is None:
            with pytest.raises(ValueError):
                sol.dimension
        else:
            assert sol.dimension == dimension
            # the reference solves A x = b, and each kernel vector A z = 0
            assert all(v.is_zero() for v in residuals(system, particular))
            homogeneous = span_system(rows, ring, ncols)
            for vec in kernel_basis:
                assert all(v.is_zero() for v in residuals(homogeneous, vec))
        kinds[status if dimension != 0 else "no free column"] += 1
    # inconsistent systems, and consistent ones with and without a free
    # column, all occur
    assert set(kinds) == {"inconsistent", "affine", "no free column"}


def test_dimension_is_read_from_the_pivots():
    system = LinearSystem(("x", "y"), mat([[1, 1]]), [F7.one()], F7)
    sol = solve_affine(system)
    assert sol.dimension == 1 and sol.is_consistent()
    assert sol.dimension == (len(system.variables)
                             - len(system.reduced_form()[1]))


def test_deterministic_kernel_basis():
    rng = random.Random(37)
    rows = rand_mat(rng, 3, 5)
    names = tuple(f"v{i}" for i in range(5))
    s = LinearSystem(names, rows, [F7.zero()] * 3, F7)
    first = reference_solve_affine(s)
    second = reference_solve_affine(LinearSystem(
        names, [list(r) for r in rows], [F7.zero()] * 3, F7))
    assert first[3] == second[3]
    assert first[2] == second[2]
    for vec in first[3]:
        assert all(v.is_zero() for v in residuals(s, vec))


# ----------------------------------------------------------------------
# elimination vs exhaustive enumeration


def enumerate_solutions(int_rows, int_rhs, nvars):
    """All assignments over GF(7) satisfying the integer system."""
    out = set()
    for point in itertools.product(range(7), repeat=nvars):
        ok = True
        for row, b in zip(int_rows, int_rhs):
            acc = 0
            for c, v in zip(row, point):
                acc += c * v
            if acc % 7 != b % 7:
                ok = False
                break
        if ok:
            out.add(point)
    return out


def test_eliminate_examples():
    s = LinearSystem(("x", "y", "m"),
                     mat([[1, 0, -1], [0, 1, -1]]),
                     [F7.zero(), F7.zero()], F7)
    projected = eliminate(s, ["m"])
    expected = LinearSystem(("x", "y"), mat([[1, -1]]), [F7.zero()], F7)
    assert rowspace_equal(projected, expected)
    # eliminating nothing returns an equivalent system
    assert rowspace_equal(eliminate(s, []), s)


def test_eliminate_idempotent_on_removed_variables():
    s = LinearSystem(("x", "y", "m"),
                     mat([[1, 2, 3], [0, 1, 1]]),
                     [F7.one(), F7.zero()], F7)
    once = eliminate(s, ["m"])
    again = eliminate(once, [])
    assert rowspace_equal(once, again)


def test_eliminate_against_enumeration_oracle():
    rng = random.Random(101)
    cases = 0
    while cases < 200:
        nvars = rng.choice((2, 2, 3, 3, 3, 4, 4, 5))
        nrows = rng.randrange(0, nvars + 1)
        int_rows = [[rng.randrange(7) for _ in range(nvars)]
                    for _ in range(nrows)]
        int_rhs = [rng.randrange(7) for _ in range(nrows)]
        naux = rng.randrange(1, nvars)
        names = [f"v{i}" for i in range(nvars)]
        aux = names[:naux]
        keep = names[naux:]
        system = LinearSystem(names, mat(int_rows), [F7.from_int(b)
                                                     for b in int_rhs], F7)
        projected = eliminate(system, aux)

        full = enumerate_solutions(int_rows, int_rhs, nvars)
        oracle = {pt[naux:] for pt in full}
        proj_rows = [[c.payload for c in row] for row in projected.rows]
        proj_rhs = [b.payload for b in projected.rhs]
        computed = enumerate_solutions(proj_rows, proj_rhs, len(keep))
        assert computed == oracle
        # the projection is born with its reduced form, the reference's
        expected_rows, expected_pivots = reference_row_echelon(
            [(*row, b) for row, b in zip(projected.rows, projected.rhs)])
        assert projected._reduced == (
            tuple(tuple(x.payload for x in row)
                  for row in expected_rows[:len(expected_pivots)]),
            tuple(expected_pivots))
        cases += 1


# ----------------------------------------------------------------------
# row spaces


def test_rowspace_equal_examples():
    rng = random.Random(53)
    rows = rand_mat(rng, 3, 5)
    names = tuple(f"v{i}" for i in range(5))
    zero3 = [F7.zero()] * 3
    s = LinearSystem(names, rows, zero3, F7)
    # a row-permuted, row-scaled copy spans the same space
    scaled = [[F7.from_int(3) * x for x in rows[2]],
              [F7.from_int(5) * x for x in rows[0]],
              list(rows[1])]
    assert rowspace_equal(s, LinearSystem(names, scaled, zero3, F7))
    # one extra independent row breaks equality
    extra = rows + [[F7.from_int(x) for x in (1, 0, 0, 0, 0)]]
    if rank(extra, F7) > rank(rows, F7):
        bigger = LinearSystem(names, extra, [F7.zero()] * 4, F7)
        assert not rowspace_equal(s, bigger)


def test_rowspace_equal_respects_rhs():
    names = ("x",)
    a = LinearSystem(names, mat([[1]]), [F7.zero()], F7)
    b = LinearSystem(names, mat([[1]]), [F7.one()], F7)
    assert not rowspace_equal(a, b)


def test_rowspace_variable_mismatch():
    a = LinearSystem(("x",), mat([[1]]), [F7.zero()], F7)
    b = LinearSystem(("y",), mat([[1]]), [F7.zero()], F7)
    with pytest.raises(ValueError):
        rowspace_equal(a, b)


def reference_rowspace_equal(s1, s2):
    """Row spaces by mutual containment: equal iff r1 = r2 = rank of the
    stacked rows, eliminating three times."""
    order = s1.variables
    idx2 = [s2.variables.index(v) for v in order]
    rows1 = [(*row, b) for row, b in zip(s1.rows, s1.rhs)]
    rows2 = [(*(row[i] for i in idx2), b) for row, b in zip(s2.rows, s2.rhs)]
    r1 = len(reference_row_echelon(rows1)[1])
    r2 = len(reference_row_echelon(rows2)[1])
    return r1 == r2 == len(reference_row_echelon(rows1 + rows2)[1])


def augmented_rank(system):
    return len(reference_row_echelon(
        [(*row, b) for row, b in zip(system.rows, system.rhs)])[1])


@pytest.mark.parametrize("ring", [F7, F49], ids=["GF7", "GF49"])
def test_rowspace_equal_matches_the_three_rank_reference(ring):
    rng = random.Random(71)
    units = ring._elements[1:]
    seen = {"equal": 0, "same rank": 0, "other rank": 0, "rhs": 0}
    for trial in range(40):
        nrows, ncols = rng.choice([(3, 4), (6, 5), (9, 12), (16, 20)])
        density = rng.choice([0.1, 0.3, 0.5])
        names = tuple(f"v{i}" for i in range(ncols))
        full = rand_sparse_mat(rng, nrows, ncols + 1, density, ring)
        rows, rhs = [row[:-1] for row in full], [row[-1] for row in full]
        s1 = LinearSystem(names, rows, rhs, ring)
        kind = trial % 4
        if kind == 0:
            # rows permuted and scaled, and the variables reordered
            perm = rng.sample(range(nrows), nrows)
            scales = [rng.choice(units) for _ in range(nrows)]
            order = rng.sample(range(ncols), ncols)
            s2 = LinearSystem(
                [names[j] for j in order],
                [[scales[k] * rows[i][j] for j in order]
                 for k, i in enumerate(perm)],
                [scales[k] * rhs[i] for k, i in enumerate(perm)], ring)
        elif kind == 1:
            # one row swapped for another row
            extra = rand_sparse_mat(rng, 1, ncols + 1, density, ring)[0]
            s2 = LinearSystem(names, rows[1:] + [extra[:-1]],
                              rhs[1:] + [extra[-1]], ring)
        elif kind == 2:
            # one row dropped or one row added
            if rng.random() < 0.5:
                s2 = LinearSystem(names, rows[1:], rhs[1:], ring)
            else:
                extra = rand_sparse_mat(rng, 1, ncols + 1, density, ring)[0]
                s2 = LinearSystem(names, rows + [extra[:-1]],
                                  rhs + [extra[-1]], ring)
        else:
            # the same coefficients, one right-hand side changed
            changed = list(rhs)
            i = rng.randrange(nrows)
            changed[i] = changed[i] + rng.choice(units)
            s2 = LinearSystem(names, rows, changed, ring)
        expected = reference_rowspace_equal(s1, s2)
        assert rowspace_equal(s1, s2) == expected
        assert rowspace_equal(s2, s1) == expected
        same_rank = augmented_rank(s1) == augmented_rank(s2)
        if kind == 0:
            assert expected
            seen["equal"] += 1
        elif kind == 3:
            seen["rhs"] += not expected
        elif same_rank:
            seen["same rank"] += not expected
        else:
            assert not expected
            seen["other rank"] += 1
    assert all(seen.values()), seen
