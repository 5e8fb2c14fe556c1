"""The first-order rigidity derivation and the published linear systems."""

import collections
import hashlib
import random
import sys

import pytest

from stablelimit import MPoly, PrimeField, cgdata, deformation, linalg, scenarios
from stablelimit.deformation import F49
from stablelimit.linalg import outside_span, rank, rowspace_equal, solve_affine
from stablelimit.rings import field_tables
from stablelimit.scenarios import (_chain_rule_rows, _corrected_system,
                                   _corrected_system_feasible,
                                   _direct_value_rows, _elimination_system_28,
                                   _published_system_28, curve_pair,
                                   derived_system_cached)
from test_linalg import reference_row_echelon, residuals


def test_classical_conditions_hold():
    derived = derived_system_cached(False)
    assert derived.classical_ok


def test_derived_system_has_rank_28():
    derived = derived_system_cached(False)
    # eliminating the auxiliaries leaves the main unknowns in order
    for system in (derived, derived_system_cached(True)):
        assert system.system.variables == cgdata.MAIN_UNKNOWNS
    assert derived.rank == 28


def test_rows_from_texts_take_only_homogeneous_linear_forms():
    rows = deformation.rows_from_texts(["a33-2*b10"])
    assert rows[0][cgdata.MAIN_UNKNOWNS.index("b10")] == F49.from_int(-2)
    for text in ("a33*b10", "a33+1", "a33^2"):
        with pytest.raises(ArithmeticError):
            deformation.rows_from_texts([text])


def test_derived_equals_published_display():
    derived = derived_system_cached(False)
    assert rowspace_equal(derived.system, _published_system_28())


def test_published_elimination_deviates_in_one_row():
    derived = derived_system_cached(False)
    elimination = _elimination_system_28()
    assert not rowspace_equal(derived.system, elimination)
    dr = rank(derived.system.rows, F49)
    outside = [k for k, row in enumerate(elimination.rows)
               if rank([*derived.system.rows, row], F49) != dr]
    sub_items = list(cgdata.PUBLISHED_SUBSTITUTIONS)
    assert [sub_items[k] for k in outside] == ["a22"]
    flags = outside_span(derived.system, elimination.rows)
    assert [k for k, flag in enumerate(flags) if flag] == outside


def _dehomogenize_by_substitution(p, chart):
    one = MPoly.constant(p.registry, p.ring.one())
    return p.substitute({n: one for n in cgdata.AB.names
                         if n not in cgdata.CHARTS[chart]})


def _random_bidegree_33(rng, ring):
    terms = {}
    for i in range(4):
        for j in range(4):
            if rng.random() < 0.7:
                terms[(i, 3 - i, j, 3 - j)] = ring.random_element(rng)
    return MPoly(cgdata.AB, ring, terms)


def test_dehomogenize_matches_substitution():
    g1, g2 = curve_pair("F49")
    rng = random.Random(31)
    forms = [g1, g2, g1 * g2]
    for ring in (F49, PrimeField(7)):
        forms += [_random_bidegree_33(rng, ring) for _ in range(10)]
    for p in forms:
        for chart in (1, 2, 3, 4):
            assert deformation.dehomogenize(p, chart) == \
                _dehomogenize_by_substitution(p, chart)


def test_tangent_cone_scales():
    derived = derived_system_cached(False)
    # the four proportionality constants of the quadratic parts
    assert derived.tangent_scales[(1, 1)] == F49.from_int(3)
    assert derived.tangent_scales[(1, 4)] == F49.from_int(4)
    assert derived.tangent_scales[(2, 2)] == F49.from_int(3)
    assert derived.tangent_scales[(2, 3)] == F49.from_int(3)


# (row count, sha256 of the entries' (a, b) pairs) of the raw rows, as
# the earlier two-pass derivation made them: the full system, and the
# weakened control with the first curve's cubic condition left out
RAW_ROWS = {False: (44, "0f8de186f90fe72391afbfa2f1c5853d"
                        "1545746e0eb0dcb1abf8b7726bd7a41b"),
            True: (36, "2ff75297695fa4cece1f7d2be4e57b47"
                       "e1a9b65de8eef74b11fc014668528eb1")}


def _pair(x) -> tuple[int, int]:
    """(a, b) of a+bi in GF(49), decoded from its payload a + 7b."""
    return x.payload % 7, x.payload // 7


def _payload_digest(rows) -> str:
    payloads = [[_pair(x) for x in row] for row in rows]
    return hashlib.sha256(repr(payloads).encode()).hexdigest()


def test_raw_rows_are_pinned():
    for skip_cubic, (count, digest) in RAW_ROWS.items():
        rows = derived_system_cached(skip_cubic).raw.rows
        assert (len(rows), _payload_digest(rows)) == (count, digest)


def test_weakened_rows_are_the_full_rows_without_the_cubic_ones():
    derived = derived_system_cached(False)
    # the first curve's cubic condition at its double points, charts 1
    # and 4: four rows each
    cubic = {6, 7, 8, 9, 18, 19, 20, 21}
    assert derived.cubic_rows == cubic
    assert derived_system_cached(True).raw.rows == tuple(
        row for k, row in enumerate(derived.raw.rows) if k not in cubic)


def test_weakened_derivation_shrinks():
    weakened = derived_system_cached(True)
    assert weakened.rank == 26
    assert not rowspace_equal(weakened.system, _published_system_28())


def _realify(rows, rhs=()) -> list[list[int]]:
    """GF(49) equations as GF(7) equations: each entry a+bi becomes the
    block [[a, -b], [b, a]] and each right-hand side r+si the column
    (r, s).  Ranks double and consistency is preserved."""
    real = []
    for k, row in enumerate(rows):
        pairs = [_pair(x) for x in row]
        real_part = [c for a, b in pairs for c in (a, -b)]
        imaginary_part = [c for a, b in pairs for c in (b, a)]
        if rhs:
            r, s = _pair(rhs[k])
            real_part.append(r)
            imaginary_part.append(s)
        real += [real_part, imaginary_part]
    return real


def _gf7_rank(rows) -> int:
    """Rank by sympy's own elimination over GF(7)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    gf7 = sympy.GF(7)
    return DomainMatrix([[gf7(c) for c in row] for row in rows],
                        (len(rows), len(rows[0])), gf7).rank()


def _realified_rank(rows) -> int:
    """GF(7)-rank of the realified rows: twice their GF(49) rank."""
    return _gf7_rank(_realify(rows))


def _oracle_verdict(system) -> tuple[bool, int]:
    """Consistency and solution dimension of a GF(49) system, from the
    ranks of A and [A|b] realified: n - rank(A)/2 when consistent."""
    rank_a = _realified_rank(system.rows)
    rank_ab = _gf7_rank(_realify(system.rows, system.rhs))
    assert rank_a % 2 == 0
    return rank_a == rank_ab, len(system.variables) - rank_a // 2


def test_row_spaces_agree_under_a_second_oracle():
    derived = derived_system_cached(False).system.rows
    weakened = derived_system_cached(True).system.rows
    published = _published_system_28().rows
    assert _realified_rank(derived) == 56
    assert _realified_rank(weakened) == 52
    assert _realified_rank(published) == 56
    assert _realified_rank(derived + published) == 56
    assert _realified_rank(weakened + published) == 56


def test_published_systems_agree_under_a_second_oracle():
    expected = {"system-I1": 3, "system-I2": 3, "system-I3": 3,
                "system-I4": 3, "system-I5": 2, "system-I6": 2,
                "system-I7": 2, "system-lefschetz": 8}
    for spec in cgdata.SYSTEM_SPECS + (cgdata.LEFSCHETZ_SPEC,):
        system = deformation.build_published_system(spec.zero_rows,
                                                    spec.unit_rows)
        assert len(system.variables) == 19
        assert _oracle_verdict(system) == (True, expected[spec.id]), spec.id


def test_corrected_relations_agree_under_a_second_oracle():
    for spec in cgdata.SYSTEM_SPECS:
        consistent, _ = _oracle_verdict(_corrected_system(spec.id))
        assert consistent == (spec.id != "system-I5"), spec.id


def test_cached_rows_are_immutable():
    # each write stores the value already there, so a cache that does
    # accept it is left as it was for the other tests
    row = deformation.diagonal_rows()["B1Q1"]
    with pytest.raises(TypeError):
        row[0] = row[0]
    direct = _direct_value_rows()
    with pytest.raises(TypeError):
        direct["val1@1"] = direct["val1@1"]
    for rows in (deformation.diagonal_rows(), deformation.flex_rows(),
                 deformation.essential_diagonal_rows(), direct,
                 _chain_rule_rows()):
        for name, row in rows.items():
            assert isinstance(row, tuple)
            with pytest.raises(TypeError):
                rows[name] = row
    cloud = deformation.diagonal_cloud("a")
    with pytest.raises(TypeError):
        cloud["a00"] = cloud["a00"]
    leftover = deformation.leftover_rows()
    with pytest.raises(TypeError):
        leftover[0][0] = leftover[0][0]
    table = deformation.essential_coefficients()
    with pytest.raises(TypeError):
        table["a22"] = table["a22"]
    system = derived_system_cached(False).system
    with pytest.raises(TypeError):
        system.rows[0] = system.rows[0]
    with pytest.raises(TypeError):
        system.rows[0][0] = system.rows[0][0]
    with pytest.raises(TypeError):
        system.rhs[0] = system.rhs[0]


def test_reduced_forms_of_a_full_run_match_the_reference():
    scenarios.run_many(None)
    # every linear system whose reduced form a full run reads
    systems = {"derived": derived_system_cached(False).system,
               "weakened": derived_system_cached(True).system,
               "published 28": _published_system_28(),
               "elimination 28": _elimination_system_28(),
               "corrected system-I5": _corrected_system("system-I5")}
    for spec in cgdata.SYSTEM_SPECS + (cgdata.LEFSCHETZ_SPEC,):
        systems[spec.id] = deformation.build_published_system(
            spec.zero_rows, spec.unit_rows)
    assert len(systems) == 13
    elements = field_tables(F49).elements
    for name, system in systems.items():
        assert system._reduced is not None, name    # the run filled it
        rows, pivots = system.reduced_form()
        expected_rows, expected_pivots = reference_row_echelon(
            [(*row, b) for row, b in zip(system.rows, system.rhs)])
        assert pivots == tuple(expected_pivots), name
        assert ([[elements[x] for x in row] for row in rows]
                == expected_rows[:len(pivots)]), name
        assert all(x.is_zero() for row in expected_rows[len(pivots):]
                   for x in row), name


def test_a_warm_run_eliminates_only_in_outside_span_and_bare_row_ranks(
        monkeypatch):
    scenarios.run_many(None)
    eliminate_rows = linalg._row_echelon
    callers = collections.Counter()

    def recorded(rows, ring):
        frame = sys._getframe(1)
        name = frame.f_code.co_name
        if name == "rank":
            name = f"rank from {frame.f_back.f_globals['__name__']}"
        callers[name] += 1
        return eliminate_rows(rows, ring)

    monkeypatch.setattr(linalg, "_row_echelon", recorded)
    scenarios.run_many(None)
    # outside_span reads the derived system's kept form, so the bare
    # rows that linser ranks are all that a warm run eliminates
    assert set(callers) == {"rank from stablelimit.linser"}


def test_value_rows_match_direct_evaluation():
    rows = deformation.diagonal_rows()
    direct = _direct_value_rows()
    for name, k in (("B1Q1", 1), ("B1Q2", 2), ("B1Q3", 3), ("B1Q4", 4)):
        unit = (F49.one() + deformation.q_beta(k)) ** 3
        assert all((a - unit * b).is_zero()
                   for a, b in zip(rows[name], direct[f"val1@{k}"]))


def test_derivative_rows_match_chain_rule():
    rows = deformation.diagonal_rows()
    chain = _chain_rule_rows()
    for name in ("dB1Q3", "dB1Q4", "dB2Q5", "dB2Q6"):
        assert all((a - b).is_zero() for a, b in zip(rows[name], chain[name]))


def test_conjugate_rows_are_conjugate():
    rows = deformation.diagonal_rows()
    for a, b in (("B1Q1", "B1Q2"), ("B1Q3", "B1Q4"), ("B2Q5", "B2Q6"),
                 ("dB1Q3", "dB1Q4"), ("dB2Q5", "dB2Q6")):
        assert tuple(F49.conjugate(x) for x in rows[a]) == rows[b]


@pytest.mark.parametrize("spec", cgdata.SYSTEM_SPECS, ids=lambda s: s[0])
def test_published_systems_consistent(spec):
    consistent, dim = deformation.solve_published_system(spec)
    assert consistent
    if spec[0] in ("system-I1", "system-I2", "system-I3", "system-I4"):
        assert dim == 3
    else:
        assert dim == 2


def test_lefschetz_system():
    consistent, dim = deformation.solve_published_system(
        cgdata.LEFSCHETZ_SPEC)
    assert consistent
    assert dim == 8


def test_solutions_satisfy_the_systems():
    spec = cgdata.SYSTEM_SPECS[0]
    system = deformation.build_published_system(spec[1], spec[2])
    sol = solve_affine(system)
    assert sol.is_consistent()
    assert all(v.is_zero() for v in residuals(system, sol.particular))


def test_corrected_relations_break_fifth_system():
    # regression for the load-bearing elimination discrepancy: with the
    # corrected relation set, the published normalization of the fifth
    # system has no solution, while the other seven survive
    assert not _corrected_system_feasible("system-I5")
    for sid in ("system-I1", "system-I2", "system-I3", "system-I4",
                "system-I6", "system-I7"):
        assert _corrected_system_feasible(sid)


def test_substitution_map_resolves_to_essentials():
    maps = deformation.published_substitution_map()
    assert set(maps) == set(cgdata.PUBLISHED_SUBSTITUTIONS)
    essentials = set(cgdata.ESSENTIAL_UNKNOWNS)
    for var, p in maps.items():
        assert p.variables_used() <= essentials
