"""The first-order rigidity derivation and the published linear systems."""

import collections
import hashlib
import random
import sys

import pytest

from stablelimit import (MPoly, PrimeField, VarRegistry, cgdata,
                         deformation, linalg, parse_poly, poly,
                         linser, scenarios)
from stablelimit.deformation import F49
from stablelimit.linalg import outside_span, rank, rowspace_equal, solve_affine
from stablelimit.rings import Frozen, field_tables
from stablelimit.scenarios import (_chain_rule_rows, _corrected_system,
                                   _corrected_system_feasible,
                                   _direct_value_rows, _elimination_system_28,
                                   _published_system_28, curve_pair,
                                   derived_system_cached)
from test_cli import _python
from test_curvelocal import reference_divide_by_linear
from test_linalg import reference_row_echelon, residuals


def test_classical_conditions_hold():
    derived = derived_system_cached(False)
    assert derived.classical_ok


def test_derived_system_has_rank_28():
    derived = derived_system_cached(False)
    # the rows are read over the main unknowns, in order
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
            assert p.dehomogenize(cgdata.CHARTS[chart]) == \
                _dehomogenize_by_substitution(p, chart)
    with pytest.raises(KeyError):
        g1.dehomogenize(("al", "x"))


def test_a_derivation_changes_each_curve_to_each_chart_once(monkeypatch):
    dehomogenize = MPoly.dehomogenize
    charts = collections.Counter()

    def recorded(p, kept):
        charts[tuple(kept)] += 1
        return dehomogenize(p, kept)

    monkeypatch.setattr(MPoly, "dehomogenize", recorded)
    deformation.derive_rigidity_system()
    # the two curves in the four charts; the clouds are built in chart
    # coordinates
    assert charts == {kept: 2 for kept in cgdata.CHARTS.values()}


def test_tangent_cone_scales():
    # the four proportionality constants of the quadratic parts: each
    # double point's quadratic part over the square of the partner
    # curve's linear part there
    curves = dict(zip((1, 2), curve_pair("F49")))
    for (tag, chart), scale in {(1, 1): 3, (1, 4): 4,
                                (2, 2): 3, (2, 3): 3}.items():
        uv = cgdata.CHARTS[chart]
        g, partner = (curves[t].dehomogenize(uv) for t in (tag, 3 - tag))
        linear = partner.graded_part(1, uv)
        assert poly.unit_match(g.graded_part(2, uv), linear * linear) == \
            F49.from_int(scale)


# ----------------------------------------------------------------------
# the rows of one double point as the auxiliary-unknown route derives
# them: the proportionality scale m' of the quadratic part and the
# quadratic quotient h1 of the cubic part are unknowns of their own, each
# chart monomial of a condition is one row over the 44 unknowns, and
# ``linalg.eliminate`` projects the four auxiliaries out

AUXILIARIES = ("m'", "h1q0", "h1q1", "h1q2")


def _add(*forms):
    out = {}
    for form in forms:
        for name, p in form.items():
            out[name] = out[name] + p if name in out else p
    return out


def _times(factor, form):
    return {name: factor * p for name, p in form.items()}


def _graded(form, degree, names):
    return {name: part for name, p in form.items()
            if not (part := p.graded_part(degree, names)).is_zero()}


def _monomial_rows(form, unknowns):
    """One row over ``unknowns`` per chart monomial of a linear form."""
    rows = {}
    for name, p in form.items():
        for exps, c in p.terms.items():
            rows.setdefault(exps, [F49.zero()] * len(unknowns))[
                unknowns.index(name)] = c
    return [rows[exps] for exps in sorted(rows)]


def reference_tacnode_rows(chart, g, form, gp, gp_form, cubic=True):
    """The conditions at the double point of (g, form) at the origin of a
    chart, with (gp, gp_form) the partner, projected onto the 40 main
    unknowns; with ``cubic`` False, the cubic condition is left out."""
    u, v = uv = cgdata.CHARTS[chart]
    unknowns = cgdata.MAIN_UNKNOWNS + AUXILIARIES
    rows = []

    def impose(classical, first_order):
        assert classical.is_zero()
        rows.extend(_monomial_rows(first_order, unknowns))

    impose(g.graded_part(1, uv), _graded(form, 1, uv))
    p1, p1_form = gp.graded_part(1, uv), _graded(gp_form, 1, uv)
    g2, p1_sq = g.graded_part(2, uv), p1 * p1
    lam = poly.unit_match(g2, p1_sq)
    # G2 = (lam + m') * P1^2
    impose(g2 - p1_sq.scale(lam),
           _add(_graded(form, 2, uv),
                _times(p1.scale(F49.from_int(-2) * lam), p1_form),
                {"m'": -p1_sq}))
    if cubic:
        g3 = g.graded_part(3, uv)
        h = reference_divide_by_linear(g3, p1, u, v)
        # G3 = P1 * (h + h1), h1 a general quadratic form in u, v
        U, V = (MPoly.variable(cgdata.AB, F49, n) for n in uv)
        h1 = {f"h1q{t}": -(p1 * m)
              for t, m in enumerate((U * U, U * V, V * V))}
        impose(g3 - p1 * h,
               _add(_graded(form, 3, uv), _times(-h, p1_form), h1))
    return linalg.eliminate(
        linalg.LinearSystem(unknowns, rows, [F49.zero()] * len(rows), F49),
        AUXILIARIES)


def reference_derive_with_auxiliaries(skip_cubic):
    """The published pair's passage rows, stacked with the auxiliary
    route's rows at its four double points."""
    curves = dict(zip("ab", curve_pair("F49")))
    charts = {(prefix, chart): deformation.chart_curve(curve, prefix, chart)
              for prefix, curve in curves.items() for chart in (1, 2, 3, 4)}
    rows = []
    for prefix, partner, double_charts in (
            ("a", "b", cgdata.CURVE1_DOUBLE_CHARTS),
            ("b", "a", cgdata.CURVE2_DOUBLE_CHARTS)):
        for chart in (1, 2, 3, 4):
            g, form = charts[(prefix, chart)]
            passage = _graded(form, 0, cgdata.CHARTS[chart])
            assert g.graded_part(0, cgdata.CHARTS[chart]).is_zero()
            rows += _monomial_rows(passage, cgdata.MAIN_UNKNOWNS)
            if chart in double_charts:
                rows += reference_tacnode_rows(
                    chart, g, form, *charts[(partner, chart)],
                    cubic=not (skip_cubic and prefix == "a")).rows
    return linalg.LinearSystem(cgdata.MAIN_UNKNOWNS, rows,
                               [F49.zero()] * len(rows), F49)


def test_root_evaluation_matches_the_auxiliary_reference():
    for skip_cubic in (False, True):
        derived = derived_system_cached(skip_cubic).system
        reference = reference_derive_with_auxiliaries(skip_cubic)
        assert reference.variables == derived.variables
        assert derived.reduced_form() == reference.reduced_form()


def _curve(germ, chart):
    """The bidegree-(3,3) curve whose germ in the coordinates (u, v) of a
    chart is ``germ``, a polynomial of degree at most 3 in each."""
    u, v = (cgdata.AB.index[n] for n in cgdata.CHARTS[chart])
    terms = {}
    for exps, c in germ.terms.items():
        # al, al' carry u's degree and be, be' carry v's, each up to 3
        full = [3 - exps[u]] * 2 + [3 - exps[v]] * 2
        full[u], full[v] = exps[u], exps[v]
        terms[tuple(full)] = c
    return MPoly(cgdata.AB, F49, terms)


def _germ_rows(chart, g, gp, route=deformation.tacnode_rows):
    """``route`` at the double point of the curve with germ g, whose
    partner has germ gp, at the origin of a chart."""
    return route(chart,
                 *deformation.chart_curve(_curve(g, chart), "a", chart),
                 *deformation.chart_curve(_curve(gp, chart), "b", chart))


@pytest.mark.parametrize("w", (0, 1), ids="w{}".format)
@pytest.mark.parametrize("chart", (1, 2, 3, 4), ids="chart{}".format)
def test_tacnode_rows_match_the_auxiliary_route_on_random_germs(chart, w):
    """Germs g = lam p1^2 + p1 h + (degree >= 4) and gp = p1 + (degree
    >= 2) in the (3,3) box, with p1 = alpha u + beta v, lam != 0, and
    alpha = 0 exactly when w = 1."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    elements = st.sampled_from(F49._elements)
    units = st.sampled_from(F49._elements[1:])
    U, V = (MPoly.variable(cgdata.AB, F49, n) for n in cgdata.CHARTS[chart])

    def form(draw, degrees):
        return sum(((U ** i * V ** j).scale(draw(elements))
                    for i in range(4) for j in range(4) if i + j in degrees),
                   MPoly.zero(cgdata.AB, F49))

    @st.composite
    def germs(draw):
        alpha = F49.zero() if w else draw(units)
        p1 = U.scale(alpha) + V.scale(draw(units) if w else draw(elements))
        g = (p1 * p1).scale(draw(units)) + p1 * form(draw, {2}) \
            + form(draw, range(4, 7))
        return g, p1 + form(draw, range(2, 7))

    @hypothesis.settings(derandomize=True, max_examples=25, deadline=None,
                         database=None)
    @hypothesis.given(germs())
    def agree(germ):
        rows, classical_ok = _germ_rows(chart, *germ)
        assert classical_ok
        reference = _germ_rows(chart, *germ, route=reference_tacnode_rows)
        assert linalg.LinearSystem(
            cgdata.MAIN_UNKNOWNS, rows, [F49.zero()] * len(rows),
            F49).reduced_form() == reference.reduced_form()

    agree()


def test_tacnode_rows_refuse_a_germ_off_the_pattern():
    U, V = (MPoly.variable(cgdata.AB, F49, n) for n in cgdata.CHARTS[1])
    p1 = U + V
    assert _germ_rows(1, p1 * p1, p1)[1]
    for g, gp in ((p1 * p1, U * V),              # a zero tangent line
                  (p1 * p1 + U * V, p1),         # G2 not a multiple of p1^2
                  (p1 * p1 + U ** 3, p1)):       # G3 not divisible by p1
        assert not _germ_rows(1, g, gp)[1]


def test_a_changed_cubic_coefficient_fails_the_classical_check(monkeypatch):
    assert deformation.derive_rigidity_system().classical_ok
    # al*al'^2*be^2*be' is u^2 v in chart 1 (al', be') and u v^2 in chart
    # 4 (al, be), and of degree 4 and 2 in the smooth charts 2 and 3: only
    # the cubic parts at the first curve's double points change, and the
    # partner's tangent lines do not
    g1 = cgdata.G1 + "+al*al'^2*be^2*be'"
    monkeypatch.setattr(cgdata, "G1", g1)
    assert not deformation.derive_rigidity_system().classical_ok


# (row count, sha256 of the entries' (a, b) pairs) of the derived rows,
# one per condition read at a point or at the root of a tangent line: the
# full system, and the weakened control with the first curve's cubic
# condition left out
RAW_ROWS = {False: (28, "1aef6e3d2f7a6a7f8ac68d4de3006c54"
                        "903e491c4f61721eb78ee5ae52bcceb3"),
            True: (26, "573dac117d03de516f58c5c90aff4da9"
                       "9894f91dcb057132157bf2203d62fb84")}


def _pair(x) -> tuple[int, int]:
    """(a, b) of a+bi in GF(49), decoded from its payload a + 7b."""
    return x.payload % 7, x.payload // 7


def _payload_digest(rows) -> str:
    payloads = [[_pair(x) for x in row] for row in rows]
    return hashlib.sha256(repr(payloads).encode()).hexdigest()


def test_raw_rows_are_pinned():
    for skip_cubic, (count, digest) in RAW_ROWS.items():
        rows = derived_system_cached(skip_cubic).system.rows
        assert (len(rows), _payload_digest(rows)) == (count, digest)


def test_weakened_rows_are_the_full_rows_without_the_cubic_ones():
    derived = derived_system_cached(False)
    # the first curve's cubic condition at its double points, charts 1
    # and 4: one row each, the last of the six rows of each double chart
    cubic = {5, 13}
    assert derived.cubic_rows == cubic
    assert derived_system_cached(True).system.rows == tuple(
        row for k, row in enumerate(derived.system.rows) if k not in cubic)


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
    # the constant curve inputs that a full run caches: each call returns
    # the one shared value, so each must be a frozen value or a tuple of
    # them
    scenarios.run_many(None)
    f1 = scenarios.degeneration_forms("F7")[0]
    g1, g2 = curve_pair("F49")
    alpha, beta = scenarios.q_point(1)
    origin = scenarios._origin_conditions()[1]
    for build, args in (
            (scenarios.build_quintic, (scenarios.F7, scenarios.F7.from_int(
                cgdata.SIMPLE_ROOT_MOD_P))),
            (scenarios.restrict_to_quadric, (f1,)),
            (scenarios.union_product, ("F49",)),
            (scenarios.delta_restrict, (g1,)),
            (scenarios.chart_germ, (g1, 1)),
            (scenarios.translated_germ, (g1, alpha, beta)),
            (scenarios.diagonal_param, (beta,)),
            (scenarios._swap_rulings, (g2,)),
            (scenarios._branch_locus, (g1, cgdata.FIRST_PAIR,
                                       cgdata.SECOND_PAIR)),
            (linser.condition_row, (2, 2, origin, F49)),
            (scenarios.derived_system_cached, (False,)),
            (scenarios.derived_system_cached, (True,))):
        value = build(*args)
        assert build(*args) is value, build.__name__
        _assert_immutable(value)


def _assert_immutable(value):
    """A tuple of frozen values, or one frozen value, each of whose
    attributes refuses assignment and deletion."""
    if type(value) is tuple:
        for item in value:
            _assert_immutable(item)
        return
    assert isinstance(value, Frozen), type(value)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)


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


def test_a_warm_run_builds_no_constant_curve_input(monkeypatch):
    statuses = [r.status for r in scenarios.run_many(None)]
    calls = collections.Counter()

    def recorded(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[f"{name} from {sys._getframe(1).f_code.co_name}"] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((MPoly, "substitute"), (MPoly, "translate"),
                        (MPoly, "dehomogenize"), (MPoly, "pullback_order"),
                        (scenarios, "branch_locus")):
        recorded(owner, name)
    caches = {f"{module.__name__}.{name}": fn
              for module in (scenarios, linser)
              for name, fn in vars(module).items()
              if hasattr(fn, "cache_info")}
    assert {"stablelimit.linser.condition_row",
            "stablelimit.scenarios._branch_locus"} <= caches.keys()
    misses = {name: fn.cache_info().misses for name, fn in caches.items()}
    assert [r.status for r in scenarios.run_many(None)] == statuses
    # the seven contact orders are read off truncated pullbacks, every
    # run; no polynomial is rewritten, and no cache builds anything
    assert calls == {"pullback_order from intersection_multiplicity": 7}
    assert {name: fn.cache_info().misses
            for name, fn in caches.items()} == misses


def test_a_warm_run_decodes_only_the_polynomials_it_builds(monkeypatch):
    scenarios.run_many(None)
    unpack_all = VarRegistry._unpack_all
    callers = collections.Counter()

    def recorded(registry, packed):
        callers[sys._getframe(2).f_code.co_name] += 1
        return unpack_all(registry, packed)

    monkeypatch.setattr(VarRegistry, "_unpack_all", recorded)
    scenarios.run_many(None)
    # every cached polynomial kept its terms from the first run; the
    # expansion's fresh target is new, and the contact orders decode nothing
    assert callers == {"scenario_expansion": 1}


def test_value_rows_match_direct_evaluation():
    rows = deformation.diagonal_rows()
    direct = _direct_value_rows()
    for name, k in (("B1Q1", 1), ("B1Q2", 2), ("B1Q3", 3), ("B1Q4", 4)):
        unit = (F49.one() + deformation.q_point(k)[1]) ** 3
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


# ----------------------------------------------------------------------
# the constant rows against the parse-and-evaluate route they replaced:
# clouds as polynomials, each row entry one ``MPoly.evaluate``, and the
# linear forms read through ``MPoly.coefficient`` and the ``terms`` view


_X = VarRegistry(("x",))
_YX = VarRegistry(("y", "x"))
_MAIN_REG = VarRegistry(cgdata.MAIN_UNKNOWNS)


def reference_diagonal_cloud(prefix):
    return {f"{prefix}{i}{j}": parse_poly(f"(1+x)^{3 - i}*(1-x)^{i}*x^{j}",
                                          _X, F49)
            for i in range(4) for j in range(4)}


def reference_affine_cloud(prefix):
    one = F49.one()
    return {f"{prefix}{i}{j}": MPoly(_YX, F49, {(i, j): one})
            for i in range(4) for j in range(4)}


def reference_derivative(form, var):
    return {name: p.partial_derivative(var) for name, p in form.items()}


def reference_row_at(form, point):
    zero = F49.zero()
    return tuple(form[n].evaluate(point) if n in form else zero
                 for n in cgdata.MAIN_UNKNOWNS)


def reference_affine_row(form, alpha, beta):
    return reference_row_at(form, {"y": alpha, "x": beta})


def reference_flex_rows():
    cloud = reference_affine_cloud("a")
    d_along_fiber = reference_derivative(cloud, "y")
    out = {}
    for k in (1, 2):
        alpha, beta = map(F49.element, cgdata.Q_POINTS[k])
        out[f"van{k}"] = reference_affine_row(cloud, alpha, beta)
        out[f"dB1Q{k}"] = reference_affine_row(d_along_fiber, alpha, beta)
    return out


def reference_diagonal_rows():
    g1hat = reference_diagonal_cloud("a")
    g2hat = reference_diagonal_cloud("b")
    dg1hat = reference_derivative(g1hat, "x")
    dg2hat = reference_derivative(g2hat, "x")

    def at(form, k):
        return reference_row_at(form, {"x": deformation.q_point(k)[1]})

    rows = {
        "B1Q1": at(g1hat, 1), "B1Q2": at(g1hat, 2),
        "B2Q1": at(g2hat, 1), "B2Q2": at(g2hat, 2),
        "B1Q3": at(g1hat, 3), "B1Q4": at(g1hat, 4),
        "B2Q5": at(g2hat, 5), "B2Q6": at(g2hat, 6),
        "dB1Q3": at(dg1hat, 3), "dB1Q4": at(dg1hat, 4),
        "dB2Q5": at(dg2hat, 5), "dB2Q6": at(dg2hat, 6),
    }
    rows.update(reference_flex_rows())
    return rows


def reference_direct_value_rows():
    return {f"val{tag}@{k}": reference_affine_row(
                reference_affine_cloud(prefix), *scenarios.q_point(k))
            for tag, prefix in (("1", "a"), ("2", "b")) for k in range(1, 7)}


def reference_chain_rule_rows():
    out = {}
    one = F49.one()
    for tag, prefix, points in (("1", "a", (3, 4)), ("2", "b", (5, 6))):
        cloud = reference_affine_cloud(prefix)
        d_alpha = reference_derivative(cloud, "y")
        d_beta = reference_derivative(cloud, "x")
        for k in points:
            beta = deformation.q_point(k)[1]
            alpha = (one - beta) * (one + beta).inverse()
            u = one + beta
            row_val, row_da, row_db = (reference_affine_row(p, alpha, beta)
                                       for p in (cloud, d_alpha, d_beta))
            three_u2 = F49.from_int(3) * u * u
            minus_two_u = F49.from_int(-2) * u
            u3 = u ** 3
            out[f"dB{tag}Q{k}"] = tuple(
                three_u2 * a + minus_two_u * b + u3 * c
                for a, b, c in zip(row_val, row_da, row_db))
    return out


def reference_essential_coefficients():
    table = {v: ((k, F49.one()),)
             for k, v in enumerate(cgdata.ESSENTIAL_UNKNOWNS)}
    for name, p in deformation.published_substitution_map().items():
        coeffs = (p.coefficient({v: 1}) for v in cgdata.ESSENTIAL_UNKNOWNS)
        table[name] = tuple((k, c) for k, c in enumerate(coeffs)
                            if not c.is_zero())
    return table


def reference_to_essential(row):
    table = reference_essential_coefficients()
    acc = [F49.zero()] * len(cgdata.ESSENTIAL_UNKNOWNS)
    for name, coeff in zip(cgdata.MAIN_UNKNOWNS, row):
        if not coeff.is_zero():
            for k, c in table[name]:
                acc[k] = acc[k] + coeff * c
    return tuple(acc)


def reference_rows_from_texts(texts):
    rows = []
    for text in texts:
        p = parse_poly(text, _MAIN_REG, F49)
        assert p.graded_part(1, p.registry.names) == p
        row = [F49.zero()] * len(_MAIN_REG)
        for exps, c in p.terms.items():
            row[exps.index(1)] = c
        rows.append(row)
    return rows


def _assert_interned_rows(rows):
    for row in rows:
        assert all(x is F49._elements[x.payload] for x in row)


def test_diagonal_cloud_matches_the_parsed_products():
    for prefix in ("a", "b"):
        cloud = deformation.diagonal_cloud(prefix)
        assert list(cloud) == list(reference_diagonal_cloud(prefix))
        assert dict(cloud) == reference_diagonal_cloud(prefix)


def test_constant_rows_match_the_parse_and_evaluate_reference():
    for rows, reference in (
            (deformation.diagonal_rows(), reference_diagonal_rows()),
            (deformation.flex_rows(), reference_flex_rows()),
            (_direct_value_rows(), reference_direct_value_rows()),
            (_chain_rule_rows(), reference_chain_rule_rows())):
        assert list(rows) == list(reference)
        for name, row in rows.items():
            assert type(row) is tuple and row == reference[name], name
        _assert_interned_rows(rows.values())
    # the table of the push-down: codes against the coefficient route
    assert {name: tuple((k, c.payload) for k, c in pairs)
            for name, pairs in reference_essential_coefficients().items()} \
        == dict(deformation.essential_coefficients())
    # the pushed-down rows, and the rows read from published texts
    pushed = deformation.essential_diagonal_rows()
    assert dict(pushed) == {
        name: reference_to_essential(row)
        for name, row in reference_diagonal_rows().items()}
    assert list(deformation.leftover_rows()) == [
        reference_to_essential(row)
        for row in reference_rows_from_texts(cgdata.LEFTOVER_RELATIONS)]
    _assert_interned_rows([*pushed.values(), *deformation.leftover_rows()])
    texts = (*cgdata.PUBLISHED_28, *cgdata.LEFTOVER_RELATIONS,
             *(f"{var}-({text})"
               for var, text in cgdata.PUBLISHED_SUBSTITUTIONS.items()))
    rows = deformation.rows_from_texts(texts)
    assert rows == reference_rows_from_texts(texts)
    _assert_interned_rows(rows)
    # a row of random codes pushes down as the element route does
    rng = random.Random(21)
    for _ in range(20):
        row = [F49.random_element(rng) for _ in cgdata.MAIN_UNKNOWNS]
        assert deformation.to_essential(row) == reference_to_essential(row)


# One full run in a fresh process, under a profile hook that counts the
# parses, the chart changes and every ``MPoly.evaluate`` made from the
# deformation module or from the two cross-check row builders of
# ``scenarios``.
_COLD_COUNTS = """
import sys
from stablelimit import deformation, poly, scenarios
builders = {scenarios._direct_value_rows.__wrapped__.__code__,
            scenarios._chain_rule_rows.__wrapped__.__code__}
parse, evaluate = poly.parse_poly.__code__, poly.MPoly.evaluate.__code__
dehomogenize = poly.MPoly.dehomogenize.__code__
counts = {"parse_poly": 0, "dehomogenize": 0, "evaluate": 0,
          "evaluate from a row builder": 0}

def hook(frame, event, arg):
    if event != "call":
        return
    if frame.f_code is parse:
        counts["parse_poly"] += 1
    elif frame.f_code is dehomogenize:
        counts["dehomogenize"] += 1
    elif frame.f_code is evaluate:
        counts["evaluate"] += 1
        caller = frame.f_back
        while caller is not None and not (
                caller.f_code in builders
                or caller.f_code.co_filename == deformation.__file__):
            caller = caller.f_back
        counts["evaluate from a row builder"] += caller is not None

sys.setprofile(hook)
scenarios.run_many(None)
sys.setprofile(None)
print(counts)
"""


def test_a_cold_run_parses_112_texts_and_evaluates_no_constant_row():
    proc = _python("-c", _COLD_COUNTS)
    assert proc.returncode == 0, proc.stderr
    counts = eval(proc.stdout)
    # the published texts only: the 16 products of the diagonal cloud come
    # from their closed form
    assert counts["parse_poly"] == 112
    # 8 in the derivation, 21 from the scenarios' cached germs
    assert counts["dehomogenize"] == 29
    assert counts["evaluate from a row builder"] == 0
