"""Scenario-level behavior: statuses, flags, determinism, sensitivity."""

import json
import random
from itertools import product
from math import gcd

import pytest

from stablelimit import __version__, cgdata, scenarios
from stablelimit.curvelocal import (ChartGerm, DegenerateProjectionError,
                                    branch_locus, classify,
                                    infinitely_near_multiplicity,
                                    intersection_multiplicity)
from stablelimit.deformation import F49
from stablelimit.linalg import LinearSystem, eliminate, solve_affine
from stablelimit.linser import (PassThrough, TangentDirection, normalize_pair,
                                series_dimension)
from stablelimit.picard import (DivisorClass, Lattice, double_cover_stats,
                                quadric_lattice)
from stablelimit.poly import MPoly, VarRegistry, parse_poly
from stablelimit.report import VerificationReport, render_json, render_text
from stablelimit.rings import (ZZ, DualNumbers, IntegerRing, PrimeField,
                               QuadraticField, RingMismatchError, ZMod)
from test_curvelocal import truncate
from test_poly import is_bihomogeneous
from test_rings import all_elements, hensel_lift

# every scenario passes except the lattice one, which carries the single
# published intersection number that the exact computation contradicts
EXPECTED_STATUS = {sid: "pass" for sid in scenarios.SCENARIOS}
EXPECTED_STATUS["lattice"] = "fail"

FLAGGED = {
    "deform-derive",
    "system-I1", "system-I2", "system-I3", "system-I4",
    "system-I5", "system-I6", "system-I7", "system-lefschetz",
}


@pytest.mark.parametrize("sid", scenarios.SCENARIOS)
def test_scenario_status(sid):
    report = scenarios.run_scenario(sid)
    assert report.status == EXPECTED_STATUS[sid], report.notes
    assert bool(report.flags) == (sid in FLAGGED), report.flags


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        scenarios.run_scenario("no-such-id")
    with pytest.raises(KeyError):
        scenarios.run_many(["expansion", "bogus"])


def test_a_scenario_that_raises_becomes_an_error_report(monkeypatch):
    def broken():
        raise ZeroDivisionError("no inverse of 0")

    claim = scenarios.SCENARIOS["delta"][0]
    monkeypatch.setitem(scenarios.SCENARIOS, "delta", (claim, broken))
    reports = scenarios.run_many(None)
    # the run goes on past the error, and every other report is as usual
    assert [r.scenario_id for r in reports] == list(scenarios.SCENARIOS)
    by_id = {r.scenario_id: r for r in reports}
    error = by_id.pop("delta")
    assert error.status == "error"
    assert error.notes == ["ZeroDivisionError: no inverse of 0"]
    assert {sid: r.status for sid, r in by_id.items()} == {
        sid: status for sid, status in EXPECTED_STATUS.items()
        if sid != "delta"}
    summary = json.loads(render_json(reports, __version__))["summary"]
    assert summary["failed"] == 2           # the lattice failure and the error
    assert summary["passed"] == len(reports) - 2
    lines = render_text(reports, __version__).splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("delta "))
    assert lines[k].split()[1] == "ERROR"
    assert lines[k + 1].strip() == "ZeroDivisionError: no inverse of 0"


def test_run_many_order_is_canonical():
    ids = ["gamma", "expansion", "lattice"]
    reports = scenarios.run_many(ids)
    assert [r.scenario_id for r in reports] == \
        ["expansion", "lattice", "gamma"]


def strip_millis(payload: str) -> str:
    doc = json.loads(payload)
    for scenario in doc["scenarios"]:
        scenario["millis"] = 0
    return json.dumps(doc, sort_keys=True)


def test_reports_are_deterministic():
    ids = ["expansion", "delta", "system-I3", "lattice"]
    first = render_json(scenarios.run_many(ids), "x")
    second = render_json(scenarios.run_many(ids), "x")
    assert strip_millis(first) == strip_millis(second)


def test_negative_controls_fire():
    expansion = scenarios.run_scenario("expansion")
    assert expansion.computed[
        "negative control: perturbed correction term fails"] is True
    derive = scenarios.run_scenario("deform-derive")
    assert derive.computed["negative control: weakened derivation rank"] == 26
    assert derive.computed["negative control: dropped condition detected"] \
        is True


def test_dimension_flags_are_visible():
    for sid, expected_dim, computed_dim in (
            ("system-I1", 4, 3), ("system-I5", 3, 2),
            ("system-lefschetz", 10, 8)):
        report = scenarios.run_scenario(sid)
        assert report.status == "pass"
        assert report.computed["system is consistent"] is True
        assert report.computed["essential dimension"] == computed_dim
        assert report.expected["essential dimension"] == expected_dim
        assert report.flags, "dimension deviation must be surfaced"


def test_lattice_failure_names_the_identity():
    report = scenarios.run_scenario("lattice")
    assert report.status == "fail"
    assert report.computed["first curve . twist"] == "2"
    assert report.expected["first curve . twist"] == "-4"
    assert any("curve . twist" in n for n in report.notes)
    # every other recorded identity checks out
    mismatches = [k for k in report.computed
                  if k in report.expected
                  and report.computed[k] != report.expected[k]]
    assert sorted(mismatches) == ["first curve . twist",
                                  "second curve . twist"]


def test_delta_points_match_without_relabeling():
    report = scenarios.run_scenario("delta")
    assert any("direct labeling matched" in n for n in report.notes)


def test_singularity_scan_is_exhaustive():
    report = scenarios.run_scenario("singularities")
    assert report.computed["rational singular points of the union"] == 6


def test_gamma_regression_values():
    report = scenarios.run_scenario("gamma")
    assert report.computed["constrained dimension (regression)"] == 1
    assert report.computed["dropping one direction condition"] == 2


def test_provenance_tags_are_recorded():
    report = scenarios.run_scenario("diophantine")
    assert report.provenance["solutions up to bound 100"] == "published"
    assert report.provenance["regression: target 3 solution set"] == "derived"


def reference_multiple_fiber_scan(target, bound):
    """The scan as it was first written: the coprimality test first."""
    out = []
    for m1 in range(2, bound + 1):
        for m2 in range(m1 + 1, bound + 1):
            if gcd(m1, m2) != 1:
                continue
            v = m1 * m2 - m1 - m2
            if v > 0 and target % v == 0:
                out.append((target // v, m1, m2))
    return sorted(out)


def test_multiple_fiber_scan_matches_the_reference():
    for target in range(1, 41):
        # the solutions up to a smaller bound are those with m2 <= bound
        widest = reference_multiple_fiber_scan(target, 100)
        for bound in range(2, 101):
            assert scenarios.multiple_fiber_scan(target, bound) == [
                solution for solution in widest if solution[2] <= bound]


@pytest.mark.parametrize("target, bound", [(0, 5), (-2, 6), (-1, 100)])
def test_multiple_fiber_scan_has_no_solution_below_target_one(target, bound):
    # lambda >= 1 and m1*m2 - m1 - m2 >= 1 make the target at least 1
    assert scenarios.multiple_fiber_scan(target, bound) == []


# ----------------------------------------------------------------------
# the root scans of the delta scenario


def evaluation_roots(poly):
    """The codes of the elements at which ``poly`` vanishes, each tested
    through ``MPoly.evaluate``."""
    (name,) = poly.registry.names
    elements = poly.ring._elements
    return [code for code, x in enumerate(elements)
            if poly.evaluate({name: x}).is_zero()]


def delta_polynomials():
    d1, d2 = map(scenarios.delta_restrict, scenarios.curve_pair(F49))
    quadratics = [scenarios.cgdata.parsed(text, scenarios._BE, ring)
                  for text in ("be^2+4*be+6", "be^2+6*be+6")
                  for ring in (scenarios.F7, F49)]
    return [d1, d2, *quadratics]


@pytest.mark.parametrize("ring", [PrimeField(7), F49], ids=["GF7", "GF49"])
def test_root_codes_match_evaluation_at_every_element(ring):
    rng = random.Random(18)
    polys = [p for p in delta_polynomials() if p.ring == ring]
    for _ in range(60):
        degree = rng.randrange(0, 9)
        polys.append(MPoly(scenarios._BE, ring, {
            (k,): ring.random_element(rng) for k in range(degree + 1)
            if rng.random() < 0.7}))
    polys.append(MPoly.zero(scenarios._BE, ring))
    found = [scenarios.root_codes(poly) for poly in polys]
    assert found == [evaluation_roots(poly) for poly in polys]
    # polynomials with roots and without them are both among the cases
    assert any(found) and not all(found)


def reference_horner(ring, coeffs, x):
    """Code of the sum of coeffs[k] * x**k, coefficients low degree first,
    at one point: Horner's rule on the field tables, as each root scan
    once called it per point."""
    times_x, sub, neg = ring.mul[x], ring.sub, ring.sub[0]
    acc = 0
    for c in reversed(coeffs):
        acc = sub[times_x[acc]][neg[c]]
    return acc


@pytest.mark.parametrize("ring", [PrimeField(7), F49], ids=["GF7", "GF49"])
def test_the_root_loop_matches_per_point_horner(ring):
    # the zero vector (empty or not), every constant, and random vectors
    # of degree up to 12, some with a chosen root, each on a random set of
    # candidates in a random order
    rng = random.Random(23)
    q = len(ring.mul)
    vectors = [[], [0], [0] * 4, *([c] for c in range(q))]
    for _ in range(300):
        coeffs = [rng.randrange(q) for _ in range(rng.randrange(13))]
        if coeffs and rng.random() < 0.5:
            # times (x - r): the vector of x * coeffs - r * coeffs
            minus_r = ring.sub[0][rng.randrange(q)]
            coeffs = [ring.add[a][ring.mul[minus_r][b]]
                      for a, b in zip([0, *coeffs], [*coeffs, 0])]
        vectors.append(coeffs)
    found = []
    for coeffs in vectors:
        candidates = rng.sample(range(q), rng.randrange(q + 1))
        found.append(scenarios._roots(ring, coeffs, candidates))
        assert found[-1] == [x for x in candidates
                             if reference_horner(ring, coeffs, x) == 0]
    assert any(found) and not all(found)


def reference_singular_points():
    """``scenarios.rational_singular_points`` with per-point Horner: for
    each first coordinate of the cover, the germ and its two partials at
    every second coordinate."""
    union = scenarios.union_product(F49)
    elements = F49._elements
    found = set()
    for chart, firsts, seconds in scenarios.SCAN_COVER:
        u, v = cgdata.CHARTS[chart]
        iu, iv = cgdata.AB.index[u], cgdata.AB.index[v]
        germ = scenarios.chart_germ(union, chart).poly
        grids = []
        for p in (germ, germ.partial_derivative(u),
                  germ.partial_derivative(v)):
            # one column per power of v, by the power of u
            size = 1 + max(max(exps) for exps in p.terms)
            grid = [[0] * size for _ in range(size)]
            for exps, c in p.terms.items():
                grid[exps[iv]][exps[iu]] = c.payload
            grids.append(grid)
        for a, b in product(firsts, seconds):
            if all(reference_horner(F49, [reference_horner(F49, column, a)
                                          for column in grid], b) == 0
                   for grid in grids):
                found.add(scenarios._projective_label(
                    chart, elements[a], elements[b]))
    return found


def test_the_scan_matches_per_point_horner():
    assert scenarios.rational_singular_points() == reference_singular_points()


# ----------------------------------------------------------------------
# the diagonal parametrization


def reference_diagonal_param(beta0):
    """The diagonal's series as it was first built: the 13-term series
    of 1/(u+s), u = 1 + beta0, times the numerator 1 - beta0 - s,
    truncated at order 12, less alpha0."""
    order, S = 12, scenarios._S
    one = F49.one()
    uinv = (one + beta0).inverse()
    s = MPoly.variable(S, F49, "s")
    inv_series = MPoly.zero(S, F49)
    for k in range(order + 1):
        inv_series = inv_series + MPoly(S, F49, {(k,): uinv * ((-uinv) ** k)})
    alpha0 = (one - beta0) * uinv
    numerator = MPoly.constant(S, one - beta0) - s
    alpha_s = truncate(numerator * inv_series, "s", order) \
        - MPoly.constant(S, alpha0)
    return (alpha_s, s)


def test_diagonal_param_matches_the_series_route_at_every_beta():
    checked = 0
    for beta in all_elements(F49):
        if (F49.one() + beta).is_zero():
            continue
        assert scenarios.diagonal_param(beta) == \
            reference_diagonal_param(beta)
        checked += 1
    assert checked == 48


# ----------------------------------------------------------------------
# the rational singular-point scan


def projective_line():
    """One normalized representative (p0 : p1) of each point of P^1(GF(49))."""
    zero, one = F49.zero(), F49.one()
    return [(x, one) for x in all_elements(F49)] + [(one, zero)]


def test_singular_points_match_homogeneous_partials():
    # Euler: al*F_al + al'*F_al' = 6F for the bidegree-(6,6) union, and 6
    # is a unit mod 7, so the four homogeneous partials vanish together
    # exactly where the germ and both chart partials do.  No chart, no
    # int code.
    g1, g2 = scenarios.curve_pair(F49)
    union = g1 * g2
    assert is_bihomogeneous(union, (6, 6), (cgdata.FIRST_PAIR,
                                           cgdata.SECOND_PAIR))
    assert not F49.from_int(6).is_zero()
    partials = [union.partial_derivative(n) for n in cgdata.AB.names]
    found = set()
    for first, second in product(projective_line(), repeat=2):
        at = dict(zip(cgdata.AB.names, (*first, *second)))
        if all(p.evaluate(at).is_zero() for p in partials):
            found.add((normalize_pair(first), normalize_pair(second)))
    assert len(found) == 6
    assert scenarios.rational_singular_points() == found


def test_scan_cover_visits_each_point_once():
    elements = F49._elements
    visited = [scenarios._projective_label(chart, elements[a], elements[b])
               for chart, firsts, seconds in scenarios.SCAN_COVER
               for a in firsts for b in seconds]
    line = {normalize_pair(pt) for pt in projective_line()}
    assert len(line) == 50
    assert len(visited) == 2500
    assert set(visited) == set(product(line, repeat=2))


def restrict_by_monomials(p):
    """Oracle for ``scenarios.restrict_to_quadric``: expand each monomial
    of p on its own from the quadric parametrization, and add them up."""
    ring = p.ring
    sub = {name: parse_poly(text, cgdata.AB, ring)
           for name, text in cgdata.QUADRIC_PARAM.items()}
    out = MPoly.zero(cgdata.AB, ring)
    for exps, coeff in p.terms.items():
        term = MPoly.constant(cgdata.AB, ring.one())
        for name, e in zip(cgdata.XYZT.names, exps):
            if e:
                term = term * sub[name] ** e
        out = out + term.scale(coeff)
    return out


def test_restrict_to_quadric_matches_the_monomial_expansion():
    F7 = scenarios.F7
    f1, f2, f3, f5 = scenarios.degeneration_forms(F7)
    four = MPoly.constant(cgdata.XYZT, F7.from_int(4))
    sections = [parse_poly(text, cgdata.XYZT, F7)
                for text in (cgdata.B1_SECTION, cgdata.B2_SECTION)]
    for p in (f1, f2, f3, f5, *sections, f3 * f3 - four * f1 * f5):
        restricted = scenarios.restrict_to_quadric(p)
        assert restricted.registry == cgdata.AB
        assert restricted == restrict_by_monomials(p)


_POINT = ((F49.one(), F49.zero()), (F49.i(), F49.one()))


@pytest.mark.parametrize("make", [
    # the record, not the cached helper: chart_germ returns one germ
    lambda: ChartGerm("chart1",
                      scenarios.curve_pair(F49)[0].dehomogenize(
                          cgdata.CHARTS[1]),
                      cgdata.CHARTS[1]),
    lambda: classify(scenarios.chart_germ(scenarios.curve_pair(F49)[0], 1)),
    lambda: PassThrough(_POINT),
    lambda: TangentDirection(_POINT, (F49.one(), F49.i())),
    lambda: quadric_lattice().cls({"h1": 1, "h2": -2}),
    lambda: double_cover_stats(quadric_lattice().cls({}),
                               quadric_lattice().cls({}),
                               quadric_lattice().canonical)],
    ids=["ChartGerm", "SingularityVerdict", "PassThrough",
         "TangentDirection", "DivisorClass", "DoubleCoverStats"])
def test_frozen_records_are_values(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    for name in getattr(a, "_fields", None) or type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


@pytest.mark.parametrize("make", [
    F49.one,
    lambda: parse_poly("al^2*be+3*al'", cgdata.AB, F49),
    lambda: LinearSystem(("x", "y"), [[F49.one(), F49.i()]], [F49.one()],
                         F49),
    lambda: VarRegistry(cgdata.AB.names)],
    ids=["Element", "MPoly", "LinearSystem", "VarRegistry"])
def test_value_types_refuse_assignment_and_deletion(make):
    # F49.one() is interned: a deleted payload would break every later one
    a, b = make(), make()
    before = {name: getattr(a, name) for name in type(a).__slots__}
    for name in before:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = None
    assert all(getattr(a, name) is value for name, value in before.items())
    assert F49.one().payload == 1
    # every user of VarRegistry(names) shares the one registry
    with pytest.raises(TypeError):
        cgdata.AB.index["x"] = 0
    assert "x" not in cgdata.AB.index


# Each group constructs one value several ways, the scenarios' and the
# derivation's own rings and registry among them; each refused
# construction must raise on every call, and a float must not be read as
# the int of a ring that exists.
@pytest.mark.parametrize("same, refused", [
    pytest.param([lambda: ZMod(7), lambda: ZMod(7, 1), lambda: PrimeField(7),
                  lambda: scenarios.F7],
                 [(ValueError, lambda: ZMod(6)), (ValueError, lambda: ZMod(7, 0)),
                  (TypeError, lambda: ZMod(7.0))], id="GF7"),
    pytest.param([lambda: ZMod(7, 3), lambda: scenarios.Z343], [], id="Z343"),
    pytest.param([lambda: QuadraticField(7), lambda: F49],      # deformation's
                 [(ValueError, lambda: QuadraticField(5)),
                  (TypeError, lambda: QuadraticField(7.0))], id="GF49"),
    pytest.param([IntegerRing, lambda: ZZ], [], id="ZZ"),
    pytest.param([lambda: DualNumbers(PrimeField(7)),
                  lambda: DualNumbers(ZMod(7))],
                 [(ValueError, lambda: DualNumbers(DualNumbers(ZMod(7)))),
                  (ValueError, lambda: DualNumbers(ZZ)),
                  (ValueError, lambda: DualNumbers(ZMod(7, 3)))],
                 id="GF7[eps]"),
    pytest.param([lambda: VarRegistry(list(cgdata.AB.names)),
                  lambda: cgdata.AB],
                 [(ValueError, lambda: VarRegistry(("x", "x")))], id="AB")])
def test_each_ring_and_registry_value_is_one_object(same, refused):
    first, *others = (make() for make in same)
    assert all(other is first for other in others)
    for error, call in refused:
        for _ in range(3):
            with pytest.raises(error):
                call()


_UV = VarRegistry(("u", "v"))
_UVW = VarRegistry(("u", "v", "w"))
_F7 = PrimeField(7)


def _uv(text, ring=F49):
    return parse_poly(text, _UV, ring)


def _node():
    return ChartGerm("c", _uv("u*v+u^3"), ("u", "v"))


def _system(rows, rhs):
    return LinearSystem(("x", "y")[:len(rows[0])],
                        [[_F7.from_int(x) for x in row] for row in rows],
                        [_F7.from_int(x) for x in rhs], _F7)


# every validation raise that a full run and the other tests never reach
@pytest.mark.parametrize("error, call", [
    pytest.param(KeyError, lambda: ChartGerm("c", _uv("u"), ("u", "z")),
                 id="ChartGerm-variable-outside-the-registry"),
    pytest.param(ValueError, lambda: ChartGerm(
        "c", parse_poly("u+w", _UVW, F49), ("u", "v")),
                 id="ChartGerm-non-chart-variable"),
    pytest.param(ValueError, lambda: classify(
        ChartGerm("c", _uv("u*v", PrimeField(2)), ("u", "v"))),
                 id="classify-characteristic-2"),
    pytest.param(ValueError, lambda: intersection_multiplicity(
        _node(), (_uv("u"), _uv("v"))),
                 id="intersection_multiplicity-not-univariate"),
    pytest.param(ValueError, lambda: infinitely_near_multiplicity(
        _node(), (F49.zero(), F49.zero())),
                 id="infinitely_near_multiplicity-zero-direction"),
    pytest.param(DegenerateProjectionError, lambda: branch_locus(
        parse_poly("al^2*al'*be^3", cgdata.AB, F49), cgdata.FIRST_PAIR,
        cgdata.SECOND_PAIR),
                 id="branch_locus-no-leading-or-trailing-coefficient"),
    pytest.param(DegenerateProjectionError, lambda: branch_locus(
        parse_poly("al^3*be^3", cgdata.AB, F49), cgdata.FIRST_PAIR,
        cgdata.SECOND_PAIR),
                 id="branch_locus-zero-discriminant"),
    pytest.param(ValueError, lambda: series_dimension(
        (1, 1), [TangentDirection(_POINT, (F49.zero(), F49.zero()))], F49),
                 id="linser-zero-tangent-direction"),
    pytest.param(TypeError, lambda: series_dimension((1, 1), [_POINT], F49),
                 id="linser-unknown-condition"),
    pytest.param(ValueError, lambda: Lattice(("a", "a"), ((0, 1), (1, 0))),
                 id="Lattice-duplicate-names"),
    pytest.param(ValueError, lambda: Lattice(("a", "b"), ((0, 1),)),
                 id="Lattice-gram-shape"),
    pytest.param(ValueError, lambda: Lattice(("a", "b"), ((0, 1), (2, 0))),
                 id="Lattice-asymmetric-gram"),
    pytest.param(ValueError, lambda: Lattice(("a",), ((1,),)).canonical,
                 id="Lattice-no-canonical-class"),
    pytest.param(ValueError, lambda: Lattice(("h1", "h2"), ((0, 1), (1, 0)),
                                             (-2,)),
                 id="Lattice-short-canonical"),
    pytest.param(ValueError, lambda: Lattice(("h1", "h2"), ((0, 1), (1, 0)),
                                             ()),
                 id="Lattice-empty-canonical"),
    pytest.param(ValueError, lambda: Lattice(("h1", "h2"), ((0, 1), (1, 0)),
                                             (-2, -2, 0)),
                 id="Lattice-long-canonical"),
    pytest.param(ValueError, lambda: DivisorClass(quadric_lattice(), (1,)),
                 id="DivisorClass-length"),
    pytest.param(RingMismatchError, lambda: MPoly(_UV, F49,
                                                  {(1, 0): _F7.one()}),
                 id="MPoly-foreign-coefficient"),
    pytest.param(RingMismatchError, lambda: _uv("u") + parse_poly(
        "u", _UVW, F49), id="MPoly-other-registry"),
    pytest.param(RingMismatchError, lambda: _uv("u") + _uv("u", _F7),
                 id="MPoly-other-ring"),
    pytest.param(ValueError, lambda: _uv("u") ** -1,
                 id="MPoly-negative-power"),
    pytest.param(KeyError, lambda: MPoly.variable(_UV, F49, "z"),
                 id="MPoly-variable-unknown"),
    pytest.param(KeyError, lambda: _uv("u").partial_derivative("z"),
                 id="MPoly-partial_derivative-unknown"),
    pytest.param(KeyError, lambda: _uv("u*v").evaluate({"u": F49.one()}),
                 id="MPoly-evaluate-unbound"),
    pytest.param(KeyError, lambda: _uv("u").terms[(0, 1)],
                 id="MPoly-terms-absent"),
    pytest.param(ValueError, lambda: VerificationReport("x").check(
        "k", 1, 1, tag="guessed"), id="report-check-unknown-tag"),
    pytest.param(RingMismatchError, lambda: F49.one() + 1,
                 id="Element-non-Element-operand"),
    pytest.param(ValueError, lambda: ZMod(6), id="ZMod-non-prime"),
    pytest.param(ValueError, lambda: ZMod(7, 0), id="ZMod-exponent-below-1"),
    pytest.param(ValueError, lambda: hensel_lift([-2, 0, 1], 6, 2, 2),
                 id="hensel_lift-non-prime"),
    pytest.param(ValueError, lambda: hensel_lift([-2, 0, 1], 7, 3, 0),
                 id="hensel_lift-exponent-below-1"),
    pytest.param(KeyError, lambda: eliminate(_system([[1, 2]], [0]), ["z"]),
                 id="eliminate-unknown-auxiliary"),
    pytest.param(ValueError, lambda: solve_affine(
        _system([[1], [1]], [0, 1])).dimension,
                 id="SolutionSet-dimension-inconsistent"),
])
def test_validation_refusals(error, call):
    with pytest.raises(error):
        call()


def _cubics_with_a_simple_root_at_3(count: int, seed: int):
    """Random integer cubics, low degree first, with the simple root 3
    mod 7."""
    rng = random.Random(seed)
    while count:
        c1, c2, c3 = (rng.randrange(-30, 30) for _ in range(3))
        c0 = -(3 * c1 + 9 * c2 + 27 * c3)       # f(3) = 0
        if c3 and (c1 + 6 * c2 + 27 * c3) % 7:   # f'(3) a unit mod 7
            count -= 1
            yield (c0 + 7 * rng.randrange(-5, 5), c1, c2, c3)


def test_the_root_scan_matches_the_hensel_reference(monkeypatch):
    for cubic in ((-1, 0, 1, 1), *_cubics_with_a_simple_root_at_3(8, 3)):
        monkeypatch.setattr(cgdata, "CUBIC_COEFFS", cubic)
        report = scenarios.run_scenario("expansion")
        assert report.computed["root mod 7^3"] == hensel_lift(cubic, 7, 3, 3)


@pytest.mark.parametrize("cubic", [(2, 0, 0, 1), (9, -6, 1)],
                         ids=["no-root", "seven-roots"])
def test_the_root_scan_reports_an_error_unless_one_lift_is_a_root(
        monkeypatch, cubic):
    # 3 is no root of r^3 + 2 mod 7; (r - 3)^2 vanishes mod 343 at each of
    # 3, 52, ..., 297, so the root mod 7 is not simple
    monkeypatch.setattr(cgdata, "CUBIC_COEFFS", cubic)
    report = scenarios.run_scenario("expansion")
    assert report.status == "error" and report.computed == {}
    assert report.notes[0].startswith("ValueError")


# ----------------------------------------------------------------------
# the published-text cache


def test_a_second_run_parses_no_text():
    scenarios.run_many(None)
    misses = cgdata.parsed.cache_info().misses
    scenarios.run_many(None)
    assert cgdata.parsed.cache_info().misses == misses


def test_a_parsed_text_is_shared_and_cannot_be_changed():
    g1 = cgdata.parsed(cgdata.G1, cgdata.AB, F49)
    assert cgdata.parsed(cgdata.G1, cgdata.AB, F49) is g1
    assert scenarios.curve_pair(F49)[0] is g1
    with pytest.raises(AttributeError):
        g1.ring = None
    with pytest.raises(TypeError):
        g1.terms[next(iter(g1.terms))] = F49.zero()


def test_the_cache_is_keyed_by_the_text():
    # an edited text is parsed anew, even where it means the same
    # polynomial; the size of the cache makes the text new to it
    info = cgdata.parsed.cache_info()
    edited = f"{cgdata.G1}+0*al^{info.currsize}"
    p = cgdata.parsed(edited, cgdata.AB, F49)
    assert cgdata.parsed.cache_info().misses == info.misses + 1
    assert p == cgdata.parsed(cgdata.G1, cgdata.AB, F49)
    assert p is not cgdata.parsed(cgdata.G1, cgdata.AB, F49)


def test_parse_poly_itself_is_not_cached():
    a = parse_poly(cgdata.G1, cgdata.AB, F49)
    b = parse_poly(cgdata.G1, cgdata.AB, F49)
    assert a == b and a is not b


# ----------------------------------------------------------------------
# constants computed once


def test_curve_multiplicities_are_cached_nested_tuples():
    mults = scenarios._curve_multiplicities()
    assert scenarios._curve_multiplicities() is mults
    assert mults == (((2, 2), (1, 1), (1, 1), (2, 2)),
                     ((1, 1), (2, 2), (2, 2), (1, 1)))
    assert type(mults) is tuple
    assert all(type(curve) is tuple and all(type(m) is tuple for m in curve)
               for curve in mults)


@pytest.mark.parametrize("build", [scenarios._published_system_28,
                                   scenarios._elimination_system_28],
                         ids=["published", "elimination"])
def test_published_systems_are_built_once(build):
    system = build()
    assert build() is system
    assert len(system.rows) == 28
    assert type(system.rows) is tuple
    assert all(type(row) is tuple for row in system.rows)


def test_lattice_report_is_the_same_on_a_first_and_a_second_run():
    scenarios._curve_multiplicities.cache_clear()
    first = render_json([scenarios.run_scenario("lattice")], "x")
    assert scenarios._curve_multiplicities.cache_info().misses == 1
    second = render_json([scenarios.run_scenario("lattice")], "x")
    assert scenarios._curve_multiplicities.cache_info().hits >= 1
    assert strip_millis(first) == strip_millis(second)
