"""Acceptance suite: the headline checks, one test per criterion.

Each test prints a single verdict line (visible with ``pytest -s`` or in
the captured output on failure) and then asserts.  Every comparison is
exact; there are no tolerances anywhere in this package.

One criterion is knowingly red: the published intersection number of the
branch curves with the duality twist is -4, while the exact value forced
by the published class relations is +2.  That check is implemented as
stated and left to fail; the analysis lives in the lattice scenario's
report notes.
"""

import random

import pytest

import test_linalg
import test_rings
from stablelimit import cgdata, deformation, scenarios
from stablelimit.deformation import F49
from stablelimit.linalg import LinearSystem, rank, rowspace_equal
from stablelimit.linser import PassThrough, TangentDirection, series_dimension, \
    split_sections_vanishing
from stablelimit.picard import blowup, intersect, quadric_lattice
from stablelimit.rings import PrimeField
from stablelimit.scenarios import (_chain_rule_rows, _cone_direction,
                                   _direct_value_rows, _published_system_28,
                                   chart_point, derived_system_cached,
                                   multiple_fiber_scan, q_point)

F7 = PrimeField(7)


def verdict(name: str, ok: bool) -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def scenario_passes(sid: str) -> bool:
    return scenarios.run_scenario(sid).passed


def test_criterion_01_hensel_root():
    # the expansion scenario's scan of the lifts, and the Hensel lift that
    # is its reference
    root = scenarios.run_scenario("expansion").computed["root mod 7^3"]
    ok = root == test_rings.hensel_lift(cgdata.CUBIC_COEFFS, 7, 3, 3) == 143
    assert verdict("cubic root lifts to 143 modulo 343", ok)


def test_criterion_02_expansion():
    report = scenarios.run_scenario("expansion")
    ok = (report.passed
          and report.computed["unit * quintic equals the expansion mod 343"]
          and report.computed["mod 7 fiber is unit * plane * quadric^2"])
    assert verdict("quintic expansion exact mod 343 and mod 7", ok)


def test_criterion_03_branch_decomposition():
    ok = scenario_passes("branch")
    assert verdict("discriminant section splits into the two curves", ok)


def test_criterion_04_delta_factorizations():
    ok = scenario_passes("delta")
    assert verdict("diagonal factorizations and the six points", ok)


def test_criterion_05_singularity_conditions():
    ok = scenario_passes("singularities")
    assert verdict("rigidity conditions hold; transverse points are nodes",
                   ok)


def test_criterion_06_derived_system_rowspace():
    derived = derived_system_cached(False)
    direct = _direct_value_rows()
    chain = _chain_rule_rows()
    hat = deformation.diagonal_rows()
    first_principles = [
        *derived.system.rows,
        direct["val1@1"], direct["val1@2"], direct["val2@1"],
        direct["val2@2"], direct["val1@3"], direct["val1@4"],
        direct["val2@5"], direct["val2@6"],
        chain["dB1Q3"], chain["dB1Q4"], chain["dB2Q5"], chain["dB2Q6"],
    ]
    published = [*_published_system_28().rows] + [
        hat[n] for n in ("B1Q1", "B1Q2", "B2Q1", "B2Q2", "B1Q3", "B1Q4",
                         "B2Q5", "B2Q6", "dB1Q3", "dB1Q4", "dB2Q5", "dB2Q6")]
    zero = F49.zero()
    a = LinearSystem(cgdata.MAIN_UNKNOWNS, first_principles,
                     [zero] * len(first_principles), F49)
    b = LinearSystem(cgdata.MAIN_UNKNOWNS, published,
                     [zero] * len(published), F49)
    ok = rowspace_equal(a, b)
    assert verdict("derived system matches the published display plus "
                   "constraint rows (row spaces over GF(49))", ok)


def test_criterion_07_systems_consistent_dimensions_visible():
    ok = True
    for spec in cgdata.SYSTEM_SPECS + (cgdata.LEFSCHETZ_SPEC,):
        consistent, dim = deformation.solve_published_system(spec)
        ok = ok and consistent
        report = scenarios.run_scenario(spec[0])
        ok = ok and report.passed
        if dim != spec[4]:
            ok = ok and bool(report.flags)  # deviation must be visible
    assert verdict("all eight systems consistent; dimension deviations "
                   "flagged", ok)


def test_criterion_08_ramification():
    ok = scenario_passes("ramification")
    assert verdict("branch loci, flex contacts, mirrored ruling", ok)


def test_criterion_09_lattice_identities():
    report = scenarios.run_scenario("lattice")
    items_ok = {k: report.computed[k] == report.expected[k]
                for k in report.expected}
    core = [
        "triple-fiber relation (ruling form)",
        "branch relation: branch curve is twice the bundle",
        "adjoint display on the extended lattice",
        "component self-intersection after contraction",
        "transverse exceptional 1: preimage square",
        "origin exceptional 1: square after contraction",
        "resolved-surface canonical square",
        "holomorphic Euler characteristic",
        "fiber identity against every basis class",
    ]
    core_ok = all(items_ok[k] for k in core)
    twist_ok = (report.computed["first curve . twist"] == "-4"
                and report.computed["second curve . twist"] == "-4")
    verdict("class relations, double-cover invariants, sixth-of-a-fiber",
            core_ok)
    assert core_ok
    assert verdict("published branch-curve/twist intersection number -4 "
                   "(exact value is +2; see the lattice report)", twist_ok)


def test_criterion_10_linear_series_counts():
    nine = series_dimension((2, 2), (), F49) == 9
    zero = F49.zero()
    five_points = [chart_point(4, *q_point(2))] + [chart_point(c, zero, zero)
                                                   for c in (1, 2, 3, 4)]
    vanish = split_sections_vanishing(five_points, F49) == 0
    conds = []
    for chart in (1, 2, 3, 4):
        pt = chart_point(chart, zero, zero)
        conds.append(PassThrough(pt))
        conds.append(TangentDirection(pt, _cone_direction(chart)))
    gamma_dim = series_dimension((2, 2), conds, F49)
    ok = nine and vanish and gamma_dim >= 1 and gamma_dim == 1
    print(f"[acceptance] tangent-curve count dimension recorded: {gamma_dim}")
    assert verdict("section counts: nine, zero, and a positive "
                   "tangent-curve count", ok)


def test_criterion_11_diophantine():
    ok = multiple_fiber_scan(2, 100) == [(2, 2, 3)]
    assert verdict("multiple-fiber equation has the single solution "
                   "lambda=2, (2,3)", ok)


def test_criterion_12_property_suites():
    for ring in test_rings.ALL_RINGS:
        test_rings.ring_axiom_samples(ring, 10_000, seed=2024)
    test_rings.test_frobenius_on_gf49()
    import test_poly
    test_poly.test_substitute_is_ring_homomorphism()
    test_poly.test_leibniz_rule()
    test_linalg.test_rank_plus_nullity()
    test_linalg.test_eliminate_against_enumeration_oracle()
    # blowup isometry on random pairs
    rng = random.Random(99)
    lat = quadric_lattice()
    big = blowup(lat, "e")
    for _ in range(100):
        a = {"h1": rng.randrange(-9, 10), "h2": rng.randrange(-9, 10)}
        b = {"h1": rng.randrange(-9, 10), "h2": rng.randrange(-9, 10)}
        assert (intersect(big.cls(a), big.cls(b))
                == intersect(lat.cls(a), lat.cls(b)))
    assert verdict("property suites: ring axioms (10^4 per ring), "
                   "substitution, Leibniz, rank+nullity, elimination "
                   "oracle, blowup isometry", True)


def test_criterion_13_sensitivity_controls():
    expansion = scenarios.run_scenario("expansion")
    perturbed = expansion.computed[
        "negative control: perturbed correction term fails"]
    derive = scenarios.run_scenario("deform-derive")
    dropped = derive.computed["negative control: dropped condition detected"]
    weakened_rank = derive.computed["negative control: weakened derivation rank"]
    ok = perturbed is True and dropped is True and weakened_rank == 26
    assert verdict("negative controls fail their checks", ok)
