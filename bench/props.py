"""The ``props`` workload: a seeded mix of exact identities.

The mix is tier-1's ``test_criterion_12_property_suites`` with every count
scaled by one factor, ``SCALE``, so that the batch splits its time across
rings, poly and linalg as that suite does.  The polynomial and matrix
shapes are those of the tier-1 helpers (``rand_poly``, up to 6 terms),
except where the benchmark's specification widens them: Leibniz on three
variables, and matrices up to 7x7 over GF(49) as well as GF(7), with
dependent rows.  The round trip is not in criterion 12; its count is
``test_parse_print_roundtrip_random``'s.  Criterion 12's Frobenius,
elimination-oracle and blowup checks are left out; together they are
under 1% of its time in stablelimit code (the oracle's own time is the
test's brute-force enumeration).

Each identity checked is one operation; it fails if the identity does not
hold.  Layers are reached through their modules (``linalg.rank``, not an
imported ``rank``) so that wrappers installed by ``layers.Tracer`` see
every call.  There are no cached intermediates and no ``cgdata``.

The print/parse round trip runs on Z/343 and GF(7) only, as in tier-1.
Two rings are known gaps of the grammar, recorded here rather than counted
as failures: a GF(49) coefficient prints as ``(a+bi)``, which
``parse_poly`` rejects, and a negative ZZ coefficient after the first term
prints as ``+-c``, which it also rejects.
"""

from __future__ import annotations

from stablelimit import linalg, poly, rings

# Samples of each kind in tier-1: criterion 12, and test_poly's round trip.
TIER1 = {
    "axioms": 10_000,       # per ring, 8 or 9 identities each
    "homomorphism": 100,    # 1 identity + EVAL_POINTS evaluations each
    "leibniz": 100,
    "rank_nullity": 60,
    "round_trip": 60,       # per round-trip ring
}
SCALE = 0.05                # one factor for every kind
EVAL_POINTS = 20


def samples(kind):
    return round(TIER1[kind] * SCALE)


def make_rings():
    f7 = rings.PrimeField(7)
    f49 = rings.QuadraticField(7)
    return {
        "ZZ": rings.ZZ,
        "Z/343": rings.ZMod(7, 3),
        "GF(7)": f7,
        "GF(49)": f49,
        "GF(7)[eps]": rings.DualNumbers(f7),
        "GF(49)[eps]": rings.DualNumbers(f49),
    }


XYZ = poly.VarRegistry(("x", "y", "z"))


def _rand_poly(ring, rng, max_terms=6, max_exp=3):
    """Tier-1's ``rand_poly``: 1 to ``max_terms`` random monomials."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_exp) for _ in XYZ.names)
        terms[exps] = ring.random_element(rng)
    return poly.MPoly(XYZ, ring, terms)


def _rand_matrix(ring, rng):
    """Up to 7x7; the rows past a random rank are combinations of the
    first ones, so nullity is exercised as well as full rank."""
    nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
    k = rng.randrange(1, nrows + 1)
    rows = [[ring.random_element(rng) for _ in range(ncols)] for _ in range(k)]
    for _ in range(nrows - k):
        a, b = rng.choice(rows), rng.choice(rows)
        s, t = ring.random_element(rng), ring.random_element(rng)
        rows.append([s * u + t * v for u, v in zip(a, b)])
    rng.shuffle(rows)
    return rows


def make_batch(ring_map, rng):
    """Inputs of one batch, as (check function, arguments) pairs."""
    batch = []
    for ring in ring_map.values():
        for _ in range(samples("axioms")):
            batch.append((check_axioms, (ring, ring.random_element(rng),
                                         ring.random_element(rng),
                                         ring.random_element(rng))))
    f7 = ring_map["GF(7)"]
    for _ in range(samples("homomorphism")):
        p, q = _rand_poly(f7, rng), _rand_poly(f7, rng)
        sigma = {n: _rand_poly(f7, rng, max_terms=3, max_exp=2)
                 for n in XYZ.names}
        points = [{n: f7.random_element(rng) for n in XYZ.names}
                  for _ in range(EVAL_POINTS)]
        batch.append((check_homomorphism, (p, q, sigma, points)))
    for _ in range(samples("leibniz")):
        batch.append((check_leibniz, (_rand_poly(f7, rng), _rand_poly(f7, rng),
                                      rng.choice(XYZ.names))))
    for key in ("GF(7)", "Z/343"):
        for _ in range(samples("round_trip")):
            batch.append((check_round_trip, (_rand_poly(ring_map[key], rng),)))
    fields = [ring_map["GF(7)"], ring_map["GF(49)"]]
    for i in range(samples("rank_nullity")):
        ring = fields[i % len(fields)]
        batch.append((check_rank_nullity, (_rand_matrix(ring, rng), ring)))
    return batch


def run_batch(batch):
    """(identities checked, identities that failed)."""
    checked = failed = 0
    for check, args in batch:
        results = check(*args)
        checked += len(results)
        failed += results.count(False)
    return checked, failed


def check_axioms(ring, x, y, z):
    zero, one = ring.zero(), ring.one()
    results = [
        (x + y) + z == x + (y + z),
        x + y == y + x,
        (x * y) * z == x * (y * z),
        x * y == y * x,
        x * (y + z) == x * y + x * z,
        x - y == x + (-y),
        x + zero == x and x * one == x,
        x + (-x) == zero,
    ]
    try:
        inv = x.inverse()
    except rings.NonUnitError:
        pass
    else:
        results.append(inv * x == one)
    return results


def check_homomorphism(p, q, sigma, points):
    """(pq)(sigma) = p(sigma) q(sigma), and at points by evaluation, as
    tier-1 checks it."""
    lhs = (p * q).substitute(sigma)
    rhs = p.substitute(sigma) * q.substitute(sigma)
    return [lhs == rhs] + [lhs.evaluate(point) == rhs.evaluate(point)
                           for point in points]


def check_leibniz(p, q, name):
    d = poly.MPoly.partial_derivative
    return [d(p * q, name) == d(p, name) * q + p * d(q, name)]


def check_round_trip(p):
    return [poly.parse_poly(str(p), p.registry, p.ring) == p]


def check_rank_nullity(rows, ring):
    names = [f"v{i}" for i in range(len(rows[0]))]
    system = linalg.LinearSystem(names, rows, [ring.zero()] * len(rows), ring)
    solution = linalg.solve_affine(system)
    return [solution.is_consistent()
            and linalg.rank(rows, ring) + solution.dimension == len(names)]
