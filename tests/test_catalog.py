import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from isospectra import catalog
from isospectra.catalog import MultiplicityPair, pair_g4
from isospectra.certificates import _sin2_theta_alpha
from isospectra.errors import InvalidPairError, UnsupportedCaseError
from isospectra.exact import _split_square


# -- validation ------------------------------------------------------------------


def test_pair_validation():
    with pytest.raises(InvalidPairError, match="g must be"):
        MultiplicityPair(5, 1, 1)
    with pytest.raises(InvalidPairError, match="positive"):
        MultiplicityPair(4, 0, 3)
    with pytest.raises(InvalidPairError, match="odd g"):
        MultiplicityPair(3, 1, 2)
    with pytest.raises(InvalidPairError, match="both be even"):
        MultiplicityPair(4, 4, 6)
    assert pair_g4(2, 2).total == 4  # the one both-even exception
    assert MultiplicityPair(1, 3, 3).g == 1


@pytest.mark.parametrize("args", [(4, 2.5, 3), (4, 3.0, 4.0), (4, "3", 4), (4, True, 1), (True, 1, 1),
                                  (4, 3, np.True_), (4.0, 3, 4), (4, None, 3)], ids=repr)
def test_pair_refuses_multiplicities_that_are_no_int(args):
    with pytest.raises(InvalidPairError, match="must be an int"):
        MultiplicityPair(*args)


def test_pair_stores_numpy_ints_as_python_ints():
    pair = MultiplicityPair(np.int32(4), np.int64(2), np.uint16(16001))
    assert pair == MultiplicityPair(4, 2, 16001)
    assert all(type(v) is int for v in (pair.g, pair.m1, pair.m2))
    assert type(pair.swapped().m1) is int


# -- dimension --------------------------------------------------------------------


def test_dimension_examples():
    assert catalog.hypersurface_dimension(pair_g4(2, 2)) == 8
    assert catalog.hypersurface_dimension(pair_g4(4, 5)) == 18
    for k in (1, 2, 5):
        assert catalog.hypersurface_dimension(MultiplicityPair(1, k, k)) == k
    assert catalog.hypersurface_dimension(MultiplicityPair(3, 2, 2)) == 6
    assert catalog.hypersurface_dimension(MultiplicityPair(6, 2, 2)) == 12


# -- delta table -------------------------------------------------------------------


def test_delta_table_and_periodicity():
    assert [catalog.delta(m) for m in range(1, 9)] == [1, 2, 4, 4, 8, 8, 8, 8]
    assert catalog.delta(9) == 16
    for m in range(1, 25):
        assert catalog.delta(m + 8) == 16 * catalog.delta(m)
    values = [catalog.delta(m) for m in range(1, 25)]
    assert values == sorted(values)  # nondecreasing
    with pytest.raises(ValueError):
        catalog.delta(0)
    with pytest.raises(ValueError):
        catalog.delta(-3)
    for m in (4.0, "4", True, None, 2.5):
        with pytest.raises(ValueError, match="must be an int"):
            catalog.delta(m)
    assert catalog.delta(np.int64(9)) == 16


# -- minimal angle ------------------------------------------------------------------


def _triplet_float(pair):
    t = catalog.sin2_theta1_triplet(pair)
    return (t["num"] - math.sqrt(t["surd"])) / t["den"]


def test_minimal_angle_g4_closed_forms():
    assert math.isclose(_triplet_float(pair_g4(2, 2)), (2 - math.sqrt(2)) / 4, rel_tol=1e-15)
    assert math.isclose(_triplet_float(pair_g4(2, 2)), 0.1464466, abs_tol=5e-8)
    assert math.isclose(_triplet_float(pair_g4(4, 5)), (3 - math.sqrt(5)) / 6, rel_tol=1e-15)
    assert math.isclose(_triplet_float(pair_g4(4, 5)), 0.1273220, abs_tol=5e-8)


def test_minimal_angle_g4_large_radicand():
    # the radicand m2 * s = 16000001 * 16000003 has no square factor; splitting
    # it by trial division up to its square root took seconds
    m1, m2 = 2, 16000001
    s = m1 + m2
    pair = pair_g4(m1, m2)
    assert catalog.sin2_theta1_triplet(pair) == {"num": s, "den": 2 * s, "surd": m2 * s}
    assert math.isclose(_triplet_float(pair), math.sin(catalog.minimal_angle(pair)) ** 2, rel_tol=1e-8)


def test_minimal_angle_g2_tan_squared():
    # tan^2(theta1) = m1/m2; symmetric pair -> theta1 = pi/4
    assert math.isclose(catalog.minimal_angle(MultiplicityPair(2, 3, 3)), math.pi / 4, rel_tol=1e-15)
    for p, q in [(1, 2), (3, 5), (7, 2)]:
        theta = catalog.minimal_angle(MultiplicityPair(2, p, q))
        assert math.isclose(math.tan(theta) ** 2, p / q, rel_tol=1e-13)


def test_minimal_angle_zero_mean_curvature():
    for pair in catalog.admissible_pairs(40):
        theta = catalog.minimal_angle(pair)
        n = catalog.hypersurface_dimension(pair)
        assert abs(catalog.mean_curvature_sum(pair, theta)) < 1e-12 * max(1, n)
        # sin^2 from the triplet matches the angle
        assert math.isclose(math.sin(theta) ** 2, _triplet_float(pair), rel_tol=1e-13)


def test_minimal_angle_g6():
    theta = catalog.minimal_angle(MultiplicityPair(6, 2, 2))
    assert math.isclose(theta, math.pi / 12, rel_tol=1e-15)
    assert abs(catalog.mean_curvature_sum(MultiplicityPair(6, 2, 2), theta)) < 1e-12


def test_minimal_angle_odd_g_unsupported():
    with pytest.raises(UnsupportedCaseError):
        catalog.minimal_angle(MultiplicityPair(3, 4, 4))
    with pytest.raises(UnsupportedCaseError):
        catalog.minimal_angle(MultiplicityPair(1, 5, 5))


# -- admissible pairs ----------------------------------------------------------------


def _oracle_admissible(max_sum):
    """Independent enumeration of the three generating families."""
    out = set()
    # homogeneous
    for k in range(1, max_sum):
        for a, b in [(1, k), (2, 2 * k - 1), (4, 4 * k - 1)]:
            if b >= 1 and a + b <= max_sum:
                out.add((min(a, b), max(a, b)))
    for a, b in [(2, 2), (4, 5), (6, 9), (7, 8)]:
        if a + b <= max_sum:
            out.add((a, b))
    # Clifford construction: (m, k delta(m) - m - 1)
    deltas = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}
    for m in range(9, max_sum + 1):
        deltas[m] = 16 * deltas[m - 8]
    for m in range(1, max_sum):
        k = 1
        while k * deltas[m] - m - 1 <= max_sum:
            b = k * deltas[m] - m - 1
            if b >= 1 and m + b <= max_sum:
                out.add((min(m, b), max(m, b)))
            k += 1
    return out


def _three_family_admissible(max_sum):
    """Reference: the homogeneous lists, (2,2), (4,5), (6,9), (7,8) and the FKM pairs, each enumerated.

    Sorted by (m1+m2, m1) like ``admissible_pairs``.
    """
    found = set()

    def add(a, b):
        if a >= 1 and b >= 1 and a + b <= max_sum:
            found.add((min(a, b), max(a, b)))

    for k in range(1, max_sum + 1):
        add(1, k)
        add(2, 2 * k - 1)
        add(4, 4 * k - 1)
    add(2, 2)
    add(4, 5)
    add(6, 9)
    add(7, 8)
    for m in range(1, max_sum):
        d = catalog.delta(m)
        for k in range(1, (max_sum + 1) // d + 1):
            add(m, k * d - m - 1)
    return sorted(found, key=lambda ab: (ab[0] + ab[1], ab[0]))


def test_admissible_pairs_match_three_family_enumeration():
    # every bound up to 256, then a stride up to 2000 (all 1999 bounds take about a minute)
    for bound in [*range(2, 257), *range(257, 2000, 97), 2000]:
        got = [(p.m1, p.m2) for p in catalog.admissible_pairs(bound)]
        assert got == _three_family_admissible(bound), bound


def test_clifford_pairs_oriented_and_complete():
    bound = 200
    got = catalog.clifford_pairs(bound)
    brute = [(a, s - a) for s in range(2, bound + 1) for a in range(1, s) if catalog.is_ot_fkm(a, s - a)]
    assert got == brute  # brute is already in (m1+m2, m1) order
    assert (4, 3) in got and (3, 4) in got  # both orientations of a pair can be FKM
    assert (1, 3) in got and (3, 1) not in got  # delta(3) = 4 does not divide 3 + 1 + 1


def test_admissible_pairs_bound_4():
    pairs = [(p.m1, p.m2) for p in catalog.admissible_pairs(4)]
    assert set(pairs) == {(1, 1), (1, 2), (2, 2), (1, 3)}


def test_admissible_pairs_membership():
    pairs = {(p.m1, p.m2) for p in catalog.admissible_pairs(15)}
    assert (7, 8) in pairs
    assert (4, 5) in pairs
    assert (6, 9) in pairs
    assert (3, 4) in pairs  # Clifford (3, 4k-4) at k=2, also homogeneous (4,3)


def test_admissible_pairs_match_oracle():
    for bound in (4, 10, 33, 64):
        got = {(p.m1, p.m2) for p in catalog.admissible_pairs(bound)}
        assert got == _oracle_admissible(bound)


def test_admissible_pairs_sorted_and_valid():
    pairs = catalog.admissible_pairs(64)
    keys = [(p.total, p.m1, p.m2) for p in pairs]
    assert keys == sorted(keys)
    for p in pairs:
        assert p.m1 <= p.m2
        assert p.g == 4  # constructing MultiplicityPair re-validates
    with pytest.raises(ValueError):
        catalog.admissible_pairs(1)


@pytest.mark.parametrize("function", [catalog.clifford_pairs, catalog.admissible_pairs,
                                      catalog.catalog_entries, catalog.catalog_json])
def test_max_sum_must_be_an_int(function):
    for max_sum in (10.5, "12", None, True):
        with pytest.raises(ValueError, match="max_sum must be an int"):
            function(max_sum)
    assert function(np.int64(12)) == function(12)


# -- focal dimensions ------------------------------------------------------------------


def test_focal_dimensions():
    assert catalog.focal_dimensions(pair_g4(4, 5)) == (14, 13)
    assert catalog.focal_dimensions(pair_g4(7, 8)) == (23, 22)
    assert catalog.focal_dimensions(pair_g4(1, 1)) == (3, 3)
    for pair in catalog.admissible_pairs(40):
        n = catalog.hypersurface_dimension(pair)
        d1, d2 = catalog.focal_dimensions(pair)
        assert d1 == n - pair.m1 and d2 == n - pair.m2
    with pytest.raises(UnsupportedCaseError):
        catalog.focal_dimensions(MultiplicityPair(2, 1, 1))


def test_family_geometry():
    pair = pair_g4(4, 5)
    theta = catalog.principal_angles(pair, catalog.minimal_angle(pair))
    assert len(theta) == 4
    for a, b in zip(theta, theta[1:]):
        assert math.isclose(b - a, math.pi / 4, rel_tol=1e-15)
    assert 0 < theta[0] and theta[-1] < math.pi


# -- known facts and export --------------------------------------------------------------


def test_known_eigenvalue_facts():
    facts = catalog.KNOWN_EIGENVALUE_FACTS
    ids = {f.manifold for f in facts}
    assert {"focal-g2-sphere", "veronese-RP2", "veronese-CP2", "veronese-HP2",
            "veronese-OP2", "quotient-(1,k)", "hypersurface"} <= ids
    for f in facts:
        if isinstance(f.lambda1, int):
            assert f.lambda1 > 0
    rp2 = next(f for f in facts if f.manifold == "veronese-RP2")
    assert rp2.lambda1 == 2 and rp2.dimension == 2 and rp2.ambient_sphere == 4
    op2 = next(f for f in facts if f.manifold == "veronese-OP2")
    assert op2.lambda1 == 16


def test_sin2_theta1_triplet_values():
    assert catalog.sin2_theta1_triplet(pair_g4(2, 2)) == {"num": 2, "den": 4, "surd": 2}
    assert catalog.sin2_theta1_triplet(pair_g4(4, 5)) == {"num": 3, "den": 6, "surd": 5}
    # (1, 8): (3 - sqrt 8)/6
    assert catalog.sin2_theta1_triplet(pair_g4(1, 8)) == {"num": 3, "den": 6, "surd": 8}
    for pair in catalog.admissible_pairs(30):
        s = pair.m1 + pair.m2
        # (1 - sqrt(m2/s))/2 without the cancellation
        assert math.isclose(_triplet_float(pair), pair.m1 / (2 * (s + math.sqrt(pair.m2 * s))), rel_tol=1e-14)


def _scanned_triplet(pair):
    """The first implementation: for the largest g | gcd(num, den) with g^2 | k^2 d, scanned down."""
    s = pair.m1 + pair.m2
    sq, d = _split_square(pair.m2 * s)
    a, c = Fraction(1, 2), Fraction(sq, 2 * s)  # sin^2 = a - c sqrt(d), d square-free
    if d == 1:  # a perfect square folds into the rational part
        a, c = a - c, Fraction(0)
    den = a.denominator * c.denominator // math.gcd(a.denominator, c.denominator)
    num = int(a * den)
    k = int(c * den)
    radicand = k * k * d
    while True:
        g0 = math.gcd(num, den)
        best = next((g for g in range(g0, 1, -1) if g0 % g == 0 and radicand % (g * g) == 0), 1)
        if best == 1:
            break
        num, den, radicand = num // best, den // best, radicand // (best * best)
    return {"num": num, "den": den, "surd": radicand}


def test_sin2_theta1_triplet_matches_scan_oracle():
    pairs = catalog.admissible_pairs(1500)
    assert len(pairs) == 3976
    for pair in pairs:
        assert catalog.sin2_theta1_triplet(pair) == _scanned_triplet(pair), pair
    # the scan takes about a second here, one gcd division does not: k = 1
    # leaves (s - sqrt(m2 s)) / (2 s) unreduced
    m2, s = 16000001, 16000003
    assert catalog.sin2_theta1_triplet(pair_g4(2, m2)) == {"num": s, "den": 2 * s, "surd": m2 * s}


@pytest.mark.parametrize("m1, m2, q", [(67, 3 * 2**34 - 68, 1), (2, 2 * 10**15 + 1, 1),
                                       (2025, 2025 * (10**13 + 1), 2025)])
def test_minimal_angle_and_triplet_at_huge_sums(m1, m2, q):
    # m2 s reaches 2.7e21, 4e30 and 4e32; the triplet splits squares off s gcd(m1, m2)
    # only, where splitting m2 s took about a second at (67, 3 2^34 - 68)
    pair = pair_g4(m1, m2)
    s = m1 + m2
    start = time.perf_counter()
    t = catalog.sin2_theta1_triplet(pair)
    theta = catalog.minimal_angle(pair)
    assert time.perf_counter() - start < 0.2
    num, den, surd = t["num"], t["den"], t["surd"]
    assert s // num == q
    assert den == 2 * num and num * q == s and surd * q * q == m2 * s
    # (num - sqrt(surd)) / den without the cancellation: num^2 - surd is exact
    sin2 = (num * num - surd) / (den * (num + math.sqrt(surd)))
    assert abs(sin2 - _sin2_theta_alpha(pair, 1)) <= 4 * math.ulp(sin2)
    assert theta == 0.5 * math.atan(math.sqrt(m1 / m2))
    assert math.isclose(math.sin(theta) ** 2, sin2, rel_tol=1e-9)


def test_triplet_is_for_g4_and_g6_needs_equal_multiplicities():
    with pytest.raises(UnsupportedCaseError, match="g=4"):
        catalog.sin2_theta1_triplet(MultiplicityPair(2, 1, 2))
    with pytest.raises(InvalidPairError, match="g=6: Abresch"):
        MultiplicityPair(6, 1, 2)


def test_catalog_json_schema():
    data = json.loads(catalog.catalog_json(10))
    assert data["schema_version"] == 1
    entry = data["pairs"][0]
    assert set(entry) == {"g", "m1", "m2", "n", "dim_M1", "dim_M2", "sin2_theta1"}
    assert entry["g"] == 4
    assert set(entry["sin2_theta1"]) == {"num", "den", "surd"}
