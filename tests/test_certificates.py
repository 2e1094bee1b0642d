import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from isospectra import certificates as certs
from isospectra import exact
from isospectra.catalog import admissible_pairs, pair_g4
from isospectra.errors import DivergenceError, UnsupportedCaseError
from isospectra.exact import PiRational, Surd, beta_half, gamma_half, sign_of_terms


def _gamma_recurrence(two_x):
    """Oracle: Gamma(two_x/2) built only from Gamma(1/2) = sqrt(pi) and Gamma(1) = 1."""
    if two_x == 1:
        return math.sqrt(math.pi)
    if two_x == 2:
        return 1.0
    return (two_x - 2) / 2.0 * _gamma_recurrence(two_x - 2)


# -- the factorial route, as oracle ------------------------------------------------
# Every Gamma/Beta argument in the certificates is a half-integer, so S, G and the
# K_1/K_4 closed forms are rationals times powers of pi (and sqrt(m s) for K); their
# signs are decided exactly by sign_of_terms.  The certificates themselves use
# integer inequalities and lgamma floats; these are checked against this route.


def _pi_term(x: PiRational, scale=1):
    assert x.half_pi % 2 == 0, "stray half power of pi"
    return (scale * x.frac, 1, x.half_pi // 2)


def _oracle_S(m1, m2) -> PiRational:
    s = m1 + m2
    return gamma_half(m2 + 2) * gamma_half(s) / (gamma_half(m2 + 1) * gamma_half(s + 1))


def _oracle_G(m1, m2) -> PiRational:
    return beta_half(m1 + 1, m2 + 1) / 2


def _oracle_A(m1, m2) -> Surd:
    s = m1 + m2
    coef = Fraction(2 * (s + 1) * (m1 - 1), s * s * m1)
    return Surd(coef * s, coef, s * m2)


def _oracle_K_end(m_in, m_out) -> list:
    """Terms of sin^2(theta) [B((a-1)/2, (b+1)/2) + B((a-1)/2, (b+2)/2)] / 2.

    (a, b) = (m1, m2) gives K_1; the swapped multiplicities give K_4.
    """
    s = m_in + m_out
    sin2 = Surd(Fraction(1, 2), Fraction(-1, 2 * s), m_out * s)
    terms = []
    for b in (beta_half(m_in - 1, m_out + 1), beta_half(m_in - 1, m_out + 2)):
        c, _, p = _pi_term(b, Fraction(1, 2))
        terms.append((sin2.rational * c, 1, p))
        terms.append((sin2.coef * c, sin2.radicand, p))
    return terms


def _oracle_verdicts(m1, m2) -> dict:
    """The sign_of_terms verdicts: S < 1, A >= 2, 1 + S < A and the direct K_1/K_4 tests."""
    n = 2 * (m1 + m2)
    S, A = _oracle_S(m1, m2), _oracle_A(m1, m2)
    bound = [_pi_term(_oracle_G(m1, m2), Fraction(n + 2, n))]

    def below_bound(k_terms):
        return sign_of_terms(bound + [(-c, d, p) for c, d, p in k_terms]) > 0

    return {
        "S_lt_1": sign_of_terms([(1, 1, 0), _pi_term(S, -1)]) > 0,
        "A_ge_2": (A - 2).sign() >= 0,
        "one_plus_S_lt_A": sign_of_terms(
            [(A.rational - 1, 1, 0), (A.coef, A.radicand, 0), _pi_term(S, -1)]) > 0,
        "K1": below_bound(_oracle_K_end(m1, m2)),
        "K4": below_bound(_oracle_K_end(m2, m1)),
    }


def _within(value, error_bound, terms) -> bool:
    """|value - sum of terms| <= error_bound, decided exactly."""
    rest = [(-c, d, p) for c, d, p in terms]
    hi = Fraction(value) + Fraction(error_bound)
    lo = Fraction(value) - Fraction(error_bound)
    return sign_of_terms([(hi, 1, 0), *rest]) >= 0 >= sign_of_terms([(lo, 1, 0), *rest])


def _oracle_pairs():
    pairs = [p for p in admissible_pairs(256) if min(p.m1, p.m2) >= 2]
    return pairs + [pair_g4(2, 1025), pair_g4(2, 8193)]


def _catalog_sample():
    """Every 5th catalog pair with min >= 2, up to sum 1100."""
    return [p for p in admissible_pairs(1100) if min(p.m1, p.m2) >= 2][::5]


def test_integer_verdicts_match_factorial_oracle():
    for pair in _oracle_pairs():
        verdicts = certs.certify_hypersurface(pair).exact_verdicts
        oracle = _oracle_verdicts(pair.m1, pair.m2)
        assert {k: verdicts[k] for k in oracle} == oracle, (pair.m1, pair.m2)


def test_wendel_bound_on_factorial_S():
    # S^2 <= (m2+1)(s+1)/s^2, the bound whose integer form decides S < 1
    for pair in _oracle_pairs():
        m1, m2 = pair.m1, pair.m2
        s = m1 + m2
        S = _oracle_S(m1, m2)
        c, _, p = _pi_term(S)
        assert sign_of_terms([(Fraction((m2 + 1) * (s + 1), s * s), 1, 0), (-c * c, 1, 2 * p)]) >= 0


def test_lgamma_floats_within_error_bounds():
    pairs = _catalog_sample()
    assert len(pairs) == 363
    for pair in pairs:
        m1, m2 = pair.m1, pair.m2
        g, s = certs.integral_G(pair), certs.gamma_ratio_S(pair)
        k1, k4 = certs.integral_K(pair, 1), certs.integral_K(pair, 4)
        a = certs.threshold_A(pair)
        assert _within(g.value, g.error_bound, [_pi_term(_oracle_G(m1, m2))]), (m1, m2)
        assert _within(s.value, s.error_bound, [_pi_term(_oracle_S(m1, m2))]), (m1, m2)
        assert _within(k1.value, k1.error_bound, _oracle_K_end(m1, m2)), (m1, m2)
        assert _within(k4.value, k4.error_bound, _oracle_K_end(m2, m1)), (m1, m2)
        A = _oracle_A(m1, m2)
        assert _within(a.value, a.error_bound, [(A.rational, 1, 0), (A.coef, A.radicand, 0)])


def test_quadrature_error_covers_closed_form():
    for pair in _catalog_sample() + [pair_g4(2, 1000001), pair_g4(4, 399999)]:
        for v in (certs.integral_G(pair), certs.integral_K(pair, 1), certs.integral_K(pair, 4)):
            assert abs(v.value - v.quadrature) <= v.quadrature_error + v.error_bound, (pair.m1, pair.m2)


def test_quad_rejects_a_nan_integrand():
    # a NaN estimate leaves no interval above its share of the tolerance, so
    # nothing is cut and the interval limit never trips
    calls = []

    def nan_on_right_half(x):
        calls.append(1)
        assert len(calls) < 50, "quad keeps evaluating a NaN integrand"
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(ValueError, match="not finite"):
        certs.quad(nan_on_right_half, 0.0, 1.0, 1e-12, 200)


def test_certify_without_factorial_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factorial route called")

    for name in ("gamma_half", "beta_half", "sign_of_terms"):
        monkeypatch.setattr(certs, name, refuse)
        monkeypatch.setattr(exact, name, refuse)
    for m1, m2 in [(2, 2), (4, 5), (2, 1025)]:
        cert = certs.certify_hypersurface(pair_g4(m1, m2))
        assert cert.status == "pass" and cert.verdicts == cert.exact_verdicts


# -- beta ---------------------------------------------------------------------------


def test_beta_against_gamma_recurrence_oracle():
    oracle = _gamma_recurrence(3) * _gamma_recurrence(5) / _gamma_recurrence(8)
    assert math.isclose(oracle, math.pi / 16, rel_tol=1e-14)  # frozen
    assert math.isclose(float(beta_half(3, 5)), math.pi / 16, rel_tol=1e-14)
    for two_x in range(1, 12):
        for two_y in range(1, 12):
            b = float(beta_half(two_x, two_y))
            oracle = (
                _gamma_recurrence(two_x) * _gamma_recurrence(two_y) / _gamma_recurrence(two_x + two_y)
            )
            assert math.isclose(b, oracle, rel_tol=1e-12)


# -- G ------------------------------------------------------------------------------


def _exact_G_oracle(m1, m2):
    """G for odd m2 via the binomial expansion of int u^m1 (1-u^2)^((m2-1)/2) du."""
    assert m2 % 2 == 1
    q = (m2 - 1) // 2
    total = Fraction(0)
    for j in range(q + 1):
        total += Fraction((-1) ** j * math.comb(q, j), m1 + 2 * j + 1)
    return total


def test_G_values():
    assert math.isclose(certs.integral_G(pair_g4(2, 2)).value, math.pi / 16, rel_tol=1e-14)
    assert math.isclose(certs.integral_G(pair_g4(1, 1)).value, 0.5, rel_tol=1e-14)
    g45 = certs.integral_G(pair_g4(4, 5))
    assert math.isclose(g45.value, float(_exact_G_oracle(4, 5)), rel_tol=1e-14)
    assert _exact_G_oracle(4, 5) == Fraction(8, 315)


def test_G_dual_evaluation():
    for pair in admissible_pairs(40):
        g = certs.integral_G(pair)
        assert g.dual_agreement < 1e-10, (pair.m1, pair.m2, g.dual_agreement)


# -- K_alpha -------------------------------------------------------------------------


def _k_raw_oracle(m1, m2, alpha, dps=40):
    """mpmath quadrature of the raw integrand, singular form included."""
    with mpmath.workdps(dps):
        shift = (alpha - 1) * mpmath.pi / 4
        integrand = lambda x: (
            mpmath.sin(2 * x) ** m1 * mpmath.cos(2 * x) ** m2 / mpmath.sin(shift + x) ** 2
        )
        raw = mpmath.quad(integrand, [0, mpmath.pi / 4])
        s = m1 + m2
        sin2 = {
            1: (1 - mpmath.sqrt(mpmath.mpf(m2) / s)) / 2,
            2: (1 + mpmath.sqrt(mpmath.mpf(m1) / s)) / 2,
            3: (1 + mpmath.sqrt(mpmath.mpf(m2) / s)) / 2,
            4: (1 - mpmath.sqrt(mpmath.mpf(m1) / s)) / 2,
        }[alpha]
        return float(sin2 * raw)


def test_K_against_raw_singular_oracle():
    for m1, m2 in [(2, 2), (3, 4), (4, 5), (2, 9)]:
        pair = pair_g4(m1, m2)
        for alpha in (1, 2, 3, 4):
            got = certs.integral_K(pair, alpha).value
            want = _k_raw_oracle(m1, m2, alpha)
            assert math.isclose(got, want, rel_tol=1e-9), (m1, m2, alpha)


def test_K1_closed_form_vs_quadrature():
    for pair in [pair_g4(2, 2), pair_g4(4, 5), pair_g4(6, 9), pair_g4(2, 21)]:
        k = certs.integral_K(pair, 1)
        assert _within(k.value, k.error_bound, _oracle_K_end(pair.m1, pair.m2))
        assert k.dual_agreement < 1e-9


def test_K2_strictly_below_G():
    for pair in [pair_g4(2, 2), pair_g4(4, 5), pair_g4(3, 4)]:
        k2 = certs.integral_K(pair, 2).value
        k3 = certs.integral_K(pair, 3).value
        g = certs.integral_G(pair).value
        assert k2 < g and k3 < g


def test_K_divergent_cases():
    with pytest.raises(DivergenceError):
        certs.integral_K(pair_g4(1, 2), 1)
    with pytest.raises(DivergenceError):
        certs.integral_K(pair_g4(2, 1), 4)


def test_K4_is_mirrored_K1():
    for m1, m2 in [(2, 3), (4, 5), (3, 8)]:
        k4 = certs.integral_K(pair_g4(m1, m2), 4).value
        k1_swapped = certs.integral_K(pair_g4(m2, m1), 1).value
        assert math.isclose(k4, k1_swapped, rel_tol=1e-12)


# -- S and T --------------------------------------------------------------------------


def _ratio_T(p, q):
    """Oracle: T(p, q) = (2q+1)!! (2p+2q-1)!! pi / (q! (p+q)! 2^(p+2q+1)), in log space.

    Equals S(2p, 2q+1); strictly decreasing in p, strictly increasing in q,
    with T(1, q) -> 1 as q -> infinity.
    """
    assert p >= 1 and q >= 1
    # (2n+1)!! = (2n+2)! / (2^(n+1) (n+1)!),  (2n-1)!! = (2n)! / (2^n n!)
    log_df1 = math.lgamma(2 * q + 3) - (q + 1) * math.log(2) - math.lgamma(q + 2)
    log_df2 = math.lgamma(2 * (p + q) + 1) - (p + q) * math.log(2) - math.lgamma(p + q + 1)
    log_t = (
        log_df1
        + log_df2
        + math.log(math.pi)
        - math.lgamma(q + 1)
        - math.lgamma(p + q + 1)
        - (p + 2 * q + 1) * math.log(2)
    )
    return math.exp(log_t)


def _telescoping_S_odd(m1, m2):
    """Oracle: S(m1, m2) for odd m1 = 2p+1 as the exact telescoping product.

    prod_{i=0}^{p-1} ((m2+1)/2 + i) / ((m2+2)/2 + i); equals 1 when p = 0.
    """
    assert m1 % 2 == 1
    num = Fraction(1)
    for i in range((m1 - 1) // 2):
        num *= (Fraction(m2 + 1, 2) + i) / (Fraction(m2 + 2, 2) + i)
    return num


def test_S_literal_value_2_2():
    s = certs.gamma_ratio_S(pair_g4(2, 2))
    assert math.isclose(s.value, 8 / (3 * math.pi), rel_tol=1e-15)
    assert _oracle_S(2, 2) == PiRational(Fraction(8, 3), -2)


def test_S_odd_m1_telescoping():
    for m1, m2 in [(3, 4), (5, 2), (7, 8), (9, 6)]:
        tel = _telescoping_S_odd(m1, m2)
        s = certs.gamma_ratio_S(pair_g4(m1, m2))
        assert _oracle_S(m1, m2) == PiRational(tel, 0)
        assert abs(Fraction(s.value) - tel) <= Fraction(s.error_bound)
        assert tel < 1


def test_S_below_one_for_admissible():
    for pair in admissible_pairs(64):
        if min(pair.m1, pair.m2) >= 2:
            assert certs.gamma_ratio_S(pair).value < 1.0


def test_S_equals_T_case3():
    s = certs.gamma_ratio_S(pair_g4(4, 5))
    assert math.isclose(s.value, _ratio_T(2, 2), rel_tol=1e-14)
    assert math.isclose(s.value, 0.8053399136399616, rel_tol=1e-14)  # frozen from exact form


def test_T_monotonicity_grid():
    for q in range(1, 31):
        vals = [_ratio_T(p, q) for p in range(1, 31)]
        assert all(a > b for a, b in zip(vals, vals[1:]))  # strictly decreasing in p
    for p in range(1, 31):
        vals = [_ratio_T(p, q) for q in range(1, 31)]
        assert all(a < b for a, b in zip(vals, vals[1:]))  # strictly increasing in q


def test_T_limit_toward_one():
    t = _ratio_T(1, 200)
    assert 0.995 < t < 1.0


def test_T_matches_S_cross_check():
    checked = 0
    for p in range(1, 6):
        for q in range(1, 5):
            m1, m2 = 2 * p, 2 * q + 1
            if m1 % 2 == 0 and m2 % 2 == 0:
                continue
            s = certs.gamma_ratio_S(pair_g4(m1, m2)).value
            assert math.isclose(s, _ratio_T(p, q), rel_tol=1e-12)
            checked += 1
    assert checked == 20


# -- A ---------------------------------------------------------------------------------


def test_A_exact_integer_route_2_2():
    a = certs.threshold_A(pair_g4(2, 2))
    assert 2 * (2 + 2) ** 3 == 128 and (4 + 4 + 2 + 1) ** 2 == 121
    assert a.at_least_two
    assert math.isclose(a.value, 2.1338834764831844, rel_tol=1e-14)


def test_A_value_4_5():
    a = certs.threshold_A(pair_g4(4, 5))
    assert math.isclose(a.value, 2.90892665416655, rel_tol=1e-12)
    # float from the exact surd with sin^2 theta1 = (3 - sqrt 5)/6
    n = 18
    sin2 = (3 - math.sqrt(5)) / 6
    oracle = (n + 2) / n / sin2 * (4 - 1) / 9
    assert math.isclose(a.value, oracle, rel_tol=1e-13)


def test_A_sufficient_inequalities():
    for m1 in range(2, 51):
        assert 3 * m1 >= 2 * m1 + 2
        assert 3 * m1 * m1 >= m1 * m1 + 2 * m1 + 3
        assert m1**3 >= 2 * m1 + 3
    # and indeed A >= 2 across the catalog
    for pair in admissible_pairs(64):
        if min(pair.m1, pair.m2) >= 2:
            assert certs.threshold_A(pair).at_least_two


# -- hypersurface certificates -----------------------------------------------------------


def test_certify_2_2():
    cert = certs.certify_hypersurface(pair_g4(2, 2))
    assert cert.status == "pass"
    assert math.isclose(1 + cert.S.value, 1.8488263631567752, rel_tol=1e-13)
    assert 1 + cert.S.value < cert.A.value
    assert all(cert.verdicts.values())
    assert cert.verdicts == cert.exact_verdicts


def test_certify_precondition_guard():
    with pytest.raises(UnsupportedCaseError):
        certs.certify_hypersurface(pair_g4(1, 6))
    with pytest.raises(UnsupportedCaseError):
        certs.certify_hypersurface(pair_g4(1, 1))


def test_certify_margins_exceed_errors():
    for pair in [pair_g4(2, 2), pair_g4(4, 5), pair_g4(2, 9)]:
        cert = certs.certify_hypersurface(pair)
        assert cert.status == "pass"
        bound_err = (cert.n + 2) / cert.n * cert.G.error_bound
        for a, k in zip((1, 2, 3, 4), cert.K):
            assert cert.margins[f"K{a}"] > k.error_bound + bound_err


def test_certify_batch_small():
    # sums above about 250 put G below 1e-13, where only a relative quadrature
    # tolerance keeps the K2/K3 error bounds below the margins; m2 = 1025 is past
    # the float range of 2^m2; the last two are the families (2, 2k-1) and
    # (4, 4k-1) far beyond the reach of exact factorials
    pairs = [p for p in admissible_pairs(512) if min(p.m1, p.m2) >= 2]
    pairs += [pair_g4(2, 1025), pair_g4(2, 1000001), pair_g4(4, 399999)]
    for pair in pairs:
        cert = certs.certify_hypersurface(pair)
        assert cert.status == "pass", (pair.m1, pair.m2)
        assert cert.verdicts == cert.exact_verdicts, (pair.m1, pair.m2)


# the family (2, 2k-1) where S's margin, about 1/(4 m2), falls below the error of
# lgamma's values near 1e8
LARGE_M2 = (4000001, 8000001, 16000001)


def test_float_route_decides_large_m2():
    for m2 in LARGE_M2:
        cert = certs.certify_hypersurface(pair_g4(2, m2))
        assert cert.status == "pass", m2
        assert cert.verdicts == cert.exact_verdicts, m2


def _mp_log_gamma_ratio(num, den):
    return mpmath.fsum(mpmath.loggamma(mpmath.mpf(x) / 2) for x in num) - mpmath.fsum(
        mpmath.loggamma(mpmath.mpf(x) / 2) for x in den)


def test_S_within_its_bound_of_mpmath():
    pairs = [p for p in admissible_pairs(1100) if min(p.m1, p.m2) >= 2][::7]
    pairs += [pair_g4(2, m2) for m2 in LARGE_M2]
    with mpmath.workdps(40):
        for pair in pairs:
            m2, s = pair.m2, pair.m1 + pair.m2
            got = certs.gamma_ratio_S(pair)
            ref = mpmath.exp(_mp_log_gamma_ratio((m2 + 2, s), (m2 + 1, s + 1)))
            assert abs(got.value - ref) <= got.error_bound, (pair.m1, m2)
            assert got.error_bound < 1e-12 * got.value, (pair.m1, m2)


def test_closed_forms_at_large_m2_within_their_bounds_of_mpmath():
    # G, K_1 and K_4 there take Gamma(a+b) / Gamma(b) in half steps of h
    with mpmath.workdps(40):
        for m1, m2 in [(2, m) for m in LARGE_M2] + [(3, 8000001), (5, 16000001)]:
            s = m1 + m2
            sin2 = [mpmath.mpf(m) / (2 * (s + mpmath.sqrt(mpmath.mpf(s * (s - m))))) for m in (m1, m2)]
            refs = [
                mpmath.exp(_mp_log_gamma_ratio((m1 + 1, m2 + 1), (s + 2,))) / 2,
                *(k * (mpmath.exp(_mp_log_gamma_ratio((a - 1, b + 1), (s,)))
                       + mpmath.exp(_mp_log_gamma_ratio((a - 1, b + 2), (s + 1,)))) / 2
                  for k, (a, b) in zip(sin2, ((m1, m2), (m2, m1)))),
            ]
            pair = pair_g4(m1, m2)
            values = certs.integral_G(pair), certs.integral_K(pair, 1), certs.integral_K(pair, 4)
            for got, ref in zip(values, refs):
                assert abs(got.value - ref) <= got.error_bound, (m1, m2)
                assert got.error_bound < 1e-12 * got.value, (m1, m2)


def test_certify_integrates_each_quantity_once(monkeypatch):
    calls = []
    real_quad = certs.quad

    def counting_quad(*args, **kwargs):
        calls.append(args[0])
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(certs, "quad", counting_quad)
    assert certs.certify_hypersurface(pair_g4(4, 5)).status == "pass"
    assert len(calls) == 5  # G and K_1..K_4


def test_certificates_serialization():
    import csv
    import io
    import json

    batch = [certs.certify_hypersurface(pair_g4(2, 2)), certs.certify_hypersurface(pair_g4(4, 5))]
    data = json.loads(certs.certificates_json(batch))
    assert data["schema_version"] == 2
    assert len(data["certificates"]) == 2
    assert data["certificates"][0]["status"] == "pass"
    routes = data["certificates"][0]["precision"]["routes"]
    assert set(routes) == set(batch[0].exact_verdicts)
    text = certs.certificates_csv(batch)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][:4] == ["m1", "m2", "n", "K1"]
    assert len(rows) == 3


# -- focal certificates --------------------------------------------------------------------


def test_focal_4_5_M1():
    cert = certs.certify_focal(pair_g4(4, 5), "M1")
    assert cert.dim == 14
    assert cert.bound == Fraction(2 * 20 * 4, 9) == Fraction(160, 9)
    assert cert.strict_inequality and cert.condition_met
    assert cert.status == "covered" and cert.lambda1 == 14 and cert.multiplicity == 20


def test_focal_4_5_M2():
    cert = certs.certify_focal(pair_g4(4, 5), "M2")
    assert cert.dim == 13
    assert cert.condition_met  # 2*4 >= 5 + 3
    assert cert.status == "covered" and cert.lambda1 == 13


def test_focal_7_8_both():
    for which, dim in [("M1", 23), ("M2", 22)]:
        cert = certs.certify_focal(pair_g4(7, 8), which)
        assert cert.status == "covered" and cert.lambda1 == dim


def test_focal_1_1_not_covered():
    cert = certs.certify_focal(pair_g4(1, 1), "M1")
    assert not cert.condition_met
    assert cert.status == "not-covered" and cert.lambda1 is None


def test_focal_equivalence_exact_on_grid():
    for m1 in range(1, 20):
        for m2 in range(1, 20):
            try:
                pair = pair_g4(m1, m2)
            except Exception:
                continue
            for which in ("M1", "M2"):
                cert = certs.certify_focal(pair, which)
                assert cert.equivalence_check, (m1, m2, which)
                # condition and strict inequality coincide over the integers
                assert cert.condition_met == cert.strict_inequality


def test_focal_solomon_upper_attached():
    cert = certs.certify_focal(pair_g4(1, 2), "M2")  # (1,2) is Clifford type (delta(1)=1)
    assert cert.solomon_upper == 4
    cert = certs.certify_focal(pair_g4(2, 1), "M1")  # M1 of (2,1) == M2 of (1,2)
    assert cert.solomon_upper == 4


# -- Solomon comparison ----------------------------------------------------------------------


def test_solomon_classifications():
    rep = certs.solomon_comparison(2, 9)
    assert rep.solomon_upper == 8 and rep.dim_M2 == 13
    assert rep.classification == "strictly-less"
    assert certs.solomon_comparison(4, 7).classification == "undetermined"
    assert certs.solomon_comparison(8, 15).classification == "undetermined"
    assert certs.solomon_comparison(4, 3).classification == "certified-equal"


def test_solomon_quotient_resolution():
    for k in (1, 2, 6):
        rep = certs.solomon_comparison(1, k)
        assert rep.prop_quotient_lambda1 == min(4, 2 + k)
    assert certs.solomon_comparison(2, 3).prop_quotient_lambda1 is None


def test_solomon_rejects_non_clifford():
    with pytest.raises(UnsupportedCaseError):
        certs.solomon_comparison(2, 2)


def test_solomon_undetermined_is_the_seven():
    seven = [(1, 1), (1, 2), (2, 3), (3, 4), (4, 7), (5, 10), (8, 15)]
    assert certs.solomon_undetermined(64) == seven
    # no further undetermined pairs appear in a much wider sweep
    assert certs.solomon_undetermined(200) == seven
