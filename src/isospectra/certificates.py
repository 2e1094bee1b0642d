"""High-precision verification of the first-eigenvalue inequality chain.

For a g=4 pair (m1, m2) with minimal angle theta_1 and n = 2(m1+m2), the
quantities in play are

    G       = int_0^{pi/2} sin^m1(x) cos^m2(x) dx = B((m1+1)/2, (m2+1)/2) / 2
    K_alpha = sin^2(theta_alpha) *
              int_0^{pi/4} sin^m1(2x) cos^m2(2x) / sin^2((alpha-1)pi/4 + x) dx
    S       = Gamma((m2+2)/2) Gamma((m1+m2)/2) /
              (Gamma((m2+1)/2) Gamma((m1+m2+1)/2))
    A       = ((n+2)/n) * ((m1-1)/(m1+m2)) / sin^2(theta_1)

and the chain to verify is K_alpha < (n+2) G / n for every alpha, which for
alpha = 1 is equivalent to 1 + S < A (alpha = 4 is the mirror image with the
multiplicities swapped).  When min(m1, m2) >= 2, S < 1 and A >= 2, so the
chain holds; certificates decide every verdict twice (float quadrature path and
exact surd/rational/pi path) and refuse to report a verdict whose margin is
smaller than the numerical error bound.  Each quantity (G, K_1..K_4, S and A
of the pair and of its mirror) is computed once per certificate and both
paths read it from there.  The quadrature tolerance is relative only, so the
error bounds scale with G and K_alpha however small they get.

Every Gamma/Beta argument that occurs is a half-integer, so the exact path is
pure rational arithmetic times powers of pi and sqrt(m2(m1+m2)); sign
decisions on such sums are exact (see ``exact.sign_of_terms``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO

from scipy.integrate import quad

from .catalog import (
    MultiplicityPair,
    clifford_pairs,
    delta,
    focal_dimensions,
    hypersurface_dimension,
    is_ot_fkm,
    minimal_angle,
    sin2_theta1_triplet,
)
from .errors import DivergenceError, UnsupportedCaseError
from .exact import PiRational, Surd, beta_half, gamma_half, sign_of_terms

SCHEMA_VERSION = 1

# float values derived from exact closed forms are correct to a few ulp
_EXACT_FLOAT_REL_ERR = 5e-15
_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-12, limit=200)


# -- special functions ---------------------------------------------------------


@dataclass(frozen=True)
class SValue:
    """The Gamma ratio S(m1, m2), float plus exact rational*pi^e form."""

    value: float
    exact: PiRational

    @property
    def pi_power(self) -> int:
        return self.exact.half_pi // 2


def gamma_ratio_S(pair: MultiplicityPair) -> SValue:
    """S = Gamma((m2+2)/2) Gamma((m1+m2)/2) / (Gamma((m2+1)/2) Gamma((m1+m2+1)/2))."""
    m1, m2 = pair.m1, pair.m2
    exact = (
        gamma_half(m2 + 2) * gamma_half(m1 + m2)
        / (gamma_half(m2 + 1) * gamma_half(m1 + m2 + 1))
    )
    if exact.half_pi % 2 != 0:
        raise AssertionError("S has a stray half power of pi")
    return SValue(float(exact), exact)


@dataclass(frozen=True)
class AValue:
    """Threshold coefficient A with exact surd form and the integer test of A >= 2."""

    value: float
    exact: Surd
    at_least_two: bool


def threshold_A(pair: MultiplicityPair) -> AValue:
    """A = ((n+2)/n) ((m1-1)/(m1+m2)) / sin^2(theta_1), exactly.

    With s = m1+m2: A = 2 (s+1)(m1-1)(s + sqrt(s m2)) / (s^2 m1).  The
    verdict A >= 2 is equivalent to the integer inequality
    m2 s^3 >= (m2 s + m2 + 1)^2, which is what is actually tested.
    """
    if pair.g != 4:
        raise UnsupportedCaseError("threshold A is defined for g=4 pairs")
    m1, m2 = pair.m1, pair.m2
    s = m1 + m2
    coef = Fraction(2 * (s + 1) * (m1 - 1), s * s * m1)
    exact = Surd(coef * s, coef, s * m2)
    integer_verdict = m2 * s**3 >= (m2 * s + m2 + 1) ** 2
    if integer_verdict != ((exact - 2).sign() >= 0):
        raise AssertionError("surd and integer routes disagree on A >= 2")
    return AValue(float(exact), exact, integer_verdict)


# -- the integrals G and K_alpha -------------------------------------------------


@dataclass(frozen=True)
class IntegralValue:
    """A certified integral: authoritative value, error bound, both routes."""

    value: float
    error_bound: float
    quadrature: float
    quadrature_error: float
    exact_terms: tuple | None = None  # ((Fraction, radicand, pi_power), ...)

    @property
    def dual_agreement(self) -> float:
        """Relative difference between the closed-form and quadrature routes."""
        scale = max(abs(self.value), abs(self.quadrature), 1e-300)
        return abs(self.value - self.quadrature) / scale


def _terms_float(terms) -> float:
    return sum(float(c) * math.sqrt(d) * math.pi**p for c, d, p in terms)


def integral_G(pair: MultiplicityPair) -> IntegralValue:
    """G = int_0^{pi/2} sin^m1 x cos^m2 x dx, closed form B((m1+1)/2,(m2+1)/2)/2."""
    m1, m2 = pair.m1, pair.m2
    exact = beta_half(m1 + 1, m2 + 1) / 2
    if exact.half_pi % 2 != 0:
        raise AssertionError("G has a stray half power of pi")
    qval, qerr = quad(lambda x: math.sin(x) ** m1 * math.cos(x) ** m2, 0.0, math.pi / 2, **_QUAD_OPTS)
    value = float(exact)
    terms = ((exact.frac, 1, exact.half_pi // 2),)
    return IntegralValue(value, abs(value) * _EXACT_FLOAT_REL_ERR, qval, qerr, terms)


def _sin2_theta_alpha(pair: MultiplicityPair, alpha: int) -> Surd:
    """Exact sin^2(theta_alpha) at the minimal angle, alpha in 1..4.

    cos(2 theta_1) = sqrt(m2/s) and sin(2 theta_1) = sqrt(m1/s) give
    sin^2(theta_alpha) = (1 -+ sqrt(m_i/s))/2 depending on alpha.
    """
    m1, m2 = pair.m1, pair.m2
    s = m1 + m2
    half = Fraction(1, 2)
    c = Fraction(1, 2 * s)
    if alpha == 1:
        return Surd(half, -c, m2 * s)
    if alpha == 2:
        return Surd(half, c, m1 * s)
    if alpha == 3:
        return Surd(half, c, m2 * s)
    if alpha == 4:
        return Surd(half, -c, m1 * s)
    raise ValueError(f"alpha must be in 1..4, got {alpha}")


def _k_end_exact(m_in: int, m_out: int, sin2: Surd) -> tuple:
    """Exact terms for the alpha in {1, 4} integrals.

    sin^2(theta) * [B((a-1)/2, (b+1)/2) + B((a-1)/2, (b+2)/2)] / 2 with
    (a, b) = (m1, m2) for alpha = 1 and (m2, m1) for alpha = 4.
    """
    bracket = [beta_half(m_in - 1, m_out + 1), beta_half(m_in - 1, m_out + 2)]
    terms = []
    for b in bracket:
        if b.half_pi % 2 != 0:
            raise AssertionError("K bracket has a stray half power of pi")
        pi_pow = b.half_pi // 2
        terms.append((sin2.rational * b.frac / 2, 1, pi_pow))
        if sin2.coef:
            terms.append((sin2.coef * b.frac / 2, sin2.radicand, pi_pow))
    return tuple(terms)


def integral_K(pair: MultiplicityPair, alpha: int) -> IntegralValue:
    """K_alpha at the minimal angle, quadrature plus closed form where it exists.

    The alpha = 1 integrand sin^m1(2x) cos^m2(2x) / sin^2(x) is rewritten as
    4 cos^2(x) sin^(m1-2)(2x) cos^m2(2x), smooth for m1 >= 2 and free of any
    2^m1 factor that would overflow (alpha = 4 mirrors with m1 <-> m2);
    m1 = 1 (resp. m2 = 1) diverges.
    """
    m1, m2 = pair.m1, pair.m2
    if alpha not in (1, 2, 3, 4):
        raise ValueError(f"alpha must be in 1..4, got {alpha}")
    if alpha == 1 and m1 < 2:
        raise DivergenceError("K_1 diverges for m1 = 1 (endpoint pole of order >= 1)")
    if alpha == 4 and m2 < 2:
        raise DivergenceError("K_4 diverges for m2 = 1 (endpoint pole of order >= 1)")
    sin2 = _sin2_theta_alpha(pair, alpha)
    sin2_f = float(sin2)

    if alpha == 1:
        integrand = lambda x: 4.0 * math.cos(x) ** 2 * math.sin(2 * x) ** (m1 - 2) * math.cos(2 * x) ** m2
    elif alpha == 4:
        integrand = lambda x: 4.0 * math.cos(x) ** 2 * math.sin(2 * x) ** (m2 - 2) * math.cos(2 * x) ** m1
    else:
        shift = (alpha - 1) * math.pi / 4.0
        integrand = lambda x: (
            math.sin(2 * x) ** m1 * math.cos(2 * x) ** m2 / math.sin(shift + x) ** 2
        )
    qraw, qerr = quad(integrand, 0.0, math.pi / 4, **_QUAD_OPTS)
    qval = sin2_f * qraw
    qerr = sin2_f * qerr + abs(qval) * 1e-13

    if alpha in (1, 4):
        terms = _k_end_exact(m1, m2, sin2) if alpha == 1 else _k_end_exact(m2, m1, sin2)
        value = _terms_float(terms)
        return IntegralValue(value, abs(value) * _EXACT_FLOAT_REL_ERR, qval, qerr, terms)
    return IntegralValue(qval, qerr, qval, qerr, None)


# -- hypersurface certificates ----------------------------------------------------


@dataclass(frozen=True)
class HypersurfaceCertificate:
    """All quantities and verdicts for lambda_1(M^n) = n via the inequality chain."""

    pair: MultiplicityPair
    n: int
    theta1: float
    sin2_theta1: dict
    K: tuple[IntegralValue, ...]
    G: IntegralValue
    S: SValue
    A: AValue
    ratios: tuple[float, ...]  # K_alpha * n / ((n+2) G)
    margins: dict
    verdicts: dict
    exact_verdicts: dict
    status: str  # pass | fail | inconclusive
    precision: dict

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "m1": self.pair.m1,
            "m2": self.pair.m2,
            "n": self.n,
            "theta1": self.theta1,
            "sin2_theta1": self.sin2_theta1,
            "K": [
                {"value": k.value, "error_bound": k.error_bound, "quadrature": k.quadrature,
                 "dual_agreement": k.dual_agreement}
                for k in self.K
            ],
            "G": {"value": self.G.value, "error_bound": self.G.error_bound,
                  "quadrature": self.G.quadrature, "dual_agreement": self.G.dual_agreement},
            "S": self.S.value,
            "A": self.A.value,
            "ratios": list(self.ratios),
            "margins": self.margins,
            "verdicts": self.verdicts,
            "exact_verdicts": self.exact_verdicts,
            "status": self.status,
            "precision": self.precision,
        }


def _exact_k1_verdict(s_val: SValue, a_val: AValue) -> bool:
    """K_1 < (n+2)G/n decided exactly via the equivalent 1 + S < A.

    S and A of the swapped pair decide K_4 instead.
    """
    terms = [
        (a_val.exact.rational - 1, 1, 0),
        (a_val.exact.coef, a_val.exact.radicand, 0),
        (-s_val.exact.frac, 1, s_val.pi_power),
    ]
    return sign_of_terms(terms) > 0


def _exact_k_direct(n: int, g_val: IntegralValue, k_val: IntegralValue) -> bool:
    """(n+2)G/n - K_alpha > 0 decided exactly from the closed forms (alpha in {1,4})."""
    factor = Fraction(n + 2, n)
    terms = [(factor * c, d, p) for c, d, p in g_val.exact_terms]
    terms.extend((-c, d, p) for c, d, p in k_val.exact_terms)
    return sign_of_terms(terms) > 0


def certify_hypersurface(pair: MultiplicityPair) -> HypersurfaceCertificate:
    """Certify the full inequality chain for a g=4 pair with min(m1, m2) >= 2.

    Verdicts (each computed on a float path with error bounds and on an exact
    path, which must agree):

    * K_alpha < (n+2) G / n for alpha = 1..4;
    * S < 1, A >= 2, and 1 + S < A.

    A margin smaller than its error bound yields status ``inconclusive``
    rather than a silent pass.
    """
    if pair.g != 4:
        raise UnsupportedCaseError(f"certificates cover g=4 only, got g={pair.g}")
    if min(pair.m1, pair.m2) < 2:
        raise UnsupportedCaseError(
            f"({pair.m1}, {pair.m2}): min multiplicity 1 is the homogeneous case, "
            "settled by known facts rather than this certificate"
        )
    n = hypersurface_dimension(pair)
    angle = minimal_angle(pair)
    g_val = integral_G(pair)
    k_vals = tuple(integral_K(pair, a) for a in (1, 2, 3, 4))
    s_val = gamma_ratio_S(pair)
    a_val = threshold_A(pair)
    mirror = pair.swapped()
    s_mirror = gamma_ratio_S(mirror)
    a_mirror = threshold_A(mirror)

    bound = (n + 2) / n * g_val.value
    bound_err = (n + 2) / n * g_val.error_bound
    ratios = tuple(k.value * n / ((n + 2) * g_val.value) for k in k_vals)

    margins: dict = {}
    verdicts: dict = {}
    inconclusive = []
    for a, k in zip((1, 2, 3, 4), k_vals):
        margin = bound - k.value
        err = bound_err + k.error_bound
        margins[f"K{a}"] = margin
        verdicts[f"K{a}"] = bool(margin > 0)
        if abs(margin) <= err:
            inconclusive.append(f"K{a}")
    margins["S_lt_1"] = 1.0 - s_val.value
    verdicts["S_lt_1"] = bool(s_val.value < 1.0)
    margins["A_ge_2"] = a_val.value - 2.0
    verdicts["A_ge_2"] = a_val.at_least_two
    margins["one_plus_S_lt_A"] = a_val.value - 1.0 - s_val.value
    verdicts["one_plus_S_lt_A"] = bool(1.0 + s_val.value < a_val.value)
    scalar_err = _EXACT_FLOAT_REL_ERR * (abs(s_val.value) + abs(a_val.value) + 1.0)
    for key in ("S_lt_1", "A_ge_2", "one_plus_S_lt_A"):
        if abs(margins[key]) <= scalar_err:
            inconclusive.append(key)

    one_plus_s_lt_a = _exact_k1_verdict(s_val, a_val)
    exact_verdicts = {
        "K1": one_plus_s_lt_a and _exact_k_direct(n, g_val, k_vals[0]),
        "K2": (1 - _sin2_theta_alpha(pair, 2)).sign() > 0,
        "K3": (1 - _sin2_theta_alpha(pair, 3)).sign() > 0,
        "K4": _exact_k1_verdict(s_mirror, a_mirror) and _exact_k_direct(n, g_val, k_vals[3]),
        "S_lt_1": sign_of_terms([(1, 1, 0), (-s_val.exact.frac, 1, s_val.pi_power)]) > 0,
        "A_ge_2": a_val.at_least_two,
        "one_plus_S_lt_A": one_plus_s_lt_a,
    }

    if any(verdicts[k] != exact_verdicts[k] for k in verdicts):
        status = "inconclusive"
    elif inconclusive:
        status = "inconclusive"
    elif all(verdicts.values()):
        status = "pass"
    else:
        status = "fail"

    return HypersurfaceCertificate(
        pair=pair,
        n=n,
        theta1=angle.theta,
        sin2_theta1=sin2_theta1_triplet(pair),
        K=k_vals,
        G=g_val,
        S=s_val,
        A=a_val,
        ratios=ratios,
        margins=margins,
        verdicts=verdicts,
        exact_verdicts=exact_verdicts,
        status=status,
        precision={
            "float_significant_digits": 17,
            "quad_epsabs": _QUAD_OPTS["epsabs"],
            "quad_epsrel": _QUAD_OPTS["epsrel"],
            "exact_route": "rational/surd arithmetic with adaptive-precision pi intervals",
        },
    )


# -- focal certificates -------------------------------------------------------------


@dataclass(frozen=True)
class FocalCertificate:
    """Verdict for lambda_1(M_i) = dim M_i on a focal submanifold, exact arithmetic."""

    pair: MultiplicityPair
    which: str  # "M1" | "M2"
    dim: int
    n: int
    bound: Fraction  # dim must be strictly below this
    strict_inequality: bool
    condition_met: bool  # 2*m_other >= m_this + 3, the dimension-range hypothesis
    equivalence_check: bool  # condition <=> 3 dim >= 2n+3, verified exactly
    solomon_upper: int | None
    lambda1: int | None
    multiplicity: int | None
    status: str  # covered | not-covered

    def to_dict(self) -> dict:
        return {
            "m1": self.pair.m1,
            "m2": self.pair.m2,
            "which": self.which,
            "dim": self.dim,
            "n": self.n,
            "bound": [self.bound.numerator, self.bound.denominator],
            "strict_inequality": self.strict_inequality,
            "condition_met": self.condition_met,
            "equivalence_check": self.equivalence_check,
            "solomon_upper": self.solomon_upper,
            "lambda1": self.lambda1,
            "multiplicity": self.multiplicity,
            "status": self.status,
        }


def certify_focal(pair: MultiplicityPair, which: str) -> FocalCertificate:
    """Certify lambda_1(M_i) = dim M_i when the dimension-range condition holds.

    For M1: dim M1 = m1 + 2 m2 must lie strictly below 2(n+2)(m2-1)/(m1+m2);
    the sufficient condition m2 >= (m1+3)/2 is exactly equivalent (in
    integers) both to that strict inequality and to dim M1 >= (2/3) n + 1.
    M2 swaps the roles of m1 and m2.  All checks in rational arithmetic.
    """
    if pair.g != 4:
        raise UnsupportedCaseError(f"focal certificates cover g=4 only, got g={pair.g}")
    if which not in ("M1", "M2"):
        raise ValueError(f"which must be 'M1' or 'M2', got {which!r}")
    m1, m2 = pair.m1, pair.m2
    n = hypersurface_dimension(pair)
    s = m1 + m2
    dim1, dim2 = focal_dimensions(pair)
    if which == "M1":
        dim, m_this, m_other = dim1, m1, m2
    else:
        dim, m_this, m_other = dim2, m2, m1
    bound = Fraction(2 * (n + 2) * (m_other - 1), s)
    strict = Fraction(dim) < bound
    condition = 2 * m_other >= m_this + 3
    equivalence = (3 * dim >= 2 * n + 3) == condition
    solomon = None
    if which == "M2" and is_ot_fkm(m1, m2):
        solomon = 4 * m1
    elif which == "M1" and is_ot_fkm(m2, m1):
        solomon = 4 * m2  # M1 here is M2 of the congruent (m2, m1) family
    covered = strict and condition
    return FocalCertificate(
        pair=pair,
        which=which,
        dim=dim,
        n=n,
        bound=bound,
        strict_inequality=strict,
        condition_met=condition,
        equivalence_check=equivalence,
        solomon_upper=solomon,
        lambda1=dim if covered else None,
        multiplicity=n + 2 if covered else None,
        status="covered" if covered else "not-covered",
    )


# -- Solomon comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class SolomonReport:
    """4*m1 (an eigenvalue upper bound on M2) against dim M2 = 2 m1 + m2."""

    m1: int
    m2: int
    solomon_upper: int
    dim_M2: int
    classification: str  # certified-equal | strictly-less | undetermined
    prop_quotient_lambda1: int | None  # min(4, 2+k) when m1 = 1

    def to_dict(self) -> dict:
        return {
            "m1": self.m1,
            "m2": self.m2,
            "solomon_upper": self.solomon_upper,
            "dim_M2": self.dim_M2,
            "classification": self.classification,
            "prop_quotient_lambda1": self.prop_quotient_lambda1,
        }


def solomon_comparison(m1: int, m2: int) -> SolomonReport:
    """Classify lambda_1(M2) for the Clifford family (m1, m2).

    * ``certified-equal``: 2 m1 >= m2 + 3, so lambda_1 = dim M2;
    * ``strictly-less``: 2 m1 < m2 (stable range), lambda_1 <= 4 m1 < dim M2;
    * ``undetermined``: the boundary band m2 <= 2 m1 <= m2 + 2.

    For m1 = 1 the quotient identification settles the value regardless:
    lambda_1 = min(4, 2 + m2).
    """
    if not is_ot_fkm(m1, m2):
        raise UnsupportedCaseError(
            f"({m1}, {m2}) is not of Clifford type in this orientation "
            f"(delta({m1}) = {delta(m1)})"
        )
    dim_m2 = 2 * m1 + m2
    if 2 * m1 >= m2 + 3:
        cls = "certified-equal"
    elif 2 * m1 < m2:
        cls = "strictly-less"
    else:
        cls = "undetermined"
    quotient = min(4, 2 + m2) if m1 == 1 else None
    return SolomonReport(m1, m2, 4 * m1, dim_m2, cls, quotient)


def solomon_undetermined(max_sum: int) -> list[tuple[int, int]]:
    """The Clifford pairs whose M2 classification is left undetermined."""
    return [
        (a, b)
        for a, b in clifford_pairs(max_sum)
        if solomon_comparison(a, b).classification == "undetermined"
    ]


# -- batch output -----------------------------------------------------------------------


def certificates_json(certs) -> str:
    return json.dumps(
        {"schema_version": SCHEMA_VERSION, "certificates": [c.to_dict() for c in certs]},
        indent=2,
    )


def certificates_csv(certs) -> str:
    out = StringIO()
    cols = ["m1", "m2", "n", "K1", "K2", "K3", "K4", "G", "S", "A", "verdicts", "status"]
    out.write(",".join(cols) + "\n")
    for c in certs:
        verdict_str = ";".join(f"{k}={int(v)}" for k, v in sorted(c.verdicts.items()))
        row = [
            str(c.pair.m1),
            str(c.pair.m2),
            str(c.n),
            *(format(k.value, ".17g") for k in c.K),
            format(c.G.value, ".17g"),
            format(c.S.value, ".17g"),
            format(c.A.value, ".17g"),
            verdict_str,
            c.status,
        ]
        out.write(",".join(row) + "\n")
    return out.getvalue()
