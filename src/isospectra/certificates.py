"""Verification of the first-eigenvalue inequality chain for g=4 pairs.

For a g=4 pair (m1, m2) with minimal angle theta_1, s = m1+m2 and n = 2s,
the quantities in play are

    G       = int_0^{pi/2} sin^m1(x) cos^m2(x) dx = B((m1+1)/2, (m2+1)/2) / 2
    K_alpha = sin^2(theta_alpha) *
              int_0^{pi/4} sin^m1(2x) cos^m2(2x) / sin^2((alpha-1)pi/4 + x) dx
    S       = Gamma((m2+2)/2) Gamma(s/2) / (Gamma((m2+1)/2) Gamma((s+1)/2))
    A       = ((n+2)/n) * ((m1-1)/s) / sin^2(theta_1)

and the chain to verify is K_alpha < (n+2) G / n for every alpha, which for
alpha = 1 is equivalent to 1 + S < A (alpha = 4 is the mirror image with the
multiplicities swapped).  For alpha = 2, 3 the denominator is at least 1/2,
so K_alpha <= sin^2(theta_alpha) G < G.

Each verdict is decided twice.  The exact route uses integer inequalities
only, O(1) work at any size:

* S < 1 from Wendel's inequality x/sqrt(x+1/2) <= Gamma(x+1/2)/Gamma(x) <=
  sqrt(x) (Amer. Math. Monthly 55 (1948) 563-564), which gives
  S^2 <= (m2+1)(s+1)/s^2, below 1 exactly when (m2+1)(s+1) < s^2;
* A >= 2 exactly when m2 s^3 >= (m2 s + m2 + 1)^2;
* K_1 (and 1 + S < A) when both hold, since then 1 + S < 2 <= A; K_4 by the
  same test on the swapped pair; K_2 and K_3 when sin^2(theta_alpha) < 1,
  i.e. m_i < s.

Both integer tests hold for every m1 >= 2 (the differences are
(m1-1)s - m2 - 1 and m2((m1-2)s^2 + (2m1-3)s + m1-2) - 1).  The float route
evaluates G, K_1 and K_4 from Beta closed forms, S as
exp(h((m2+1)/2) - h(s/2)) with h(x) = log Gamma(x+1/2) - log Gamma(x), A
from a square root, and K_2, K_3 by quadrature; it must agree with the exact
route and refuses a verdict whose margin is within its error bound.  The
error of h stays a few ulp at any x, and a Beta function with a large
argument goes through h too, so no bound grows with m2.  G and K_1..K_4
are also integrated numerically once each (``quad``, adaptive Gauss-Legendre
in numpy), and ``dual_agreement`` reports how far quadrature and closed form
are apart.  The quadrature tolerance is relative only, so its error bounds
scale with G and K_alpha however small they get.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO

import numpy as np

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
# perfbench/tracing.py wraps these by name in this module; no certificate calls them
from .exact import beta_half, gamma_half, sign_of_terms  # noqa: F401

SCHEMA_VERSION = 2

_EPS = sys.float_info.epsilon
_QUAD_OPTS = dict(epsrel=1e-12, limit=200)
# h(x) comes from its asymptotic series from here on, where the omitted term is below 3.5e-14
_SERIES_FROM = 32.0
# a Beta function whose larger argument reaches this goes by half steps (``_beta``)
_STEPS_FROM = 4096.0
# Gauss-Legendre nodes and weights on [-1, 1], a 20-point and a 41-point rule
_GAUSS = tuple(np.polynomial.legendre.leggauss(k) for k in (20, 41))
_NODES = np.concatenate([_GAUSS[0][0], _GAUSS[1][0]])
_CUTS = np.linspace(0.0, 1.0, 9)  # a refined interval is cut into 8

# the integer inequality behind each exact verdict, with s = m1 + m2
_ROUTES = {
    "K1": "(m2+1)(s+1) < s^2 and m2 s^3 >= (m2 s+m2+1)^2, so 1 + S < 2 <= A",
    "K2": "m1 < s, so sin^2(theta_2) < 1",
    "K3": "m2 < s, so sin^2(theta_3) < 1",
    "K4": "(m1+1)(s+1) < s^2 and m1 s^3 >= (m1 s+m1+1)^2 (K1 of the swapped pair)",
    "S_lt_1": "(m2+1)(s+1) < s^2, with Wendel's S^2 <= (m2+1)(s+1)/s^2",
    "A_ge_2": "m2 s^3 >= (m2 s+m2+1)^2",
    "one_plus_S_lt_A": "(m2+1)(s+1) < s^2 and m2 s^3 >= (m2 s+m2+1)^2, so 1 + S < 2 <= A",
}


def _s_below_one(m1: int, m2: int) -> bool:
    s = m1 + m2
    return (m2 + 1) * (s + 1) < s * s


def _a_at_least_two(m1: int, m2: int) -> bool:
    s = m1 + m2
    return m2 * s**3 >= (m2 * s + m2 + 1) ** 2


def _half_step_log_gamma(x: float) -> tuple[float, float]:
    """h(x) = log Gamma(x+1/2) - log Gamma(x) for x > 0, with a bound on its absolute error.

    Below ``_SERIES_FROM`` h is the difference of two ``math.lgamma`` values,
    each good to a few ulp.  From there on it is the asymptotic series
    1/2 log x - 1/(8x) + 1/(192x^3) - 1/(640x^5), whose truncation error lies
    between 0 and the first omitted term 17/(14336x^7); so the bound stays a
    few ulp of h however large x is.
    """
    if x < _SERIES_FROM:
        a, b = math.lgamma(x + 0.5), math.lgamma(x)
        return a - b, 4 * _EPS * (1 + abs(a) + abs(b))
    u = 1.0 / (x * x)
    h = 0.5 * math.log(x) - (1 / 8 - u * (1 / 192 - u / 640)) / x
    return h, 4 * _EPS * (1 + abs(h)) + 17 / (14336 * x**7)


def _exp(y: float, err: float) -> tuple[float, float]:
    """exp(y) of a y within err of the true exponent, and its relative error bound."""
    return math.exp(y), math.expm1(err) + 2 * _EPS


def _beta(a: float, b: float) -> tuple[float, float]:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b) for half-integers a, b > 0, with a relative bound.

    From ``math.lgamma``, good to a few ulp of each log Gamma, the bound is
    4 eps times their sum, which grows like b log b.  Once the larger
    argument b reaches ``_STEPS_FROM``, log Gamma(a+b) - log Gamma(b) is
    taken in 2a half steps instead: since h(x) + h(x+1/2) = log x, they are
    floor(a) logs and, for a half-integer a, one h.
    """
    a, b = sorted((a, b))
    if b < _STEPS_FROM:
        logs = (math.lgamma(a), math.lgamma(b), -math.lgamma(a + b))
        return _exp(math.fsum(logs), 4 * _EPS * (1 + sum(map(abs, logs))))
    logs = [math.lgamma(a)] + [-math.log(b + i) for i in range(int(a))]
    h, err = _half_step_log_gamma(b + int(a)) if a % 1 else (0.0, 0.0)
    return _exp(math.fsum(logs) - h, err + 4 * _EPS * (1 + abs(h) + sum(map(abs, logs))))


# -- quadrature ---------------------------------------------------------------------


def _gauss_pair(func, lo, hi):
    """Each interval's 41-point Gauss-Legendre value and its error estimate.

    The estimate is the distance from the 20-point value, but at least the
    rounding of the 41-point sum, 50 eps times the integral of |f|.
    """
    half, mid = (hi - lo) / 2, (hi + lo) / 2
    f = func(mid[:, None] + half[:, None] * _NODES)
    low = half * (f[:, :20] @ _GAUSS[0][1])
    high = half * (f[:, 20:] @ _GAUSS[1][1])
    rounding = 50 * _EPS * half * (np.abs(f[:, 20:]) @ _GAUSS[1][1])
    return high, np.maximum(np.abs(high - low), rounding)


def quad(func, a, b, epsrel: float, limit: int):
    """Adaptive Gauss-Legendre quadrature of a vectorized integrand over [a, b].

    Returns ``(value, error_estimate)``.  Each interval counts at its 41-point
    value; the distance to its 20-point value estimates its error (generously:
    that is the size of the 20-point error).  While the summed estimate exceeds
    epsrel |value|, every interval above an even share of that tolerance is cut
    into 8, all of them evaluated in one call of ``func``, as long as no more
    than ``limit`` intervals result.  A NaN or infinite estimate raises
    ValueError.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    val, err = _gauss_pair(func, lo, hi)
    while True:
        value, error = float(val.sum()), float(err.sum())
        tol = epsrel * abs(value)
        split = err > tol / len(lo)
        splits = np.count_nonzero(split)
        if error <= tol or len(lo) + (len(_CUTS) - 2) * splits > limit:
            return value, error
        if not splits:
            # no interval is above its share: rounding in the sum, or a NaN
            if math.isfinite(value) and math.isfinite(error):
                return value, error
            raise ValueError(f"quadrature is not finite: value {value}, error estimate {error}")
        edges = lo[split, None] + (hi - lo)[split, None] * _CUTS
        edges[:, -1] = hi[split]
        keep = ~split
        new_val, new_err = _gauss_pair(func, edges[:, :-1].ravel(), edges[:, 1:].ravel())
        lo = np.concatenate([lo[keep], edges[:, :-1].ravel()])
        hi = np.concatenate([hi[keep], edges[:, 1:].ravel()])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


# -- the scalars S and A -----------------------------------------------------------


@dataclass(frozen=True)
class SValue:
    """The Gamma ratio S(m1, m2) with the bound on its float error."""

    value: float
    error_bound: float


def gamma_ratio_S(pair: MultiplicityPair) -> SValue:
    """S = Gamma((m2+2)/2) Gamma((m1+m2)/2) / (Gamma((m2+1)/2) Gamma((m1+m2+1)/2)).

    That is exp(h((m2+1)/2) - h(s/2)) with h from ``_half_step_log_gamma``.
    The bound covers both errors of h, the subtraction and the exp.
    """
    h2, err2 = _half_step_log_gamma((pair.m2 + 1) / 2)
    hs, errs = _half_step_log_gamma((pair.m1 + pair.m2) / 2)
    value, rel = _exp(h2 - hs, err2 + errs + _EPS * abs(h2 - hs))
    return SValue(value, value * rel)


@dataclass(frozen=True)
class AValue:
    """Threshold coefficient A, its float error bound and the integer test of A >= 2."""

    value: float
    error_bound: float
    at_least_two: bool


def threshold_A(pair: MultiplicityPair) -> AValue:
    """A = ((n+2)/n) ((m1-1)/(m1+m2)) / sin^2(theta_1).

    With s = m1+m2: A = 2 (s+1)(m1-1)(s + sqrt(s m2)) / (s^2 m1), a handful of
    correctly rounded operations.  The verdict A >= 2 is the equivalent integer
    inequality m2 s^3 >= (m2 s + m2 + 1)^2.
    """
    if pair.g != 4:
        raise UnsupportedCaseError("threshold A is defined for g=4 pairs")
    m1, m2 = pair.m1, pair.m2
    s = m1 + m2
    value = 2 * (s + 1) * (m1 - 1) * (s + math.sqrt(s * m2)) / (s * s * m1)
    return AValue(value, 4 * _EPS * value, _a_at_least_two(m1, m2))


# -- the integrals G and K_alpha -------------------------------------------------


@dataclass(frozen=True)
class IntegralValue:
    """A certified integral: authoritative value, error bound, and the quadrature."""

    value: float
    error_bound: float
    quadrature: float
    quadrature_error: float

    @property
    def dual_agreement(self) -> float:
        """Relative difference between the closed-form and quadrature routes."""
        scale = max(abs(self.value), abs(self.quadrature), 1e-300)
        return abs(self.value - self.quadrature) / scale


def integral_G(pair: MultiplicityPair) -> IntegralValue:
    """G = int_0^{pi/2} sin^m1 x cos^m2 x dx, closed form B((m1+1)/2,(m2+1)/2)/2."""
    m1, m2 = pair.m1, pair.m2
    beta, rel = _beta((m1 + 1) / 2, (m2 + 1) / 2)
    qval, qerr = quad(lambda x: np.sin(x) ** m1 * np.cos(x) ** m2, 0.0, math.pi / 2, **_QUAD_OPTS)
    return IntegralValue(beta / 2, beta / 2 * rel, qval, qerr)


def _sin2_theta_alpha(pair: MultiplicityPair, alpha: int) -> float:
    """sin^2(theta_alpha) at the minimal angle, alpha in 1..4.

    cos(2 theta_1) = sqrt(m2/s) and sin(2 theta_1) = sqrt(m1/s) give
    sin^2(theta_alpha) = (1 -+ sqrt(m_i/s))/2 depending on alpha; the two
    differences are evaluated as m_i / (2 (s + sqrt(m_j s))), free of
    cancellation however large s gets.
    """
    m1, m2 = pair.m1, pair.m2
    s = m1 + m2
    if alpha == 1:
        return m1 / (2 * (s + math.sqrt(m2 * s)))
    if alpha == 2:
        return (1 + math.sqrt(m1 / s)) / 2
    if alpha == 3:
        return (1 + math.sqrt(m2 / s)) / 2
    if alpha == 4:
        return m2 / (2 * (s + math.sqrt(m1 * s)))
    raise ValueError(f"alpha must be in 1..4, got {alpha}")


def _k_end(m_in: int, m_out: int, sin2: float) -> tuple[float, float]:
    """Closed form of the alpha in {1, 4} integrals, with its error bound.

    sin^2(theta) * [B((a-1)/2, (b+1)/2) + B((a-1)/2, (b+2)/2)] / 2 with
    (a, b) = (m1, m2) for alpha = 1 and (m2, m1) for alpha = 4.
    """
    b1, r1 = _beta((m_in - 1) / 2, (m_out + 1) / 2)
    b2, r2 = _beta((m_in - 1) / 2, (m_out + 2) / 2)
    value = sin2 * (b1 + b2) / 2
    return value, sin2 * (b1 * r1 + b2 * r2) / 2 + 4 * _EPS * value


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

    if alpha == 1:
        integrand = lambda x: 4.0 * np.cos(x) ** 2 * np.sin(2 * x) ** (m1 - 2) * np.cos(2 * x) ** m2
    elif alpha == 4:
        integrand = lambda x: 4.0 * np.cos(x) ** 2 * np.sin(2 * x) ** (m2 - 2) * np.cos(2 * x) ** m1
    else:
        shift = (alpha - 1) * math.pi / 4.0
        integrand = lambda x: np.sin(2 * x) ** m1 * np.cos(2 * x) ** m2 / np.sin(shift + x) ** 2
    qraw, qerr = quad(integrand, 0.0, math.pi / 4, **_QUAD_OPTS)
    qval = sin2 * qraw
    qerr = sin2 * qerr + abs(qval) * 1e-13

    if alpha == 1:
        return IntegralValue(*_k_end(m1, m2, sin2), qval, qerr)
    if alpha == 4:
        return IntegralValue(*_k_end(m2, m1, sin2), qval, qerr)
    return IntegralValue(qval, qerr, qval, qerr)


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


def certify_hypersurface(pair: MultiplicityPair) -> HypersurfaceCertificate:
    """Certify the full inequality chain for a g=4 pair with min(m1, m2) >= 2.

    Verdicts (each computed on a float path with error bounds and on the
    integer path, which must agree):

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
    m1, m2 = pair.m1, pair.m2
    s = m1 + m2
    n = hypersurface_dimension(pair)
    angle = minimal_angle(pair)
    g_val = integral_G(pair)
    k_vals = tuple(integral_K(pair, a) for a in (1, 2, 3, 4))
    s_val = gamma_ratio_S(pair)
    a_val = threshold_A(pair)

    bound = (n + 2) / n * g_val.value
    bound_err = (n + 2) / n * g_val.error_bound
    ratios = tuple(k.value * n / ((n + 2) * g_val.value) for k in k_vals)

    rounding = _EPS * (1.0 + s_val.value + a_val.value)  # of the scalar margins themselves
    checks = [(f"K{a}", bound - k.value, bound_err + k.error_bound) for a, k in zip((1, 2, 3, 4), k_vals)]
    checks += [
        ("S_lt_1", 1.0 - s_val.value, s_val.error_bound + rounding),
        ("A_ge_2", a_val.value - 2.0, a_val.error_bound + rounding),
        ("one_plus_S_lt_A", a_val.value - 1.0 - s_val.value,
         s_val.error_bound + a_val.error_bound + rounding),
    ]
    margins = {key: margin for key, margin, _ in checks}
    verdicts = {key: bool(margin > 0) for key, margin, _ in checks}
    inconclusive = any(abs(margin) <= err for _, margin, err in checks)

    s_lt_1 = _s_below_one(m1, m2)
    one_plus_s_lt_a = s_lt_1 and a_val.at_least_two
    exact_verdicts = {
        "K1": one_plus_s_lt_a,
        "K2": m1 < s,
        "K3": m2 < s,
        "K4": _s_below_one(m2, m1) and _a_at_least_two(m2, m1),
        "S_lt_1": s_lt_1,
        "A_ge_2": a_val.at_least_two,
        "one_plus_S_lt_A": one_plus_s_lt_a,
    }

    if inconclusive or verdicts != exact_verdicts:
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
            "quad_epsrel": _QUAD_OPTS["epsrel"],
            "routes": dict(_ROUTES),
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
