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

Each verdict is decided twice.  The exact route, ``_exact_verdicts`` (its
text is ``_ROUTES``), uses integer inequalities only, O(1) work at any size:

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
are apart; K_2 and K_3 have no closed form yet, so theirs is None (JSON
null).  The quadrature tolerance is relative only, so its error bounds scale
with G and K_alpha however small they get.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .catalog import (
    MultiplicityPair,
    clifford_pairs,
    focal_dimensions,
    hypersurface_dimension,
    is_ot_fkm,
    minimal_angle,
    sin2_theta1_triplet,
)
from .errors import DivergenceError, UnsupportedCaseError
from .exact import _integer
# perfbench/tracing.py wraps these by name in this module; no certificate calls them
from .exact import beta_half, gamma_half, sign_of_terms  # noqa: F401

SCHEMA_VERSION = 2

_EPS = sys.float_info.epsilon
# ``quad``'s relative tolerance and its cap on the number of intervals
_QUAD_EPSREL = 1e-12
_QUAD_LIMIT = 200
# h(x) comes from its asymptotic series from here on, where the omitted term is below 3.5e-14
_SERIES_FROM = 32.0
# a Beta function whose larger argument reaches this goes by half steps (``_beta``)
_STEPS_FROM = 4096.0
# Gauss-Legendre nodes and weights on [-1, 1], a 20-point and a 41-point rule
_GAUSS = tuple(np.polynomial.legendre.leggauss(k) for k in (20, 41))
_NODES = np.concatenate([_GAUSS[0][0], _GAUSS[1][0]])
_CUTS = np.linspace(0.0, 1.0, 9)  # a refined interval is cut into 8

# the integer inequality behind each verdict of ``_exact_verdicts``, with s = m1 + m2
_ROUTES = {
    "K1": "(m2+1)(s+1) < s^2 and m2 s^3 >= (m2 s+m2+1)^2, so 1 + S < 2 <= A",
    "K2": "m1 < s, so sin^2(theta_2) < 1",
    "K3": "m2 < s, so sin^2(theta_3) < 1",
    "K4": "(m1+1)(s+1) < s^2 and m1 s^3 >= (m1 s+m1+1)^2 (K1 of the swapped pair)",
    "S_lt_1": "(m2+1)(s+1) < s^2, with Wendel's S^2 <= (m2+1)(s+1)/s^2",
    "A_ge_2": "m2 s^3 >= (m2 s+m2+1)^2",
    "one_plus_S_lt_A": "(m2+1)(s+1) < s^2 and m2 s^3 >= (m2 s+m2+1)^2, so 1 + S < 2 <= A",
}


def _exact_verdicts(m1: int, m2: int) -> dict:
    """The seven verdicts by the integer inequalities of ``_ROUTES``; K4 is K1 of (m2, m1)."""
    s = m1 + m2
    s_lt_1, swapped_s_lt_1 = ((m + 1) * (s + 1) < s * s for m in (m2, m1))
    a_ge_2, swapped_a_ge_2 = (m * s**3 >= (m * s + m + 1) ** 2 for m in (m2, m1))
    k1 = s_lt_1 and a_ge_2
    return {"K1": k1, "K2": m1 < s, "K3": m2 < s, "K4": swapped_s_lt_1 and swapped_a_ge_2,
            "S_lt_1": s_lt_1, "A_ge_2": a_ge_2, "one_plus_S_lt_A": k1}


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


def quad(func, a, b):
    """Adaptive Gauss-Legendre quadrature of a vectorized integrand over [a, b].

    Returns ``(value, error_estimate)``.  Each interval counts at its 41-point
    value; the distance to its 20-point value estimates its error (generously:
    that is the size of the 20-point error).  While the summed estimate exceeds
    ``_QUAD_EPSREL`` |value|, every interval above an even share of that
    tolerance is cut into 8, all of them evaluated in one call of ``func``, as
    long as no more than ``_QUAD_LIMIT`` intervals result.  A NaN or infinite
    estimate raises ValueError.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    val, err = _gauss_pair(func, lo, hi)
    while True:
        value, error = float(val.sum()), float(err.sum())
        tol = _QUAD_EPSREL * abs(value)
        split = err > tol / len(lo)
        splits = np.count_nonzero(split)
        if error <= tol or len(lo) + (len(_CUTS) - 2) * splits > _QUAD_LIMIT:
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
class ScalarValue:
    """A float scalar of the chain, S or A, with the bound on its error."""

    value: float
    error_bound: float


def gamma_ratio_S(pair: MultiplicityPair) -> ScalarValue:
    """S = Gamma((m2+2)/2) Gamma((m1+m2)/2) / (Gamma((m2+1)/2) Gamma((m1+m2+1)/2)).

    That is exp(h((m2+1)/2) - h(s/2)) with h from ``_half_step_log_gamma``.
    The bound covers both errors of h, the subtraction and the exp.
    """
    if pair.g != 4:
        raise UnsupportedCaseError(f"S is defined for g=4 pairs, got g={pair.g}")
    h2, err2 = _half_step_log_gamma((pair.m2 + 1) / 2)
    hs, errs = _half_step_log_gamma((pair.m1 + pair.m2) / 2)
    value, rel = _exp(h2 - hs, err2 + errs + _EPS * abs(h2 - hs))
    return ScalarValue(value, value * rel)


def threshold_A(pair: MultiplicityPair) -> ScalarValue:
    """A = ((n+2)/n) ((m1-1)/(m1+m2)) / sin^2(theta_1).

    With s = m1+m2: A = 2 (s+1)(m1-1)(s + sqrt(s m2)) / (s^2 m1), a handful of
    correctly rounded operations.  The verdict A >= 2 is decided by the
    equivalent integer inequality in ``_exact_verdicts``.
    """
    if pair.g != 4:
        raise UnsupportedCaseError("threshold A is defined for g=4 pairs")
    m1, m2 = pair.m1, pair.m2
    s = m1 + m2
    value = 2 * (s + 1) * (m1 - 1) * (s + math.sqrt(s * m2)) / (s * s * m1)
    return ScalarValue(value, 4 * _EPS * value)


# -- the integrals G and K_alpha -------------------------------------------------


@dataclass(frozen=True)
class IntegralValue:
    """A certified integral: authoritative value, error bound, and the quadrature.

    ``closed_form`` is False where the quadrature is the only route, so that
    ``value`` is the quadrature itself.
    """

    value: float
    error_bound: float
    quadrature: float
    quadrature_error: float
    closed_form: bool = True

    @property
    def dual_agreement(self) -> float | None:
        """Relative difference between the closed-form and quadrature routes; None with one route."""
        if not self.closed_form:
            return None
        scale = max(abs(self.value), abs(self.quadrature), 1e-300)
        return abs(self.value - self.quadrature) / scale

    def to_dict(self) -> dict:
        return {"value": self.value, "error_bound": self.error_bound, "quadrature": self.quadrature,
                "quadrature_error": self.quadrature_error, "dual_agreement": self.dual_agreement}


def integral_G(pair: MultiplicityPair) -> IntegralValue:
    """G = int_0^{pi/2} sin^m1 x cos^m2 x dx, closed form B((m1+1)/2,(m2+1)/2)/2."""
    if pair.g != 4:
        raise UnsupportedCaseError(f"G is defined for g=4 pairs, got g={pair.g}")
    m1, m2 = pair.m1, pair.m2
    beta, rel = _beta((m1 + 1) / 2, (m2 + 1) / 2)
    qval, qerr = quad(lambda x: np.sin(x) ** m1 * np.cos(x) ** m2, 0.0, math.pi / 2)
    return IntegralValue(beta / 2, beta / 2 * rel, qval, qerr)


def _sin2_theta_alpha(pair: MultiplicityPair, alpha: int) -> float:
    """sin^2(theta_alpha) at the minimal angle, alpha in 1..4.

    cos(2 theta_1) = sqrt(m2/s) and sin(2 theta_1) = sqrt(m1/s) give
    sin^2(theta_1) = (1 - sqrt(m2/s))/2 and sin^2(theta_2) = (1 + sqrt(m1/s))/2;
    the first is evaluated as m1 / (2 (s + sqrt(m2 s))), free of cancellation
    however large s gets.  alpha = 3, 4 are alpha = 2, 1 with m1 <-> m2.
    """
    alpha = _integer("alpha", alpha)
    if alpha not in (1, 2, 3, 4):
        raise ValueError(f"alpha must be in 1..4, got {alpha}")
    m1, m2 = (pair.m1, pair.m2) if alpha < 3 else (pair.m2, pair.m1)
    s = m1 + m2
    if alpha in (1, 4):
        return m1 / (2 * (s + math.sqrt(m2 * s)))
    return (1 + math.sqrt(m1 / s)) / 2


def _k_end(m_in: int, m_out: int, sin2: float) -> tuple[float, float]:
    """Closed form of K_1 with (m_in, m_out) = (m1, m2), or of K_4 with (m2, m1), and its bound.

    sin^2(theta) * [B((m_in-1)/2, (m_out+1)/2) + B((m_in-1)/2, (m_out+2)/2)] / 2.
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
    m1 = 1 (resp. m2 = 1) diverges.  theta_alpha = theta_1 + (alpha-1) pi/4 holds for g=4 only.
    """
    if pair.g != 4:
        raise UnsupportedCaseError(f"K_alpha is defined for g=4 pairs, got g={pair.g}")
    m1, m2 = pair.m1, pair.m2
    sin2 = _sin2_theta_alpha(pair, alpha)
    end = alpha in (1, 4)
    if end:
        m_in, m_out = (m1, m2) if alpha == 1 else (m2, m1)
        if m_in < 2:
            raise DivergenceError(
                f"K_{alpha} diverges for m{1 if alpha == 1 else 2} = 1 (endpoint pole of order >= 1)"
            )
        integrand = lambda x: 4.0 * np.cos(x) ** 2 * np.sin(2 * x) ** (m_in - 2) * np.cos(2 * x) ** m_out
    else:
        shift = (alpha - 1) * math.pi / 4.0
        integrand = lambda x: np.sin(2 * x) ** m1 * np.cos(2 * x) ** m2 / np.sin(shift + x) ** 2
    qraw, qerr = quad(integrand, 0.0, math.pi / 4)
    qval = sin2 * qraw
    qerr = sin2 * qerr + abs(qval) * 1e-13
    if end:
        return IntegralValue(*_k_end(m_in, m_out, sin2), qval, qerr)
    return IntegralValue(qval, qerr, qval, qerr, closed_form=False)


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
    S: ScalarValue
    A: ScalarValue
    ratios: tuple[float, ...]  # K_alpha * n / ((n+2) G)
    margins: dict
    verdicts: dict
    exact_verdicts: dict
    status: str  # pass | fail | inconclusive
    precision: dict

    def to_dict(self) -> dict:
        return {
            "m1": self.pair.m1,
            "m2": self.pair.m2,
            "n": self.n,
            "theta1": self.theta1,
            "sin2_theta1": self.sin2_theta1,
            "K": [k.to_dict() for k in self.K],
            "G": self.G.to_dict(),
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
    rather than a silent pass.  UnsupportedCaseError when G or a K_alpha
    underflows below the smallest normal float.
    """
    if pair.g != 4:
        raise UnsupportedCaseError(f"certificates cover g=4 only, got g={pair.g}")
    if min(pair.m1, pair.m2) < 2:
        raise UnsupportedCaseError(
            f"({pair.m1}, {pair.m2}): min multiplicity 1 is the homogeneous case, "
            "settled by known facts rather than this certificate"
        )
    m1, m2 = pair.m1, pair.m2
    n = hypersurface_dimension(pair)
    g_val = integral_G(pair)
    k_vals = tuple(integral_K(pair, a) for a in (1, 2, 3, 4))
    tiny = [name for name, v in zip(("G", "K_1", "K_2", "K_3", "K_4"), (g_val, *k_vals))
            if v.value < sys.float_info.min]
    if tiny:
        raise UnsupportedCaseError(
            f"({m1}, {m2}): {', '.join(tiny)} underflow below the smallest normal float, "
            "where the relative error bounds no longer hold"
        )
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

    exact_verdicts = _exact_verdicts(m1, m2)
    if inconclusive or verdicts != exact_verdicts:
        status = "inconclusive"
    elif all(verdicts.values()):
        status = "pass"
    else:
        status = "fail"

    return HypersurfaceCertificate(
        pair=pair,
        n=n,
        theta1=minimal_angle(pair),
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
            "quad_epsrel": _QUAD_EPSREL,
            "routes": dict(_ROUTES),
        },
    )


# -- focal certificates -------------------------------------------------------------


@dataclass(frozen=True)
class FocalCertificate:
    """Verdict for lambda_1(M_i) = dim M_i on a focal submanifold, exact arithmetic.

    ``solomon_upper`` = 4 m_other is Solomon's eigenvalue on M2 of the FKM family
    built with m = m_other, which has the dimension of M_i (None when (m_other, m_this)
    is no FKM pair).  That family is congruent to ``FKMFamily.from_pair(m1, m2)``'s only
    for (2,1), (6,1), (5,2) and the indefinite (4,3).  The certificate reads one of three ways:

    * ``covered``, when 2 m_other >= m_this + 3: lambda_1 = dim;
    * the stable range 2 m_other < m_this: lambda_1 <= ``solomon_upper`` < dim on that
      family's M2, wherever ``solomon_upper`` is set;
    * the band m_this <= 2 m_other <= m_this + 2 in between: undetermined.
    """

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
        fields = asdict(self)
        del fields["pair"]
        fields["bound"] = [self.bound.numerator, self.bound.denominator]
        return {"m1": self.pair.m1, "m2": self.pair.m2, **fields}


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
    dim1, dim2 = focal_dimensions(pair)
    dim, m_this, m_other = (dim1, m1, m2) if which == "M1" else (dim2, m2, m1)
    bound = Fraction(2 * (n + 2) * (m_other - 1), m1 + m2)
    strict = Fraction(dim) < bound
    condition = 2 * m_other >= m_this + 3
    equivalence = (3 * dim >= 2 * n + 3) == condition
    # Solomon's eigenvalue on M2 of the m = m_other family (see FocalCertificate)
    solomon = 4 * m_other if is_ot_fkm(m_other, m_this) else None
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


def solomon_undetermined(max_sum: int) -> list[tuple[int, int]]:
    """The Clifford pairs whose M2 certificate reads undetermined (see ``FocalCertificate``)."""
    focal = (certify_focal(MultiplicityPair(4, a, b), "M2") for a, b in clifford_pairs(max_sum))
    return [(c.pair.m1, c.pair.m2) for c in focal if c.status != "covered" and c.solomon_upper >= c.dim]


# -- batch output -----------------------------------------------------------------------


def certificates_json(certs) -> str:
    return json.dumps(
        {"schema_version": SCHEMA_VERSION, "certificates": [c.to_dict() for c in certs]},
        indent=2,
    )

