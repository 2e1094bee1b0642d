"""Exact scalar arithmetic: quadratic surds, half-integer Gamma/Beta, sign decisions.

* ``Surd`` values ``a + b*sqrt(d)`` with rational a, b and integer d >= 0,
  the single-radical case of ``sign_of_terms`` and of the test oracle (the
  package's minimal angle is a float and an integer triplet, no surd);
* ``PiRational`` values ``r * pi**(k/2)`` with rational r (every Beta/Gamma
  ratio of half-integer arguments has this shape);
* ``sign_of_terms`` decides the sign of a finite sum of terms
  ``c * sqrt(d) * pi**p`` exactly — in pure rational/surd arithmetic when no
  pi is involved, otherwise by interval arithmetic at escalating precision.

The certificates decide their verdicts by integer inequalities; the closed
forms here, built from full factorials, are the oracle those verdicts and
their float values are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

# the interval precision, in bits, at which ``sign_of_terms`` gives up
_MAX_PREC = 8192


@functools.lru_cache(maxsize=1024)
def _split_square(n: int) -> tuple[int, int]:
    """Return (s, r) with n = s*s*r and r square-free, in O(n^(1/3)) divisions.

    Every f in 2, 3, 5, 7, 9, ... with f^3 <= the remaining cofactor c is
    divided out, its exponent's parity going to r and the rest to s; an odd
    composite f divides nothing, since its prime factors are already out.
    Then c has no prime factor below c^(1/3), so it is 1, p, p^2 or p*q for
    primes p != q, and it is a square exactly when isqrt(c)^2 == c.
    n = 0 gives (1, 0).
    """
    if n < 0:
        raise ValueError("radicand must be nonnegative")
    if n == 0:
        return 1, 0
    s, r, c, f = 1, 1, n, 2
    while f * f * f <= c:
        e = 0
        while c % f == 0:
            c //= f
            e += 1
        s *= f ** (e // 2)
        r *= f ** (e % 2)
        f += 1 if f == 2 else 2
    root = math.isqrt(c)
    if root * root == c:
        return s * root, r
    return s, r * c


@dataclass(frozen=True)
class Surd:
    """Exact value ``rational + coef * sqrt(radicand)``.

    The radicand is normalized to be square-free; perfect squares fold into
    the rational part.  Arithmetic is closed under addition of rationals,
    multiplication by rationals, and multiplication of two surds over the
    same radicand.
    """

    rational: Fraction
    coef: Fraction
    radicand: int

    def __post_init__(self):
        rat = Fraction(self.rational)
        coe = Fraction(self.coef)
        rad = int(self.radicand)
        if rad < 0:
            raise ValueError("radicand must be nonnegative")
        sq, rest = _split_square(rad)
        coe, rad = coe * sq, rest
        if rad == 1:
            rat, coe = rat + coe, Fraction(0)
        if coe == 0 or rad == 0:
            coe, rad = Fraction(0), 1
        object.__setattr__(self, "rational", rat)
        object.__setattr__(self, "coef", coe)
        object.__setattr__(self, "radicand", rad)

    @staticmethod
    def from_rational(q) -> "Surd":
        return Surd(Fraction(q), Fraction(0), 1)

    def __float__(self) -> float:
        return float(self.rational) + float(self.coef) * math.sqrt(self.radicand)

    def __add__(self, other):
        if isinstance(other, Surd):
            if self.coef == 0:
                return Surd(self.rational + other.rational, other.coef, other.radicand)
            if other.coef == 0 or other.radicand == self.radicand:
                return Surd(self.rational + other.rational, self.coef + other.coef, self.radicand)
            raise ValueError("cannot add surds over different radicands")
        return Surd(self.rational + Fraction(other), self.coef, self.radicand)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.rational, -self.coef, self.radicand)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Surd) else Surd.from_rational(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def __mul__(self, other):
        if isinstance(other, Surd):
            if self.coef == 0 or other.coef == 0 or other.radicand == self.radicand:
                d = max(self.radicand, other.radicand)
                rat = self.rational * other.rational + self.coef * other.coef * d
                coe = self.rational * other.coef + self.coef * other.rational
                return Surd(rat, coe, d)
            raise ValueError("cannot multiply surds over different radicands")
        q = Fraction(other)
        return Surd(self.rational * q, self.coef * q, self.radicand)

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = Fraction(other)
        return Surd(self.rational / q, self.coef / q, self.radicand)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        a, b, d = self.rational, self.coef, self.radicand
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0
        bigger_rational = lhs > rhs
        return (1 if bigger_rational else -1) * (1 if a > 0 else -1)

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0


@dataclass(frozen=True)
class PiRational:
    """Exact value ``frac * pi**(half_pi/2)`` (half_pi counts powers of sqrt(pi))."""

    frac: Fraction
    half_pi: int = 0

    def __float__(self) -> float:
        return float(self.frac) * math.pi ** (self.half_pi / 2.0)

    def __mul__(self, other):
        if isinstance(other, PiRational):
            return PiRational(self.frac * other.frac, self.half_pi + other.half_pi)
        return PiRational(self.frac * Fraction(other), self.half_pi)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiRational):
            return PiRational(self.frac / other.frac, self.half_pi - other.half_pi)
        return PiRational(self.frac / Fraction(other), self.half_pi)


def gamma_half(two_x: int) -> PiRational:
    """Gamma(two_x / 2), exact, for positive integer two_x.

    Gamma(n) = (n-1)!; Gamma(n + 1/2) = (2n)!/(4^n n!) * sqrt(pi).
    """
    if two_x <= 0:
        raise ValueError("argument must be positive")
    if two_x % 2 == 0:
        n = two_x // 2
        return PiRational(Fraction(factorial(n - 1)), 0)
    n = (two_x - 1) // 2
    return PiRational(Fraction(factorial(2 * n), 4**n * factorial(n)), 1)


def beta_half(two_x: int, two_y: int) -> PiRational:
    """B(two_x/2, two_y/2) = Gamma(x)Gamma(y)/Gamma(x+y), exact half-integer form."""
    return gamma_half(two_x) * gamma_half(two_y) / gamma_half(two_x + two_y)


def sign_of_terms(terms) -> int:
    """Exact sign of ``sum(c * sqrt(d) * pi**p)`` over (c, d, p) terms.

    c may be Fraction/int, d a positive integer (1 for no radical), p an
    integer power of pi.  Sums free of pi over at most one radical are
    decided in rational arithmetic; everything else goes through interval
    arithmetic whose precision doubles until the sign is certain.

    Raises ArithmeticError if the sign is still ambiguous at ``_MAX_PREC`` bits
    (in practice only possible when the sum is exactly zero).
    """
    cleaned = []
    for c, d, p in terms:
        c = Fraction(c)
        if c != 0:
            sq, rest = _split_square(int(d))
            cleaned.append((c * sq, rest, int(p)))
    if not cleaned:
        return 0

    if all(p == 0 for _, _, p in cleaned):
        radicands = {d for _, d, _ in cleaned if d != 1}
        if len(radicands) <= 1:
            d = radicands.pop() if radicands else 1
            rat = sum((c for c, dd, _ in cleaned if dd == 1), Fraction(0))
            coe = sum((c for c, dd, _ in cleaned if dd == d and d != 1), Fraction(0))
            return Surd(rat, coe, d).sign()

    from mpmath import iv

    prec = 128
    while prec <= _MAX_PREC:
        old = iv.prec
        try:
            iv.prec = prec
            total = iv.mpf(0)
            for c, d, p in cleaned:
                term = iv.mpf(c.numerator) / c.denominator
                if d != 1:
                    term *= iv.sqrt(iv.mpf(d))
                if p:
                    term *= iv.pi**p
                total += term
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
        finally:
            iv.prec = old
        prec *= 2
    raise ArithmeticError("sign undecidable at maximum precision (value may be exactly zero)")
