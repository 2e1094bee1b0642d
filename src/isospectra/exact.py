"""Exact scalar arithmetic: half-integer Gamma/Beta and sign decisions.

* ``PiRational`` values ``r * pi**(k/2)`` with rational r (every Beta/Gamma
  ratio of half-integer arguments has this shape);
* ``sign_of_terms`` decides the sign of a finite sum of terms
  ``c * sqrt(d) * pi**p`` exactly: by squaring in rational arithmetic when
  no pi and at most one radical is involved, otherwise by interval
  arithmetic at escalating precision.

The certificates decide their verdicts by integer inequalities; the closed
forms here, built from full factorials, are the oracle those verdicts and
their float values are tested against.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

# the interval precision, in bits, at which ``sign_of_terms`` gives up
_MAX_PREC = 8192


def _integer(name: str, value, error=ValueError) -> int:
    """value as a Python int; ``error`` for a bool or anything ``operator.index`` refuses."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an int, got {value!r}")


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

    c may be Fraction/int, d a nonnegative integer (1 for no radical), p an
    integer power of pi.  Sums free of pi over at most one radical, a + b
    sqrt(d), are decided in rational arithmetic by comparing a^2 with b^2 d;
    everything else goes through interval arithmetic whose precision doubles
    until the sign is certain.  ValueError for a negative radicand, or a d or
    p that is no int.

    Raises ArithmeticError if the sign is still ambiguous at ``_MAX_PREC`` bits
    (in practice only possible when the sum is exactly zero).
    """
    cleaned = []
    for c, d, p in terms:
        c, d, p = Fraction(c), _integer("radicand", d), _integer("power of pi", p)
        if c != 0:
            sq, rest = _split_square(d)
            if rest:  # sqrt(0) contributes nothing
                cleaned.append((c * sq, rest, p))
    if not cleaned:
        return 0

    if all(p == 0 for _, _, p in cleaned):
        radicands = {d for _, d, _ in cleaned if d != 1}
        if len(radicands) <= 1:
            # a + b sqrt(d): the sign of a + b when a and b agree or one is 0,
            # else sign(a) times the sign of a^2 - b^2 d
            a = sum((c for c, d, _ in cleaned if d == 1), Fraction(0))
            b = sum((c for c, d, _ in cleaned if d != 1), Fraction(0))
            if a * b >= 0:
                a += b
            else:
                a *= a * a - b * b * radicands.pop()
            return (a > 0) - (a < 0)

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
