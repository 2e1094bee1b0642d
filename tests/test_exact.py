import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import isospectra
from isospectra.exact import PiRational, _split_square, beta_half, gamma_half, sign_of_terms


def _trial_split_square(n: int) -> tuple[int, int]:
    """The former normal form: divide out f^2 for every f with f^2 <= the cofactor."""
    s, r, f = 1, n, 2
    while f * f <= r:
        while r % (f * f) == 0:
            r //= f * f
            s *= f
        f += 1
    return s, r


def test_split_square_matches_trial_division():
    assert _split_square(0) == (1, 0) and _split_square(1) == (1, 1)
    for n in range(20001):
        assert _split_square(n) == _trial_split_square(n), n
    rng = random.Random(1201)
    large = [rng.randrange(1, 10**9) for _ in range(100)]
    # square-heavy: a square times a cofactor; p^2 q and p q with primes near 1e6
    large += [rng.randrange(1, 10**4) ** 2 * rng.randrange(1, 10**4) for _ in range(300)]
    large += [999983**2 * 1000003, 999983 * 1000003]
    for n in large:
        assert _split_square(n) == _trial_split_square(n), n


def test_gamma_half_values():
    # Gamma(1/2) = sqrt(pi), Gamma(1) = 1, Gamma(5/2) = (3/4) sqrt(pi), Gamma(4) = 6
    assert gamma_half(1) == PiRational(Fraction(1), 1)
    assert gamma_half(2) == PiRational(Fraction(1), 0)
    assert gamma_half(5) == PiRational(Fraction(3, 4), 1)
    assert gamma_half(8) == PiRational(Fraction(6), 0)
    with pytest.raises(ValueError):
        gamma_half(0)


def test_gamma_half_recurrence():
    # Gamma(x+1) = x Gamma(x) across half integers
    for two_x in range(1, 40):
        lhs = gamma_half(two_x + 2)
        rhs = gamma_half(two_x) * Fraction(two_x, 2)
        assert lhs.frac == rhs.frac and lhs.half_pi == rhs.half_pi


def test_beta_half_classical_values():
    b = beta_half(1, 1)  # B(1/2, 1/2) = pi
    assert b.frac == 1 and b.half_pi == 2
    b = beta_half(3, 5)  # B(3/2, 5/2) = pi/16
    assert b.frac == Fraction(1, 16) and b.half_pi == 2
    assert math.isclose(float(b), math.pi / 16, rel_tol=1e-15)


def test_sign_of_terms_rational_and_surd():
    assert sign_of_terms([(Fraction(1, 3), 1, 0), (Fraction(-1, 4), 1, 0)]) == 1
    assert sign_of_terms([]) == 0
    # a + b sqrt(2) in every quadrant of (a, b): 1 + sqrt 2, -1 - sqrt 2,
    # 3 - 2 sqrt 2 > 0 since 9 > 8, 2 - 2 sqrt 2, -3 + 2 sqrt 2 and -2 + 2 sqrt 2
    for a, b, sign in ((1, 1, 1), (-1, -1, -1), (3, -2, 1), (2, -2, -1), (-3, 2, -1), (-2, 2, 1)):
        assert sign_of_terms([(Fraction(a), 1, 0), (Fraction(b), 2, 0)]) == sign, (a, b)
    # square factors fold: 2 - sqrt 4 = 0, sqrt 8 - 2 sqrt 2 = 0, 1/2 - sqrt(8)/8 > 0
    assert sign_of_terms([(Fraction(2), 1, 0), (Fraction(-1), 4, 0)]) == 0
    assert sign_of_terms([(1, 8, 0), (-2, 2, 0)]) == 0
    assert sign_of_terms([(Fraction(1, 2), 1, 0), (Fraction(-1, 8), 8, 0)]) == 1
    # sqrt 0 contributes nothing: 5 sqrt 0 - 1 < 0, and 3 sqrt 2 - 3 sqrt 2 - 2 sqrt 0 = 0
    assert sign_of_terms([(5, 0, 0), (-1, 1, 0)]) == -1
    assert sign_of_terms([(3, 2, 0), (-3, 2, 0), (-2, 0, 0)]) == 0
    with pytest.raises(ValueError, match="nonnegative"):
        sign_of_terms([(1, 1, 0), (1, -2, 0)])
    # a radicand or a power of pi that is no int is refused, not truncated (1 - sqrt(pi), 3 - 2 sqrt(2.9))
    with pytest.raises(ValueError, match="power of pi must be an int"):
        sign_of_terms([(1, 1, 0), (-1, 1, 0.5)])
    with pytest.raises(ValueError, match="radicand must be an int"):
        sign_of_terms([(3, 1, 0), (-2, 2.9, 0)])
    for d, p in ((2.0, 0), (2, 1.0), (True, 0), (2, False), ("2", 0), (Fraction(2), 0)):
        with pytest.raises(ValueError, match="must be an int"):
            sign_of_terms([(3, 1, 0), (-2, d, p)])
    # numpy integers are ints: 3 - 2 sqrt 2 > 0 and 1 - 4/pi < 0
    assert sign_of_terms([(3, np.int64(1), np.int8(0)), (-2, np.uint16(2), np.int64(0))]) == 1
    assert sign_of_terms([(1, 1, 0), (-4, np.int32(1), np.int64(-1))]) == -1


@given(st.fractions(max_denominator=10**4), st.fractions(max_denominator=10**4),
       st.integers(0, 100).map(lambda k: k * k) | st.integers(0, 10**4), st.none() | st.integers(0, 12), st.booleans())
def test_sign_of_terms_of_one_radical_matches_mpmath(a, b, d, digits, round_up):
    if digits is not None:
        # a = -b sqrt(d) cut after `digits` decimals: exact for a square d rounded down, else a near miss
        a = -b * Fraction(math.isqrt(d * 100**digits) + round_up, 10**digits)
    got = sign_of_terms([(a, 1, 0), (b, d, 0)])
    with mpmath.workdps(60):
        value = mpmath.mpf(a.numerator) / a.denominator + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(d)
        if abs(value) > mpmath.mpf(10) ** -40:
            assert got == (1 if value > 0 else -1)
    assert (got == 0) == (a * a == b * b * d and a * b <= 0)


def test_sign_of_terms_with_pi():
    # 1 - 8/(3 pi) > 0
    assert sign_of_terms([(1, 1, 0), (Fraction(-8, 3), 1, -1)]) == 1
    # pi - 355/113 < 0 (margin ~2.7e-7)
    assert sign_of_terms([(1, 1, 1), (Fraction(-355, 113), 1, 0)]) == -1
    # pi - 103993/33102 > 0 (margin ~5.8e-10)
    assert sign_of_terms([(1, 1, 1), (Fraction(-103993, 33102), 1, 0)]) == 1
    # mixed radical and pi: pi - sqrt(2) - sqrt(3) + 2 = 2.4096... > 0
    assert sign_of_terms([(1, 1, 1), (-1, 2, 0), (-1, 3, 0), (2, 1, 0)]) == 1


def test_the_package_imports_neither_scipy_nor_mpmath():
    # mpmath stays a lazy import of sign_of_terms; scipy is for the tests only
    # the single-radical branch decides 3 - 2 sqrt 2 without it
    code = ("import sys; from isospectra import catalog, certificates, clifford, exact, fkm; "
            "exact.sign_of_terms([(3, 1, 0), (-2, 2, 0)]); "
            "print(sorted({'scipy', 'mpmath'} & {name.split('.')[0] for name in sys.modules}))")
    src = str(Path(isospectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
