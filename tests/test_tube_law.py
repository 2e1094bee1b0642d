"""The tube law: F at uniform points of the sphere, against the certificates' integrals.

For X uniform on S^{2l-1} and an FKM family with multiplicities (m1, m2),
u = (1 - F(X)) / 2 = sin^2(2 theta), theta = level_angle(F(X)), follows
Beta((m1+1)/2, (m2+1)/2).  Equivalently theta has the density of the tube
volume, proportional to sin^m1(2 theta) cos^m2(2 theta), whose normaliser is
the certificates' G.  So each certificate ratio is a sphere expectation,

    K_alpha / G = (sin^2 theta_alpha / 2) E[csc^2(theta + (alpha-1) pi/4)],

and the law connects ``fkm``'s quartic with ``certificates``' integrals.
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import betainc, kolmogi

from isospectra import certificates as certs
from isospectra import fkm
from isospectra.catalog import minimal_angle, pair_g4, principal_angles
from isospectra.fkm import FKMFamily

POINTS = 20_000
SEED = 41
# d <= 32, and m1 != m2, so that the law with m1 and m2 swapped is another law
FAMILIES = [(1, 2), (2, 1), (2, 5), (3, 4), (4, 3), (5, 2), (4, 7), (7, 8), (9, 6), (5, 10)]
# csc^2 has a finite variance at alpha = 1 only when m1 > 3, and at alpha = 4 only when m2 > 3
RATIO_FAMILIES = [(4, 7), (7, 8), (9, 6), (5, 10)]


@functools.cache
def _levels(m1: int, m2: int) -> np.ndarray:
    """F at POINTS uniform points of the sphere of the (m1, m2) family."""
    family = FKMFamily.from_pair(m1, m2)
    x = np.random.default_rng(SEED).standard_normal((POINTS, family.ambient_dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)  # eval_F takes the quartic of the raw vector
    return fkm.eval_F(family, x)


@pytest.mark.parametrize("m1, m2", FAMILIES)
def test_u_follows_the_beta_law(m1, m2):
    u = np.sort((1.0 - _levels(m1, m2)) / 2.0)
    cdf = betainc((m1 + 1) / 2, (m2 + 1) / 2, u)
    n = len(u)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < kolmogi(0.01) / math.sqrt(n), (m1, m2, ks * math.sqrt(n))


@pytest.mark.parametrize("m1, m2", RATIO_FAMILIES)
def test_certificate_ratios_are_sphere_expectations(m1, m2):
    pair = pair_g4(m1, m2)
    theta = np.array([fkm.level_angle(f) for f in _levels(m1, m2)])
    g = certs.integral_G(pair).value
    angles = principal_angles(pair, minimal_angle(pair))
    for alpha, theta_alpha in enumerate(angles, start=1):
        csc2 = np.sin(theta + (alpha - 1) * math.pi / 4) ** -2
        scale = math.sin(theta_alpha) ** 2 / 2
        z = (certs.integral_K(pair, alpha).value / g - scale * csc2.mean()) / (
            scale * csc2.std() / math.sqrt(len(csc2))
        )
        assert abs(z) < 3, (m1, m2, alpha, z)
