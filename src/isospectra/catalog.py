"""Admissible multiplicity pairs and the derived geometric constants.

An isoparametric hypersurface of the unit sphere has g distinct principal
curvatures cot(theta_alpha), theta_alpha = theta_1 + (alpha-1)*pi/g, with
multiplicities m_alpha satisfying m_alpha = m_{alpha+2}.  Everything the rest
of the package consumes about a family (dimension, the minimal hypersurface's
angle as a float and, for g=4, its exact sin^2 as an integer triplet, focal
dimensions, which (m1, m2) occur at all) lives here.

The g=4 admissible catalog is the set of FKM pairs (m, k*delta(m)-m-1), both
entries positive (Ferus-Karcher-Muenzner, Math. Z. 177 (1981)), together with
(2, 2) and (4, 5).  Stolz (Invent. Math. 138 (1999)) showed that these are
exactly the multiplicities a g=4 isoparametric hypersurface can have.  The
homogeneous pairs (1,k), (2,2k-1), (4,4k-1), (6,9) and the pair (7,8) need no
list of their own: each is already an FKM pair, in one of its orientations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InvalidPairError, UnsupportedCaseError
from .exact import _integer, _split_square

SCHEMA_VERSION = 1

_DELTA_TABLE = (1, 2, 4, 4, 8, 8, 8, 8)


def delta(m: int) -> int:
    """Dimension delta(m) of an irreducible module of the Clifford algebra C_{m-1}.

    delta(1..8) = 1, 2, 4, 4, 8, 8, 8, 8 and delta(m+8) = 16*delta(m).
    """
    if type(m) is not int:
        m = _integer("m", m)
    if m < 1:
        raise ValueError(f"delta(m) requires m >= 1, got {m}")
    q, r = divmod(m - 1, 8)
    return _DELTA_TABLE[r] * 16**q


@dataclass(frozen=True)
class MultiplicityPair:
    """Curvature multiplicities (m1, m2) of a g-family, validated on construction.

    g, m1 and m2 are stored as Python ints, so integer arithmetic on them is
    exact whatever integer type they were given as.
    """

    g: int
    m1: int
    m2: int

    def __post_init__(self):
        for name in ("g", "m1", "m2"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), InvalidPairError))
        if self.g not in (1, 2, 3, 4, 6):
            raise InvalidPairError(f"g must be in {{1,2,3,4,6}}, got {self.g}")
        if self.m1 < 1 or self.m2 < 1:
            raise InvalidPairError(f"multiplicities must be positive, got ({self.m1}, {self.m2})")
        if self.g not in (2, 4) and self.m1 != self.m2:
            raise InvalidPairError(f"g={self.g} forces m1 = m2 (odd g: Muenzner, g=6: Abresch), "
                                   f"got ({self.m1}, {self.m2})")
        if self.g == 4 and self.m1 % 2 == 0 and self.m2 % 2 == 0 and (self.m1, self.m2) != (2, 2):
            raise InvalidPairError(
                f"g=4 multiplicities cannot both be even except (2,2), got ({self.m1}, {self.m2})"
            )

    @property
    def total(self) -> int:
        return self.m1 + self.m2

    def swapped(self) -> "MultiplicityPair":
        return MultiplicityPair(self.g, self.m2, self.m1)


def pair_g4(m1: int, m2: int) -> MultiplicityPair:
    return MultiplicityPair(4, m1, m2)


def hypersurface_dimension(pair: MultiplicityPair) -> int:
    """Dimension n of the hypersurface: (g/2)(m1+m2) for even g, g*m1 for odd g."""
    if pair.g % 2 == 0:
        return (pair.g // 2) * (pair.m1 + pair.m2)
    return pair.g * pair.m1


def minimal_angle(pair: MultiplicityPair) -> float:
    """theta_1 = (2/g) atan(sqrt(m1/m2)), the minimal hypersurface's angle, for even g.

    Zero mean curvature, sum_alpha m_alpha cot(theta_alpha) = 0, reads
    m1 cot(g theta/2) = m2 tan(g theta/2) for even g.
    """
    if pair.g % 2 == 1:
        raise UnsupportedCaseError(f"minimal angle is only provided for even g, got g={pair.g}")
    return (2.0 / pair.g) * math.atan(math.sqrt(pair.m1 / pair.m2))


def principal_angles(pair: MultiplicityPair, theta1: float) -> tuple[float, ...]:
    """theta_alpha = theta_1 + (alpha-1)*pi/g for alpha = 1..g."""
    return tuple(theta1 + (a - 1) * math.pi / pair.g for a in range(1, pair.g + 1))


def mean_curvature_sum(pair: MultiplicityPair, theta1: float) -> float:
    """n*H at angle theta1: sum over alpha of m_alpha * cot(theta_alpha)."""
    total = 0.0
    for a, th in enumerate(principal_angles(pair, theta1), start=1):
        m_alpha = pair.m1 if a % 2 == 1 else pair.m2
        total += m_alpha / math.tan(th)
    return total


def focal_dimensions(pair: MultiplicityPair) -> tuple[int, int]:
    """(dim M1, dim M2) = (m1 + 2*m2, 2*m1 + m2) for g=4."""
    if pair.g != 4:
        raise UnsupportedCaseError(f"focal dimension formula is for g=4, got g={pair.g}")
    return pair.m1 + 2 * pair.m2, 2 * pair.m1 + pair.m2


def clifford_multiplier(m1: int, m2: int) -> int | None:
    """k such that (m1, m2) = (m1, k*delta(m1) - m1 - 1), or None.

    Tests the *oriented* pair; (m1, m2) and (m2, m1) are distinct families
    whose focal submanifolds interchange.  ValueError when either is no int.
    """
    if type(m1) is not int or type(m2) is not int:  # certify_focal calls this per pair
        m1, m2 = _integer("m1", m1), _integer("m2", m2)
    if m1 < 1 or m2 < 1:
        return None
    d = delta(m1)
    total = m1 + m2 + 1
    return total // d if total % d == 0 else None


def is_ot_fkm(m1: int, m2: int) -> bool:
    """True if (m1, m2), in this orientation, arises from a Clifford system."""
    return clifford_multiplier(m1, m2) is not None


def clifford_pairs(max_sum: int) -> list[tuple[int, int]]:
    """Oriented FKM pairs (m, k*delta(m)-m-1) with both entries positive and sum <= max_sum.

    Sorted by (m1+m2, m1).  Both orientations of a pair can occur; they are
    distinct families whose focal submanifolds interchange.  ValueError when
    max_sum is no int.
    """
    max_sum = _integer("max_sum", max_sum)
    pairs = []
    for m in range(1, max_sum):
        d = delta(m)
        # m + m2 = k*d - 1 <= max_sum bounds k
        for k in range(1, (max_sum + 1) // d + 1):
            m2 = k * d - m - 1
            if m2 >= 1:
                pairs.append((m, m2))
    return sorted(pairs, key=lambda ab: (ab[0] + ab[1], ab[0]))


def admissible_pairs(max_sum: int) -> tuple[MultiplicityPair, ...]:
    """All admissible g=4 pairs with m1 + m2 <= max_sum, normalized m1 <= m2.

    The FKM pairs plus (2, 2) and (4, 5), deduplicated and sorted by
    (m1+m2, m1).  ValueError when max_sum is no int or is < 2.
    """
    max_sum = _integer("max_sum", max_sum)
    if max_sum < 2:
        raise ValueError(f"max_sum must be >= 2, got {max_sum}")
    found = {(min(a, b), max(a, b)) for a, b in clifford_pairs(max_sum)}
    found.update(ab for ab in ((2, 2), (4, 5)) if sum(ab) <= max_sum)
    return tuple(pair_g4(a, b) for a, b in sorted(found, key=lambda ab: (ab[0] + ab[1], ab[0])))


# -- known first-eigenvalue facts (catalog data, not computed) ---------------


@dataclass(frozen=True)
class KnownEigenvalueFact:
    """A recorded first-eigenvalue fact for a closed-form manifold.

    ``lambda1``/``multiplicity`` are ints where the value is absolute, or a
    formula string in the catalog parameters; multiplicity None = unknown.
    """

    manifold: str
    lambda1: int | str
    multiplicity: int | str | None
    dimension: int | str
    ambient_sphere: int | str
    note: str


KNOWN_EIGENVALUE_FACTS: tuple[KnownEigenvalueFact, ...] = (
    KnownEigenvalueFact(
        "focal-g2-sphere", "p", "p+1", "p", "p+q+1",
        "g=2 focal submanifolds are unit spheres S^p(1), S^q(1); lambda1 = dim",
    ),
    KnownEigenvalueFact(
        "veronese-RP2", 2, None, 2, 4,
        "Veronese RP^2, metric scaled to Gaussian curvature 1/3; lambda1 = dim",
    ),
    KnownEigenvalueFact(
        "veronese-CP2", 4, None, 4, 7,
        "Veronese CP^2, sectional curvature in [1/3, 4/3]; lambda1 = dim",
    ),
    KnownEigenvalueFact(
        "veronese-HP2", 8, None, 8, 13,
        "Veronese HP^2, sectional curvature in [1/3, 4/3]; lambda1 = dim",
    ),
    KnownEigenvalueFact(
        "veronese-OP2", 16, None, 16, 25,
        "Veronese OP^2, sectional curvature in [1/3, 4/3]; lambda1 = dim",
    ),
    KnownEigenvalueFact(
        "quotient-(1,k)", "min(4, k+2)", None, "k+2", "2k+3",
        "M2 of the (1,k) Clifford family: (S^1 x S^{k+1}) / (antipodal x antipodal)",
    ),
    KnownEigenvalueFact(
        "hypersurface", "n", "n+2", "n", "n+1",
        "closed minimal isoparametric hypersurface; lambda1 = n",
    ),
)


# -- JSON export --------------------------------------------------------------


def sin2_theta1_triplet(pair: MultiplicityPair) -> dict:
    """sin^2(theta_1) of a g=4 pair as {num, den, surd}: (num - sqrt(surd)) / den.

    sin^2(theta_1) = (s - sqrt(m2 s)) / (2s), s = m1 + m2, divided through by the
    largest q with q | s and q^2 | m2 s, i.e. q^2 | s gcd(m1, m2); no g > 1
    reduces it further.  A square m2 s folds into {num, den, 0}.
    """
    if pair.g != 4:
        raise UnsupportedCaseError(f"the sin^2(theta_1) triplet is for g=4, got g={pair.g}")
    s = pair.m1 + pair.m2
    q = _split_square(s * math.gcd(pair.m1, pair.m2))[0]
    num, den, surd = s // q, 2 * s // q, pair.m2 * s // (q * q)
    root = math.isqrt(surd)
    if root * root == surd:
        g = math.gcd(num - root, den)
        return {"num": (num - root) // g, "den": den // g, "surd": 0}
    return {"num": num, "den": den, "surd": surd}


def catalog_entries(max_sum: int) -> list[dict]:
    entries = []
    for pair in admissible_pairs(max_sum):
        dim1, dim2 = focal_dimensions(pair)
        entries.append(
            {
                "g": pair.g,
                "m1": pair.m1,
                "m2": pair.m2,
                "n": hypersurface_dimension(pair),
                "dim_M1": dim1,
                "dim_M2": dim2,
                "sin2_theta1": sin2_theta1_triplet(pair),
            }
        )
    return entries


def catalog_json(max_sum: int) -> str:
    return json.dumps(
        {"schema_version": SCHEMA_VERSION, "pairs": catalog_entries(max_sum)}, indent=2
    )
