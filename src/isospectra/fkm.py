"""The Clifford quartic, its level sets, focal submanifolds and shape operators.

A symmetric Clifford system {P_0..P_m} on R^{2l} defines the degree-4
polynomial

    F(x) = |x|^4 - 2 * sum_i <P_i x, x>^2,

whose restriction f to the unit sphere takes values in [-1, 1].  Regular
levels f = t are isoparametric hypersurfaces with four principal curvatures;
the extreme levels M1 = f^{-1}(1), M2 = f^{-1}(-1) are the focal
submanifolds.  F satisfies |grad F|^2 = 16 |x|^6 and
Lap F = 8 (m2 - m1) |x|^2, which the tests exercise as independent oracles.

Sampling is deterministic given (seed): one seeded generator drives the whole
vectorized pass, so results do not depend on scheduling or thread counts.
Densities are uniform-on-sphere push-forwards, not intrinsic-uniform.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .catalog import MultiplicityPair, clifford_multiplier, delta
from .clifford import CliffordSystem, build_system
from .errors import InvalidPairError, NearFocalError, SamplingError

SCHEMA_VERSION = 1

_LEVEL_TOL = 1e-10
_FOCAL_GRAD_CUTOFF = 1e-8
_MAX_ATTEMPTS = 50


@dataclass(frozen=True)
class FKMFamily:
    """A Clifford system together with its multiplicity pair (m, l-m-1)."""

    system: CliffordSystem
    pair: MultiplicityPair
    _float_mats: tuple[np.ndarray, ...] = field(repr=False, default=())

    @property
    def ambient_dim(self) -> int:
        return self.system.ambient_dim

    @property
    def m1(self) -> int:
        return self.pair.m1

    @property
    def m2(self) -> int:
        return self.pair.m2

    @staticmethod
    def from_representation(m: int, k: int) -> "FKMFamily":
        system = build_system(m, k)
        m2 = system.l - m - 1
        if m2 < 1:
            raise InvalidPairError(
                f"(m, k) = ({m}, {k}) gives m2 = {m2} <= 0; no isoparametric family"
            )
        return FKMFamily(system, MultiplicityPair(4, m, m2), _as_float(system))

    @staticmethod
    def from_pair(m1: int, m2: int) -> "FKMFamily":
        k = clifford_multiplier(m1, m2)
        if k is None:
            raise InvalidPairError(
                f"({m1}, {m2}) is not of Clifford type in this orientation: "
                f"m1 + m2 + 1 = {m1 + m2 + 1} is not a multiple of delta({m1}) = {delta(m1)}"
            )
        return FKMFamily.from_representation(m1, k)


def _as_float(system: CliffordSystem) -> tuple[np.ndarray, ...]:
    out = []
    for p in system.matrices:
        q = p.astype(np.float64)
        q.setflags(write=False)
        out.append(q)
    return tuple(out)


def _mats(family: FKMFamily) -> tuple[np.ndarray, ...]:
    return family._float_mats if family._float_mats else _as_float(family.system)


def _check_dim(family: FKMFamily, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != family.ambient_dim:
        raise ValueError(f"point has dimension {x.shape[-1]}, family lives on R^{family.ambient_dim}")
    return x


def quadratic_forms(family: FKMFamily, x) -> np.ndarray:
    """<P_i x, x> for i = 0..m, stacked along the last axis."""
    x = _check_dim(family, x)
    return np.stack([np.sum((x @ p) * x, axis=-1) for p in _mats(family)], axis=-1)


def eval_F(family: FKMFamily, x) -> np.ndarray | float:
    """F(x) = |x|^4 - 2 sum_i <P_i x, x>^2 (homogeneous of degree 4)."""
    x = _check_dim(family, x)
    norm_sq = np.sum(x * x, axis=-1)
    q = quadratic_forms(family, x)
    out = norm_sq**2 - 2.0 * np.sum(q * q, axis=-1)
    return float(out) if out.ndim == 0 else out


def grad_F(family: FKMFamily, x) -> np.ndarray:
    """grad F = 4 |x|^2 x - 8 sum_i <P_i x, x> P_i x."""
    x = _check_dim(family, x)
    norm_sq = np.sum(x * x, axis=-1, keepdims=True)
    out = 4.0 * norm_sq * x
    for p in _mats(family):
        px = x @ p
        q = np.sum(px * x, axis=-1, keepdims=True)
        out -= 8.0 * q * px
    return out


def spherical_gradient(family: FKMFamily, x) -> np.ndarray:
    """Gradient of f = F|_sphere at unit x: grad F - 4 F(x) x (tangent to the sphere)."""
    x = _check_dim(family, x)
    f = np.asarray(eval_F(family, x))
    return grad_F(family, x) - 4.0 * f[..., None] * x


def unit_normal(family: FKMFamily, x) -> np.ndarray:
    """xi = spherical gradient normalized; undefined near the focal sets."""
    g = spherical_gradient(family, x)
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    if np.any(norms < _FOCAL_GRAD_CUTOFF):
        raise NearFocalError("spherical gradient too small; point is (nearly) focal")
    return g / norms


def level_angle(t: float) -> float:
    """theta_0 with cos(4 theta_0) = t: the distance from the level f = t to M1."""
    return math.acos(t) / 4.0


def parallel_map(family: FKMFamily, x, theta: float) -> np.ndarray:
    """phi_theta(x) = cos(theta) x + sin(theta) xi(x): normal-geodesic transport.

    Moving distance theta toward M1 takes the level cos(4 theta_0) to
    cos(4 (theta_0 - theta)); theta = theta_0 lands on M1 itself.
    """
    x = _check_dim(family, x)
    xi = unit_normal(family, x)
    return math.cos(theta) * x + math.sin(theta) * xi


@dataclass(frozen=True)
class NormalFrame:
    """Base point, unit normal, and optionally an orthonormal tangent basis."""

    point: np.ndarray
    normal: np.ndarray
    tangent_basis: np.ndarray | None = None


def normal_frame(family: FKMFamily, x, with_tangent: bool = True) -> NormalFrame:
    x = _check_dim(family, np.asarray(x, dtype=np.float64))
    if x.ndim != 1:
        raise ValueError("normal_frame expects a single point")
    xi = unit_normal(family, x)
    basis = _tangent_basis(x, xi) if with_tangent else None
    return NormalFrame(point=x, normal=xi, tangent_basis=basis)


def _tangent_basis(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {x, xi}^perp, rows of shape (d-2, d)."""
    a = np.column_stack([x, xi])
    q, _ = np.linalg.qr(a, mode="complete")
    return q[:, 2:].T.copy()


# -- point clouds ----------------------------------------------------------------


@dataclass(frozen=True)
class PointCloud:
    """Unit vectors on a level set or focal submanifold, with provenance."""

    points: np.ndarray
    level: float | str
    seed: int
    tolerance: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def sidecar(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "level": self.level,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "count": self.count,
            "ambient_dim": self.dim,
            **self.meta,
        }

    def save(self, csv_path: str | Path) -> None:
        """Row-major coordinates as CSV plus a JSON sidecar next to it."""
        csv_path = Path(csv_path)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in self.points:
                writer.writerow([format(v, ".17g") for v in row])
        with open(csv_path.with_suffix(".json"), "w") as fh:
            json.dump(self.sidecar(), fh, indent=2, sort_keys=True)


def _family_meta(family: FKMFamily) -> dict:
    return {
        "family": {
            "m": family.system.m,
            "copies": family.system.l // delta(family.system.m),
            "m1": family.m1,
            "m2": family.m2,
            "ambient_dim": family.ambient_dim,
        }
    }


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _check_sampling_args(count, tol) -> None:
    if not isinstance(count, (int, np.integer)) or count < 0:
        raise ValueError(f"count must be an int >= 0, got {count!r}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")


def sample_level_set(
    family: FKMFamily, t: float, count: int, seed: int, tol: float = _LEVEL_TOL
) -> PointCloud:
    """``count`` points with f = t (|t| < 1), |x| = 1, deterministic in seed.

    Each uniform sphere point is transported along its normal geodesic by the
    exact angle that carries its level onto t (the parallel map is exact on an
    isoparametric family), then polished by two Newton steps on f.
    """
    _check_sampling_args(count, tol)
    if abs(t) >= 1.0 - 1e-6:
        raise NearFocalError(f"level t = {t} is too close to the focal values +-1")
    d = family.ambient_dim
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if count == 0:
        return PointCloud(np.zeros((0, d)), t, seed, tol, _family_meta(family))
    x = np.zeros((count, d))
    filled = 0
    while filled < count:
        draw = _unit_rows(rng.standard_normal((count - filled, d)))
        f0 = np.asarray(eval_F(family, draw))
        good = np.abs(f0) < 1.0 - 1e-8
        kept = draw[good]
        x[filled : filled + kept.shape[0]] = kept
        filled += kept.shape[0]
    f0 = np.asarray(eval_F(family, x))
    move = np.arccos(f0) / 4.0 - level_angle(t)
    xi = unit_normal(family, x)
    x = np.cos(move)[:, None] * x + np.sin(move)[:, None] * xi
    for _ in range(2):
        x = _unit_rows(x)
        g = spherical_gradient(family, x)
        f = np.asarray(eval_F(family, x))
        step = (t - f) / np.maximum(np.sum(g * g, axis=-1), 1e-30)
        x = x + step[:, None] * g
    x = _unit_rows(x)
    resid = np.abs(np.asarray(eval_F(family, x)) - t)
    if resid.size and resid.max() > tol:
        raise SamplingError(f"level residual {resid.max():.3e} exceeds tolerance {tol:.1e}")
    return PointCloud(x, t, seed, tol, _family_meta(family))


def _gauss_newton_focal(family: FKMFamily, x: np.ndarray, iters: int = 4) -> np.ndarray:
    """Project rows of x onto {<P_i x, x> = 0 for all i, |x| = 1}.

    The constraint gradients {2 P_i x, 2 x} are mutually orthogonal near M1,
    so the Gauss-Newton normal matrix stays well-conditioned and convergence
    is quadratic.
    """
    mats = _mats(family)
    for _ in range(iters):
        rows = np.stack([x @ p for p in mats] + [x], axis=1)  # (N, m+2, d)
        resid = np.einsum("nkd,nd->nk", rows, x)
        resid[:, -1] -= 1.0
        gram = 4.0 * np.einsum("nkd,njd->nkj", rows, rows)
        y = np.linalg.solve(gram, resid[..., None])[..., 0]
        x = x - 2.0 * np.einsum("nkd,nk->nd", rows, y)
    return x


def sample_focal_M1(
    family: FKMFamily, count: int, seed: int, tol: float = _LEVEL_TOL
) -> PointCloud:
    """Points of M1 = f^{-1}(1), i.e. {<P_i x, x> = 0 for all i} on the sphere.

    Uniform sphere points are transported to the f = 1 end of their normal
    geodesic and then Gauss-Newton-projected onto the constraint set; rows
    that fail to reach the residual tolerance are resampled.
    """
    _check_sampling_args(count, tol)
    d = family.ambient_dim
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if count == 0:
        return PointCloud(np.zeros((0, d)), "M1", seed, tol, _family_meta(family))
    out = np.zeros((count, d))
    filled = 0
    attempts = 0
    drawn = 0
    while filled < count:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise SamplingError("M1 sampling failed to converge for more than half the draws")
        want = count - filled
        draw = _unit_rows(rng.standard_normal((want, d)))
        drawn += want
        f0 = np.asarray(eval_F(family, draw))
        ok = np.abs(f0) < 1.0 - 1e-8
        draw, f0 = draw[ok], f0[ok]
        move = np.arccos(f0) / 4.0
        xi = unit_normal(family, draw)
        cand = np.cos(move)[:, None] * draw + np.sin(move)[:, None] * xi
        cand = _gauss_newton_focal(family, cand)
        cand = _unit_rows(cand)
        resid = np.abs(np.asarray(eval_F(family, cand)) - 1.0)
        good = cand[resid <= tol]
        out[filled : filled + good.shape[0]] = good
        filled += good.shape[0]
        if drawn >= 2 * count and filled < drawn // 2:
            raise SamplingError("M1 projection failure rate exceeded 50%")
    return PointCloud(out, "M1", seed, tol, _family_meta(family))


def sample_focal_M2(
    family: FKMFamily, count: int, seed: int, tol: float = _LEVEL_TOL
) -> PointCloud:
    """Points of M2 = f^{-1}(-1) via the eigenspace construction.

    For a unit c in R^{m+1}, P = sum c_i P_i satisfies P^2 = I; any unit x in
    its +1 eigenspace has sum_i <P_i x, x>^2 = 1, hence f(x) = -1 exactly.
    """
    _check_sampling_args(count, tol)
    d = family.ambient_dim
    mats = _mats(family)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if count == 0:
        return PointCloud(np.zeros((0, d)), "M2", seed, tol, _family_meta(family))
    out = np.zeros((count, d))
    filled = 0
    attempts = 0
    while filled < count:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise SamplingError(f"M2 sampling filled only {filled} of {count} points")
        want = count - filled
        c = _unit_rows(rng.standard_normal((want, len(mats))))
        y = rng.standard_normal((want, d))
        py = np.zeros_like(y)
        for i, p in enumerate(mats):
            py += c[:, i : i + 1] * (y @ p)
        cand = y + py
        norms = np.linalg.norm(cand, axis=-1)
        ok = norms > 1e-6
        cand = cand[ok] / norms[ok, None]
        resid = np.abs(np.asarray(eval_F(family, cand)) + 1.0)
        good = cand[resid <= tol]
        out[filled : filled + good.shape[0]] = good
        filled += good.shape[0]
    return PointCloud(out, "M2", seed, tol, _family_meta(family))


# -- shape operator ----------------------------------------------------------------


@dataclass(frozen=True)
class ShapeSpectrum:
    """Clustered principal curvatures of a level hypersurface at a point."""

    eigenvalues: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    ambiguous: bool
    targets: tuple[float, ...] | None = None


def shape_operator_spectrum(
    family: FKMFamily, x, theta_level: float | None = None, step: float = 1e-4
) -> ShapeSpectrum:
    """Finite-difference shape operator eigenvalues at a regular level point.

    The unit normal field xi = grad f / |grad f| is differentiated along
    great-circle directions tangent to the level; A = -(d xi)^tangent.  For a
    point at distance theta_0 from M1 the eigenvalues are
    cot(theta_0 + (alpha-1) pi/4), alpha = 1..4, with multiplicities
    (m1, m2, m1, m2).

    Clusters split at the 3 largest spectral gaps; if those gaps do not
    dominate the remaining ones the result is flagged ambiguous and the raw
    spectrum should be consulted.
    """
    x = _check_dim(family, np.asarray(x, dtype=np.float64))
    if x.ndim != 1:
        raise ValueError("shape_operator_spectrum expects a single point")
    frame = normal_frame(family, x)
    basis = frame.tangent_basis
    n = basis.shape[0]
    plus = math.cos(step) * x[None, :] + math.sin(step) * basis
    minus = math.cos(step) * x[None, :] - math.sin(step) * basis
    xi_all = unit_normal(family, np.concatenate([plus, minus], axis=0))
    dxi = (xi_all[:n] - xi_all[n:]) / (2.0 * math.sin(step))
    a = -dxi @ basis.T
    a = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(a)

    gaps = np.diff(eigs)
    order = np.argsort(gaps)[::-1]
    cuts = np.sort(order[:3])
    ambiguous = bool(gaps[order[2]] < 10.0 * gaps[order[3]]) if n > 4 else False
    clusters = []
    start = 0
    for cut in list(cuts) + [n - 1]:
        block = eigs[start : cut + 1]
        clusters.append((float(block.mean()), int(block.size)))
        start = cut + 1
    clusters.reverse()  # descending curvature = alpha order 1..4

    targets = None
    if theta_level is not None:
        targets = tuple(1.0 / math.tan(theta_level + a_ * math.pi / 4.0) for a_ in range(4))
    return ShapeSpectrum(eigenvalues=eigs, clusters=tuple(clusters), ambiguous=ambiguous, targets=targets)


def tube_volume_weight(pair: MultiplicityPair, theta1: float, theta: float) -> float:
    """Relative volume element of the parallel hypersurface at oriented distance theta.

    sin^{m1}(2(theta1-theta)) cos^{m2}(2(theta1-theta)) normalized to 1 at
    theta = 0; defined on the open interval (theta1 - pi/4, theta1).
    """
    lo, hi = theta1 - math.pi / 4.0, theta1
    if not lo < theta < hi:
        raise ValueError(f"theta must lie in ({lo:.6f}, {hi:.6f}), got {theta}")
    u = 2.0 * (theta1 - theta)
    base = math.sin(2.0 * theta1) ** pair.m1 * math.cos(2.0 * theta1) ** pair.m2
    return math.sin(u) ** pair.m1 * math.cos(u) ** pair.m2 / base
