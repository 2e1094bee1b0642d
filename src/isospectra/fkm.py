"""The Clifford quartic, its level sets, focal submanifolds and shape operators.

A symmetric Clifford system {P_0..P_m} on R^{2l} defines the degree-4
polynomial

    F(x) = |x|^4 - 2 * sum_i <P_i x, x>^2,

whose restriction f to the unit sphere takes values in [-1, 1].  Regular
levels f = t are isoparametric hypersurfaces with four principal curvatures;
the extreme levels M1 = f^{-1}(1), M2 = f^{-1}(-1) are the focal
submanifolds.  F satisfies |grad F|^2 = 16 |x|^6 and
Lap F = 8 (m2 - m1) |x|^2, which the tests exercise as independent oracles.

The Clifford relations P_i P_j + P_j P_i = 2 delta_ij I give
<P_i x, P_j x> = delta_ij |x|^2, so one pass that forms each P_i x in turn
yields r = |x|^2, q_i = <P_i x, x> and grad F = 4 r x - 8 sum_i q_i P_i x at
once; F, the spherical gradient, the normal and the samplers' normal-geodesic
transport derive from that one pass.

Every kernel walks the rows in cache-sized blocks, feature-major: a block's
[x | -x] is transposed once into a (2d, rows) array.  The system stores each
P_i as its signed permutation: coordinate r of P_i x is sign_r x_{perm_r}.  The
family derives from those arrays one index per P_i into the rows of the block,
and P_i x is one gather of whole contiguous rows, signs included, O(d) per
point at every ambient dimension.  Each entry of P_i x is one entry of x times
+-1, so the gather gives the same bits as a product with the dense matrix.  The
sums over a point's coordinates (|x|^2, each q_i, the norms) run down the
block's columns in numpy's pairwise row-sum order (``_row_sums``), and every
elementwise step is the same operation on the same operands, so each output
equals, bit for bit, what row-major numpy code gives.  ``eval_F`` takes q from
``quadratic_forms`` and sums |x|^2 and sum_i q_i^2 row-major, with numpy itself.

Shape operators are exact: they come from the closed-form Hessian
Hess F = 4 r I + 8 x x^T - 8 sum_i (2 P_i x (P_i x)^T + q_i P_i), restricted
to the tangent space of the level through the point, through the same pass.

Sampling is deterministic given (seed): one seeded generator drives the whole
vectorized pass, so results do not depend on scheduling or thread counts.
Each batch streams into the cloud's own array: a proposal draws straight into
the unfilled tail, turns the draws into candidates in place one row block at a
time, and the rows it drops or that miss the level check are compacted away
in place.  Besides the cloud, a call holds the level check's per-row forms
q, for M2 the coefficients c, and a few block-sized buffers allocated once per
call; the level-set and M1 transport forms the gradient in those buffers,
block by block.  Each cloud's meta records its draws,
batches, dropped and rejected candidates and its worst residual, and the
``isospectra`` logger reports them at DEBUG.
Level-set and M1 clouds are push-forwards of the uniform sphere measure along
the normal geodesics, and the transport is exact: f(cos s x + sin s xi(x)) =
cos 4(theta_0 - s) (Münzner 1980).  On a level set that push-forward is the
normalized volume of the leaf, because the principal curvatures are constant
on each leaf, so the Jacobian of the transport between leaves depends on the
distance alone; the tests compare its second moments with uniform sphere draws
in the shell |f - t| < 1e-3.  Whether the M1 and M2 clouds are
intrinsic-uniform has not been measured.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .catalog import MultiplicityPair, clifford_multiplier, delta
from .clifford import CliffordSystem, build_system
from .errors import InvalidPairError, NearFocalError, SamplingError

SCHEMA_VERSION = 2

_log = logging.getLogger(__name__)

_LEVEL_TOL = 1e-10
_FOCAL_GRAD_CUTOFF = 1e-8
_MAX_ATTEMPTS = 50
# The kernels walk the rows in blocks of about this many float64 values
# (256 KiB), so a block, its product P_i x and the gradient accumulator stay in
# cache whatever the batch size.  Blocks of 2^14-2^15 values sampled fastest;
# one block for the whole batch was 4-36% slower at d = 16-256.
_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class FKMFamily:
    """A Clifford system, its multiplicity pair (m, l-m-1) and each P_i's signed gather index."""

    system: CliffordSystem
    pair: MultiplicityPair
    _gathers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Derive the gather indices; ValueError when the pair is not (m, l-m-1) of the system.

        Row r of P_i x is sign_r x_{perm_r}, so entry r of P_i's index into
        [x | -x] is perm_r for a +1 and perm_r + d for a -1.
        """
        m, l = self.system.m, self.system.l
        if (self.pair.g, self.pair.m1, self.pair.m2) != (4, m, l - m - 1):
            raise ValueError(
                f"pair (g, m1, m2) = ({self.pair.g}, {self.pair.m1}, {self.pair.m2}) does not "
                f"match the system: m = {m}, l = {l} give (4, {m}, {l - m - 1})"
            )
        perm, sign = self.system.perm, self.system.sign
        gathers = np.where(sign > 0, perm, perm + self.system.ambient_dim)
        gathers.setflags(write=False)
        object.__setattr__(self, "_gathers", tuple(gathers))

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
        return FKMFamily(system, MultiplicityPair(4, m, m2))

    @staticmethod
    def from_pair(m1: int, m2: int) -> "FKMFamily":
        k = clifford_multiplier(m1, m2)
        if k is None:
            raise InvalidPairError(
                f"({m1}, {m2}) is not of Clifford type in this orientation: "
                f"m1 + m2 + 1 = {m1 + m2 + 1} is not a multiple of delta({m1}) = {delta(m1)}"
            )
        return FKMFamily.from_representation(m1, k)


def _check_dim(family: FKMFamily, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError(f"point is a scalar, family lives on R^{family.ambient_dim}")
    if x.shape[-1] != family.ambient_dim:
        raise ValueError(f"point has dimension {x.shape[-1]}, family lives on R^{family.ambient_dim}")
    return x


def _unit_points(family: FKMFamily, x) -> np.ndarray:
    """x / |x| row by row; a zero row raises ValueError."""
    x = _check_dim(family, x)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("x must be nonzero: the point used is x / |x|")
    return x / norms


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the first axis of a C-contiguous (d, n) block, in numpy's row-sum order.

    Entry j equals, bit for bit, ``np.sum`` of the row-major row a[:, j]:
    numpy's pairwise sum.  Under 8 values it adds them in order; up to 128 it
    keeps 8 strided accumulators, combines them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the rest in order; above
    128 it splits at d/2 rounded down to a multiple of 8 and adds the sums of
    the halves.  Each accumulator is one ``np.add.reduce`` over the outer axis,
    which adds in order.  When d = 128 * 2^p every leaf has 128 values, so all
    leaves are summed at once and the tree is added level by level.  Like
    numpy's, every reduce starts from +0.0, so no sum is -0.0.  Where two NaNs
    meet, the sign of the NaN that propagates may differ from numpy's.
    """
    d, n = a.shape
    if d < 8:
        return np.add.reduce(a, axis=0)
    leaves = d // 128
    if d > 128 and (d % 128 or leaves & (leaves - 1)):
        half = d // 2 - d // 2 % 8
        return _row_sums(a[:half]) + _row_sums(a[half:])
    leaves = max(leaves, 1)
    size = d // leaves
    strided = size - size % 8
    acc = np.add.reduce(a.reshape(leaves, size, n)[:, :strided].reshape(leaves, strided // 8, 8 * n), axis=1)
    # the accumulators of all leaves, in order, form one balanced tree
    acc = acc.reshape(8 * leaves, n)
    while len(acc) > 1:
        acc = acc[0::2] + acc[1::2]
    sums = acc[0]
    for row in a[strided:size]:
        sums += row
    return sums


def _block_slices(n: int, d: int):
    """Slices over n rows of width d, about ``_BLOCK_ELEMENTS`` values each."""
    step = max(1, _BLOCK_ELEMENTS // d)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _feature_blocks(x: np.ndarray, *widths: int):
    """Walk the rows of 2-D x in blocks of about ``_BLOCK_ELEMENTS`` values, feature-major.

    Yields ``(rows, signed, *buffers)``: the slice; the block's [x | -x]
    transposed, a (2d, n) array whose first d rows are x[rows].T, so that
    P_i x is a gather of whole rows of it; and one uninitialized (w, n) array
    per width.  All are C-contiguous and allocated once per call.
    """
    n, d = x.shape
    blocks = _block_slices(n, d)
    size = blocks[0].stop if blocks else 0
    widths = (2 * d, *widths)
    flat = [np.empty(w * size) for w in widths]
    for rows in blocks:
        count = rows.stop - rows.start
        signed, *buffers = (buf[: w * count].reshape(w, count) for buf, w in zip(flat, widths))
        signed[:d] = x[rows].T
        np.negative(signed[:d], out=signed[d:])
        yield rows, signed, *buffers


def _block_forms(family: FKMFamily, signed: np.ndarray, q: np.ndarray, grad: np.ndarray,
                 px: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """r = |x|^2, q_i = <P_i x, x> and grad F = 4 r x - 8 sum_i q_i P_i x of one feature-major block.

    ``signed`` is the block's (2d, n) [x | -x] from ``_feature_blocks``; q
    (m+1, n) and grad (d, n) receive the forms and the gradient, and px and
    tmp are (d, n) scratch.  Returns r.  One gather per P_i, held one at a
    time; grad accumulates over i = 0..m in that order.
    """
    x = signed[: len(grad)]
    r = _row_sums(np.multiply(x, x, out=tmp))
    np.multiply(4.0 * r, x, out=grad)
    for index, qi in zip(family._gathers, q):
        # mode="clip" lets np.take write straight into px ("raise" buffers)
        np.take(signed, index, axis=0, out=px, mode="clip")
        qi[...] = _row_sums(np.multiply(px, x, out=tmp))
        px *= 8.0 * qi
        grad -= px
    return r


def _forms_and_gradient(family: FKMFamily, x: np.ndarray):
    """r = |x|^2, q_i = <P_i x, x> and grad F = 4 r x - 8 sum_i q_i P_i x, row by row."""
    flat = x.reshape(-1, x.shape[-1])
    d, k = flat.shape[1], len(family._gathers)
    r = np.empty(len(flat))
    q = np.empty((len(flat), k))
    grad = np.empty(flat.shape)
    for rows, signed, qb, gb, px, tmp in _feature_blocks(flat, k, d, d, d):
        r[rows] = _block_forms(family, signed, qb, gb, px, tmp)
        q[rows] = qb.T
        grad[rows] = gb.T
    lead = x.shape[:-1]
    return r.reshape(lead), q.reshape(lead + q.shape[-1:]), grad.reshape(x.shape)


def _level_and_tangent(family: FKMFamily, x: np.ndarray):
    """F(x) and the spherical gradient grad F - 4 F(x) x, from one pass."""
    r, q, grad = _forms_and_gradient(family, x)
    f = r**2 - 2.0 * np.sum(q * q, axis=-1)
    return f, grad - 4.0 * f[..., None] * x


def quadratic_forms(family: FKMFamily, x) -> np.ndarray:
    """<P_i x, x> for i = 0..m, stacked along the last axis."""
    x = _check_dim(family, x)
    flat = x.reshape(-1, x.shape[-1])
    d = flat.shape[1]
    q = np.empty((len(flat), len(family._gathers)))
    for rows, signed, px in _feature_blocks(flat, d):
        for i, index in enumerate(family._gathers):
            np.take(signed, index, axis=0, out=px, mode="clip")
            q[rows, i] = _row_sums(np.multiply(px, signed[:d], out=px))
    return q.reshape(x.shape[:-1] + q.shape[-1:])


def eval_F(family: FKMFamily, x) -> np.ndarray | float:
    """F(x) = |x|^4 - 2 sum_i <P_i x, x>^2 (homogeneous of degree 4)."""
    x = _check_dim(family, x)
    q = quadratic_forms(family, x)
    flat = x.reshape(-1, x.shape[-1])
    flat_q = q.reshape(-1, q.shape[-1])
    out = np.empty(len(flat))
    # numpy's row-major sums, over row blocks so that no temporary outgrows a block
    for rows in _block_slices(*flat.shape):
        r = np.add.reduce(np.square(flat[rows]), axis=-1)
        out[rows] = r**2 - 2.0 * np.add.reduce(np.square(flat_q[rows]), axis=-1)
    out = out.reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


def grad_F(family: FKMFamily, x) -> np.ndarray:
    """grad F = 4 |x|^2 x - 8 sum_i <P_i x, x> P_i x."""
    return _forms_and_gradient(family, _check_dim(family, x))[2]


def spherical_gradient(family: FKMFamily, x) -> np.ndarray:
    """Gradient of f = F|_sphere at unit x: grad F - 4 F(x) x (tangent to the sphere)."""
    return _level_and_tangent(family, _check_dim(family, x))[1]


def unit_normal(family: FKMFamily, x) -> np.ndarray:
    """xi = spherical gradient at x / |x|, normalized; undefined near the focal sets."""
    g = spherical_gradient(family, _unit_points(family, x))
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    if np.any(norms < _FOCAL_GRAD_CUTOFF):
        raise NearFocalError("spherical gradient too small; point is (nearly) focal")
    return g / norms


def level_angle(t: float) -> float:
    """theta_0 with cos(4 theta_0) = t: the distance from the level f = t to M1."""
    return math.acos(t) / 4.0


def parallel_map(family: FKMFamily, x, theta: float) -> np.ndarray:
    """phi_theta(x) = cos(theta) x + sin(theta) xi(x): normal-geodesic transport of x / |x|.

    Moving distance theta toward M1 takes the level cos(4 theta_0) to
    cos(4 (theta_0 - theta)); theta = theta_0 lands on M1 itself.
    """
    x = _unit_points(family, x)
    xi = unit_normal(family, x)
    return math.cos(theta) * x + math.sin(theta) * xi


@dataclass(frozen=True)
class NormalFrame:
    """Base point, unit normal and an orthonormal tangent basis."""

    point: np.ndarray
    normal: np.ndarray
    tangent_basis: np.ndarray


def normal_frame(family: FKMFamily, x) -> NormalFrame:
    """The frame at x / |x|."""
    x = _unit_points(family, x)
    if x.ndim != 1:
        raise ValueError("normal_frame expects a single point")
    xi = unit_normal(family, x)
    return NormalFrame(point=x, normal=xi, tangent_basis=_tangent_basis(x, xi))


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
        # a read-only view: the caller's array keeps its own flags, and nothing is copied
        pts = np.asarray(self.points, dtype=np.float64).view()
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


def _row_norms(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """|x| of each column of the feature-major block x, through the scratch array tmp of x's shape."""
    return np.sqrt(_row_sums(np.multiply(x, x, out=tmp)))


def _compact(x: np.ndarray, keep: np.ndarray) -> int:
    """Move the rows of x where ``keep`` holds to its front, in order; return how many.

    The move goes block by block, so no copy is larger than a block: row j
    comes from a row idx[j] >= j, which no earlier block has written.
    """
    idx = np.flatnonzero(keep)
    if len(idx) < len(x):
        for rows in _block_slices(len(idx), x.shape[1]):
            x[rows] = x[idx[rows]]
    return len(idx)


def _sample(family: FKMFamily, count, seed: int, tol, level, target: float, propose) -> PointCloud:
    """The rejection loop of every sampler: keep the rows with |f - target| <= tol.

    The cloud's array is filled in place.  ``propose(rng, out)`` draws
    ``len(out)`` candidates for the unfilled tail ``out`` of the cloud, writes
    those it keeps to the front of ``out`` and returns their count; the
    candidates that miss the tolerance are then compacted away.  Sampling
    fails after ``_MAX_ATTEMPTS`` batches, or once at least 2*count draws have
    been made and more than half of them failed.  The cloud's meta records the
    draws, the batches, the candidates ``dropped`` by the proposal and
    ``rejected`` by the tolerance, and the worst kept |f - target|.
    """
    for arg, value in (("count", count), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{arg} must be an int >= 0, got {value!r}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    name = level if isinstance(level, str) else f"level set f = {level}"
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = np.empty((count, family.ambient_dim))
    filled = drawn = dropped = rejected = batches = 0
    worst = 0.0
    while filled < count:
        batches += 1
        if batches > _MAX_ATTEMPTS:
            raise SamplingError(f"sampling {name} filled only {filled} of {count} points")
        cand = out[filled:]
        made = propose(rng, cand)
        drawn += len(cand)
        dropped += len(cand) - made
        resid = np.abs(eval_F(family, cand[:made]) - target)
        ok = resid <= tol
        worst = max(worst, float(np.max(resid, where=ok, initial=0.0)))
        kept = _compact(cand[:made], ok)
        rejected += made - kept
        filled += kept
        if drawn >= 2 * count and filled < drawn // 2:
            raise SamplingError(f"sampling {name} failed for more than half of {drawn} draws")
    counters = {"draws": drawn, "batches": batches, "dropped": dropped, "rejected": rejected,
                "max_residual": worst}
    _log.debug("sampled %d points of %s, seed %d: %s", count, name, seed, counters)
    return PointCloud(out, level, int(seed), tol, {**_family_meta(family), **counters})


def _transported_draws(family: FKMFamily, rng, out: np.ndarray, theta: float) -> int:
    """Uniform sphere points moved along their normal geodesic to level cos(4 theta).

    Draws ``len(out)`` standard normal rows into ``out`` and turns them, in
    place and one feature-major block at a time, into the unit rows of their
    transported points; returns how many it kept at the front of ``out``.
    Draws within 1e-8 of a focal value, where the normal is undefined, are
    dropped.  The block buffers, forms included, are allocated once per call.
    """
    rng.standard_normal(out=out)
    d, k = out.shape[1], len(family._gathers)
    keep = np.empty(len(out), dtype=bool)
    for rows, signed, q, xi, px, tmp in _feature_blocks(out, k, d, d, d):
        x = signed[:d]
        signed /= _row_norms(x, tmp)  # both halves: -x / |x| is -(x / |x|)
        r = _block_forms(family, signed, q, xi, px, tmp)
        f = r**2 - 2.0 * _row_sums(q * q)
        keep[rows] = ok = np.abs(f) < 1.0 - 1e-8
        # the spherical gradient, then the unit normal; dropped rows divide by 1
        xi -= np.multiply(4.0 * f, x, out=tmp)
        xi /= np.where(ok, _row_norms(xi, tmp), 1.0)
        move = np.arccos(np.where(ok, f, 1.0)) / 4.0 - theta
        x *= np.cos(move)
        x += np.multiply(np.sin(move), xi, out=tmp)
        x /= _row_norms(x, tmp)
        out[rows] = x.T
    return _compact(out, keep)


def sample_level_set(
    family: FKMFamily, t: float, count: int, seed: int, tol: float = _LEVEL_TOL
) -> PointCloud:
    """``count`` points with f = t (|t| < 1), |x| = 1, deterministic in seed.

    Each uniform sphere point is transported along its normal geodesic by the
    exact angle that carries its level onto t (the parallel map is exact on an
    isoparametric family); rows that miss the tolerance are resampled.  The
    cloud samples the normalized volume of the level set.
    """
    if not math.isfinite(t):
        raise ValueError(f"level t must be finite, got t = {t}")
    if abs(t) >= 1.0 - 1e-6:
        raise NearFocalError(f"level t = {t} is too close to the focal values +-1")
    theta = level_angle(t)
    return _sample(
        family, count, seed, tol, t, t, lambda rng, out: _transported_draws(family, rng, out, theta)
    )


def _gauss_newton_focal(family: FKMFamily, x: np.ndarray, iters: int = 4) -> np.ndarray:
    """Project rows of x onto M1 = {<P_i x, x> = 0 for all i, |x| = 1}.

    The constraint gradients are 2 P_i x and 2 x, so by the Clifford relations
    the Gauss-Newton normal matrix is exactly 4 [[r I, q], [q^T, r]].  Its
    minimum-norm step is x <- x - ((1 - z) w / r + z x) / 2, with s = |q|^2,
    z = (r (r - 1) - s) / (r^2 - s) and w = sum_i q_i P_i x = (4 r x - grad F) / 8.
    The matrix is singular only where r^2 - s = r^2 (1 + f) / 2 vanishes, on
    M2; near M1 (q ~ 0, r ~ 1) it is close to 4 I, so the step is well
    conditioned and convergence is quadratic.
    """
    for _ in range(iters):
        r, q, grad = _forms_and_gradient(family, x)
        s = np.sum(q * q, axis=-1)
        z = (r * (r - 1.0) - s) / (r * r - s)
        w = (4.0 * r[:, None] * x - grad) / 8.0
        x = x - 0.5 * (((1.0 - z) / r)[:, None] * w + z[:, None] * x)
    return x


def sample_focal_M1(
    family: FKMFamily, count: int, seed: int, tol: float = _LEVEL_TOL
) -> PointCloud:
    """Points of M1 = f^{-1}(1), i.e. {<P_i x, x> = 0 for all i} on the sphere.

    Uniform sphere points are transported to the f = 1 end of their normal
    geodesic, where the exact transport lands on M1; rows that miss the
    residual tolerance are resampled.
    """
    return _sample(
        family, count, seed, tol, "M1", 1.0, lambda rng, out: _transported_draws(family, rng, out, 0.0)
    )


def _eigenspace_draws(family: FKMFamily, rng, out: np.ndarray) -> int:
    """Unit points of M2 written to the front of ``out``; returns how many.

    Per row, a unit c is drawn in R^{m+1} and y standard normal, straight into
    ``out``; y + sum_i c_i P_i y, normalized, is the candidate.  Each
    feature-major block takes the products c_i (P_i y) in the order i = 0..m
    onto a zero sum, which is then added to y.  Rows whose norm is <= 1e-6
    are dropped.
    """
    c = rng.standard_normal((len(out), len(family._gathers)))
    rng.standard_normal(out=out)
    d, k = out.shape[1], c.shape[1]
    keep = np.empty(len(out), dtype=bool)
    for rows, signed, ct, term, acc in _feature_blocks(out, k, d, d):
        ct[...] = c[rows].T
        ct /= _row_norms(ct, term[:k])
        acc[...] = 0.0
        for index, ci in zip(family._gathers, ct):
            np.take(signed, index, axis=0, out=term, mode="clip")
            term *= ci
            acc += term
        y = signed[:d]
        y += acc
        norms = _row_norms(y, term)
        keep[rows] = ok = norms > 1e-6
        y /= np.where(ok, norms, 1.0)
        out[rows] = y.T
    return _compact(out, keep)


def sample_focal_M2(
    family: FKMFamily, count: int, seed: int, tol: float = _LEVEL_TOL
) -> PointCloud:
    """Points of M2 = f^{-1}(-1) via the eigenspace construction.

    For a unit c in R^{m+1}, P = sum c_i P_i satisfies P^2 = I; any unit x in
    its +1 eigenspace has sum_i <P_i x, x>^2 = 1, hence f(x) = -1 exactly.
    """
    return _sample(
        family, count, seed, tol, "M2", -1.0, lambda rng, out: _eigenspace_draws(family, rng, out)
    )


# -- shape operator ----------------------------------------------------------------


@dataclass(frozen=True)
class ShapeSpectrum:
    """Principal curvatures of a level hypersurface at a point, grouped by target.

    ``targets`` are cot(theta + (alpha-1) pi/4) for alpha = 1..4; ``clusters``
    holds, per alpha, the mean and the count of the eigenvalues nearest to it.
    """

    eigenvalues: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    targets: tuple[float, ...]


def shape_operator_spectrum(family: FKMFamily, x) -> ShapeSpectrum:
    """Exact shape operator eigenvalues on the level through x / |x|.

    With T = {x, nu}^perp and orthonormal basis rows B, A = -(Hess F - 4 F I)|_T
    / |grad_S f|, where Hess F = 4 r I + 8 x x^T - 8 sum_i (2 P_i x (P_i x)^T
    + q_i P_i).  B x = 0 drops the x x^T term, and one pass of P_i over the
    rows of B gives both B P_i x and B (sum_i q_i P_i) B^T.  The point fixes
    its own level: theta = level_angle(F(x)), and each eigenvalue is assigned
    to the nearest of the four targets, whose counts are (m1, m2, m1, m2).
    """
    x = _unit_points(family, x)
    if x.ndim != 1:
        raise ValueError("shape_operator_spectrum expects a single point")
    r, q, grad = _forms_and_gradient(family, x)
    f = float(r * r - 2.0 * np.dot(q, q))
    g = grad - 4.0 * f * x
    g_norm = np.linalg.norm(g)
    if g_norm < _FOCAL_GRAD_CUTOFF or not abs(f) < 1.0:
        raise NearFocalError("point is (nearly) focal; no level hypersurface passes through it")
    basis = _tangent_basis(x, g / g_norm)
    # [B | -B] transposed: (B P_i)^T = P_i B^T is a gather of its rows.  B P_i
    # is then made row-major, since BLAS's summation order depends on the layout.
    signed = np.concatenate((basis.T, -basis.T))
    bpx = np.empty((len(q), len(basis)))
    weighted = np.zeros_like(basis)
    for i, index in enumerate(family._gathers):
        bp = np.ascontiguousarray(np.take(signed, index, axis=0).T)
        bpx[i] = bp @ x
        weighted += q[i] * bp
    a = 16.0 * bpx.T @ bpx + 8.0 * weighted @ basis.T - 4.0 * (r - f) * np.eye(len(basis))
    eigs = np.linalg.eigvalsh(a / g_norm)

    theta = level_angle(f)
    targets = tuple(1.0 / math.tan(theta + alpha * math.pi / 4.0) for alpha in range(4))
    nearest = np.argmin(np.abs(eigs[:, None] - np.array(targets)), axis=1)
    clusters = tuple(
        (float(eigs[nearest == alpha].mean()), int(np.count_nonzero(nearest == alpha)))
        for alpha in range(4)
    )
    return ShapeSpectrum(eigenvalues=eigs, clusters=clusters, targets=targets)
