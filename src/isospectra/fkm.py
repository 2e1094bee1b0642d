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
<P_i x, P_j x> = delta_ij |x|^2.  Every family is in the block form of
Ferus-Karcher-Münzner (1981), P_0 = diag(I, -I) and P_i = [[0, B_i],
[B_i^T, 0]] for i >= 1 on R^l + R^l, so for x = (a, b) the forms read from
half the coordinates: r = |x|^2 = |a|^2 + |b|^2, q_0 = <P_0 x, x> =
|a|^2 - |b|^2 and, for i >= 1, q_i = <B_i b, a> + <B_i^T a, b> = 2 <a, B_i b>,
since <B_i^T a, b> = <a, B_i b>.  B_i b is the top half of P_i x.  One pass
that forms each P_i x in turn yields r, q and grad F = 4 r x - 8 sum_i q_i P_i x
at once; F, the spherical gradient, the normal and the level-set sampler's
normal-geodesic transport derive from that one pass.

Every kernel walks the rows in cache-sized blocks, feature-major: a block's
[x | -x] is transposed once into a (2d, rows) array.  The system stores each
P_i as its signed permutation: coordinate r of P_i x is sign_r x_{perm_r}.  The
family derives from those arrays one index per P_i into the rows of the block,
and P_i x is one gather of whole contiguous rows, signs included, O(d) per
point at every ambient dimension.  Each entry of P_i x is one entry of x times
+-1, so the gather gives the same bits as a product with the dense matrix.  The
sums over a point's coordinates (|a|^2, |b|^2, each <a, B_i b>, the norms)
run down the block's columns, adding the rows in index order from +0.0
(``_column_sums``), so no sum depends on the block a point falls in or on
numpy's SIMD targets.  ``eval_F`` takes q from ``quadratic_forms`` and sums
r = |a|^2 + |b|^2 and sum_i q_i^2 row-major, with numpy's own sums.

Shape operators are exact: they come from the closed-form Hessian
Hess F = 4 r I + 8 x x^T - 8 sum_i (2 P_i x (P_i x)^T + q_i P_i), restricted
to the tangent space of the level through the point, through the same pass.

Sampling is deterministic given (seed): one seeded generator makes every draw.
The standard normals of a batch of several blocks are drawn one block ahead
on a one-worker executor, in block order, from that same generator, while the
calling thread transforms the block before; a one-block batch is drawn on the
calling thread.  Consecutive fills give the stream of one whole-batch fill,
so results do not depend on scheduling or thread counts.  Every kernel runs
on the calling thread.  Each batch streams into the cloud's own array: a
proposal draws straight into the unfilled tail, turns the draws into
candidates in place one row block at a time, and the rows it drops or that
miss the level check are compacted away in place.  Besides the cloud, a call
holds the level check's per-row forms q and a few block-sized buffers
allocated once per call; the level-set transport forms the gradient in those
buffers, block by block.  Each cloud's meta records its draws, batches,
dropped and rejected candidates and its worst residual, and the
``isospectra`` logger reports them at DEBUG.
Level-set clouds are push-forwards of the uniform sphere measure along the
normal geodesics, and the transport is exact: f(cos s x + sin s xi(x)) =
cos 4(theta_0 - s) (Münzner 1980).  That push-forward is the normalized volume
of the leaf, because the principal curvatures are constant on each leaf, so
the Jacobian of the transport between leaves depends on the distance alone;
the tests compare its second moments with uniform sphere draws in the shell
|f - t| < 1e-3.
M1 = {|a| = |b| = 1/sqrt 2, a orthogonal to B_1 b, ..., B_m b} for x = (a, b)
is a bundle over the sphere of b in R^l (Ferus-Karcher-Münzner 1981): the
B_i b are orthogonal, each of length |b|, and the fibre is the sphere of
radius 1/sqrt 2 in their orthogonal complement.  Each M1 candidate is drawn
from 2l normals (a', b'): b' is normalized, and a' is projected onto the
fibre's subspace by Gram-Schmidt and normalized, with m gathers of width l
and no transcendental function.  The horizontal lift of the base has Gram
determinant det(I + A^T A) = 2^m at every point (``sample_focal_M1``), so
"b uniform, then a uniform on its fibre" is the normalized volume of M1; the
transport to f = 1 pushes the sphere measure forward to the same law, which
the tests check.
M2 is the union over unit c in R^{m+1} of the unit spheres of the +1
eigenspaces E+(P_c), P_c = sum c_i P_i (Ferus-Karcher-Münzner 1981), each of
dimension l.  The family requires the block form P_0 = diag(I, -I),
P_i = [[0, B_i], [B_i^T, 0]], and each M2 candidate is drawn from m+1+l
normals, g and then u in R^l: x = ((|g| + g_0) u, B_g^T u) / norm, with
B_g = sum_{i>=1} g_i B_i, lies in E+(P_c) for c = g/|g|, and u -> x before
normalizing is a scaled isometry onto E+(P_c).  So x is uniform on the unit
sphere of E+(P_c), with c uniform on S^m: the law of the normalized
projection y + P_c y of a standard normal y in R^{2l}, from half the normals
and half the gathers.  Whether the M2 clouds are intrinsic-uniform has not
been measured.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .catalog import MultiplicityPair, clifford_multiplier, delta
from .clifford import CliffordSystem, build_system, verify_system
from .errors import InvalidPairError, NearFocalError, SamplingError

SCHEMA_VERSION = 2

_log = logging.getLogger(__name__)

_LEVEL_TOL = 1e-10
_FOCAL_GRAD_CUTOFF = 1e-8
_MAX_ATTEMPTS = 50
_SQRT2 = math.sqrt(2.0)
# The kernels walk the rows in blocks of about this many float64 values
# (256 KiB), so a block, its product P_i x and the gradient accumulator stay in
# cache whatever the batch size.  Blocks of 2^14-2^15 values sampled fastest;
# one block for the whole batch was 4-36% slower at d = 16-256.
_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class FKMFamily:
    """The family of a Clifford system in block form, with its pair (m, l-m-1) and gather indices derived from it."""

    system: CliffordSystem
    pair: MultiplicityPair = field(init=False, compare=False)
    _gathers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _half_gathers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Derive the pair and the gather indices; InvalidPairError when m2 = l - m - 1 <= 0,
        ValueError when the system is not in block form or, after that, fails
        ``verify_system`` (the message lists the failed identities).

        Block form, as ``build_system`` makes it, is P_0 = diag(I, -I) and
        P_i = [[0, B_i], [B_i^T, 0]] for i >= 1 on R^l + R^l.  Row r of P_i x
        is sign_r x_{perm_r}, so entry r of P_i's index into [x | -x] is perm_r
        for a +1 and perm_r + d for a -1.  Rows l..2l-1 of that index for
        i >= 1 form B_i^T u from the top half u of x; ``_half_gathers`` aims
        them at the rows of a feature-major [g | u | -g | -u] block, g in
        R^{m+1} and u in R^l (``_eigenspace_draws``).
        """
        m, l = self.system.m, self.system.l
        if l - m - 1 < 1:
            raise InvalidPairError(f"(m, l) = ({m}, {l}) gives m2 = {l - m - 1} <= 0; no isoparametric family")
        object.__setattr__(self, "pair", MultiplicityPair(4, m, l - m - 1))
        perm, sign = self.system.perm, self.system.sign
        d, w = self.system.ambient_dim, m + 1 + l
        block = (perm[:, :l] >= l).all(axis=1) & (perm[:, l:] < l).all(axis=1)
        block[0] = np.array_equal(perm[0], np.arange(d)) and np.array_equal(sign[0], np.repeat([1, -1], l))
        if not block.all():
            raise ValueError(f"P_{int(np.argmin(block))} is not in block form: P_0 = diag(I, -I) "
                             "and P_i = [[0, B_i], [B_i^T, 0]] for i >= 1")
        report = verify_system(self.system)
        if not report.passed:
            raise ValueError(f"not a Clifford system: {'; '.join(report.failures)}")
        gathers = np.where(sign > 0, perm, perm + d)
        bottom = gathers[1:, l:]
        halves = np.where(bottom < d, bottom, bottom - d + w) + m + 1
        for name, index in (("_gathers", gathers), ("_half_gathers", halves)):
            index.setflags(write=False)
            object.__setattr__(self, name, tuple(index))

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
        return FKMFamily(build_system(m, k))

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
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"point is complex, family lives on R^{family.ambient_dim}")
    x = x.astype(np.float64, copy=False)
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


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sums down the columns of a C-contiguous (d, n) block: the rows added in index order, from +0.0.

    ``np.add.reduce`` over the outer axis adds the rows in order, but numpy
    sums a single contiguous column pairwise, so that one is accumulated.
    """
    if a.shape[1] == 1:
        return np.add.accumulate(a, axis=0)[-1] + 0.0
    return np.add.reduce(a, axis=0)


def _block_slices(n: int, d: int):
    """Slices over n rows of width d, about ``_BLOCK_ELEMENTS`` values each."""
    step = max(1, _BLOCK_ELEMENTS // d)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _feature_blocks(x: np.ndarray, *widths: int, wait=None):
    """Walk the rows of 2-D x in blocks of about ``_BLOCK_ELEMENTS`` values, feature-major.

    Yields ``(rows, signed, *buffers)``: the slice; the block's [x | -x]
    transposed, a (2d, n) array whose first d rows are x[rows].T, so that
    P_i x is a gather of whole rows of it; and one uninitialized (w, n) array
    per width.  All are C-contiguous and allocated once per call.  ``wait``,
    if given, is called before each block is read and returns once the
    block's rows of x are written (``_drawn_ahead``).
    """
    n, d = x.shape
    blocks = _block_slices(n, d)
    size = blocks[0].stop if blocks else 0
    widths = (2 * d, *widths)
    flat = [np.empty(w * size) for w in widths]
    for rows in blocks:
        if wait is not None:
            wait()
        count = rows.stop - rows.start
        signed, *buffers = (buf[: w * count].reshape(w, count) for buf, w in zip(flat, widths))
        signed[:d] = x[rows].T
        np.negative(signed[:d], out=signed[d:])
        yield rows, signed, *buffers


@contextmanager
def _drawn_ahead(rng, x: np.ndarray):
    """Standard normals into the row blocks of 2-D x, in block order, one block ahead.

    ``with _drawn_ahead(rng, x) as wait:`` yields a ``wait()`` that returns
    once the next block of ``_block_slices`` is filled, or re-raises the
    exception of its fill.  With two or more blocks the fills run on one
    worker thread, so block j+1 is drawn (numpy fills without the GIL) while
    the caller transforms block j; leaving the ``with``, early or not, cancels
    the fills not yet started and joins the worker.  A batch of one block is
    filled at once on the calling thread, where nothing could overlap.  The
    fills are consecutive calls on ``rng``, so x receives exactly the stream
    of one ``rng.standard_normal(out=x)``; the caller draws nothing from
    ``rng`` until the ``with`` ends.
    """
    blocks = _block_slices(*x.shape)
    if len(blocks) < 2:
        rng.standard_normal(out=x)
        yield lambda: None
        return
    pool = ThreadPoolExecutor(1, thread_name_prefix="isospectra-draws")
    try:
        fills = iter([pool.submit(rng.standard_normal, out=x[rows]) for rows in blocks])
        yield lambda: next(fills).result()
    finally:
        pool.shutdown(cancel_futures=True)


def _block_forms(family: FKMFamily, signed: np.ndarray, q: np.ndarray, px: np.ndarray, tmp: np.ndarray,
                 grad: np.ndarray | None = None) -> np.ndarray:
    """The forms of one feature-major block in block form, and grad F if asked; returns r.

    ``signed`` is the block's (2d, n) [x | -x] from ``_feature_blocks``, with
    x = (a, b) and a, b in R^l.  It writes q_0 = |a|^2 - |b|^2 into q[0];
    then, for i = 1..m, it gathers the first len(px) rows of P_i x into px and
    writes q_i = 2 <a, B_i b> into q[i].  P_i x = (B_i b, B_i^T a) and
    <B_i^T a, b> = <a, B_i b> give that q_i; B_i b is the top half of P_i x,
    so px may hold l rows (the forms alone) or d (all of P_i x, for the
    gradient).  Given a (d, n) ``grad``, it accumulates grad F =
    4 r x - 8 sum_i q_i P_i x there over i = 0..m in that order, P_0 x = (a, -b)
    taken from x itself.  tmp is (d, n) scratch; r = |a|^2 + |b|^2.
    """
    x = signed[: len(signed) // 2]
    l = len(x) // 2
    a = x[:l]
    squares = np.multiply(x, x, out=tmp)
    a2, b2 = _column_sums(squares[:l]), _column_sums(squares[l:])
    np.subtract(a2, b2, out=q[0])
    r = a2 + b2
    if grad is not None:
        np.multiply(4.0 * r, x, out=grad)
        step = 8.0 * q[0]
        grad[:l] -= np.multiply(step, a, out=tmp[:l])
        grad[l:] += np.multiply(step, x[l:], out=tmp[:l])  # minus 8 q_0 (-b)
    for index, qi in zip(family._gathers[1:], q[1:]):
        # mode="clip" lets np.take write straight into px ("raise" buffers)
        np.take(signed, index[: len(px)], axis=0, out=px, mode="clip")
        np.multiply(_column_sums(np.multiply(px[:l], a, out=tmp[:l])), 2.0, out=qi)
        if grad is not None:
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
        r[rows] = _block_forms(family, signed, qb, px, tmp, gb)
        q[rows] = qb.T
        grad[rows] = gb.T
    lead = x.shape[:-1]
    return r.reshape(lead), q.reshape(lead + q.shape[-1:]), grad.reshape(x.shape)


def quadratic_forms(family: FKMFamily, x) -> np.ndarray:
    """q_i = <P_i x, x> for i = 0..m, stacked along the last axis.

    For x = (a, b) in block form q_0 = |a|^2 - |b|^2 and q_i = 2 <a, B_i b>
    for i >= 1, since P_i x = (B_i b, B_i^T a) and <B_i^T a, b> = <a, B_i b>
    (``_block_forms``): m gathers, products and sums of width l per block.
    """
    x = _check_dim(family, x)
    flat = x.reshape(-1, x.shape[-1])
    l = flat.shape[1] // 2
    q = np.empty((len(flat), len(family._gathers)))
    for rows, signed, qb, half, tmp in _feature_blocks(flat, len(family._gathers), l, 2 * l):
        _block_forms(family, signed, qb, half, tmp)
        q[rows] = qb.T
    return q.reshape(x.shape[:-1] + q.shape[-1:])


def eval_F(family: FKMFamily, x) -> np.ndarray | float:
    """F(x) = |x|^4 - 2 sum_i <P_i x, x>^2 (homogeneous of degree 4).

    For x = (a, b) in block form q_0 = |a|^2 - |b|^2 and q_i = 2 <a, B_i b>,
    since <B_i^T a, b> = <a, B_i b>; q comes from ``quadratic_forms``, and
    |x|^2 = |a|^2 + |b|^2 and sum_i q_i^2 are numpy's row-major sums, which
    may differ from the kernels' in-order r in the last bit.
    """
    x = _check_dim(family, x)
    q = quadratic_forms(family, x)
    flat = x.reshape(-1, x.shape[-1])
    flat_q = q.reshape(-1, q.shape[-1])
    l = flat.shape[1] // 2
    out = np.empty(len(flat))
    # numpy's row-major sums, over row blocks so that no temporary outgrows a block
    for rows in _block_slices(*flat.shape):
        halves = np.add.reduce(np.square(flat[rows]).reshape(-1, l), axis=-1)  # |a|^2, |b|^2 per row
        r = halves[0::2] + halves[1::2]
        out[rows] = r**2 - 2.0 * np.add.reduce(np.square(flat_q[rows]), axis=-1)
    out = out.reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


def grad_F(family: FKMFamily, x) -> np.ndarray:
    """grad F = 4 |x|^2 x - 8 sum_i <P_i x, x> P_i x."""
    return _forms_and_gradient(family, _check_dim(family, x))[2]


def spherical_gradient(family: FKMFamily, x) -> np.ndarray:
    """Gradient of f = F|_sphere at unit x: grad F - 4 F(x) x (tangent to the sphere)."""
    x = _check_dim(family, x)
    r, q, grad = _forms_and_gradient(family, x)
    f = r**2 - 2.0 * np.sum(q * q, axis=-1)
    return grad - 4.0 * f[..., None] * x


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
        """Row-major coordinates as CSV plus a JSON sidecar next to it; ValueError, before writing, for a .json path."""
        csv_path = Path(csv_path)
        if csv_path.with_suffix(".json") == csv_path:
            raise ValueError(f"{csv_path} is the sidecar's own path; save the CSV under another suffix")
        np.savetxt(csv_path, self.points, fmt="%.17g", delimiter=",", newline="\r\n")
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
    return np.sqrt(_column_sums(np.multiply(x, x, out=tmp)))


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


def _sample(family: FKMFamily, count, seed: int, tol, level, target: float, propose,
            provenance: dict | None = None) -> PointCloud:
    """The rejection loop of every sampler: keep the rows with |f - target| <= tol.

    The cloud's array is filled in place.  ``propose(rng, out)`` draws
    ``len(out)`` candidates for the unfilled tail ``out`` of the cloud, writes
    those it keeps to the front of ``out`` and returns their count; the
    candidates that miss the tolerance are then compacted away.  Sampling
    fails after ``_MAX_ATTEMPTS`` batches, or once at least 2*count draws have
    been made and more than half of them failed.  The cloud's meta records the
    draws, the batches, the candidates ``dropped`` by the proposal and
    ``rejected`` by the tolerance, the worst kept |f - target| and the
    entries of ``provenance``.
    """
    for arg, value in (("count", count), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{arg} must be an int >= 0, got {value!r}")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite real number > 0, got {tol!r}")
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
    meta = {**_family_meta(family), **(provenance or {}), **counters}
    return PointCloud(out, level, int(seed), float(tol), meta)


def _transported_draws(family: FKMFamily, rng, out: np.ndarray, theta: float) -> int:
    """Uniform sphere points moved along their normal geodesic to level cos(4 theta).

    Draws ``len(out)`` standard normal rows into ``out``, one block ahead
    (``_drawn_ahead``), and turns them, in place and one feature-major block
    at a time, into the unit rows of their transported points; returns how
    many it kept at the front of ``out``.  Draws within 1e-8 of a focal value,
    where the normal is undefined, are dropped.  The block buffers, forms
    included, are allocated once per call.
    """
    d, k = out.shape[1], len(family._gathers)
    keep = np.empty(len(out), dtype=bool)
    with _drawn_ahead(rng, out) as drawn:
        for rows, signed, q, xi, px, tmp in _feature_blocks(out, k, d, d, d, wait=drawn):
            x = signed[:d]
            signed /= _row_norms(x, tmp)  # both halves: -x / |x| is -(x / |x|)
            r = _block_forms(family, signed, q, px, tmp, xi)
            f = r**2 - 2.0 * _column_sums(q * q)
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
    if isinstance(t, bool) or not isinstance(t, numbers.Real) or not math.isfinite(t):
        raise ValueError(f"level t must be a finite real number, got {t!r}")
    t = float(t)  # the sidecar records it, and JSON writes no numpy float
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


def _bundle_draws(family: FKMFamily, rng, out: np.ndarray) -> int:
    """Unit points of M1 written to the front of ``out``; returns how many.

    Each row draws d = 2l standard normals (a', b') into ``out``, one block
    ahead (``_drawn_ahead``), and is turned in place, one feature-major block
    at a time, into (a / |a|, b' / |b'|) / sqrt 2, where a is a' projected
    onto the orthogonal complement of B_1 b', ..., B_m b' by Gram-Schmidt.
    The B_i b' are orthogonal, each of length |b'|, so step i subtracts
    <a, B_i b'> / |b'|^2 times B_i b', gathered from the top half of P_i's
    index.  Rows whose |a| is 0 or not finite are dropped; a zero b' stays
    zero and leaves a' unprojected, so the level check rejects its row.
    """
    d = out.shape[1]
    l = d // 2
    tops = [index[:l] for index in family._gathers[1:]]
    keep = np.empty(len(out), dtype=bool)
    with _drawn_ahead(rng, out) as drawn:
        for rows, signed, bb, tmp in _feature_blocks(out, l, l, wait=drawn):
            a, b = signed[:l], signed[l:d]
            b_norm = _row_norms(b, tmp)
            b_norm[b_norm == 0.0] = 1.0
            b2 = b_norm * b_norm
            for index in tops:
                np.take(signed, index, axis=0, out=bb, mode="clip")  # B_i b'
                step = _column_sums(np.multiply(bb, a, out=tmp))
                step /= b2
                a -= np.multiply(bb, step, out=tmp)
            a_norm = _row_norms(a, tmp)
            keep[rows] = ok = np.isfinite(a_norm) & (a_norm > 0.0)
            a /= np.where(ok, a_norm, 1.0) * _SQRT2
            b /= b_norm * _SQRT2
            out[rows] = signed[:d].T
    return _compact(out, keep)


# recorded in the meta of every M1 cloud; clouds of the earlier normal-geodesic transport have no such key
M1_PROPOSAL = "sphere_bundle"


def sample_focal_M1(
    family: FKMFamily, count: int, seed: int, tol: float = _LEVEL_TOL
) -> PointCloud:
    """Points of M1 = f^{-1}(1), i.e. {<P_i x, x> = 0 for all i} on the sphere, as a sphere bundle.

    In block form, x = (a, b), q_0 = |a|^2 - |b|^2 and q_i = 2 <a, B_i b>,
    so M1 = {|a| = |b| = 1/sqrt 2, a orthogonal to every B_i b}.  Since
    B_i^T B_j + B_j^T B_i = 2 delta_ij I, the B_i b are orthogonal, each of
    length |b|: M1 is a bundle over the sphere of b in R^l whose fibre is the
    sphere of radius 1/sqrt 2 in (span B_i b)^perp, of dimension m2
    (Ferus-Karcher-Münzner 1981).  Each candidate takes b uniform, then a
    uniform on its fibre (``_bundle_draws``): d normals, m gathers of width
    l, and only +, *, /, sqrt.  A tangent vector v of the base lifts
    horizontally to (A v, v), A v = -2 sum_i <B_i^T a, v> B_i b, and the
    B_i^T a are orthogonal to b and to each other with |B_i^T a|^2 = 1/2, so
    the Gram determinant det(I + A^T A) is 2^m at every point of M1.  The
    fibres are isometric spheres, so the volume of M1 is a constant times
    the product of the base's and the fibre's, and the cloud samples the
    normalized volume of M1.  Rows that miss the residual tolerance are
    resampled.  The cloud's meta records ``proposal``: ``M1_PROPOSAL``.
    """
    return _sample(
        family, count, seed, tol, "M1", 1.0, lambda rng, out: _bundle_draws(family, rng, out),
        {"proposal": M1_PROPOSAL},
    )


def _eigenspace_draws(family: FKMFamily, rng, out: np.ndarray) -> int:
    """Unit points of M2 written to the front of ``out``; returns how many.

    Each row draws g in R^{m+1} and then u in R^l, one row-major stream of
    w = m+1+l standard normals per row, one block ahead (``_drawn_ahead``)
    into the last w * len(out) values of ``out``'s own memory.  With
    B_g = sum_{i>=1} g_i B_i the candidate is ((|g| + g_0) u, B_g^T u),
    normalized, a unit point of E+(P_c) for c = g/|g|.  Where g_0 < 0,
    |g| + g_0 is taken as sum_{i>=1} g_i^2 / (|g| - g_0), which does not
    cancel.  Rows whose norm is 0 or not finite are dropped.  Output row j
    ends at value 2l(j+1) of the memory and draw row j+1 starts at
    (2l - w) len(out) + w(j+1), which is no earlier since w < 2l: no row
    written overwrites a draw not yet read, nor one the worker is filling.
    """
    n, d = out.shape
    k, l = len(family._gathers), d // 2
    w = k + l
    # out is C-contiguous (the unfilled rows of the cloud), so this is a view
    draws = out.reshape(-1)[(d - w) * n :].reshape(n, w)
    first, *rest = family._half_gathers
    keep = np.empty(n, dtype=bool)
    with _drawn_ahead(rng, draws) as drawn:
        for rows, signed, x, term, tmp in _feature_blocks(draws, d, l, d, wait=drawn):
            g, u = signed[:k], signed[k:w]
            squares = np.multiply(g, g, out=tmp[:k])
            norm = np.sqrt(_column_sums(squares))
            scale = norm + g[0]
            np.divide(_column_sums(squares[1:]), norm - g[0], out=scale, where=g[0] < 0)
            np.multiply(u, scale, out=x[:l])
            # B_g^T u, one gather per B_i^T in the order i = 1..m
            bottom = x[l:]
            np.take(signed, first, axis=0, out=bottom, mode="clip")
            bottom *= g[1]
            for index, gi in zip(rest, g[2:]):
                np.take(signed, index, axis=0, out=term, mode="clip")
                term *= gi
                bottom += term
            norms = _row_norms(x, tmp)
            keep[rows] = ok = np.isfinite(norms) & (norms > 0.0)
            x /= np.where(ok, norms, 1.0)
            out[rows] = x.T
    return _compact(out, keep)


# recorded in the meta of every M2 cloud; clouds of the earlier y + P_c y proposal have no such key
M2_PROPOSAL = "half_space"


def sample_focal_M2(
    family: FKMFamily, count: int, seed: int, tol: float = _LEVEL_TOL
) -> PointCloud:
    """Points of M2 = f^{-1}(-1), through the eigenspaces E+(P_c) (Ferus-Karcher-Münzner).

    For a unit c in R^{m+1}, P_c = sum c_i P_i satisfies P_c^2 = I, and any
    unit x in its +1 eigenspace has q_i(x) = c_i, so sum_i q_i^2 = 1 and
    f(x) = -1 exactly; M2 is the union of those unit spheres.  In block form
    P_c = [[c_0 I, B_c], [B_c^T, -c_0 I]] with B_c B_c^T = (1 - c_0^2) I, so
    with g a standard normal in R^{m+1}, c = g/|g| and B_g = |g| B_c, the map
    u -> ((|g| + g_0) u, B_g^T u) sends R^l into E+(P_c) and multiplies every
    length by sqrt(2|g|(|g| + g_0)).  A standard normal u in R^l therefore
    gives a point uniform on the unit sphere of E+(P_c): the law of the
    normalized projection y + P_c y of a standard normal y in R^{2l}, drawn
    from l normals instead of 2l and formed by m gathers of width l instead
    of m+1 of width 2l.  The cloud's meta records ``proposal``: ``M2_PROPOSAL``.
    """
    return _sample(
        family, count, seed, tol, "M2", -1.0, lambda rng, out: _eigenspace_draws(family, rng, out),
        {"proposal": M2_PROPOSAL},
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
    its own level: theta = level_angle(f) with f from ``eval_F``, so the
    targets and the focal decision follow F bit for bit.  Each eigenvalue is
    assigned to the nearest of the four targets, whose counts are
    (m1, m2, m1, m2).
    """
    x = _unit_points(family, x)
    if x.ndim != 1:
        raise ValueError("shape_operator_spectrum expects a single point")
    r, q, grad = _forms_and_gradient(family, x)
    f = eval_F(family, x)
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
