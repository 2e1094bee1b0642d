import json
import math

import numpy as np
import pytest

from isospectra import fkm
from isospectra.catalog import pair_g4
from isospectra.errors import InvalidPairError, NearFocalError, SamplingError
from isospectra.fkm import FKMFamily


@pytest.fixture(scope="module")
def fam11():
    # (m=1, copies=3): pair (1,1) on S^5
    return FKMFamily.from_representation(1, 3)


@pytest.fixture(scope="module")
def fam43():
    return FKMFamily.from_pair(4, 3)


def test_family_constructors(fam11, fam43):
    assert (fam11.m1, fam11.m2) == (1, 1) and fam11.ambient_dim == 6
    assert (fam43.m1, fam43.m2) == (4, 3) and fam43.ambient_dim == 16
    with pytest.raises(InvalidPairError):
        FKMFamily.from_representation(4, 1)  # m2 = -1
    with pytest.raises(InvalidPairError):
        FKMFamily.from_pair(2, 2)  # not of Clifford type


# -- F, grad F, spherical gradient ------------------------------------------------


def test_eval_F_basis_vector():
    fam = FKMFamily.from_representation(1, 1 + 2)  # matrices of the 2-block form
    e0 = np.zeros(fam.ambient_dim)
    e0[0] = 1.0
    # <P0 e0, e0> = 1, <P1 e0, e0> = 0 -> F = 1 - 2 = -1
    assert fkm.eval_F(fam, e0) == pytest.approx(-1.0, abs=1e-15)


def test_eval_F_zero_and_homogeneity(fam43):
    d = fam43.ambient_dim
    assert fkm.eval_F(fam43, np.zeros(d)) == 0.0
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, d))
    c = rng.uniform(0.3, 2.1, size=(20, 1))
    f_scaled = fkm.eval_F(fam43, c * x)
    f = fkm.eval_F(fam43, x)
    assert np.allclose(f_scaled, c[:, 0] ** 4 * f, rtol=1e-12)
    g_scaled = fkm.grad_F(fam43, c * x)
    g = fkm.grad_F(fam43, x)
    assert np.allclose(g_scaled, c**3 * g, rtol=1e-12)


def test_eval_F_dimension_mismatch(fam11):
    with pytest.raises(ValueError, match="dimension"):
        fkm.eval_F(fam11, np.zeros(5))


def test_grad_F_matches_finite_differences(fam43):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(fam43.ambient_dim)
    g = fkm.grad_F(fam43, x)
    h = 1e-4
    fd = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fd[j] = (fkm.eval_F(fam43, x + e) - fkm.eval_F(fam43, x - e)) / (2 * h)
    assert np.abs(fd - g).max() / np.abs(g).max() < 1e-6


def test_gradient_norm_identity(fam11, fam43):
    # |grad F|^2 = 16 |x|^6 everywhere
    rng = np.random.default_rng(3)
    for fam in (fam11, fam43):
        x = rng.standard_normal((1000, fam.ambient_dim))
        g = fkm.grad_F(fam, x)
        lhs = (g * g).sum(axis=1)
        rhs = 16.0 * (x * x).sum(axis=1) ** 3
        assert (np.abs(lhs - rhs) / rhs).max() < 1e-9


def test_fd_laplacian_identity(fam43):
    # trace of the FD Hessian with one Richardson step (exact for quartics)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, fam43.ambient_dim))

    def fd_lap(h):
        total = np.zeros(x.shape[0])
        f0 = fkm.eval_F(fam43, x)
        for j in range(x.shape[1]):
            e = np.zeros(x.shape[1])
            e[j] = h
            total += fkm.eval_F(fam43, x + e) + fkm.eval_F(fam43, x - e) - 2 * f0
        return total / h**2

    lap = (4 * fd_lap(1e-2) - fd_lap(2e-2)) / 3
    target = 8.0 * (fam43.m2 - fam43.m1) * (x * x).sum(axis=1)
    assert (np.abs(lap - target) / (x * x).sum(axis=1)).max() < 1e-6


def test_spherical_gradient_identities(fam11):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((500, fam11.ambient_dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    g = fkm.spherical_gradient(fam11, x)
    # tangency
    assert np.abs((g * x).sum(axis=1)).max() < 1e-12
    # |grad^S f|^2 = 16 (1 - f^2) on the sphere
    f = fkm.eval_F(fam11, x)
    assert np.abs((g * g).sum(axis=1) - 16 * (1 - f**2)).max() < 1e-9


def test_spherical_gradient_at_level_zero(fam11):
    cloud = fkm.sample_level_set(fam11, 0.0, 100, seed=10)
    g = fkm.spherical_gradient(fam11, cloud.points)
    norms = np.linalg.norm(g, axis=1)
    assert np.abs(norms - 4.0).max() < 1e-9


def test_spherical_gradient_vanishes_on_focal(fam11):
    cloud = fkm.sample_focal_M1(fam11, 50, seed=11)
    g = fkm.spherical_gradient(fam11, cloud.points)
    assert np.linalg.norm(g, axis=1).max() < 1e-6


# -- one-pass kernel against the two-pass and solve-based references ------------------


def _reference_spherical_gradient(family, x):
    """grad F from its own loop over the matrices, then F from a second pass."""
    out = 4.0 * np.sum(x * x, axis=-1, keepdims=True) * x
    for p in family.system.matrices:
        px = x @ p
        out -= 8.0 * np.sum(px * x, axis=-1, keepdims=True) * px
    return out - 4.0 * fkm.eval_F(family, x)[:, None] * x


def _reference_gauss_newton(family, x, iters=4):
    """Gauss-Newton onto M1 with the normal matrix built and solved numerically."""
    mats = [p.astype(np.float64) for p in family.system.matrices]
    for _ in range(iters):
        rows = np.stack([x @ p for p in mats] + [x], axis=1)  # (N, m+2, d)
        resid = np.einsum("nkd,nd->nk", rows, x)
        resid[:, -1] -= 1.0
        gram = 4.0 * np.einsum("nkd,njd->nkj", rows, rows)
        y = np.linalg.solve(gram, resid[..., None])[..., 0]
        x = x - 2.0 * np.einsum("nkd,nk->nd", rows, y)
    return x


def _toward_M1(family, count, seed, share):
    """Unit sphere points moved along their normal geodesic by share * (distance to M1)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, family.ambient_dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    move = share * np.arccos(fkm.eval_F(family, x)) / 4.0
    xi = fkm.unit_normal(family, x)
    return np.cos(move)[:, None] * x + np.sin(move)[:, None] * xi


@pytest.fixture(scope="module")
def kernel_families(fam11, fam43):
    return [fam11, fam43, FKMFamily.from_pair(9, 22)]


def test_kernel_matches_references(kernel_families):
    for fam in kernel_families:
        for share in (1.0, 0.5):
            x = _toward_M1(fam, 200, 23, share)
            assert np.abs(fkm.spherical_gradient(fam, x) - _reference_spherical_gradient(fam, x)).max() < 1e-12
            for iters in (1, 4):
                got = fkm._gauss_newton_focal(fam, x, iters)
                assert np.abs(got - _reference_gauss_newton(fam, x, iters)).max() < 1e-12


def test_gauss_newton_gram_identity(kernel_families):
    # the closed-form step rests on Gram([P_0 x .. P_m x, x]) = [[r I, q], [q^T, r]]
    rng = np.random.default_rng(24)
    for fam in kernel_families:
        x = rng.standard_normal((50, fam.ambient_dim)) * rng.uniform(0.5, 2.0, size=(50, 1))
        rows = np.stack([x @ p for p in fam.system.matrices] + [x], axis=1)
        gram = np.einsum("nkd,njd->nkj", rows, rows)
        r = (x * x).sum(axis=1)
        q = fkm.quadratic_forms(fam, x)
        k = q.shape[1]
        expected = np.zeros_like(gram)
        expected[:, np.arange(k + 1), np.arange(k + 1)] = r[:, None]
        expected[:, :k, k] = expected[:, k, :k] = q
        assert np.abs(gram - expected).max() / r.max() < 1e-12


def test_one_pass_over_the_matrices_per_step(fam43, monkeypatch):
    passes = []
    kernel = fkm._forms_and_gradient

    def counting(family, x):
        passes.append(1)
        return kernel(family, x)

    monkeypatch.setattr(fkm, "_forms_and_gradient", counting)
    x = _toward_M1(fam43, 10, 25, 1.0)
    passes.clear()
    fkm.spherical_gradient(fam43, x)
    assert len(passes) == 1
    passes.clear()
    fkm._gauss_newton_focal(fam43, x, iters=4)
    assert len(passes) == 4


def test_f_bounded_by_one(fam11):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((100_000, fam11.ambient_dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    assert np.abs(fkm.eval_F(fam11, x)).max() <= 1.0 + 1e-12


# -- sampling ------------------------------------------------------------------------


def test_sample_level_set_residuals(fam11):
    cloud = fkm.sample_level_set(fam11, 0.0, 1000, seed=42)
    f = fkm.eval_F(fam11, cloud.points)
    assert np.abs(f).max() < 1e-10
    assert np.abs(np.linalg.norm(cloud.points, axis=1) - 1).max() < 1e-12
    assert cloud.count == 1000 and cloud.level == 0.0


def test_sample_level_set_empty_and_near_focal(fam11):
    empty = fkm.sample_level_set(fam11, 0.2, 0, seed=0)
    assert empty.count == 0 and empty.points.shape == (0, 6)
    with pytest.raises(NearFocalError):
        fkm.sample_level_set(fam11, 0.9999999, 10, seed=0)


SAMPLERS = {
    "level": lambda fam, count, tol: fkm.sample_level_set(fam, 0.2, count, seed=0, tol=tol),
    "M1": lambda fam, count, tol: fkm.sample_focal_M1(fam, count, seed=0, tol=tol),
    "M2": lambda fam, count, tol: fkm.sample_focal_M2(fam, count, seed=0, tol=tol),
}


@pytest.mark.parametrize("which", SAMPLERS)
def test_sampler_rejects_negative_count(fam11, which):
    with pytest.raises(ValueError, match="count"):
        SAMPLERS[which](fam11, -1, 1e-10)


@pytest.mark.parametrize("which", SAMPLERS)
def test_sampler_rejects_non_integer_count(fam11, which):
    with pytest.raises(ValueError, match="count"):
        SAMPLERS[which](fam11, 2.5, 1e-10)


@pytest.mark.parametrize("which", SAMPLERS)
def test_sampler_rejects_nonpositive_tol(fam11, which):
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            SAMPLERS[which](fam11, 10, tol)


@pytest.mark.parametrize("which", SAMPLERS)
def test_sampler_attempt_cap(fam11, monkeypatch, which):
    # every candidate reads as the focal value opposite to the target, so only
    # the attempt and failure-rate policy ends the loop
    opposite, name = {"level": (1.0, "level set"), "M1": (-1.0, "M1"), "M2": (1.0, "M2")}[which]
    monkeypatch.setattr(fkm, "eval_F", lambda family, x: np.full(len(x), opposite))
    with pytest.raises(SamplingError, match=name):
        SAMPLERS[which](fam11, 10, 1e-10)


def test_sample_determinism(fam11):
    a = fkm.sample_level_set(fam11, 0.1, 300, seed=9)
    b = fkm.sample_level_set(fam11, 0.1, 300, seed=9)
    assert np.array_equal(a.points, b.points)
    c = fkm.sample_focal_M2(fam11, 300, seed=9)
    d = fkm.sample_focal_M2(fam11, 300, seed=9)
    assert np.array_equal(c.points, d.points)
    e = fkm.sample_level_set(fam11, 0.1, 300, seed=10)
    assert not np.array_equal(a.points, e.points)


def test_parallel_map_level_oracle(fam11):
    # f(phi_theta(x)) = cos(4 (theta0 - theta)) where cos(4 theta0) = f(x)
    cloud = fkm.sample_level_set(fam11, 0.0, 100, seed=12)
    theta0 = fkm.level_angle(0.0)
    for theta in (0.05, 0.11, -0.08):
        y = fkm.parallel_map(fam11, cloud.points, theta)
        fy = fkm.eval_F(fam11, y)
        assert np.abs(np.linalg.norm(y, axis=1) - 1).max() < 1e-12
        assert fy.max() - fy.min() < 1e-8  # constant across the level
        assert np.abs(fy - math.cos(4 * (theta0 - theta))).max() < 1e-8


def test_parallel_map_identity_and_focal_landing(fam11):
    cloud = fkm.sample_level_set(fam11, 0.3, 50, seed=13)
    y = fkm.parallel_map(fam11, cloud.points, 0.0)
    assert np.allclose(y, cloud.points, atol=1e-15)
    theta0 = fkm.level_angle(0.3)
    z = fkm.parallel_map(fam11, cloud.points, theta0)
    assert np.abs(fkm.eval_F(fam11, z) - 1).max() < 1e-8


def test_sample_focal_M1(fam11, fam43):
    for fam in (fam11, fam43):
        cloud = fkm.sample_focal_M1(fam, 300, seed=14)
        q = fkm.quadratic_forms(fam, cloud.points)
        assert np.abs(q).max() < 1e-10
        assert np.abs(fkm.eval_F(fam, cloud.points) - 1).max() < 1e-10


def test_sample_focal_M1_local_dimension(fam11):
    # local PCA rank of a dense M1 cloud ~ dim M1 = m1 + 2 m2 = 3
    cloud = fkm.sample_focal_M1(fam11, 6000, seed=15)
    pts = cloud.points
    dims = []
    for idx in (0, 100, 500):
        x0 = pts[idx]
        d = np.linalg.norm(pts - x0, axis=1)
        near = pts[np.argsort(d)[1:60]] - x0
        sv = np.linalg.svd(near, compute_uv=False)
        ratios = sv / sv[0]
        drops = ratios[:-1] / np.maximum(ratios[1:], 1e-12)
        dims.append(int(np.argmax(drops)) + 1)
    assert sorted(dims)[1] == 3  # median estimate


def test_sample_focal_M2(fam11, fam43):
    for fam in (fam11, fam43):
        cloud = fkm.sample_focal_M2(fam, 300, seed=16)
        assert np.abs(fkm.eval_F(fam, cloud.points) + 1).max() < 1e-10
        q = fkm.quadratic_forms(fam, cloud.points)
        assert np.abs((q**2).sum(axis=1) - 1).max() < 1e-12


def test_sample_focal_M2_parallel_characterization(fam11):
    # (1, k): writing x = (z, w), M2 is exactly {z parallel w}
    cloud = fkm.sample_focal_M2(fam11, 300, seed=17)
    z, w = cloud.points[:, :3], cloud.points[:, 3:]
    assert np.linalg.norm(np.cross(z, w), axis=1).max() < 1e-10


# -- normal frames and shape operator ---------------------------------------------------


def test_normal_frame(fam11):
    cloud = fkm.sample_level_set(fam11, 0.2, 5, seed=18)
    frame = fkm.normal_frame(fam11, cloud.points[0])
    assert abs(np.dot(frame.normal, frame.point)) < 1e-12
    assert abs(np.linalg.norm(frame.normal) - 1) < 1e-12
    basis = frame.tangent_basis
    assert basis.shape == (4, 6)
    assert np.abs(basis @ frame.point) .max() < 1e-12
    assert np.abs(basis @ frame.normal).max() < 1e-12
    assert np.allclose(basis @ basis.T, np.eye(4), atol=1e-12)


def test_shape_operator_spectrum_t0(fam11):
    # at t=0 (theta0 = pi/8): cot(pi/8), cot(3pi/8), cot(5pi/8), cot(7pi/8)
    cloud = fkm.sample_level_set(fam11, 0.0, 3, seed=19)
    expected = [1 / math.tan(math.pi / 8 + a * math.pi / 4) for a in range(4)]
    assert np.allclose(expected, [2.414214, 0.414214, -0.414214, -2.414214], atol=1e-6)
    for x in cloud.points:
        spec = fkm.shape_operator_spectrum(fam11, x, theta_level=math.pi / 8)
        assert not spec.ambiguous
        values = [v for v, _ in spec.clusters]
        counts = [c for _, c in spec.clusters]
        assert counts == [1, 1, 1, 1]
        assert np.abs(np.array(values) - np.array(expected)).max() < 1e-4


def test_shape_operator_multiplicities_and_minimality(fam43):
    from isospectra.catalog import minimal_angle

    theta1 = minimal_angle(fam43.pair).theta
    t = math.cos(4 * theta1)
    cloud = fkm.sample_level_set(fam43, t, 2, seed=20)
    spec = fkm.shape_operator_spectrum(fam43, cloud.points[0], theta_level=theta1)
    counts = [c for _, c in spec.clusters]
    assert counts == [4, 3, 4, 3]  # (m1, m2, m1, m2)
    assert sum(counts) == 14  # n
    expected = [1 / math.tan(theta1 + a * math.pi / 4) for a in range(4)]
    values = [v for v, _ in spec.clusters]
    assert np.abs(np.array(values) - np.array(expected)).max() < 1e-4
    # minimality: weighted curvature sum vanishes
    weighted = sum(m * v for (v, _), m in zip(spec.clusters, [4, 3, 4, 3]))
    assert abs(weighted) < 1e-3


def test_shape_operator_cluster_separation(fam43):
    cloud = fkm.sample_level_set(fam43, 0.5, 2, seed=21)
    spec = fkm.shape_operator_spectrum(fam43, cloud.points[0])
    eigs = spec.eigenvalues
    bounds = []
    start = 0
    for _, c in reversed(spec.clusters):  # ascending order
        bounds.append((start, start + c))
        start += c
    spreads = [eigs[a:b].max() - eigs[a:b].min() for a, b in bounds if b - a > 1]
    gaps = [eigs[b] - eigs[b - 1] for _, b in bounds[:-1]]
    assert min(gaps) > 10 * max(spreads)


# -- tube volume weight ------------------------------------------------------------------


def test_tube_volume_weight_normalization():
    from isospectra.catalog import minimal_angle

    pair = pair_g4(2, 2)
    theta1 = minimal_angle(pair).theta
    assert fkm.tube_volume_weight(pair, theta1, 0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        fkm.tube_volume_weight(pair, theta1, theta1)
    with pytest.raises(ValueError):
        fkm.tube_volume_weight(pair, theta1, theta1 - math.pi / 4)


def test_tube_volume_weight_vanishing_order():
    from isospectra.catalog import minimal_angle

    pair = pair_g4(2, 2)
    theta1 = minimal_angle(pair).theta
    # near theta1 the weight behaves like (2(theta1-theta))^m1
    eps = 1e-5
    w = fkm.tube_volume_weight(pair, theta1, theta1 - eps)
    base = math.sin(2 * theta1) ** 2 * math.cos(2 * theta1) ** 2
    assert w == pytest.approx((2 * eps) ** 2 / base, rel=1e-3)


def test_tube_volume_weight_high_precision_oracle():
    import mpmath

    from isospectra.catalog import minimal_angle

    pair = pair_g4(2, 2)
    theta1 = minimal_angle(pair).theta
    theta = theta1 / 2
    with mpmath.workdps(40):
        t1 = mpmath.mpf(theta1)
        th = mpmath.mpf(theta)
        u = 2 * (t1 - th)
        oracle = (mpmath.sin(u) ** 2 * mpmath.cos(u) ** 2) / (
            mpmath.sin(2 * t1) ** 2 * mpmath.cos(2 * t1) ** 2
        )
        oracle = float(oracle)
    got = fkm.tube_volume_weight(pair, theta1, theta)
    assert got > 0
    assert got == pytest.approx(oracle, rel=1e-13)


# -- point cloud export ---------------------------------------------------------------------


def test_point_cloud_save(tmp_path, fam11):
    cloud = fkm.sample_level_set(fam11, 0.1, 20, seed=22)
    path = tmp_path / "points.csv"
    cloud.save(path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 20
    first = np.array([float(v) for v in rows[0].split(",")])
    assert np.array_equal(first, cloud.points[0])  # 17 sig digits round-trips
    sidecar = json.loads((tmp_path / "points.json").read_text())
    assert sidecar["count"] == 20 and sidecar["seed"] == 22
    assert sidecar["level"] == 0.1
    assert sidecar["family"]["m1"] == 1
    assert sidecar["schema_version"] == 1
