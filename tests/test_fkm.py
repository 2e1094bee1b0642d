import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospectra import fkm
from isospectra.catalog import MultiplicityPair, pair_g4
from isospectra.clifford import CliffordSystem, build_system
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


def test_scalar_point_is_rejected(fam11):
    for call in (fkm.eval_F, fkm.grad_F, fkm.quadratic_forms, fkm.spherical_gradient, fkm.unit_normal):
        with pytest.raises(ValueError, match="scalar"):
            call(fam11, 3.0)


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


def test_samplers_make_one_pass_per_batch(fam43, monkeypatch):
    passes, checks = [], []
    # every gradient pass, whole-batch or per block, goes through _block_forms
    kernel, check = fkm._block_forms, fkm.eval_F

    def counting_kernel(*args):
        passes.append(1)
        return kernel(*args)

    def counting_check(family, x):
        checks.append(1)
        return check(family, x)

    def no_polish(*args, **kwargs):
        raise AssertionError("a sampler called _gauss_newton_focal")

    monkeypatch.setattr(fkm, "_block_forms", counting_kernel)
    monkeypatch.setattr(fkm, "eval_F", counting_check)
    monkeypatch.setattr(fkm, "_gauss_newton_focal", no_polish)
    for sample, kernel_passes in (
        (lambda: fkm.sample_level_set(fam43, 0.2, 500, seed=30), 1),
        (lambda: fkm.sample_focal_M1(fam43, 500, seed=31), 1),
        (lambda: fkm.sample_focal_M2(fam43, 500, seed=32), 0),
    ):
        passes.clear()
        checks.clear()
        assert sample().count == 500
        # one proposal batch filled the cloud: one transport pass and one check
        assert len(checks) == 1
        assert len(passes) == kernel_passes


# -- blocked kernels against the dense unblocked loop -----------------------------------


def _reference_forms(family, x):
    """r, q and grad F from one dense product x @ P_i per matrix over all rows at once."""
    mats = [p.astype(np.float64) for p in family.system.matrices]
    r = np.sum(x * x, axis=-1)
    q = np.empty(x.shape[:-1] + (len(mats),))
    grad = 4.0 * r[..., None] * x
    for i, p in enumerate(mats):
        px = x @ p
        qi = np.sum(px * x, axis=-1)
        q[..., i] = qi
        grad -= 8.0 * qi[..., None] * px
    return r, q, grad


# d = 6, 16, 32, 64, 128: one and several blocks per batch at each
BLOCK_PAIRS = [(1, 1), (4, 3), (8, 7), (9, 22), (12, 51)]
# d = 200 (whose pairwise sum splits unevenly), 256 and 512: the kernels alone
WIDE_PAIRS = [(1, 98), (16, 111), (2, 253)]


@pytest.fixture(scope="module")
def block_families():
    return {pair: FKMFamily.from_pair(*pair) for pair in BLOCK_PAIRS}


def _several_blocks(family):
    """Row count of three full blocks and a ragged fourth."""
    return 3 * (fkm._BLOCK_ELEMENTS // family.ambient_dim) + 5


@pytest.mark.parametrize("pair", BLOCK_PAIRS + WIDE_PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_blocked_kernels_bit_identical(block_families, pair):
    fam = block_families.get(pair) or FKMFamily.from_pair(*pair)
    rng = np.random.default_rng(26)
    rows = _several_blocks(fam)
    for x in (rng.standard_normal((rows, fam.ambient_dim)), rng.standard_normal(fam.ambient_dim),
              np.zeros((0, fam.ambient_dim)), rng.standard_normal((3, rows // 3 + 1, fam.ambient_dim))):
        r, q, grad = _reference_forms(fam, x)
        got = fkm._forms_and_gradient(fam, x)
        assert [a.shape for a in got] == [r.shape, q.shape, grad.shape]
        assert all(np.array_equal(a, b) for a, b in zip(got, (r, q, grad)))
        assert np.array_equal(fkm.quadratic_forms(fam, x), q)
        assert np.array_equal(fkm.grad_F(fam, x), grad)
        assert np.array_equal(fkm.eval_F(fam, x), r**2 - 2.0 * np.sum(q * q, axis=-1))


def _special_columns(d):
    """Columns of d values: all -0.0, -0.0 and +0.0, one +inf, one -inf, +inf and -inf, one NaN."""
    a = np.full((d, 6), -0.0)
    a[1::2, 1] = 0.0
    a[d // 2, 2] = np.inf
    a[d - 1, 3] = -np.inf
    a[0, 4], a[d - 1, 4] = np.inf, -np.inf
    a[d // 3, 5] = np.nan
    return a


@pytest.mark.parametrize("rows", [1, 2, 7, 513])
def test_row_sums_keep_numpys_row_sum_order(rows):
    # the feature-major sums must give the bits of np.sum over row-major rows;
    # the reference is a row-major copy, since np.sum over the transposed view
    # walks it in memory order and adds in another order
    rng = np.random.default_rng(50 + rows)
    for d in [*range(1, 301), 512, 1024]:
        a = rng.standard_normal((d, rows)) * 10.0 ** rng.integers(-12, 13, (d, rows))
        b = _special_columns(d)
        for block in (a, b):
            with np.errstate(invalid="ignore"):  # inf - inf
                got = fkm._row_sums(block)
                ref = np.sum(np.ascontiguousarray(block.T), axis=-1)
            assert got.shape == ref.shape, d
            assert np.array_equal(got, ref, equal_nan=True), (d, rows)
            assert np.array_equal(np.signbit(got), np.signbit(ref)), (d, rows)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def _blocks(draw):
    """A (d, n) block, d <= 300 and n <= 16: random magnitudes or signed zeros, with drawn values planted."""
    d, n = draw(st.integers(1, 16) | st.integers(1, 300)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.0, -0.0, 1e-310, 1.0, 1e150, 1e300]))
    with np.errstate(over="ignore"):  # the largest scale reaches inf
        a = scale * rng.standard_normal((d, n)) * 10.0 ** rng.integers(-12, 13, (d, n))
    for at, value in draw(st.lists(st.tuples(st.integers(0, d * n - 1), _FLOATS), max_size=12)):
        a.flat[at] = value
    return a


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_blocks())
def test_row_sums_match_numpy_on_any_block(block):
    with np.errstate(all="ignore"):  # inf - inf, overflow
        got = fkm._row_sums(block)
        ref = np.sum(np.ascontiguousarray(block.T), axis=-1)
    assert np.array_equal(got, ref, equal_nan=True)
    # where two NaNs meet, which one propagates follows the compiled operand order
    number = ~np.isnan(ref)
    assert np.array_equal(np.signbit(got[number]), np.signbit(ref[number]))


@pytest.mark.parametrize("pair", BLOCK_PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_clouds_match_one_dense_block(block_families, pair, monkeypatch):
    fam = block_families[pair]
    count = _several_blocks(fam)

    def clouds():
        return [
            fkm.sample_level_set(fam, 0.2, count, seed=27).points,
            fkm.sample_focal_M1(fam, count, seed=28).points,
            fkm.sample_focal_M2(fam, count, seed=29).points,
        ]

    blocked = clouds()
    monkeypatch.setattr(fkm, "_BLOCK_ELEMENTS", 2**62)
    assert all(np.array_equal(a, b) for a, b in zip(blocked, clouds()))


# -- streamed proposals against the whole-batch ones ---------------------------------------


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _reference_transported(family, rng, want, theta):
    """Unit rows of draws transported to level cos(4 theta), whole batch at a time."""
    draw = _unit_rows(rng.standard_normal((want, family.ambient_dim)))
    r, q, grad = _reference_forms(family, draw)
    f0 = r**2 - 2.0 * np.sum(q * q, axis=-1)
    g = grad - 4.0 * f0[:, None] * draw
    ok = np.abs(f0) < 1.0 - 1e-8
    move = np.arccos(f0[ok]) / 4.0 - theta
    return _unit_rows(np.cos(move)[:, None] * draw[ok] + np.sin(move)[:, None] * _unit_rows(g[ok]))


def _reference_eigenspace(family, rng, want):
    """Unit rows of y + sum_i c_i P_i y, whole batch at a time, products by dense matmul."""
    c = _unit_rows(rng.standard_normal((want, len(family.system.matrices))))
    y = rng.standard_normal((want, family.ambient_dim))
    py = np.zeros_like(y)
    for i, p in enumerate(family.system.matrices):
        py += c[:, i : i + 1] * (y @ p.astype(np.float64))
    cand = y + py
    norms = np.linalg.norm(cand, axis=-1)
    ok = norms > 1e-6
    return cand[ok] / norms[ok, None]


def _reference_sample(family, count, seed, tol, target, propose):
    """The rejection loop with a fresh array per batch: ``propose(rng, want)`` returns the rows."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = np.zeros((count, family.ambient_dim))
    filled = 0
    while filled < count:
        cand = propose(rng, count - filled)
        good = cand[np.abs(fkm.eval_F(family, cand) - target) <= tol]
        out[filled : filled + len(good)] = good
        filled += len(good)
    return out


def _both_clouds(fam, which, count, seed, wrap_rng=lambda rng: rng, before_each=lambda: None):
    """The (streamed, reference) clouds of one sampler; ``wrap_rng`` may alter the draws."""
    if which == "M2":
        target = -1.0
        new = lambda rng, out: fkm._eigenspace_draws(fam, wrap_rng(rng), out)
        old = lambda rng, want: _reference_eigenspace(fam, wrap_rng(rng), want)
    else:
        target = 1.0 if which == "M1" else 0.2
        theta = fkm.level_angle(target)
        new = lambda rng, out: fkm._transported_draws(fam, wrap_rng(rng), out, theta)
        old = lambda rng, want: _reference_transported(fam, wrap_rng(rng), want, theta)
    before_each()
    streamed = fkm._sample(fam, count, seed, 1e-10, which, target, new).points
    before_each()
    return streamed, _reference_sample(fam, count, seed, 1e-10, target, old)


@pytest.mark.parametrize("pair", BLOCK_PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_streamed_clouds_match_whole_batch_reference(block_families, pair):
    fam = block_families[pair]
    for which in ("level", "M1", "M2"):
        for count in (7, _several_blocks(fam)):
            for seed in (40, 41):
                streamed, reference = _both_clouds(fam, which, count, seed)
                assert np.array_equal(streamed, reference), (which, count, seed)
    # the samplers themselves stream through the same proposals
    for which, cloud in (("level", fkm.sample_level_set(fam, 0.2, 7, seed=40)),
                         ("M1", fkm.sample_focal_M1(fam, 7, seed=40)),
                         ("M2", fkm.sample_focal_M2(fam, 7, seed=40))):
        assert np.array_equal(cloud.points, _both_clouds(fam, which, 7, 40)[1]), which


class _FifthRowsReplaced:
    """A generator whose normal draws of width len(row) have every 5th row set to ``row``."""

    def __init__(self, rng, row):
        self.rng, self.row = rng, row

    def standard_normal(self, size=None, out=None):
        x = self.rng.standard_normal(size=size, out=out)
        if x.shape[-1] == len(self.row):
            x[4::5] = self.row
        return x


@pytest.mark.parametrize("pair", [(4, 3), (12, 51)], ids=lambda p: f"{p[0]}-{p[1]}")
def test_compaction_of_dropped_and_rejected_rows(block_families, pair, monkeypatch):
    fam = block_families[pair]
    real = fkm.eval_F

    def misses_every_7th_row_once():
        first = []

        def check(family, x):
            f = real(family, x)
            if not first:
                first.append(1)
                f[::7] += 1.0
            return f

        return check

    count = _several_blocks(fam)
    # every 5th draw is a point of M1, where the normal is undefined, or a zero
    # y, whose eigenspace projection vanishes: both are dropped by the proposal
    focal = 3.0 * fkm.sample_focal_M1(fam, 1, seed=42).points[0]
    zero = np.zeros(fam.ambient_dim)
    for which, row in (("level", focal), ("M1", focal), ("M2", zero)):
        streamed, reference = _both_clouds(
            fam, which, count, 43, lambda rng: _FifthRowsReplaced(rng, row),
            lambda: monkeypatch.setattr(fkm, "eval_F", misses_every_7th_row_once()),
        )
        assert np.array_equal(streamed, reference), which
        assert np.abs(real(fam, streamed) - {"level": 0.2, "M1": 1.0, "M2": -1.0}[which]).max() < 1e-10


def test_compact_moves_kept_rows_to_the_front(monkeypatch):
    monkeypatch.setattr(fkm, "_BLOCK_ELEMENTS", 6)  # blocks of 2 rows of width 3
    rng = np.random.default_rng(44)
    for keep in (rng.random(11) < 0.6, np.zeros(11, bool), np.ones(11, bool)):
        x = rng.standard_normal((11, 3))
        expected = x[keep].copy()
        assert fkm._compact(x, keep) == len(expected)
        assert np.array_equal(x[: len(expected)], expected)


def test_m2_sampler_memory_stays_near_the_cloud(block_families):
    # the proposal writes into the cloud itself, so the peak is the cloud plus
    # O(batch * (m+1)) forms and a few blocks: 1.2x here, 5x with whole-batch temporaries
    fam = block_families[(9, 22)]
    fkm.sample_focal_M2(fam, 10, seed=45)
    tracemalloc.start()
    try:
        cloud = fkm.sample_focal_M2(fam, 25_000, seed=45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cloud.points.nbytes


@pytest.mark.parametrize("which", ["level", "M1"])
def test_transport_sampler_memory_stays_near_the_cloud(block_families, which):
    # each row block gets its own forms and gradient, so no batch-sized gradient is held
    fam = block_families[(9, 22)]
    sample = {"level": lambda n: fkm.sample_level_set(fam, 0.3, n, seed=46),
              "M1": lambda n: fkm.sample_focal_M1(fam, n, seed=46)}[which]
    sample(10)
    tracemalloc.start()
    try:
        cloud = sample(25_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cloud.points.nbytes


def test_transport_allocates_no_unused_block_buffers(block_families):
    # one set of block buffers per call: [x | -x] twice as wide, gradient, P_i x
    # and scratch, plus the forms and a few per-row temporaries: 5.7 blocks in
    # all, 7.7 when each block allocated its own kernel buffers and the previous
    # block's forms were still alive
    fam = block_families[(9, 22)]
    out = np.empty((5_000, fam.ambient_dim))
    fkm._transported_draws(fam, np.random.default_rng(49), out[:10], 0.0)
    tracemalloc.start()
    try:
        fkm._transported_draws(fam, np.random.default_rng(49), out, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.25 * fkm._BLOCK_ELEMENTS * out.itemsize


def test_gather_index_reproduces_each_matrix():
    # the gather of [x | -x] along a P_i's index is x @ P_i, bit for bit
    rng = np.random.default_rng(47)
    checked = 0
    for m in range(1, 18):
        for k in (1, 2, 3):
            try:
                family = FKMFamily.from_representation(m, k)
            except InvalidPairError:  # m2 = k*delta(m) - m - 1 is no multiplicity
                continue
            x = rng.standard_normal((3, family.ambient_dim))
            signed = np.concatenate([x, -x], axis=1)
            assert len(family._gathers) == m + 1
            for index, p in zip(family._gathers, family.system.matrices):
                assert np.array_equal(np.take(signed, index, axis=1), x @ p.astype(np.float64)), (m, k)
            checked += 1
    assert checked == 44


def test_family_rejects_a_pair_that_is_not_the_systems():
    # (m, l - m - 1) is (4, 3) for build_system(4, 2) and (4, -1) for build_system(4, 1)
    for system, pair in ((build_system(4, 1), pair_g4(3, 4)), (build_system(4, 1), pair_g4(4, 3)),
                         (build_system(4, 2), pair_g4(3, 4)), (build_system(4, 2), pair_g4(4, 11)),
                         (build_system(4, 2), MultiplicityPair(2, 4, 3))):
        with pytest.raises(ValueError, match="does not match the system"):
            FKMFamily(system, pair)
    assert FKMFamily(build_system(4, 2), pair_g4(4, 3)).pair == pair_g4(4, 3)


def test_family_rejects_matrices_that_are_no_signed_permutation():
    # such a system cannot be built, so no family can gather along it
    system = build_system(4, 2)
    data = json.loads(system.to_json())
    for corrupt in ("value", "duplicate"):
        trips = [list(map(list, t)) for t in data["matrices"]]
        if corrupt == "value":
            trips[2][0][2] = 2  # an entry of P_2 becomes 2
        else:
            trips[2][1][0] = trips[2][0][0]  # two nonzeros of P_2 share a row
        with pytest.raises(ValueError, match="P_2 is not a signed permutation"):
            CliffordSystem.from_json(json.dumps({**data, "matrices": trips}))
    with pytest.raises(ValueError, match=r"P_3 has shape \(3, 3\)"):
        CliffordSystem.from_matrices(system.m, system.l, (*system.matrices[:3], np.eye(3, dtype=np.int64)))


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


def test_sample_level_set_rejects_a_non_finite_level(fam11):
    for t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite") as caught:
            fkm.sample_level_set(fam11, t, 10, seed=0)
        assert not isinstance(caught.value, NearFocalError)


SAMPLERS = {
    "level": lambda fam, count, tol, seed=0: fkm.sample_level_set(fam, 0.2, count, seed=seed, tol=tol),
    "M1": lambda fam, count, tol, seed=0: fkm.sample_focal_M1(fam, count, seed=seed, tol=tol),
    "M2": lambda fam, count, tol, seed=0: fkm.sample_focal_M2(fam, count, seed=seed, tol=tol),
}


@pytest.mark.parametrize("which", SAMPLERS)
def test_sampler_rejects_negative_count(fam11, which):
    with pytest.raises(ValueError, match="count"):
        SAMPLERS[which](fam11, -1, 1e-10)


@pytest.mark.parametrize("which", SAMPLERS)
def test_sampler_rejects_non_integer_count(fam11, which):
    for count in (2.5, True, "3"):
        with pytest.raises(ValueError, match="count"):
            SAMPLERS[which](fam11, count, 1e-10)


@pytest.mark.parametrize("which", SAMPLERS)
def test_sampler_rejects_a_seed_that_is_no_nonnegative_int(fam11, which):
    # None would draw OS entropy and record seed null: the cloud could not be reproduced
    for seed in (None, 1.5, True, -1, "1"):
        with pytest.raises(ValueError, match="seed"):
            SAMPLERS[which](fam11, 10, 1e-10, seed)
    # a numpy seed is recorded as a plain int, so the sidecar stays JSON
    cloud = SAMPLERS[which](fam11, 10, 1e-10, np.int64(3))
    assert type(cloud.seed) is int and json.loads(json.dumps(cloud.sidecar()))["seed"] == 3


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


def test_sampler_counters_repeat_per_seed(fam43, caplog):
    for sample in (lambda: fkm.sample_level_set(fam43, 0.2, 300, seed=48),
                   lambda: fkm.sample_focal_M1(fam43, 300, seed=48),
                   lambda: fkm.sample_focal_M2(fam43, 300, seed=48)):
        with caplog.at_level(logging.DEBUG, logger="isospectra"):
            first = sample()
        second = sample()
        counters = {key: first.meta[key] for key in ("draws", "batches", "dropped", "rejected", "max_residual")}
        assert counters == {key: second.meta[key] for key in counters}
        assert counters["draws"] == first.count + counters["dropped"] + counters["rejected"]
        assert 0.0 <= counters["max_residual"] <= 1e-10
        assert f"'draws': {counters['draws']}" in caplog.records[-1].getMessage()
        caplog.clear()
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("isospectra").handlers)


@pytest.mark.parametrize("which", ["level", "M1", "M2"])
def test_sampler_counters_record_drops_and_rejections(block_families, which, monkeypatch):
    # the draws and forced misses of test_compaction_of_dropped_and_rejected_rows
    fam = block_families[(4, 3)]
    focal = 3.0 * fkm.sample_focal_M1(fam, 1, seed=42).points[0]
    real = fkm.eval_F
    checked = []

    def misses_every_7th_row_once(family, x):
        f = real(family, x)
        if not checked:
            f[::7] += 1.0
        checked.append(len(x))
        return f

    monkeypatch.setattr(fkm, "eval_F", misses_every_7th_row_once)
    if which == "M2":
        target, zero = -1.0, np.zeros(fam.ambient_dim)
        propose = lambda rng, out: fkm._eigenspace_draws(fam, _FifthRowsReplaced(rng, zero), out)
    else:
        target = 1.0 if which == "M1" else 0.2
        theta = fkm.level_angle(target)
        propose = lambda rng, out: fkm._transported_draws(fam, _FifthRowsReplaced(rng, focal), out, theta)
    count = _several_blocks(fam)
    cloud = fkm._sample(fam, count, 43, 1e-10, which, target, propose)
    expected = {"draws": 0, "batches": 0, "dropped": 0, "rejected": 0}
    filled = 0
    while filled < count:
        want = count - filled
        made = want - want // 5  # rows 4, 9, 14, ... of each draw are dropped
        missed = (made + 6) // 7 if not expected["batches"] else 0  # rows 0, 7, 14, ... of the first check
        assert checked[expected["batches"]] == made
        expected = {"draws": expected["draws"] + want, "batches": expected["batches"] + 1,
                    "dropped": expected["dropped"] + want - made, "rejected": expected["rejected"] + missed}
        filled += made - missed
    assert {key: cloud.meta[key] for key in expected} == expected
    assert cloud.meta["max_residual"] == np.abs(real(fam, cloud.points) - target).max()


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


@pytest.mark.parametrize("pair", BLOCK_PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_transport_is_exact(block_families, pair):
    # f(cos s x + sin s xi) = cos 4(theta_0 - s) holds to rounding, with no polishing
    fam = block_families[pair]
    rng = np.random.default_rng(33)
    for t in (-0.999998, -0.3, 0.3, 0.999998):
        x = np.empty((2000, fam.ambient_dim))
        x = x[: fkm._transported_draws(fam, rng, x, fkm.level_angle(t))]
        assert len(x) > 1900
        assert np.abs(fkm.eval_F(fam, x) - t).max() <= 1e-13
    x = np.empty((2000, fam.ambient_dim))
    x = x[: fkm._transported_draws(fam, rng, x, 0.0)]
    assert len(x) > 1900
    assert np.abs(fkm.eval_F(fam, x) - 1.0).max() <= 1e-13
    assert np.abs(fkm.quadratic_forms(fam, x)).max() <= 1e-13


def test_level_set_cloud_samples_the_leaf_volume(fam11):
    # uniform sphere draws in the shell |f - t| < 1e-3 sample the leaf's volume
    # up to O(1e-3); the transported cloud must give the same second moments
    rng = np.random.default_rng(34)
    d = fam11.ambient_dim

    def moments(x):
        q0 = fkm.quadratic_forms(fam11, x)[:, 0]
        return np.column_stack([q0**2, x[:, 0] ** 2, x[:, 0] * x[:, 1]])

    for t in (0.3, -0.7):
        shell = []
        while sum(map(len, shell)) < 2000:
            x = rng.standard_normal((500_000, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            shell.append(x[np.abs(fkm.eval_F(fam11, x) - t) < 1e-3])
        ref = moments(np.concatenate(shell))
        got = moments(fkm.sample_level_set(fam11, t, 20_000, seed=35).points)
        se = np.sqrt(ref.var(axis=0) / len(ref) + got.var(axis=0) / len(got))
        assert np.all(np.abs(got.mean(axis=0) - ref.mean(axis=0)) < 5 * se)


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


def test_normal_and_transport_act_on_the_unit_point(fam43):
    x = fkm.sample_level_set(fam43, 0.5, 1, seed=36).points[0]
    frame = fkm.normal_frame(fam43, 2.0 * x)
    assert abs(np.dot(frame.normal, x)) < 1e-12
    assert np.abs(frame.point - x).max() < 1e-15
    y = fkm.parallel_map(fam43, 2.0 * x, 0.1)
    assert abs(np.dot(y, y) - 1.0) < 1e-12
    assert np.abs(y - fkm.parallel_map(fam43, x, 0.1)).max() < 1e-15
    d = fam43.ambient_dim
    for call in (
        lambda z: fkm.unit_normal(fam43, z),
        lambda z: fkm.normal_frame(fam43, z),
        lambda z: fkm.parallel_map(fam43, z, 0.1),
    ):
        with pytest.raises(ValueError, match="nonzero"):
            call(np.zeros(d))
    with pytest.raises(ValueError, match="nonzero"):
        fkm.unit_normal(fam43, np.stack([x, np.zeros(d)]))


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


@pytest.fixture(scope="module")
def fam12_51():
    return FKMFamily.from_pair(12, 51)  # d = 128, where fam43 has d = 16


def _assert_exact_spectrum(fam, x):
    """Eigenvalues within 1e-12 of cot(theta + (alpha-1) pi/4), counts (m1, m2, m1, m2)."""
    spec = fkm.shape_operator_spectrum(fam, x)
    theta = fkm.level_angle(fkm.eval_F(fam, x))
    expected = [1 / math.tan(theta + a * math.pi / 4) for a in range(4)]
    assert np.abs(np.array(spec.targets) - expected).max() < 1e-12
    counts = [c for _, c in spec.clusters]
    assert counts == [fam.m1, fam.m2, fam.m1, fam.m2]
    # eigvalsh is ascending and the targets descend
    assert np.abs(spec.eigenvalues - np.repeat(expected[::-1], counts[::-1])).max() < 1e-12
    assert np.abs(np.array([v for v, _ in spec.clusters]) - expected).max() < 1e-12
    return spec


def test_shape_operator_spectrum_t0(fam11):
    # at t=0 (theta0 = pi/8): cot(pi/8), cot(3pi/8), cot(5pi/8), cot(7pi/8)
    cloud = fkm.sample_level_set(fam11, 0.0, 3, seed=19)
    expected = [1 / math.tan(math.pi / 8 + a * math.pi / 4) for a in range(4)]
    assert np.allclose(expected, [2.414214, 0.414214, -0.414214, -2.414214], atol=1e-6)
    for x in cloud.points:
        spec = _assert_exact_spectrum(fam11, x)
        # the sampler only promises |f| <= 1e-10, which moves cot by at most 1.7e-10
        assert np.abs(np.array(spec.targets) - expected).max() < 1e-9


def test_shape_operator_multiplicities_and_minimality(fam43, fam12_51):
    from isospectra.catalog import minimal_angle

    for fam in (fam43, fam12_51):
        theta1 = minimal_angle(fam.pair).theta
        cloud = fkm.sample_level_set(fam, math.cos(4 * theta1), 2, seed=20)
        for x in cloud.points:
            spec = _assert_exact_spectrum(fam, x)
            assert spec.eigenvalues.size == fam.ambient_dim - 2  # n
            # minimality: the trace of A, the weighted curvature sum, vanishes
            assert abs(spec.eigenvalues.sum()) < 1e-12


def test_shape_operator_exact_off_minimal_level(fam43, fam12_51):
    for fam in (fam43, fam12_51):
        for t in (0.5, -0.7):
            for x in fkm.sample_level_set(fam, t, 2, seed=21).points:
                _assert_exact_spectrum(fam, x)


def test_shape_operator_scale_invariant(fam43, fam12_51):
    for fam in (fam43, fam12_51):
        x = fkm.sample_level_set(fam, 0.5, 1, seed=22).points[0]
        spec = fkm.shape_operator_spectrum(fam, x)
        # a power-of-two scale leaves x / |x| bit for bit
        for c in (2.0**-20, 8.0):
            assert np.array_equal(fkm.shape_operator_spectrum(fam, c * x).eigenvalues, spec.eigenvalues)
        for c in (3.7, 1e-3):
            scaled = fkm.shape_operator_spectrum(fam, c * x)
            assert np.abs(scaled.eigenvalues - spec.eigenvalues).max() < 1e-12
            assert [n for _, n in scaled.clusters] == [n for _, n in spec.clusters]


def test_shape_operator_rejects_focal_and_bad_points(fam43, fam12_51):
    for fam in (fam43, fam12_51):
        for focal in (fkm.sample_focal_M1(fam, 2, seed=23), fkm.sample_focal_M2(fam, 2, seed=23)):
            for x in focal.points:
                with pytest.raises(NearFocalError):
                    fkm.shape_operator_spectrum(fam, x)
        # 2e-9 from M1 along the normal P_0 x: |grad_S f| ~ 3e-8 clears the
        # cutoff, but f rounds to 1, where the targets cot(theta) are undefined
        x = fkm.sample_focal_M1(fam, 1, seed=24).points[0]
        near = math.cos(2e-9) * x + math.sin(2e-9) * (fam.system.matrices[0] @ x)
        assert np.linalg.norm(fkm.spherical_gradient(fam, near)) > 1e-8
        with pytest.raises(NearFocalError):
            fkm.shape_operator_spectrum(fam, near)
        d = fam.ambient_dim
        with pytest.raises(ValueError, match="nonzero"):
            fkm.shape_operator_spectrum(fam, np.zeros(d))
        with pytest.raises(ValueError, match="single point"):
            fkm.shape_operator_spectrum(fam, np.ones((2, d)))
        with pytest.raises(ValueError, match="dimension"):
            fkm.shape_operator_spectrum(fam, np.ones(d + 1))


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
    assert sidecar["schema_version"] == fkm.SCHEMA_VERSION == 2
    assert sidecar["draws"] == cloud.meta["draws"] >= 20
    assert {"batches", "dropped", "rejected", "max_residual"} <= sidecar.keys()


def test_point_cloud_leaves_the_callers_array_writeable():
    a = np.zeros((3, 2))
    cloud = fkm.PointCloud(a, 0.0, 1, 1e-10)
    assert a.flags.writeable and not cloud.points.flags.writeable
    assert np.shares_memory(a, cloud.points)  # a view, not a copy
