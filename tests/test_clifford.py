import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospectra import fkm
from isospectra.catalog import delta
from isospectra.clifford import (
    CliffordSystem,
    VerificationReport,
    _algebra_table,
    build_system,
    verify_system,
)


def _reference_build(m: int, k: int) -> list[np.ndarray]:
    """The dense construction: P_0..P_m as int64 matrices, by block matrices and np.kron."""

    def left_multiplications(dim):
        table = _algebra_table(dim)
        mats = []
        for a in range(1, dim):
            mat = np.zeros((dim, dim), dtype=np.int64)
            for b in range(dim):
                sign, idx = table[a, b]
                mat[idx, b] = sign
            mats.append(mat)
        return mats

    def block_system(skew, dim):
        eye = np.eye(dim, dtype=np.int64)
        zero = np.zeros((dim, dim), dtype=np.int64)
        mats = [np.block([[eye, zero], [zero, -eye]]), np.block([[zero, eye], [eye, zero]])]
        mats.extend(np.block([[zero, e], [-e, zero]]) for e in skew)
        return mats

    def skew_generators(count):
        if count == 0:
            return [], 1
        if count <= 7:
            dim = 2 if count == 1 else 4 if count <= 3 else 8
            return left_multiplications(dim)[:count], dim
        ps = block_system(left_multiplications(8), 8)
        big = [ps[0] @ p for p in ps[1:]]
        omega = np.eye(16, dtype=np.int64)
        for g in big:
            omega = omega @ g
        tail, tail_dim = skew_generators(count - 8)
        gens = [np.kron(g, np.eye(tail_dim, dtype=np.int64)) for g in big]
        gens.extend(np.kron(omega, a) for a in tail)
        return gens, 16 * tail_dim

    gens, _ = skew_generators(m - 1)
    return block_system([np.kron(np.eye(k, dtype=np.int64), g) for g in gens], k * delta(m))


def _dense_to_json(m: int, l: int, mats) -> str:
    """Clifford JSON written from dense matrices: every nonzero entry, row by row."""
    triplets = []
    for p in mats:
        rows, cols = np.nonzero(p)
        triplets.append([[int(r), int(c), int(p[r, c])] for r, c in zip(rows, cols)])
    return json.dumps({"schema_version": 1, "m": m, "l": l, "matrices": triplets})


def _valid_small_params():
    """(m, k) with m <= 8, k <= 2 and m2 = k*delta(m) - m - 1 >= 1."""
    out = []
    for m in range(1, 9):
        for k in (1, 2):
            if k * delta(m) - m - 1 >= 1:
                out.append((m, k))
    return out


def test_build_matches_dense_reference():
    cases = [(m, k) for m in range(1, 18) for k in (1, 2, 3, 5) if 2 * k * delta(m) <= 512]
    assert len(cases) == 55
    for m, k in cases:
        system = build_system(m, k)
        want = _reference_build(m, k)
        assert len(system.matrices) == len(want) == m + 1, (m, k)
        assert all(np.array_equal(p, q) for p, q in zip(system.matrices, want)), (m, k)
        assert system.to_json() == _dense_to_json(m, system.l, want), (m, k)


def test_large_systems_without_dense_matrices():
    # d = 1024 to 8192, where dense int64 storage would take 152 MB to 14 GB
    for m in (18, 19, 21, 25):
        tracemalloc.start()
        try:
            family = fkm.FKMFamily.from_representation(m, 1)
            system = family.system
            report = verify_system(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = system.ambient_dim
        assert d == 2 * delta(m) and report.passed and report.checks == (m + 1) * (m + 4) // 2, m
        assert peak < 12 * (m + 1) * d * 8, (m, peak)
        if m <= 21:
            back = CliffordSystem.from_json(system.to_json())
            assert np.array_equal(back.perm, system.perm) and np.array_equal(back.sign, system.sign)
        if m == 19:
            cloud = fkm.sample_focal_M2(family, 50, 19)
            f = fkm.eval_F(family, cloud.points)
            assert cloud.points.shape == (50, d) and np.max(np.abs(f + 1.0)) <= cloud.tolerance
        assert "matrices" not in vars(system), m  # the dense form was never built


def test_base_case_matches_block_form():
    # P0 = diag(I, -I), P1 = antidiag(I, I) for any k when m = 1
    for k in (1, 3, 5):
        sys = build_system(1, k)
        l = sys.l
        assert l == k
        eye = np.eye(l, dtype=np.int64)
        p0 = np.block([[eye, 0 * eye], [0 * eye, -eye]])
        p1 = np.block([[0 * eye, eye], [eye, 0 * eye]])
        assert np.array_equal(sys.matrices[0], p0)
        assert np.array_equal(sys.matrices[1], p1)


def test_quaternion_and_octonion_cases():
    sys = build_system(2, 1)
    assert len(sys.matrices) == 3 and sys.ambient_dim == 4
    assert verify_system(sys).passed
    sys = build_system(4, 1)
    assert len(sys.matrices) == 5 and sys.ambient_dim == 8
    assert verify_system(sys).passed


def test_anticommutators_exact_oracle():
    # independent elementwise check, not via verify_system
    sys = build_system(4, 1)
    mats = sys.matrices
    n = sys.ambient_dim
    for i in range(len(mats)):
        for j in range(len(mats)):
            anti = mats[i] @ mats[j] + mats[j] @ mats[i]
            expected = 2 * np.eye(n, dtype=np.int64) if i == j else np.zeros((n, n), np.int64)
            assert np.array_equal(anti, expected), (i, j)


def test_all_small_systems_verify():
    for m, k in _valid_small_params():
        sys = build_system(m, k)
        assert sys.l == k * delta(m)
        report = verify_system(sys)
        assert report.passed, (m, k, report.first_violation)


def test_periodicity_dimensions_and_verification():
    # m = 9 exercises the 16-fold periodicity tensor step; m = 17 (d = 512)
    # is the smallest m that runs it twice
    for m, l in [(9, 16), (10, 32), (12, 64), (16, 128), (17, 256)]:
        sys = build_system(m, 1)
        assert sys.l == l and sys.ambient_dim == 2 * l
        assert len(sys.matrices) == m + 1
        assert verify_system(sys).passed, m


def test_entries_are_signed_permutations():
    for m, k in [(1, 2), (3, 1), (5, 1), (8, 1), (9, 1)]:
        sys = build_system(m, k)
        for p in sys.matrices:
            assert set(np.unique(p)) <= {-1, 0, 1}
            assert (np.abs(p).sum(axis=0) == 1).all()
            assert (np.abs(p).sum(axis=1) == 1).all()
            assert int(np.trace(p)) == 0


def test_degenerate_single_matrix_accepted():
    base = build_system(1, 2)
    single = CliffordSystem.from_matrices(0, base.l, (base.matrices[0],))
    assert verify_system(single).passed


def test_corrupted_system_fails_at_duplicate_index():
    sys = build_system(2, 1)
    corrupted = CliffordSystem.from_matrices(sys.m, sys.l, (sys.matrices[0], sys.matrices[0], sys.matrices[2]))
    report = verify_system(corrupted)
    assert not report.passed
    assert any("(P_0, P_1)" in f for f in report.failures)


def test_wrong_shape_reported():
    sys = build_system(2, 1)
    bad = np.eye(3, dtype=np.int64)
    with pytest.raises(ValueError, match=r"^P_2 has shape \(3, 3\), expected \(4, 4\)$"):
        CliffordSystem.from_matrices(sys.m, sys.l, (*sys.matrices[:2], bad))
    # the arrays given directly: one row of length 2l per P_i, each a signed permutation
    with pytest.raises(ValueError, match=r"shape \(count, 4\)"):
        CliffordSystem(sys.m, sys.l, sys.perm[:, :3], sys.sign[:, :3])
    for perm, sign in ((sys.perm, 2 * sys.sign), (sys.perm % 3, sys.sign), (sys.perm, 1.5 * sys.sign)):
        with pytest.raises(ValueError, match="^P_0 is not a signed permutation$"):
            CliffordSystem(sys.m, sys.l, perm, sign)


def test_wrong_matrix_count_reported():
    sys = build_system(2, 1)
    for system in (
        CliffordSystem.from_matrices(2, sys.l, sys.matrices[:2]),
        CliffordSystem.from_matrices(5, sys.l, sys.matrices),
    ):
        report = verify_system(system)
        assert not report.passed
        expected = f"expected m + 1 = {system.m + 1} matrices, got {len(system.matrices)}"
        assert report.failures == (expected,)
        assert report.checks == _reference_verify(system.m, system.l, system.matrices).checks


def test_wrong_trace_reported():
    bad = np.eye(4, dtype=np.int64)
    report = verify_system(CliffordSystem.from_matrices(0, 2, (bad,)))
    assert not report.passed
    assert any("trace" in f for f in report.failures)


def test_linear_combination_squares_exactly():
    rng = np.random.default_rng(20240817)
    for m, k in [(1, 3), (2, 1), (4, 1), (8, 1)]:
        sys = build_system(m, k)
        n = sys.ambient_dim
        eye = np.eye(n, dtype=np.int64)
        for _ in range(100):
            c = rng.integers(-9, 10, size=len(sys.matrices))
            combo = sum(int(ci) * p for ci, p in zip(c, sys.matrices))
            expected = int(np.dot(c, c)) * eye
            assert np.array_equal(combo @ combo, expected)


def test_json_round_trip():
    sys = build_system(3, 1)
    text = sys.to_json()
    back = CliffordSystem.from_json(text)
    assert back.m == sys.m and back.l == sys.l
    for p, q in zip(sys.matrices, back.matrices):
        assert np.array_equal(p, q)


def test_from_json_rejects_bad_input():
    data = json.loads(build_system(2, 1).to_json())
    for version in (99, None):
        with pytest.raises(ValueError, match="schema_version"):
            CliffordSystem.from_json(json.dumps({**data, "schema_version": version}))
    for bad in ([-4, 0, 1], [0, -1, 1], [4, 0, 1], [0, 99, 1], [1.5, 0, 1]):
        trips = [data["matrices"][0] + [bad], *data["matrices"][1:]]
        with pytest.raises(ValueError, match="not an integer in"):
            CliffordSystem.from_json(json.dumps({**data, "matrices": trips}))
    # a non-integer value would be truncated or parsed, and the system could then verify
    first, *rest = data["matrices"][0]
    for value in (1.5, "1", True, None, 2**63, -(2**63) - 1, 2**70):
        trips = [[[*first[:2], value], *rest], *data["matrices"][1:]]
        with pytest.raises(ValueError, match="triplet value"):
            CliffordSystem.from_json(json.dumps({**data, "matrices": trips}))
    # m and l must be ints >= 1: a bool, float, string, null or missing key is refused
    for key in ("m", "l"):
        for value in (0, -1, 1.5, "2", True, None):
            with pytest.raises(ValueError, match=f"{key} must be an int >= 1"):
                CliffordSystem.from_json(json.dumps({**data, key: value}))
        with pytest.raises(ValueError, match=f"{key} must be an int >= 1"):
            CliffordSystem.from_json(json.dumps({k: v for k, v in data.items() if k != key}))
    # an int64 value other than +-1, a row given twice or missing, or a column used twice
    # makes no signed permutation
    first_mat, second = data["matrices"][:2]
    bad_second = [[[*second[0][:2], value], *second[1:]] for value in (2**63 - 1, -(2**63), 0, 2, -2)]
    bad_second.append([second[0], second[0], *second[2:]])  # row 0 twice, row 1 missing
    bad_second.append(second[1:])  # row 0 missing
    bad_second.append([*second[:-1], [second[-1][0], second[0][1], 1]])  # a column used twice
    for trips in bad_second:
        mats = [data["matrices"][0], trips, *data["matrices"][2:]]
        with pytest.raises(ValueError, match="^P_1 is not a signed permutation$"):
            CliffordSystem.from_json(json.dumps({**data, "matrices": mats}))
    # a document of the wrong shape: not an object, no list of matrices, a matrix
    # that is no list, or an entry that is no triplet
    for doc in ([data], 3, 2.5, "text", None):
        with pytest.raises(ValueError, match="must be an object"):
            CliffordSystem.from_json(json.dumps(doc))
    for mats in (None, 3, "text", {"0": []}):
        with pytest.raises(ValueError, match="matrices must be a list"):
            CliffordSystem.from_json(json.dumps({**data, "matrices": mats}))
    with pytest.raises(ValueError, match="matrices must be a list"):
        CliffordSystem.from_json(json.dumps({k: v for k, v in data.items() if k != "matrices"}))
    for matrix in (3, None, "abc"):
        with pytest.raises(ValueError, match="^P_1 must be a list of"):
            CliffordSystem.from_json(json.dumps({**data, "matrices": [first_mat, matrix]}))
    for trip in (3, None, "abc", [0, 0], [0, 0, 1, 1], []):
        with pytest.raises(ValueError, match="^P_1 has an entry that is no"):
            CliffordSystem.from_json(json.dumps({**data, "matrices": [first_mat, [*second[:-1], trip]]}))
    # a count other than m + 1 is read, and verify_system reports it
    short = CliffordSystem.from_json(json.dumps({**data, "matrices": [first_mat]}))
    assert verify_system(short).failures == ("expected m + 1 = 3 matrices, got 1",)
    # so is a document without matrices, whose l then sizes nothing
    empty = CliffordSystem.from_json(json.dumps({**data, "l": 10**12, "matrices": []}))
    assert empty.perm.shape == empty.sign.shape == (0, 2 * 10**12)


# reproducible: the same examples on every run, and no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_SMALL = st.integers(-2, 9) | _JSON
# documents with the right keys, filled with near-valid and arbitrary values
_DOCUMENTS = st.fixed_dictionaries({
    "schema_version": st.sampled_from([1, 2, 1.0, True, None, "1"]),
    "m": _SMALL,
    "l": _SMALL,
    "matrices": st.lists(st.lists(st.lists(_SMALL, max_size=4) | _SMALL, max_size=6) | _SMALL, max_size=4)
    | _JSON,
})
_VALID_TEXT = build_system(2, 1).to_json()
# (where, how many characters to remove, what to put there): a deletion, insertion or replacement
_EDITS = st.tuples(
    st.integers(0, len(_VALID_TEXT)),
    st.integers(0, 1),
    st.sampled_from(list('0123456789-+.eE[]{},:" tfn') + ["", "true", "null", "1.5", "[]"]),
)


def _read_or_refuse(text: str):
    """from_json either refuses with ValueError or returns a system that round-trips to itself."""
    try:
        system = CliffordSystem.from_json(text)
    except ValueError:
        return
    again = CliffordSystem.from_json(system.to_json())
    assert (again.m, again.l) == (system.m, system.l)
    assert np.array_equal(again.perm, system.perm) and np.array_equal(again.sign, system.sign)
    assert again.to_json() == system.to_json()


@PROPERTY
@given(st.one_of(_JSON, _DOCUMENTS))
def test_from_json_reads_or_refuses_any_json_value(value):
    _read_or_refuse(json.dumps(value))


@PROPERTY
@given(_EDITS)
def test_from_json_reads_or_refuses_any_single_edit(edit):
    at, removed, text = edit
    _read_or_refuse(_VALID_TEXT[:at] + text + _VALID_TEXT[at + removed:])


def _reference_verify(m: int, l: int, mats) -> VerificationReport:
    """The dense verifier: every identity of dense matrices by matrix products, O(m^2 d^3).

    The products run in float64, where they are exact: the entries are
    integers of size at most 2, so every sum stays far below 2^53.
    """
    n = 2 * l
    eye = np.eye(n)
    failures: list[str] = []
    checks = 0
    if len(mats) != m + 1:
        failures.append(f"expected m + 1 = {m + 1} matrices, got {len(mats)}")
    for i, p in enumerate(mats):
        checks += 1
        if p.shape != (n, n):
            failures.append(f"P_{i} has shape {p.shape}, expected {(n, n)}")
            continue
        if np.abs(p).max(initial=0) > 1:
            failures.append(f"P_{i} has entries outside {{-1,0,1}}")
        if not np.array_equal(p, p.T):
            failures.append(f"P_{i} is not symmetric")
        if int(np.trace(p)) != 0:
            failures.append(f"P_{i} has nonzero trace {int(np.trace(p))}")
    dense = [p.astype(np.float64) for p in mats]
    for i in range(len(mats)):
        for j in range(i, len(mats)):
            checks += 1
            anti = dense[i] @ dense[j] + dense[j] @ dense[i]
            target = 2 * eye if i == j else np.zeros_like(eye)
            if not np.array_equal(anti, target):
                kind = "square" if i == j else "anticommutator"
                failures.append(f"{kind} identity violated at (P_{i}, P_{j})")
    return VerificationReport(passed=not failures, checks=checks, failures=tuple(failures))


def _corruptions(sys: CliffordSystem, rng: np.random.Generator):
    """Five corrupted copies of the matrices of ``sys``, each with one matrix changed."""
    n = sys.ambient_dim
    i = int(rng.integers(len(sys.matrices)))
    r, s = (int(v) for v in rng.choice(n, size=2, replace=False))
    c = int(np.flatnonzero(sys.matrices[i][r])[0])

    def swap_in(p):
        return (*sys.matrices[:i], p, *sys.matrices[i + 1 :])

    flipped, two, swapped, zeroed = (sys.matrices[i].copy() for _ in range(4))
    flipped[r, c] = -flipped[r, c]
    two[r, c] = 2
    swapped[[r, s]] = swapped[[s, r]]
    zeroed[r] = 0
    neighbour = sys.matrices[i - 1] if i > 0 else sys.matrices[1]
    return [swap_in(p) for p in (flipped, two, neighbour, swapped, zeroed)]


def _is_signed_permutation(p: np.ndarray) -> bool:
    a = np.abs(p)
    one_per_line = (a.sum(axis=0) == 1).all() and (a.sum(axis=1) == 1).all()
    return set(np.unique(p)) <= {-1, 0, 1} and bool(one_per_line)


def test_verify_matches_dense_reference():
    rng = np.random.default_rng(20261018)
    cases = [(m, k) for m in range(1, 13) for k in (1, 2) if 2 * k * delta(m) <= 128]
    assert len(cases) == 22
    for m, k in cases:
        sys = build_system(m, k)
        # a sign flip, a neighbouring P_j and two swapped rows stay signed permutations;
        # an entry 2 and a zeroed row do not, and are refused before any verification
        kept = (True, True, False, True, True, False)
        for mats, signed in zip([sys.matrices, *_corruptions(sys, rng)], kept):
            want = _reference_verify(sys.m, sys.l, mats)
            assert want.passed == (mats is sys.matrices), (m, k)
            assert all(_is_signed_permutation(p) for p in mats) == signed, (m, k)
            if signed:
                got = verify_system(CliffordSystem.from_matrices(sys.m, sys.l, mats))
                assert (got.passed, got.checks, got.failures) == (want.passed, want.checks, want.failures), (m, k)
            else:
                with pytest.raises(ValueError, match="is not a signed permutation"):
                    CliffordSystem.from_matrices(sys.m, sys.l, mats)


def test_not_signed_permutation_reported():
    # P_2 on R^8 with any one entry set to 1 (if zero) or 2, or any row duplicated
    sys = build_system(4, 1)
    n = sys.ambient_dim
    variants = []
    for r in range(n):
        for c in range(n):
            variants.append(sys.matrices[2].copy())
            variants[-1][r, c] = 2 if variants[-1][r, c] else 1
            if c != r:
                variants.append(sys.matrices[2].copy())
                variants[-1][c] = variants[-1][r]
    assert len(variants) == n * n + n * (n - 1)
    for p in variants:
        assert not _is_signed_permutation(p)
        mats = (*sys.matrices[:2], p, *sys.matrices[3:])
        with pytest.raises(ValueError, match="^P_2 is not a signed permutation$"):
            CliffordSystem.from_matrices(sys.m, sys.l, mats)
        assert not _reference_verify(sys.m, sys.l, mats).passed


def test_build_system_domain_errors():
    with pytest.raises(ValueError):
        build_system(0, 1)
    with pytest.raises(ValueError):
        build_system(2, 0)
