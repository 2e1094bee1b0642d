import hashlib
import itertools
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
    _unit_sign,
    build_system,
    verify_system,
)


def _reference_build(m: int, k: int) -> list[np.ndarray]:
    """The dense construction: P_0..P_m as int64 matrices, by block matrices and np.kron."""

    def left_multiplications(dim):
        mats = []
        for a in range(1, dim):
            mat = np.zeros((dim, dim), dtype=np.int64)
            for b in range(dim):
                mat[a ^ b, b] = _unit_sign(a, b)  # e_a e_b = s(a, b) e_{a XOR b}
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
    """Clifford JSON written from dense matrices: the column and value of each row's one nonzero entry."""
    perm, sign = [], []
    for p in mats:
        rows, cols = np.nonzero(p)
        assert np.array_equal(rows, np.arange(len(p)))
        perm.append(cols.tolist())
        sign.append(p[rows, cols].tolist())
    return json.dumps({"schema_version": 2, "m": m, "l": l, "perm": perm, "sign": sign})


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


def test_every_built_system_is_pinned():
    # the dense reference reads the same sign rule, so it cannot see a change to the tower; this digest
    # of integer arrays can
    digest = hashlib.sha256()
    cases = [(m, k) for m in range(1, 18) for k in (1, 2, 3)] + [(m, 1) for m in range(18, 26)]
    for m, k in cases:
        system = build_system(m, k)
        for data in (f"{m},{k}".encode(), system.perm.tobytes(), system.sign.tobytes()):
            digest.update(data)
    assert digest.hexdigest() == "268826365febf69eb673956f090aa6d2f58305563bfff809e5bdb7ca0c7ff786"


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_unit_sign_gives_composition_algebras(dim):
    units = range(dim)
    assert all(_unit_sign(0, a) == _unit_sign(a, 0) == 1 for a in units)  # e_0 is a two-sided unit
    assert all(_unit_sign(a, a) == -1 for a in units[1:])  # e_a e_a = -e_0

    def product(x, y):
        out = np.zeros(dim, dtype=np.int64)
        for a, b in itertools.product(units, units):
            out[a ^ b] += _unit_sign(a, b) * x[a] * y[b]
        return out

    rng = np.random.default_rng(dim)
    for _ in range(50):
        x, y = rng.integers(-9, 10, size=(2, dim))
        # exact in int64: |xy|^2 = |x|^2 |y|^2
        assert product(x, y) @ product(x, y) == (x @ x) * (y @ y), (x, y)


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
        assert CliffordSystem.from_json(system.to_json()) == system, m
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
        assert report.passed, (m, k, report.failures)


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
    single = CliffordSystem.from_matrices((base.matrices[0],))
    assert (single.m, single.l) == (0, base.l)
    assert verify_system(single).passed


def test_corrupted_system_fails_at_duplicate_index():
    sys = build_system(2, 1)
    corrupted = CliffordSystem.from_matrices((sys.matrices[0], sys.matrices[0], sys.matrices[2]))
    report = verify_system(corrupted)
    assert not report.passed
    assert any("(P_0, P_1)" in f for f in report.failures)


def test_wrong_shape_reported():
    sys = build_system(2, 1)
    bad = np.eye(3, dtype=np.int64)
    with pytest.raises(ValueError, match=r"^P_2 has shape \(3, 3\), expected \(4, 4\)$"):
        CliffordSystem.from_matrices((*sys.matrices[:2], bad))
    # the arrays given directly: m + 1 >= 1 rows of one even length 2l, each a signed permutation
    for perm, sign in ((sys.perm[:, :3], sys.sign[:, :3]), (sys.perm[:0], sys.sign[:0]),
                       (sys.perm, sys.sign[:2]), (sys.perm[0], sys.sign[0])):
        with pytest.raises(ValueError, match=r"one shape \(m \+ 1, 2l\), got"):
            CliffordSystem(perm, sign)
    with pytest.raises(ValueError, match=r"^P_0 has shape \(\), expected \(0, 0\)$"):
        CliffordSystem.from_matrices([np.int64(1)])
    for matrices in ((), (np.eye(3, dtype=np.int64),)):
        with pytest.raises(ValueError, match=r"one shape \(m \+ 1, 2l\)"):
            CliffordSystem.from_matrices(matrices)
    # |1j| = 1, but an int64 cast would store sign 0
    for perm, sign in ((sys.perm, 2 * sys.sign), (sys.perm % 3, sys.sign), (sys.perm, 1.5 * sys.sign),
                       (sys.perm, 1j * sys.sign)):
        with pytest.raises(ValueError, match="^P_0 is not a signed permutation$"):
            CliffordSystem(perm, sign)


def test_from_json_refuses_an_m_other_than_the_row_count_less_one():
    data = json.loads(build_system(2, 1).to_json())
    # m, and the count of rows it implies, disagree with the arrays
    for m, rows in ((2, 2), (2, 1), (5, 3), (1, 3)):
        text = json.dumps({**data, "m": m, "perm": data["perm"][:rows], "sign": data["sign"][:rows]})
        with pytest.raises(ValueError, match=f"^Clifford JSON perm .* lists of equal length m \\+ 1 = {m + 1}$"):
            CliffordSystem.from_json(text)
    # a document without matrices, whose l would otherwise size an identity of 2l entries
    with pytest.raises(ValueError, match="lists of equal length m \\+ 1 = 3"):
        CliffordSystem.from_json(json.dumps({**data, "l": 10**6, "perm": [], "sign": []}))


def test_wrong_trace_reported():
    bad = np.eye(4, dtype=np.int64)
    report = verify_system(CliffordSystem.from_matrices((bad,)))
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


def test_systems_compare_and_hash_by_value():
    system, same, other = build_system(4, 2), build_system(4, 2), build_system(4, 1)
    assert system == same and not system != same and hash(system) == hash(same)
    assert system != other and other != system and system != 3
    # the same perm with every sign flipped
    assert system != CliffordSystem(system.perm, -system.sign)
    assert {system, same, other} == {system, other} and same in {system}
    assert CliffordSystem.from_json(system.to_json()) == system
    family = fkm.FKMFamily.from_pair(4, 3)
    assert family == fkm.FKMFamily.from_pair(4, 3) and hash(family) == hash(fkm.FKMFamily.from_pair(4, 3))
    assert family != fkm.FKMFamily.from_pair(3, 4)


def test_from_json_refuses_schema_1():
    # version 1 wrote one [row, column, value] triplet per nonzero entry
    system = build_system(2, 1)
    rows = range(system.ambient_dim)
    triplets = [list(zip(rows, perm.tolist(), sign.tolist())) for perm, sign in zip(system.perm, system.sign)]
    text = json.dumps({"schema_version": 1, "m": system.m, "l": system.l, "matrices": triplets})
    with pytest.raises(ValueError, match="schema_version must be 2"):
        CliffordSystem.from_json(text)


def _edited(doc: dict, key: str, i: int, j: int, value) -> str:
    """The text of ``doc`` with entry j of row i of ``perm`` or ``sign`` set to ``value``."""
    rows = json.loads(json.dumps(doc[key]))
    rows[i][j] = value
    return json.dumps({**doc, key: rows})


def test_from_json_rejects_bad_input():
    data = json.loads(build_system(2, 1).to_json())
    for version in (99, 1, None):
        with pytest.raises(ValueError, match="schema_version"):
            CliffordSystem.from_json(json.dumps({**data, "schema_version": version}))
    # m and l must be ints >= 1: a bool, float, string, null or missing key is refused
    for key in ("m", "l"):
        for value in (0, -1, 1.5, "2", True, None):
            with pytest.raises(ValueError, match=f"{key} must be an int >= 1"):
                CliffordSystem.from_json(json.dumps({**data, key: value}))
        with pytest.raises(ValueError, match=f"{key} must be an int >= 1"):
            CliffordSystem.from_json(json.dumps({k: v for k, v in data.items() if k != key}))
    # a document of the wrong shape: not an object, perm and sign missing, no lists,
    # or lists of different lengths
    for doc in ([data], 3, 2.5, "text", None):
        with pytest.raises(ValueError, match="must be an object"):
            CliffordSystem.from_json(json.dumps(doc))
    for key in ("perm", "sign"):
        for value in (None, 3, "text", {"0": []}, data[key][:2]):
            with pytest.raises(ValueError, match="lists of equal length"):
                CliffordSystem.from_json(json.dumps({**data, key: value}))
        with pytest.raises(ValueError, match="lists of equal length"):
            CliffordSystem.from_json(json.dumps({k: v for k, v in data.items() if k != key}))
        # a row that is no list of 2l ints: another length, or another type
        for row in (3, None, "abcd", {"0": 1}, [], data[key][1][:-1], [*data[key][1], 0]):
            rows = [data[key][0], row, data[key][2]]
            with pytest.raises(ValueError, match="must be a list of 4 ints"):
                CliffordSystem.from_json(json.dumps({**data, key: rows}))
        # an entry that is no int: numpy would truncate a float, parse a string and
        # read true or false as 1 or 0, and the system could then verify
        for value in (1.5, 1.0, "1", None, [1], True, False):
            with pytest.raises(ValueError, match="must be a list of 4 ints"):
                CliffordSystem.from_json(_edited(data, key, 1, 0, value))
        for value in (2**63, -(2**63) - 1, 2**70):
            with pytest.raises(ValueError, match="only int64 integers"):
                CliffordSystem.from_json(_edited(data, key, 1, 0, value))
    # each entry of the (1, 1) text as a bool: numpy would read a perm row [false, true] as [0, 1]
    doc = json.loads(build_system(1, 1).to_json())
    for key, i, j in itertools.product(("perm", "sign"), range(2), range(2)):
        with pytest.raises(ValueError, match="must be a list of 2 ints"):
            CliffordSystem.from_json(_edited(doc, key, i, j, bool(doc[key][i][j])))
    # an int64 sign other than +-1, a column out of range or a column used twice
    # makes no signed permutation, and construction names the matrix
    bad = [("sign", value) for value in (2**63 - 1, -(2**63), 0, 2, -2)]
    bad += [("perm", value) for value in (-1, 4, 99, 2**63 - 1, -(2**63), data["perm"][1][1])]
    for key, value in bad:
        with pytest.raises(ValueError, match="^P_1 is not a signed permutation$"):
            CliffordSystem.from_json(_edited(data, key, 1, 0, value))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_SMALL = st.integers(-2, 9) | _JSON
_ROWS = st.lists(st.lists(_SMALL, max_size=4) | _SMALL, max_size=4) | _JSON
# documents with the right keys, filled with near-valid and arbitrary values
_DOCUMENTS = st.fixed_dictionaries({
    "schema_version": st.sampled_from([1, 2, 2.0, True, None, "2"]),
    "m": _SMALL,
    "l": _SMALL,
    "perm": _ROWS,
    "sign": _ROWS,
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
    assert again == system and again.to_json() == system.to_json()


@settings(max_examples=100)
@given(st.one_of(_JSON, _DOCUMENTS))
def test_from_json_reads_or_refuses_any_json_value(value):
    _read_or_refuse(json.dumps(value))


@settings(max_examples=100)
@given(_EDITS)
def test_from_json_reads_or_refuses_any_single_edit(edit):
    at, removed, text = edit
    _read_or_refuse(_VALID_TEXT[:at] + text + _VALID_TEXT[at + removed:])


def _reference_verify(l: int, mats) -> VerificationReport:
    """The dense verifier: every identity of dense matrices by matrix products, O(m^2 d^3).

    The products run in float64, where they are exact: the entries are
    integers of size at most 2, so every sum stays far below 2^53.
    """
    n = 2 * l
    eye = np.eye(n)
    failures: list[str] = []
    checks = 0
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
            want = _reference_verify(sys.l, mats)
            assert want.passed == (mats is sys.matrices), (m, k)
            assert all(_is_signed_permutation(p) for p in mats) == signed, (m, k)
            if signed:
                got = verify_system(CliffordSystem.from_matrices(mats))
                assert (got.passed, got.checks, got.failures) == (want.passed, want.checks, want.failures), (m, k)
            else:
                with pytest.raises(ValueError, match="is not a signed permutation"):
                    CliffordSystem.from_matrices(mats)


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
            CliffordSystem.from_matrices(mats)
        assert not _reference_verify(sys.l, mats).passed


def test_build_system_domain_errors():
    with pytest.raises(ValueError):
        build_system(0, 1)
    with pytest.raises(ValueError):
        build_system(2, 0)


@pytest.mark.parametrize("m, k", [(4, 2.0), (4.0, 2), (4, True), ("4", 2), (True, 2), (4, None)])
def test_build_system_refuses_non_integers(m, k):
    for build in (build_system, fkm.FKMFamily.from_representation):
        with pytest.raises(ValueError, match="must be an int"):
            build(m, k)


def test_build_system_stores_numpy_integers_as_ints():
    system = build_system(np.int64(4), np.int32(2))
    assert type(system.m) is int and type(system.l) is int
    assert system == build_system(4, 2)


@settings(max_examples=40)
@given(m=st.integers(1, 17), k=st.integers(1, 2))
def test_every_built_system_verifies_round_trips_and_gathers(m, k):
    system = build_system(m, k)
    assert (system.m, system.l) == (m, k * delta(m))
    report = verify_system(system)
    assert report.passed and report.checks == (m + 1) * (m + 4) // 2, report.failures
    assert CliffordSystem.from_json(system.to_json()) == system
    d = system.ambient_dim
    if d <= 512:  # 37 MB of dense matrices at m = 17, k = 1
        assert CliffordSystem.from_matrices(system.matrices) == system
    if system.l - m - 1 >= 1 and d <= 128:
        # the family's index of each P_i into [x | -x] gives P_i x; distinct
        # nonzero coordinates expose any wrong column or sign
        x = np.arange(1.0, d + 1.0)
        signed = np.concatenate([x, -x])
        gathers = fkm.FKMFamily.from_representation(m, k)._gathers
        assert len(gathers) == m + 1
        for index, p in zip(gathers, system.matrices):
            assert np.array_equal(signed[index], p @ x)
