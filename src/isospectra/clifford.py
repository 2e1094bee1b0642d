"""Symmetric Clifford systems {P_0, ..., P_m} on R^{2l} with exact integer entries.

A symmetric Clifford system is a family of symmetric matrices satisfying
P_i P_j + P_j P_i = 2 delta_ij I.  The construction here is the standard one:
realize m-1 anticommuting orthogonal skew matrices E_1..E_{m-1} on R^l
(a module of the Clifford algebra C_{m-1}) and set, on R^l + R^l,

    P_0 = [[I, 0], [0, -I]],  P_1 = [[0, I], [I, 0]],
    P_{1+i} = [[0, E_i], [-E_i, 0]].

The skew generators come from complex/quaternion/octonion left multiplication
in their minimal dimensions 2, 4, 8, extended by the 16-fold periodicity
E -> {G_i x I, omega x A_j} where G_1..G_8 generate on R^16 and
omega = G_1...G_8 is the (symmetric, involutive) volume element.

All matrices are signed permutations, stored only as (perm, sign) index arrays
with (P_i x)_r = sign_r x_{perm_r}.  ``build_system`` composes them (a Kronecker
product is index arithmetic) and ``verify_system`` checks every identity on
them: integer arithmetic, O(m^2 d), no dense matrix and no floating point.
Dense int64 matrices exist only through ``matrices`` and ``from_matrices``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .catalog import delta

SCHEMA_VERSION = 1


# -- normed-algebra structure tables ------------------------------------------


def _cayley_dickson(table: np.ndarray) -> np.ndarray:
    """Double a composition-algebra multiplication table.

    ``table[a, b] = (sign, index)`` encodes e_a * e_b = sign * e_index with
    e_0 the unit.  Doubling rule on pairs (a, b), (c, d):
    (a,b)(c,d) = (ac - conj(d)b, da + b conj(c)).
    """
    n = table.shape[0]

    def conj(sign: int, idx: int) -> tuple[int, int]:
        return (sign, idx) if idx == 0 else (-sign, idx)

    def mul(x, y):
        sx, ix = x
        sy, iy = y
        s, i = table[ix, iy]
        return sx * sy * s, i

    out = np.zeros((2 * n, 2 * n, 2), dtype=np.int64)
    for a in range(2 * n):
        for c in range(2 * n):
            a0, a1 = a % n, a // n
            c0, c1 = c % n, c // n
            # basis element a is (e_{a0}, 0) or (0, e_{a0}) depending on a1
            x = (1, a0)
            y = (1, c0)
            if a1 == 0 and c1 == 0:
                s, i = mul(x, y)
                out[a, c] = (s, i)
            elif a1 == 0 and c1 == 1:
                # (a,0)(0,d) = (0, d a)
                s, i = mul(y, x)
                out[a, c] = (s, i + n)
            elif a1 == 1 and c1 == 0:
                # (0,b)(c,0) = (0, b conj(c))
                s, i = mul(x, conj(1, c0))
                out[a, c] = (s, i + n)
            else:
                # (0,b)(0,d) = (-conj(d) b, 0)
                s, i = mul(conj(1, c0), x)
                out[a, c] = (-s, i)
    return out


@lru_cache(maxsize=None)
def _algebra_table(dim: int) -> np.ndarray:
    """Multiplication table of R, C, H or O (dim in {1, 2, 4, 8})."""
    if dim == 1:
        return np.array([[[1, 0]]], dtype=np.int64)
    return _cayley_dickson(_algebra_table(dim // 2))


def _left_multiplications(dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Signed permutations of x -> e_a * x for the imaginary units e_1..e_{dim-1}."""
    table = _algebra_table(dim)
    forms = []
    for a in range(1, dim):
        # e_a * e_b = sign_b e_{idx_b}: row idx_b has its entry sign_b in column b
        order = np.argsort(table[a, :, 1])
        forms.append((order, table[a, order, 0]))
    return forms


def _compose(a, b):
    """The signed permutation of the product AB: (AB x)_r = s_a[r] s_b[p_a[r]] x_{p_b[p_a[r]]}."""
    (pa, sa), (pb, sb) = a, b
    return pb[pa], sa * sb[pa]


def _kron(a, b):
    """The signed permutation of the Kronecker product of A and B."""
    (pa, sa), (pb, sb) = a, b
    n = len(pb)
    return (pa[:, None] * n + pb).ravel(), (sa[:, None] * sb).ravel()


# -- skew generator towers -----------------------------------------------------


def _block_system(skew: list, dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """P_0..P_{len(skew)+1} on R^{2*dim} from skew generators on R^dim."""
    ident, ones = np.arange(dim), np.ones(dim, dtype=np.int64)
    forms = [
        (np.arange(2 * dim), np.concatenate([ones, -ones])),  # [[I, 0], [0, -I]]
        (np.concatenate([ident + dim, ident]), np.concatenate([ones, ones])),  # [[0, I], [I, 0]]
    ]
    forms.extend((np.concatenate([p + dim, p]), np.concatenate([s, -s])) for p, s in skew)
    return forms


@lru_cache(maxsize=None)
def _skew_generators(count: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], int]:
    """``count`` anticommuting orthogonal skew signed permutations in minimal dimension.

    Minimal dimensions: 0 -> 1, 1 -> 2, {2,3} -> 4, {4..7} -> 8, then
    dim(count) = 16 * dim(count - 8).
    """
    if count < 0:
        raise ValueError("generator count must be nonnegative")
    if count <= 7:
        dim = 1 if count == 0 else 2 if count == 1 else 4 if count <= 3 else 8
        return tuple(_left_multiplications(dim)[:count]), dim

    # periodicity step: 8 generators G_i on R^16 from the octonion system,
    # plus omega x A_j for the recursive tail
    p0, *rest = _block_system(_left_multiplications(8), 8)
    big = [_compose(p0, p) for p in rest]  # 8 skew generators on R^16
    omega = big[0]
    for g in big[1:]:
        omega = _compose(omega, g)
    tail, tail_dim = _skew_generators(count - 8)
    eye_tail = np.arange(tail_dim), np.ones(tail_dim, dtype=np.int64)
    gens = [_kron(g, eye_tail) for g in big]
    gens.extend(_kron(omega, a) for a in tail)
    return tuple(gens), 16 * tail_dim


# -- public types ---------------------------------------------------------------


@dataclass(frozen=True)
class CliffordSystem:
    """m+1 symmetric matrices on R^{2l} with P_i P_j + P_j P_i = 2 delta_ij I.

    Row r of P_i has its one nonzero entry, ``sign[i, r]`` = +-1, in column
    ``perm[i, r]``.  Construction keeps read-only int64 copies and raises
    ValueError naming the first P_i that is no signed permutation.
    """

    m: int
    l: int
    perm: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        n = self.ambient_dim
        perm, sign = np.asarray(self.perm), np.asarray(self.sign)
        if not (perm.ndim == 2 and perm.shape == sign.shape and perm.shape[1] == n):
            raise ValueError(f"perm and sign must have shape (count, {n}), got {perm.shape} and {sign.shape}")
        # checked before the cast to int64, so that no value is rounded into range
        valid = (np.abs(sign) == 1).all(axis=1)
        if len(perm):  # without matrices, nothing of length 2l is allocated
            valid &= (np.sort(perm, axis=1) == np.arange(n)).all(axis=1)
        if not valid.all():
            raise ValueError(f"P_{int(np.argmin(valid))} is not a signed permutation")
        for name, a in (("perm", perm), ("sign", sign)):
            a = a.astype(np.int64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.l

    @cached_property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """The dense int64 P_i, read-only, built on first use."""
        n = self.ambient_dim
        mats = tuple(np.zeros((n, n), dtype=np.int64) for _ in self.perm)
        for p, perm, sign in zip(mats, self.perm, self.sign):
            p[np.arange(n), perm] = sign
            p.setflags(write=False)
        return mats

    @staticmethod
    def from_matrices(m: int, l: int, matrices) -> "CliffordSystem":
        """The system of dense matrices; ValueError names a P_i that is misshapen or no signed permutation."""
        n = 2 * l
        perms, signs = [], []
        for i, p in enumerate(map(np.asarray, matrices)):
            if p.shape != (n, n):
                raise ValueError(f"P_{i} has shape {p.shape}, expected {(n, n)}")
            # n nonzeros in all; construction then requires each row's largest to be +-1
            if np.count_nonzero(p) != n:
                raise ValueError(f"P_{i} is not a signed permutation")
            perms.append(np.abs(p).argmax(axis=1))
            signs.append(p[np.arange(n), perms[-1]])
        return CliffordSystem(m, l, np.reshape(perms, (len(perms), n)), np.reshape(signs, (len(signs), n)))

    def to_json(self) -> str:
        """One triplet [r, perm[r], sign[r]] per row of each P_i: its nonzero entries."""
        rows = range(self.ambient_dim)
        triplets = [list(zip(rows, perm.tolist(), sign.tolist())) for perm, sign in zip(self.perm, self.sign)]
        return json.dumps({"schema_version": SCHEMA_VERSION, "m": self.m, "l": self.l, "matrices": triplets})

    @staticmethod
    def from_json(text: str) -> "CliffordSystem":
        """Parse ``to_json``'s text; raises ValueError on anything that is not a system of signed permutations."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"Clifford JSON must be an object, got {type(data).__name__}")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"Clifford JSON schema_version must be {SCHEMA_VERSION}")
        for key in ("m", "l"):
            value = data.get(key)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"Clifford JSON {key} must be an int >= 1, got {value!r}")
        matrices = data.get("matrices")
        if not isinstance(matrices, list):
            raise ValueError(f"Clifford JSON matrices must be a list, got {type(matrices).__name__}")
        n = 2 * data["l"]
        low, high = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
        forms = []
        for i, trips in enumerate(matrices):
            if not isinstance(trips, list):
                raise ValueError(f"P_{i} must be a list of [row, column, value] triplets")
            for trip in trips:
                if not (isinstance(trip, list) and len(trip) == 3):
                    raise ValueError(f"P_{i} has an entry that is no [row, column, value] triplet")
                r, c, v = trip
                if not (isinstance(r, int) and isinstance(c, int) and 0 <= r < n and 0 <= c < n):
                    raise ValueError(f"triplet index ({r}, {c}) is not an integer in [0, {n})")
                if isinstance(v, bool) or not isinstance(v, int) or not low <= v <= high:
                    raise ValueError(f"triplet value {v!r} at ({r}, {c}) is not an int64 integer")
            if len(trips) != n:
                raise ValueError(f"P_{i} is not a signed permutation")
            # a row given twice leaves another row missing, at sign 0
            rows, cols, vals = np.fromiter(itertools.chain.from_iterable(trips), np.int64, 3 * n).reshape(n, 3).T
            forms.append(np.zeros((2, n), dtype=np.int64))
            forms[-1][:, rows] = cols, vals
        forms = np.reshape(forms, (len(forms), 2, n))
        return CliffordSystem(data["m"], data["l"], forms[:, 0], forms[:, 1])


def build_system(m: int, k: int) -> CliffordSystem:
    """Symmetric Clifford system with m+1 matrices on R^{2l}, l = k*delta(m).

    P_0 = diag(I, -I) and P_1 = antidiag(I, I) exactly; the remaining P_{1+i}
    come from the skew generator blocks.  The associated multiplicity pair
    (m, l-m-1) may or may not be admissible; that is validated elsewhere.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gens, dim = _skew_generators(m - 1)
    l = k * delta(m)
    if k * dim != l:
        raise AssertionError(f"generator dimension {k * dim} != k*delta(m) = {l}")
    eye = np.arange(k), np.ones(k, dtype=np.int64)  # k block-diagonal copies of each generator
    forms = _block_system([_kron(eye, g) for g in gens], l)
    return CliffordSystem(m, l, np.stack([p for p, _ in forms]), np.stack([s for _, s in forms]))


# -- verification ----------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of exact verification; failures are data, not exceptions."""

    passed: bool
    checks: int
    failures: tuple[str, ...] = field(default_factory=tuple)

    @property
    def first_violation(self) -> str | None:
        return self.failures[0] if self.failures else None


def verify_system(system: CliffordSystem) -> VerificationReport:
    """Exact integer check of all Clifford-system identities.

    Checks, in order: m + 1 matrices; each P_i symmetric and of zero trace;
    P_i P_j + P_j P_i = 2 delta_ij I for all 0 <= i <= j.  A degenerate
    single-matrix system (m = 0) is accepted when P_0^2 = I.  Every check is
    index arithmetic on the stored ``(perm, sign)``, which construction has
    already made signed permutations of the right size: O(m^2 d) in all, with
    no matrix product and no dense matrix.
    """
    n = system.ambient_dim
    ident = np.arange(n)
    count = len(system.perm)
    failures: list[str] = []
    if count != system.m + 1:
        failures.append(f"expected m + 1 = {system.m + 1} matrices, got {count}")
    forms = list(enumerate(zip(system.perm, system.sign)))
    for i, (perm, sign) in forms:
        if not (np.array_equal(perm[perm], ident) and np.array_equal(sign[perm], sign)):
            failures.append(f"P_{i} is not symmetric")
        trace = int(sign[perm == ident].sum())
        if trace != 0:
            failures.append(f"P_{i} has nonzero trace {trace}")
    for (i, (pi, si)), (j, (pj, sj)) in itertools.combinations_with_replacement(forms, 2):
        # P_i P_j is the signed permutation (pj[pi], si * sj[pi])
        if i == j:
            holds = np.array_equal(pi[pi], ident) and bool((si * si[pi] == 1).all())
        else:
            holds = np.array_equal(pj[pi], pi[pj]) and np.array_equal(si * sj[pi], -sj * si[pj])
        if not holds:
            kind = "square" if i == j else "anticommutator"
            failures.append(f"{kind} identity violated at (P_{i}, P_{j})")
    checks = count * (count + 3) // 2  # one per matrix, one per pair i <= j
    return VerificationReport(passed=not failures, checks=checks, failures=tuple(failures))
