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

All matrices are signed permutation matrices.  ``verify_system`` checks every
identity by composing them as (perm, sign) index arrays: integer arithmetic,
O(m^2 d) after an O(d^2) read of each matrix, no floating point anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

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


def _left_multiplications(dim: int) -> list[np.ndarray]:
    """Matrices of x -> e_a * x for the imaginary units e_1..e_{dim-1}."""
    table = _algebra_table(dim)
    mats = []
    for a in range(1, dim):
        mat = np.zeros((dim, dim), dtype=np.int64)
        for b in range(dim):
            sign, idx = table[a, b]
            mat[idx, b] = sign
        mats.append(mat)
    return mats


# -- skew generator towers -----------------------------------------------------


def _block_system(skew: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """P_0..P_{len(skew)+1} on R^{2*dim} from skew generators on R^dim."""
    eye = np.eye(dim, dtype=np.int64)
    zero = np.zeros((dim, dim), dtype=np.int64)
    mats = [
        np.block([[eye, zero], [zero, -eye]]),
        np.block([[zero, eye], [eye, zero]]),
    ]
    mats.extend(np.block([[zero, e], [-e, zero]]) for e in skew)
    return mats


@lru_cache(maxsize=None)
def _skew_generators(count: int) -> tuple[tuple[np.ndarray, ...], int]:
    """``count`` anticommuting orthogonal skew generators in minimal dimension.

    Minimal dimensions: 0 -> 1, 1 -> 2, {2,3} -> 4, {4..7} -> 8, then
    dim(count) = 16 * dim(count - 8).
    """
    if count < 0:
        raise ValueError("generator count must be nonnegative")
    if count == 0:
        return (), 1
    if count == 1:
        return tuple(_left_multiplications(2)), 2
    if count <= 3:
        return tuple(_left_multiplications(4)[:count]), 4
    if count <= 7:
        return tuple(_left_multiplications(8)[:count]), 8

    # periodicity step: 8 generators G_i on R^16 from the octonion system,
    # plus omega x A_j for the recursive tail
    octo = list(_left_multiplications(8))
    ps = _block_system(octo, 8)
    big = [ps[0] @ p for p in ps[1:]]  # 8 skew generators on R^16
    omega = np.eye(16, dtype=np.int64)
    for g in big:
        omega = omega @ g
    tail, tail_dim = _skew_generators(count - 8)
    eye_tail = np.eye(tail_dim, dtype=np.int64)
    gens = [np.kron(g, eye_tail) for g in big]
    gens.extend(np.kron(omega, a) for a in tail)
    return tuple(gens), 16 * tail_dim


# -- public types ---------------------------------------------------------------


@dataclass(frozen=True)
class CliffordSystem:
    """m+1 symmetric matrices on R^{2l} with P_i P_j + P_j P_i = 2 delta_ij I."""

    m: int
    l: int
    matrices: tuple[np.ndarray, ...]

    @property
    def ambient_dim(self) -> int:
        return 2 * self.l

    def to_json(self) -> str:
        triplets = []
        for p in self.matrices:
            rows, cols = np.nonzero(p)
            triplets.append([[int(r), int(c), int(p[r, c])] for r, c in zip(rows, cols)])
        return json.dumps(
            {"schema_version": SCHEMA_VERSION, "m": self.m, "l": self.l, "matrices": triplets}
        )

    @staticmethod
    def from_json(text: str) -> "CliffordSystem":
        data = json.loads(text)
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"Clifford JSON schema_version must be {SCHEMA_VERSION}")
        for key in ("m", "l"):
            value = data.get(key)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"Clifford JSON {key} must be an int >= 1, got {value!r}")
        n = 2 * data["l"]
        int64 = np.iinfo(np.int64)
        mats = []
        for trips in data["matrices"]:
            p = np.zeros((n, n), dtype=np.int64)
            for r, c, v in trips:
                if not (isinstance(r, int) and isinstance(c, int) and 0 <= r < n and 0 <= c < n):
                    raise ValueError(f"triplet index ({r}, {c}) is not an integer in [0, {n})")
                if isinstance(v, bool) or not isinstance(v, int) or not int64.min <= v <= int64.max:
                    raise ValueError(f"triplet value {v!r} at ({r}, {c}) is not an int64 integer")
                p[r, c] = v
            mats.append(p)
        return CliffordSystem(data["m"], data["l"], _freeze(mats))


def _freeze(mats) -> tuple[np.ndarray, ...]:
    out = []
    for p in mats:
        p = np.asarray(p, dtype=np.int64)
        p.setflags(write=False)
        out.append(p)
    return tuple(out)


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
    eye = np.eye(k, dtype=np.int64)  # k block-diagonal copies of each generator
    mats = _freeze(_block_system([np.kron(eye, g) for g in gens], l))
    return CliffordSystem(m=m, l=l, matrices=mats)


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


def signed_permutation(p: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(perm, sign)`` with ``p[r, perm[r]] = sign[r]``, or None if p is no signed permutation."""
    ident = np.arange(len(p))
    perm = np.abs(p).argmax(axis=1) if len(p) else ident
    sign = p[ident, perm]
    # each row's largest entry is +-1 and there are no other nonzeros
    if not ((np.abs(sign) == 1).all() and np.count_nonzero(p) == len(p)):
        return None
    return (perm, sign) if np.array_equal(np.sort(perm), ident) else None


def verify_system(system: CliffordSystem) -> VerificationReport:
    """Exact integer check of all Clifford-system identities.

    Checks, in order: m + 1 matrices; each P_i of shape (2l, 2l), a signed
    permutation, symmetric, of zero trace; P_i P_j + P_j P_i = 2 delta_ij I
    for all 0 <= i <= j.  A degenerate single-matrix system (m = 0) is
    accepted when P_0^2 = I.  Each P_i is read once, in O(d^2), into
    ``(perm, sign)``; the identities are then index arithmetic, O(m^2 d) in
    all, with no matrix product.  Pairs with a matrix already reported as
    misshapen or no signed permutation are skipped but still counted.
    """
    mats = system.matrices
    n = system.ambient_dim
    ident = np.arange(n)
    failures: list[str] = []
    if len(mats) != system.m + 1:
        failures.append(f"expected m + 1 = {system.m + 1} matrices, got {len(mats)}")
    forms = []
    for i, p in enumerate(mats):
        form = None
        if p.shape != (n, n):
            failures.append(f"P_{i} has shape {p.shape}, expected {(n, n)}")
        elif (form := signed_permutation(p)) is None:
            failures.append(f"P_{i} is not a signed permutation")
        else:
            perm, sign = form
            if not (np.array_equal(perm[perm], ident) and np.array_equal(sign[perm], sign)):
                failures.append(f"P_{i} is not symmetric")
            trace = int(sign[perm == ident].sum())
            if trace != 0:
                failures.append(f"P_{i} has nonzero trace {trace}")
        forms.append(form)
    for i in range(len(forms)):
        for j in range(i, len(forms)):
            if forms[i] is None or forms[j] is None:
                continue
            (pi, si), (pj, sj) = forms[i], forms[j]
            # P_i P_j is the signed permutation (pj[pi], si * sj[pi])
            if i == j:
                holds = np.array_equal(pi[pi], ident) and bool((si * si[pi] == 1).all())
            else:
                holds = np.array_equal(pj[pi], pi[pj]) and np.array_equal(si * sj[pi], -sj * si[pj])
            if not holds:
                kind = "square" if i == j else "anticommutator"
                failures.append(f"{kind} identity violated at (P_{i}, P_{j})")
    checks = len(mats) * (len(mats) + 3) // 2  # one per matrix, one per pair i <= j
    return VerificationReport(passed=not failures, checks=checks, failures=tuple(failures))
