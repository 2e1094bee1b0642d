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
omega = G_1...G_8 is the (symmetric, involutive) volume element.  The units
of R, C, H, O multiply by one sign rule, e_a e_b = s(a, b) e_{a XOR b}, with
s(a, b) from the Cayley-Dickson doubling (``_unit_sign``).

All matrices are signed permutations, stored only as (perm, sign) index arrays
with (P_i x)_r = sign_r x_{perm_r}.  ``build_system`` composes them (a Kronecker
product is index arithmetic) and ``verify_system`` checks every identity on
them: integer arithmetic, O(m^2 d), no dense matrix and no floating point.
A system is its two arrays, of shape (m + 1, 2l).  Dense int64 matrices exist
only through ``matrices`` and ``from_matrices(matrices)``; the JSON text
(schema 2) holds m, l and the two arrays as lists.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .catalog import delta
from .exact import _integer

SCHEMA_VERSION = 2


# -- normed-algebra structure tables ------------------------------------------


def _unit_sign(a: int, b: int) -> int:
    """The sign s in e_a e_b = s e_{a XOR b} for the Cayley-Dickson units of R, C, H, O.

    e_0 is the unit.  With h the top bit of max(a, b), a unit below h is
    (e, 0) and one at or above it is (0, e), and the doubling rule
    (a,b)(c,d) = (ac - conj(d)b, da + b conj(c)) gives s from the lower bits.
    """
    if a == 0 or b == 0:
        return 1
    h = 1 << (max(a, b).bit_length() - 1)
    a0, b0 = a % h, b % h
    conj = -1 if b0 else 1  # conj(e_b0) = conj * e_b0
    if a < h:  # (a0, 0)(0, b0) = (0, b0 a0)
        return _unit_sign(b0, a0)
    if b < h:  # (0, a0)(b0, 0) = (0, a0 conj(b0))
        return conj * _unit_sign(a0, b0)
    return -conj * _unit_sign(b0, a0)  # (0, a0)(0, b0) = (-conj(b0) a0, 0)


def _left_multiplications(dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Signed permutations of x -> e_a x for the imaginary units e_1..e_{dim-1}, dim in {1, 2, 4, 8}.

    Row r of e_a x is s(a, b) x_b with b = a XOR r.
    """
    rows = np.arange(dim)
    return [(rows ^ a, np.array([_unit_sign(a, a ^ r) for r in range(dim)], dtype=np.int64))
            for a in range(1, dim)]


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
    ``perm[i, r]``; m and l are read off the arrays' shape (m + 1, 2l).
    Construction keeps read-only int64 copies and raises ValueError for no
    matrix, an odd row width, or naming the first P_i that is no signed
    permutation.
    """

    perm: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        perm, sign = np.asarray(self.perm), np.asarray(self.sign)
        if not (perm.ndim == 2 and perm.shape == sign.shape and len(perm) and perm.shape[1] % 2 == 0):
            raise ValueError(f"perm and sign must have one shape (m + 1, 2l), got {perm.shape} and {sign.shape}")
        # checked before the cast to int64, so that no value is rounded into range
        # and no imaginary part is dropped (|1j| = 1)
        real = not (np.iscomplexobj(perm) or np.iscomplexobj(sign))
        valid = real & (np.abs(sign) == 1).all(axis=1)
        valid &= (np.sort(perm, axis=1) == np.arange(perm.shape[1])).all(axis=1)
        if not valid.all():
            raise ValueError(f"P_{int(np.argmin(valid))} is not a signed permutation")
        for name, a in (("perm", perm), ("sign", sign)):
            a = a.astype(np.int64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __eq__(self, other):
        if not isinstance(other, CliffordSystem):
            return NotImplemented
        return np.array_equal(self.perm, other.perm) and np.array_equal(self.sign, other.sign)

    def __hash__(self):
        # the arrays are read-only, so the hash cannot go stale
        return hash((self.perm.tobytes(), self.sign.tobytes()))

    @property
    def m(self) -> int:
        return len(self.perm) - 1

    @property
    def l(self) -> int:
        return self.perm.shape[1] // 2

    @property
    def ambient_dim(self) -> int:
        return self.perm.shape[1]

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
    def from_matrices(matrices) -> "CliffordSystem":
        """The system of the dense P_i; ValueError names a P_i not of P_0's shape or no signed permutation."""
        matrices = [np.asarray(p) for p in matrices]
        n = matrices[0].shape[0] if matrices and matrices[0].ndim else 0
        perms, signs = [], []
        for i, p in enumerate(matrices):
            if p.shape != (n, n):
                raise ValueError(f"P_{i} has shape {p.shape}, expected {(n, n)}")
            # n nonzeros in all; construction then requires each row's largest to be +-1
            if np.count_nonzero(p) != n:
                raise ValueError(f"P_{i} is not a signed permutation")
            perms.append(np.abs(p).argmax(axis=1))
            signs.append(p[np.arange(n), perms[-1]])
        return CliffordSystem(np.reshape(perms, (len(perms), n)), np.reshape(signs, (len(signs), n)))

    def to_json(self) -> str:
        """Schema 2: ``m``, ``l`` and the stored ``perm`` and ``sign``, one list of 2l ints per P_i."""
        return json.dumps({"schema_version": SCHEMA_VERSION, "m": self.m, "l": self.l,
                           "perm": self.perm.tolist(), "sign": self.sign.tolist()})

    @staticmethod
    def from_json(text: str) -> "CliffordSystem":
        """Parse schema 2; ValueError for a document of another shape or a P_i that is no signed permutation."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"Clifford JSON must be an object, got {type(data).__name__}")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"Clifford JSON schema_version must be {SCHEMA_VERSION}")
        for key in ("m", "l"):
            value = data.get(key)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"Clifford JSON {key} must be an int >= 1, got {value!r}")
        n = 2 * data["l"]
        perm, sign = data.get("perm"), data.get("sign")
        if not (isinstance(perm, list) and isinstance(sign, list) and len(perm) == len(sign) == data["m"] + 1):
            raise ValueError(f"Clifford JSON perm and sign must be lists of equal length m + 1 = {data['m'] + 1}")
        # type(), not isinstance(): numpy would read a JSON true or false as 1 or 0
        if not (all(isinstance(row, list) and len(row) == n for row in perm + sign)
                and set(map(type, itertools.chain(*perm, *sign))) <= {int}):
            raise ValueError(f"each row of Clifford JSON perm and sign must be a list of {n} ints")
        try:
            perm, sign = (np.array(a, dtype=np.int64).reshape(len(a), n) for a in (perm, sign))
        except OverflowError:
            raise ValueError("Clifford JSON perm and sign must hold only int64 integers") from None
        return CliffordSystem(perm, sign)


def build_system(m: int, k: int) -> CliffordSystem:
    """Symmetric Clifford system with m+1 matrices on R^{2l}, l = k*delta(m).

    P_0 = diag(I, -I) and P_1 = antidiag(I, I) exactly; the remaining P_{1+i}
    come from the skew generator blocks.  The associated multiplicity pair
    (m, l-m-1) may or may not be admissible; that is validated elsewhere.
    ValueError for an m or k that is no int or is < 1.
    """
    m, k = _integer("m", m), _integer("k", k)
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
    return CliffordSystem(np.stack([p for p, _ in forms]), np.stack([s for _, s in forms]))


# -- verification ----------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of exact verification; failures are data, not exceptions."""

    passed: bool
    checks: int
    failures: tuple[str, ...] = field(default_factory=tuple)


def verify_system(system: CliffordSystem) -> VerificationReport:
    """Exact integer check of all Clifford-system identities.

    Checks, in order: each P_i symmetric and of zero trace;
    P_i P_j + P_j P_i = 2 delta_ij I for all 0 <= i <= j.  A degenerate
    single-matrix system (m = 0) is accepted when P_0^2 = I.  Every check is
    index arithmetic on the stored ``(perm, sign)``, which construction has
    already made signed permutations: O(m^2 d) in all, with no matrix product
    and no dense matrix.
    """
    n = system.ambient_dim
    ident = np.arange(n)
    failures: list[str] = []
    forms = list(enumerate(zip(system.perm, system.sign)))
    for i, (perm, sign) in forms:
        if not (np.array_equal(perm[perm], ident) and np.array_equal(sign[perm], sign)):
            failures.append(f"P_{i} is not symmetric")
        trace = int(sign[perm == ident].sum())
        if trace != 0:
            failures.append(f"P_{i} has nonzero trace {trace}")
    for (i, a), (j, b) in itertools.combinations_with_replacement(forms, 2):
        perm, sign = _compose(a, b)  # P_i P_j
        if i == j:
            holds = np.array_equal(perm, ident) and bool((sign == 1).all())
        else:
            perm_ji, sign_ji = _compose(b, a)
            holds = np.array_equal(perm, perm_ji) and np.array_equal(sign, -sign_ji)
        if not holds:
            kind = "square" if i == j else "anticommutator"
            failures.append(f"{kind} identity violated at (P_{i}, P_{j})")
    checks = (system.m + 1) * (system.m + 4) // 2  # one per matrix, one per pair i <= j
    return VerificationReport(passed=not failures, checks=checks, failures=tuple(failures))
