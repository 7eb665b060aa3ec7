"""Exact dense linear algebra over prime fields F_p.

Matrices are dense int64 numpy arrays with entries kept fully reduced in
[0, p).  The modulus travels with every matrix and mixing moduli is a hard
error, never a silent coercion.  Everything here is pure and exact; there
is no tolerance anywhere.

Large products go through `_exact_matmul`, which multiplies reduced
operands in float64 BLAS and reduces once at the end (delayed reduction, as
in Dumas, Giorgi and Pernet, "Dense linear algebra over word-size prime
fields: the FFLAS and FFPACK packages", ACM TOMS 35(3), 2008).  With inner
size k every entry is a sum of k integers below (p-1)^2, so it is computed
exactly while k * (p-1)^2 < 2^53; the helper checks that bound and raises
when it fails.  `FpMat.__matmul__` stays on int64, where tiny products are
cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FpMat",
    "fpmat",
    "identity",
    "zeros",
    "rref",
    "kernel_basis",
    "solve",
    "kron",
    "inverse",
    "SpanTracker",
]


# every product multiplies reduced operands and reduces once, so an entry
# sums k terms below (p-1)^2 < 2^32: exact in int64 for k < 2^31, and exact
# in float64 (`_exact_matmul`) for k < 2^21
MAX_MODULUS = 2**16

# float64 represents every integer below this exactly
_FLOAT_EXACT = 2**53


def _check_prime(p: int) -> None:
    if p < 3:
        raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} is too large: exact products need p < {MAX_MODULUS}")
    if any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"modulus {p} is not prime")


def _exact_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for operands with entries in [0, p), as float64 in [0, p).

    Stacked operands multiply slice by slice, as in `np.matmul`.  The
    product runs in float64 BLAS and is exact while k * (p-1)^2 < 2^53 for
    inner size k; a larger product raises ValueError.
    """
    k = a.shape[-1]
    if k * (p - 1) ** 2 >= _FLOAT_EXACT:
        raise ValueError(
            f"inner size {k} at modulus {p}: k * (p-1)^2 must stay below 2^53 for exact products"
        )
    a, b = a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
    return np.fmod(np.matmul(a, b), p)


def _inv_scalar(a: int, p: int) -> int:
    # p prime, a nonzero mod p
    return pow(int(a) % p, p - 2, p)


@dataclass(frozen=True)
class FpMat:
    """Dense matrix over F_p; `a` is an int64 array with entries in [0, p)."""

    a: np.ndarray
    p: int

    def __post_init__(self):
        if self.a.ndim != 2:
            raise ValueError("FpMat needs a 2-d array")
        self.a.setflags(write=False)

    # -- shape ----------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def _same_modulus(self, other: "FpMat") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other: "FpMat") -> "FpMat":
        self._same_modulus(other)
        return FpMat((self.a + other.a) % self.p, self.p)

    def __sub__(self, other: "FpMat") -> "FpMat":
        self._same_modulus(other)
        return FpMat((self.a - other.a) % self.p, self.p)

    def __matmul__(self, other: "FpMat") -> "FpMat":
        self._same_modulus(other)
        return FpMat((self.a @ other.a) % self.p, self.p)

    def scale(self, c: int) -> "FpMat":
        return FpMat((self.a * (c % self.p)) % self.p, self.p)

    def transpose(self) -> "FpMat":
        return FpMat(self.a.T.copy(), self.p)

    def power(self, n: int) -> "FpMat":
        if self.rows != self.cols:
            raise ValueError("power needs a square matrix")
        result = identity(self.rows, self.p)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMat):
            return NotImplemented
        return self.p == other.p and self.a.shape == other.a.shape and bool(
            np.array_equal(self.a, other.a)
        )


def fpmat(rows: Sequence[Sequence[int]] | np.ndarray, p: int) -> FpMat:
    _check_prime(p)
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.size == 0:
        a = a.reshape(a.shape if a.ndim == 2 else (0, 0))
    return FpMat(a % p, p)


def identity(n: int, p: int) -> FpMat:
    _check_prime(p)
    return FpMat(np.eye(n, dtype=np.int64), p)


def zeros(rows: int, cols: int, p: int) -> FpMat:
    _check_prime(p)
    return FpMat(np.zeros((rows, cols), dtype=np.int64), p)


# ---------------------------------------------------------------------------
# Gaussian elimination


@dataclass(frozen=True)
class Rref:
    matrix: FpMat
    pivots: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _rref_raw(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    m = (a % p).astype(np.int64)
    nrows, ncols = m.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * _inv_scalar(int(m[r, c]), p)) % p
        col = m[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            m[hit] = (m[hit] - np.outer(col[hit], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rref(m: FpMat) -> Rref:
    """Reduced row echelon form; row space is preserved exactly."""
    a, pivots = _rref_raw(m.a, m.p)
    return Rref(FpMat(a, m.p), tuple(pivots))


def rank(m: FpMat) -> int:
    return rref(m).rank


def kernel_basis(m: FpMat) -> FpMat:
    """Columns form a basis of {v : m v = 0}; cols(m) - rank(m) of them."""
    red = rref(m)
    p, ncols = m.p, m.cols
    pivots = list(red.pivots)
    free = sorted(set(range(ncols)).difference(pivots))
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[pivots] = (-red.matrix.a[: len(pivots)][:, free]) % p
    return FpMat(basis, p)


def solve(m: FpMat, b: FpMat) -> Optional[FpMat]:
    """Some x with m x = b (columnwise), or None when inconsistent."""
    if m.rows != b.rows:
        raise ValueError(f"dimension mismatch: {m.rows} rows vs {b.rows}")
    m._same_modulus(b)
    aug = np.hstack([m.a, b.a])
    red, pivots = _rref_raw(aug, m.p)
    if any(c >= m.cols for c in pivots):
        return None
    x = np.zeros((m.cols, b.cols), dtype=np.int64)
    for row, pc in enumerate(pivots):
        x[pc] = red[row, m.cols:]
    return FpMat(x, m.p)


def inverse(m: FpMat) -> FpMat:
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    aug = np.hstack([m.a, np.eye(m.rows, dtype=np.int64)])
    red, pivots = _rref_raw(aug, m.p)
    if len(pivots) != m.rows or any(c >= m.cols for c in pivots):
        raise ValueError("matrix is singular")
    return FpMat(red[:, m.cols:], m.p)


def kron(a: FpMat, b: FpMat) -> FpMat:
    """Kronecker product; realizes tensor products of action matrices."""
    a._same_modulus(b)
    return FpMat(np.kron(a.a, b.a) % a.p, a.p)


def hstack(mats: Sequence[FpMat]) -> FpMat:
    p = mats[0].p
    for m in mats[1:]:
        mats[0]._same_modulus(m)
    return FpMat(np.hstack([m.a for m in mats]), p)


def vstack(mats: Sequence[FpMat]) -> FpMat:
    p = mats[0].p
    for m in mats[1:]:
        mats[0]._same_modulus(m)
    return FpMat(np.vstack([m.a for m in mats]), p)


def block_diag(mats: Sequence[FpMat], p: int) -> FpMat:
    n = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    out = np.zeros((n, c), dtype=np.int64)
    i = j = 0
    for m in mats:
        if m.p != p:
            raise ValueError("modulus mismatch in block_diag")
        out[i : i + m.rows, j : j + m.cols] = m.a
        i += m.rows
        j += m.cols
    return FpMat(out, p)


# ---------------------------------------------------------------------------
# Incremental span bookkeeping (used by the module-spinning routines)


class SpanTracker:
    """Grows an echelonized basis of a subspace of F_p^n one vector at a time."""

    def __init__(self, n: int, p: int):
        _check_prime(p)
        self.n = n
        self.p = p
        self._rows: List[np.ndarray] = []  # echelon rows, distinct leading cols
        self._lead: List[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        w = v % self.p
        for lead, row in zip(self._lead, self._rows):
            c = w[lead]
            if c:
                w = (w - c * row) % self.p
        return w

    def contains(self, v: np.ndarray) -> bool:
        return not self._reduce(v).any()

    def insert(self, v: np.ndarray) -> bool:
        """Add v to the span; True iff it enlarged the subspace."""
        w = self._reduce(v)
        nz = np.nonzero(w)[0]
        if nz.size == 0:
            return False
        lead = int(nz[0])
        w = (w * _inv_scalar(int(w[lead]), self.p)) % self.p
        # keep rows ordered by leading column so _reduce stays one pass
        pos = 0
        while pos < len(self._lead) and self._lead[pos] < lead:
            pos += 1
        self._rows.insert(pos, w)
        self._lead.insert(pos, lead)
        return True
