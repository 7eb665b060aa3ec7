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

Elimination has one routine, the incremental echelon form `Echelon`.  It
takes rows a block at a time: each block is reduced against the rows held
so far with `_exact_matmul`, its zero rows are dropped, the rest is
eliminated pivot by pivot, and one more product clears the new pivots from
the held rows.  `rref`, `kernel_basis`, `solve` and `inverse` feed it all
rows at once; the Hom solver of `algrep` streams its equations in and stops
once the rank reaches the number of unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FpMat",
    "fpmat",
    "identity",
    "zeros",
    "Echelon",
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


class Echelon:
    """Reduced row echelon form of a growing row space of F_p^ncols.

    `rows` holds the nonzero RREF rows (int64, entries in [0, p)) and
    `pivots` their pivot columns, both in increasing pivot order.  Rows
    arrive a block at a time through `add`.  The RREF of a row space is
    unique, so the result does not depend on how the rows were blocked.
    """

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: List[int] = []
        self._is_free = np.ones(ncols, dtype=bool)  # columns that are not pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def free(self) -> np.ndarray:
        """The columns that are not pivots, increasing; `kernel` has one
        basis vector per free column, in this order."""
        return self._is_free.nonzero()[0]

    def add(self, block: np.ndarray) -> None:
        """Add the rows of `block` (entries in [0, p)) to the row space.

        A stacked block (..., rows, ncols) adds the rows of every slice.
        Once rows are held, a block is reduced against them with one
        product per slice and its zero rows are dropped; the rest is
        eliminated pivot by pivot, and one more product clears the new
        pivot columns from the held rows.
        """
        p, held = self.p, self.pivots
        if held:
            # the held rows are the identity on their pivot columns, so the
            # reduced block is zero there and only its free columns are formed
            free = self._is_free.nonzero()[0]
            lead = block[..., held]
            block = block[..., free] - _exact_matmul(lead, self.rows[:, free], p).astype(np.int64)
            np.add(block, p, out=block, where=block < 0)
        block = block.reshape(math.prod(block.shape[:-1]), block.shape[-1])
        # the loop below writes to m, so m is a copy in either case
        m = block[block.any(axis=1)] if held else block.copy()
        found: List[int] = []  # pivots of m, as columns of m
        r = 0
        for c in range(m.shape[1]):
            if r == len(m):
                break
            nz = m[r:, c].nonzero()[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                m[[r, i]] = m[[i, r]]
            m[r] = (m[r] * _inv_scalar(int(m[r, c]), p)) % p
            col = m[:, c].copy()
            col[r] = 0
            hit = col.nonzero()[0]
            if hit.size:
                m[hit] = (m[hit] - col[hit, None] * m[r]) % p
            found.append(c)
            r += 1
        if not found:
            return
        if not held:
            # nothing to clear, and the loop found the pivots in order
            self.rows, self.pivots = m[:r], found
            self._is_free[found] = False
            return
        pivots = free[found].tolist()
        self._is_free[pivots] = False
        new = np.zeros((r, self.ncols), dtype=np.int64)
        new[:, free] = m[:r]
        # clear the new pivot columns from the held rows; their own pivot
        # columns stay the identity, as the new rows are zero there
        rows = self.rows.copy()
        cleared = rows[:, free] - _exact_matmul(rows[:, pivots], m[:r], p).astype(np.int64)
        np.add(cleared, p, out=cleared, where=cleared < 0)
        rows[:, free] = cleared
        order = np.argsort(held + pivots)
        self.rows = np.vstack([rows, new])[order]
        self.pivots = sorted(held + pivots)

    def kernel(self) -> FpMat:
        """Columns form a basis of the vectors every row annihilates."""
        free = self.free
        basis = np.zeros((self.ncols, free.size), dtype=np.int64)
        basis[free, np.arange(free.size)] = 1
        basis[self.pivots] = (-self.rows[:, free]) % self.p
        return FpMat(basis, self.p)


def _rref_raw(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    # all rows in one block; zero rows pad the result to the input's shape
    ech = Echelon(a.shape[1], p)
    ech.add(a)
    out = np.zeros(a.shape, dtype=np.int64)
    out[: ech.rank] = ech.rows
    return out, ech.pivots


def rref(m: FpMat) -> Rref:
    """Reduced row echelon form; row space is preserved exactly."""
    a, pivots = _rref_raw(m.a, m.p)
    return Rref(FpMat(a, m.p), tuple(pivots))


def rank(m: FpMat) -> int:
    return rref(m).rank


def kernel_basis(m: FpMat) -> FpMat:
    """Columns form a basis of {v : m v = 0}; cols(m) - rank(m) of them."""
    ech = Echelon(m.cols, m.p)
    ech.add(m.a)
    return ech.kernel()


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
