"""Exact dense linear algebra over prime fields F_p.

Matrices are dense int64 numpy arrays with entries kept fully reduced in
[0, p).  The modulus travels with every matrix and mixing moduli is a hard
error, never a silent coercion.  Everything here is pure and exact; there
is no tolerance anywhere.

Every product, `FpMat.__matmul__` and `FpMat.power` included, goes through
`_exact_matmul`, so no caller casts or reduces one.  It multiplies reduced
operands in float64 BLAS and reduces once at the end, into int64 in [0, p)
(delayed reduction, as in Dumas, Giorgi and Pernet, "Dense linear algebra
over word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 35(3),
2008).  It checks the bound k * (p-1)^2 < 2^53 that keeps a product of inner
size k exact and raises when it fails.  It is also the one place that
decides whether BLAS may use threads: a product whose slices are mid-size
is formed in blocks small enough for OpenBLAS to run each on the calling
thread, because a helper thread it wakes spins after the product and costs
more CPU than it saves; small products and large ones run whole (see
`_SERIAL_MACS`).  Each block spans the short side of the product, all rows
of a skinny left operand or whole rows of b, so the larger operand is read
once.  Every block is exact, so the answer does not depend on the split.

Elimination has two routines.  The incremental echelon form `Echelon`
takes rows a block at a time: each block is reduced against the rows held
so far with `_exact_matmul`, its zero rows are dropped, the rest is
eliminated, and one more product clears the new pivots from the held rows.
A block of more than `_ROUND_ENTRIES` entries is eliminated in rounds of
exact products, each reduced once, as in the same paper: each round takes
the first row at every distinct leading column, and a few products make
those rows the identity on their leads and clear the leads from every
other row.  A smaller block is eliminated pivot by pivot, as a round's
fixed numpy calls cost more than its products save there.  The RREF is
unique, so both give the same rows.  `rref`, `kernel_basis`, `solve` and
`inverse` feed it all rows at once; the Hom solver of `algrep` streams its
equations in and stops once the rank reaches the number of unknowns.
`SpanTracker` grows a basis one vector at a time, for the one greedy pass
of `algrep` that must know after each vector whether it enlarged the span:
the spin of a module (`algrep.build_spin`), whose next vectors depend on
which ones were kept.
It reduces a vector by jumping from lead to lead, so it reads only the
rows the vector meets.  It stays because `Echelon.add` pays a block's
products for each single row: with the spin on `Echelon.add` the answers
were the same, but the spins of `cohom --p 7 --r 2 --n 8` took 5 to 7
times as long (0.24-0.35 against 0.04-0.06 s, medians of seven in-process
runs in each of three processes per side on a 2-vCPU Xeon VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import check_odd_prime

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


# a product of reduced operands is exact in float64 while k * (p-1)^2 < 2^53
# (`_exact_matmul` checks it), so below this modulus for every k < 2^21
MAX_MODULUS = 2**16

# float64 represents every integer below this exactly
_FLOAT_EXACT = 2**53

# OpenBLAS decides per gemm or gemv call whether to use more than one thread.
# Measured with OpenBLAS 0.3.31 on a 2-vCPU Xeon VM, from the CPU ticks of
# the helper threads: gemm wakes a helper above 10^6 multiply-adds (100^3
# does not, 101^3 does) and gemv from 460 800 (670 x 670 does not, 680 x 680
# does).  A woken helper spins for 0.1-0.25 s of CPU after the product, and
# waking it takes milliseconds.  So a product of fewer multiply-adds per slice
# than _SERIAL_MACS runs whole, on one thread, and so does one of at least
# _THREADED_MACS, whose slices use the second core well: formed in blocks of
# whole rows, the slices of 2^22 to 2^24 of `verify meataxe-regular --p 7`
# took 3.9 s instead of 1.3 s.  A product in between is formed in blocks of
# fewer than _SERIAL_MACS multiply-adds each, which costs little at that size.
# The bound is 2^23, not 2^22, because a product just above 2^22 that comes
# alone pays for waking the helper: the two spin products of about 2^22.4 in
# `cohom --p 7 --r 2 --n 8`, (148 x 195)(195 x 195) and (149 x 197)
# (197 x 197), took 13.7-20.5 ms each whole on two threads and 0.46-0.98 ms in
# blocks on one, timed inside the command, which took 0.18-0.20 s against
# 0.10-0.11 s.  Where such products come in bursts, blocks that span the
# short side keep that bound from costing: with blocks of whole rows instead,
# `verify cohom --p 11` took 18.3-19.1 s against 13.8-15.3 s (three pairs).
# Two other rules lost on `verify meataxe-regular --p 7`: a bound of 2^24
# (9.97-13.02 s against 9.19-9.66 s in one set of three pairs, about even
# in another), and threading only calls of 2^27 multiply-adds or more in all
# slices (9.7-10.1 s against 8.6-9.6 s in three pairs).
_SERIAL_MACS = 2**18
_THREADED_MACS = 2**23

# `_exact_matmul` overwrites a product of more entries than this with its
# residues, so that no int64 copy of it all sets a peak, this many at a time,
# as numpy copies an input that overlaps its output; a smaller product takes
# fewer numpy calls when cast into a new array
_CAST_CHUNK = 2**16

# A block of more entries than this is eliminated in rounds, and a smaller one
# pivot by pivot, where the fixed numpy calls of a round cost more than the
# pivots they clear.  Replaying every `Echelon.add` of `verify ub1 --p 5`,
# `verify heart --p 5`, `verify graded-orbit --p 7` and `cohom --p 7 --r 2
# --n 8` on one BLAS thread (best of seven per call), the total with the
# switch at 128 was within 1 % of the lowest on each of the four, and 30-56 %
# below pivot by pivot throughout; with rounds for every block, graded-orbit
# took twice as long.
_ROUND_ENTRIES = 128


def _check_prime(p: int) -> None:
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} is too large: exact products need p < {MAX_MODULUS}")
    check_odd_prime(p)


def _exact_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for operands with entries in [0, p), as int64 in [0, p).

    Stacked operands multiply slice by slice, as in `np.matmul`.  The
    product runs in float64 BLAS, where an entry, an integer below
    k * (p-1)^2 for inner size k, is exact while that is below 2^53; a
    larger product raises ValueError.  Such an integer casts to int64
    exactly and int64 % is exact.  A product whose slices are mid-size is
    formed in blocks small enough for BLAS to stay on one thread (see
    _SERIAL_MACS).  A block spans the short side, so the larger operand is
    read once: all m rows of a and some columns of b when b has at least m
    columns, else whole rows of a.  Once one row or one column is over the
    bound, a block is one row of a and some columns of b.
    """
    k = a.shape[-1]
    if k * (p - 1) ** 2 >= _FLOAT_EXACT:
        raise ValueError(
            f"inner size {k} at modulus {p}: k * (p-1)^2 must stay below 2^53 for exact products"
        )
    a, b = a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
    # a 1-D operand is one row of a or one column of b, as in np.matmul
    m = a.shape[-2] if a.ndim > 1 else 1
    n = b.shape[-1] if b.ndim > 1 else 1
    if not _SERIAL_MACS <= m * k * n < _THREADED_MACS:
        out = np.matmul(a, b)
    else:
        a2, b2 = (a[None] if a.ndim == 1 else a), (b[:, None] if b.ndim == 1 else b)
        out = np.empty(np.broadcast_shapes(a2.shape[:-2], b2.shape[:-2]) + (m, n))
        per_block = (_SERIAL_MACS - 1) // k  # rows * cols of one block
        if m <= min(n, per_block):
            rows, cols = m, per_block // m
        elif n <= per_block:
            rows, cols = per_block // n, n
        else:
            rows, cols = 1, max(per_block, 1)
        for r in range(0, m, rows):
            for c in range(0, n, cols):
                rs, cs = slice(r, r + rows), slice(c, c + cols)
                np.matmul(a2[..., rs, :], b2[..., cs], out=out[..., rs, cs])
        out = out[..., 0, :] if a.ndim == 1 else out
        out = out[..., 0] if b.ndim == 1 else out
    if np.size(out) <= _CAST_CHUNK:
        out = out.astype(np.int64)
        out %= p
        return out
    flat = out.reshape(-1)
    res = flat.view(np.int64)
    for s in range(0, flat.size, _CAST_CHUNK):
        chunk = slice(s, s + _CAST_CHUNK)
        np.remainder(flat[chunk], p, out=res[chunk], dtype=np.int64, casting="unsafe")
    return res.reshape(out.shape)


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
        return FpMat(_exact_matmul(self.a, other.a, self.p), self.p)

    def scale(self, c: int) -> "FpMat":
        return FpMat((self.a * (c % self.p)) % self.p, self.p)

    def transpose(self) -> "FpMat":
        return FpMat(self.a.T.copy(), self.p)

    def power(self, n: int) -> "FpMat":
        """self^n for n >= 0, by repeated squaring."""
        if self.rows != self.cols:
            raise ValueError("power needs a square matrix")
        if n < 0:
            raise ValueError(f"power needs an exponent n >= 0, got {n}")
        if n <= 1:
            return self if n else identity(self.rows, self.p)
        half = self.power(n // 2)
        return half @ half @ self if n & 1 else half @ half

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


def _rref_by_pivots(m: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """The nonzero RREF rows of m and their pivots, one pivot at a time."""
    m = m.copy()
    found: List[int] = []
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
    return m[:r], found


def _rref_in_rounds(m: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """The nonzero RREF rows of m and their pivots, many pivots per round.

    A round takes the first row at each distinct leading column and scales
    it to a unit lead.  In the order of their leads those rows are unit
    upper triangular on the lead columns, I + N with N nilpotent, so one
    product with (I + N)^-1 = (I - N)(I + N^2)(I + N^4)... makes them the
    identity there; one product each then clears the lead columns from the
    rows still to reduce and from the rows of earlier rounds.  Rows are kept
    on the columns that lead no found row, as a found row is the identity
    on the leads and every other row is zero there.  The RREF is unique, so
    the rows and pivots are those of the elimination pivot by pivot.
    """
    cols = np.arange(m.shape[1])  # the columns that lead no found row
    done = np.zeros((0, cols.size), dtype=np.int64)  # found rows, on cols
    found: List[int] = []
    rest = m[m.any(axis=1)]
    while len(rest):
        # the first row at each distinct lead, leads increasing
        lead = (rest != 0).argmax(axis=1)
        order = lead.argsort(kind="stable")
        lead = lead[order]
        is_first = np.empty(lead.size, dtype=bool)
        is_first[0] = True
        np.not_equal(lead[1:], lead[:-1], out=is_first[1:])
        leads, first = lead[is_first], order[is_first]
        lead_rows = rest[first]
        k = leads.size
        scale = [_inv_scalar(x, p) for x in lead_rows[np.arange(k), leads].tolist()]
        lead_rows = lead_rows * np.array(scale, dtype=np.int64)[:, None] % p
        keep = np.ones(cols.size, dtype=bool)
        keep[leads] = False
        new = lead_rows[:, keep]
        unit = lead_rows[:, leads]
        if np.count_nonzero(unit) > k:
            minus_n = (p - unit) % p
            np.fill_diagonal(minus_n, 0)
            inv, power = minus_n.copy(), minus_n
            np.fill_diagonal(inv, 1)
            while True:
                power = _exact_matmul(power, power, p)
                if not power.any():
                    break
                inv = (inv + _exact_matmul(inv, power, p)) % p
            new = _exact_matmul(inv, new, p)
        others = np.ones(len(rest), dtype=bool)
        others[first] = False
        rest = _clear_columns(rest[others], leads, keep, new, p)
        rest = rest[rest.any(axis=1)]
        if len(done):
            new = np.concatenate([_clear_columns(done, leads, keep, new, p), new])
        done = new
        found += cols[leads].tolist()
        cols = cols[keep]
    rows = np.zeros((len(found), m.shape[1]), dtype=np.int64)
    rows[np.arange(len(found)), found] = 1
    rows[:, cols] = done
    order = np.argsort(found)
    return rows[order], sorted(found)


def _clear_columns(a: np.ndarray, leads, keep, rows: np.ndarray, p: int) -> np.ndarray:
    """a less a[..., leads] times `rows`, on the columns `keep`: with rows
    that are the identity on the columns `leads` and zero on the other
    columns a drops, this clears those columns from a."""
    out = a[..., keep] - _exact_matmul(a[..., leads], rows, p)
    np.add(out, p, out=out, where=out < 0)
    return out


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
        eliminated in rounds, or pivot by pivot when it has no more than
        _ROUND_ENTRIES entries, and one more product clears the new pivot
        columns from the held rows.
        """
        p, held = self.p, self.pivots
        if held:
            # the held rows are the identity on their pivot columns, so the
            # reduced block is zero there and only its free columns are formed
            free = self._is_free.nonzero()[0]
            block = _clear_columns(block, held, free, self.rows[:, free], p)
        block = block.reshape(math.prod(block.shape[:-1]), block.shape[-1])
        m = block[block.any(axis=1)] if held else block
        eliminate = _rref_in_rounds if m.size > _ROUND_ENTRIES else _rref_by_pivots
        m, found = eliminate(m, p)
        if not found:
            return
        if not held:
            self.rows, self.pivots = m, found
            self._is_free[found] = False
            return
        pivots = free[found].tolist()
        self._is_free[pivots] = False
        new = np.zeros((len(found), self.ncols), dtype=np.int64)
        new[:, free] = m
        # clear the new pivot columns from the held rows; their own pivot
        # columns stay the identity, as the new rows are zero there
        rows = self.rows.copy()
        rows[:, free] = _clear_columns(rows, pivots, free, m, p)
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
    """Grows an echelonized basis of a subspace of F_p^n one vector at a time.

    Each held row is zero before its lead, where it is 1, and no two rows
    share a lead.  A nonzero vector of their span starts at the lead of the
    first row it uses, so a vector is reduced by jumps: while its first
    nonzero entry is some row's lead, that row is subtracted; once it is
    not, the vector is outside the span.  Only the rows it meets are read.
    """

    def __init__(self, n: int, p: int):
        _check_prime(p)
        self.n = n
        self.p = p
        self._rows: Dict[int, np.ndarray] = {}  # lead -> echelon row

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: np.ndarray) -> Tuple[np.ndarray, int]:
        """v reduced until its first nonzero entry leads no row, and that
        entry's index; the index is -1 when v reduces to zero."""
        p, rows = self.p, self._rows
        w = v % p
        while True:
            nz = w.nonzero()[0]
            if nz.size == 0:
                return w, -1
            lead = int(nz[0])
            row = rows.get(lead)
            if row is None:
                return w, lead
            w = (w - w[lead] * row) % p

    def contains(self, v: np.ndarray) -> bool:
        return self._reduce(v)[1] < 0

    def insert(self, v: np.ndarray) -> bool:
        """Add v to the span; True iff it enlarged the subspace."""
        w, lead = self._reduce(v)
        if lead < 0:
            return False
        self._rows[lead] = (w * _inv_scalar(int(w[lead]), self.p)) % self.p
        return True
