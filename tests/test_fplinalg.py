import functools
import operator

import numpy as np
import pytest

from frobkern import fplinalg
from frobkern.fplinalg import (
    Echelon,
    FpMat,
    SpanTracker,
    _exact_matmul,
    fpmat,
    identity,
    inverse,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
    zeros,
)


def test_rref_empty():
    assert rref(zeros(0, 0, 3)).rank == 0


def test_rref_identity():
    m = identity(3, 3)
    r = rref(m)
    assert r.rank == 3
    assert r.matrix == m


def test_rref_rank_one():
    # second row is twice the first mod 3
    m = fpmat([[1, 2], [2, 1]], 3)
    r = rref(m)
    assert r.rank == 1
    assert r.pivots == (0,)


def test_rref_idempotent():
    rng = np.random.default_rng(0xF0B)
    for p in (3, 5):
        for _ in range(20):
            m = fpmat(rng.integers(0, p, size=(6, 8)), p)
            once = rref(m).matrix
            assert rref(once).matrix == once


def test_kernel_identity_and_zero():
    assert kernel_basis(identity(4, 3)).cols == 0
    k = kernel_basis(zeros(2, 2, 3))
    assert k.cols == 2


def test_kernel_rank_one():
    m = fpmat([[1, 2], [2, 1]], 3)
    k = kernel_basis(m)
    assert k.cols == 1
    # kernel is spanned by (1, 1)
    v = k.a[:, 0]
    assert v[0] == v[1] != 0
    assert ((m.a @ v) % 3 == 0).all()


def test_rank_nullity():
    rng = np.random.default_rng(0xF0B)
    for p in (3, 5, 7):
        for _ in range(25):
            rows, cols = rng.integers(1, 9, size=2)
            m = fpmat(rng.integers(0, p, size=(rows, cols)), p)
            assert rref(m).rank + kernel_basis(m).cols == m.cols


def test_solve_identity():
    b = fpmat([[1], [2], [0]], 3)
    x = solve(identity(3, 3), b)
    assert x == b


def test_solve_inconsistent():
    assert solve(zeros(2, 2, 3), fpmat([[1], [0]], 3)) is None


def test_solve_homogeneous():
    m = fpmat([[1, 2], [2, 1]], 3)
    x = solve(m, zeros(2, 1, 3))
    assert x is not None
    assert ((m.a @ x.a) % 3 == 0).all()


def test_solve_exactness_random():
    rng = np.random.default_rng(0xF0B)
    for p in (3, 5):
        for _ in range(25):
            m = fpmat(rng.integers(0, p, size=(5, 7)), p)
            xtrue = fpmat(rng.integers(0, p, size=(7, 2)), p)
            b = m @ xtrue
            x = solve(m, b)
            assert x is not None
            assert m @ x == b


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(zeros(2, 2, 3), zeros(3, 1, 3))


def test_modulus_mixing_is_an_error():
    with pytest.raises(ValueError):
        identity(2, 3) @ identity(2, 5)
    with pytest.raises(ValueError):
        kron(identity(2, 3), identity(2, 5))


def test_kron_identity():
    assert kron(identity(2, 3), identity(3, 3)) == identity(6, 3)
    a = fpmat([[1, 2], [0, 1]], 3)
    assert kron(a, identity(1, 3)) == a


def test_kron_rank_multiplicative():
    rng = np.random.default_rng(0xF0B)
    for _ in range(10):
        a = fpmat(rng.integers(0, 5, size=(3, 3)), 5)
        b = fpmat(rng.integers(0, 5, size=(3, 3)), 5)
        assert rref(kron(a, b)).rank == rref(a).rank * rref(b).rank


def test_kron_associative():
    rng = np.random.default_rng(0xF0B)
    a = fpmat(rng.integers(0, 3, size=(2, 2)), 3)
    b = fpmat(rng.integers(0, 3, size=(2, 3)), 3)
    c = fpmat(rng.integers(0, 3, size=(3, 2)), 3)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_inverse_round_trip():
    rng = np.random.default_rng(0xF0B)
    for p in (3, 5):
        found = 0
        while found < 5:
            m = fpmat(rng.integers(0, p, size=(4, 4)), p)
            if rref(m).rank < 4:
                continue
            assert m @ inverse(m) == identity(4, p)
            found += 1


def test_power():
    m = fpmat([[1, 1], [0, 1]], 5)
    assert m.power(0) == identity(2, 5)
    assert m.power(5) == fpmat([[1, 5 % 5], [0, 1]], 5)


def test_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="n >= 0"):
        fpmat([[1, 1], [0, 1]], 3).power(-1)


def test_span_tracker():
    t = SpanTracker(3, 3)
    assert t.insert(np.array([1, 1, 0]))
    assert not t.insert(np.array([2, 2, 0]))
    assert t.insert(np.array([0, 0, 1]))
    assert t.dim == 2
    assert t.contains(np.array([1, 1, 2]))
    assert not t.contains(np.array([1, 0, 0]))


def span_tracker_candidates(held, pivots, n, p, rng):
    """One vector of each kind a span reduction meets: sparse and new or
    not, a combination of every vector held so far, and such a combination
    plus a unit vector at a column past some pivot that no pivot is on,
    which reduction reaches after jumping over the pivots before it."""
    sparse = np.zeros(n, dtype=np.int64)
    support = rng.choice(n, size=3, replace=False)
    sparse[support] = rng.integers(-p, p, size=3)
    yield sparse
    if not held:
        return
    combination = rng.integers(0, p, size=len(held)) @ np.array(held) % p
    yield combination
    past = [c for c in range(pivots[0] + 1, n) if c not in pivots] if pivots else []
    if past:
        bumped = combination.copy()
        bumped[rng.choice(past)] += rng.integers(1, p)
        yield bumped


@pytest.mark.parametrize("p", [3, 7, 65521])
def test_span_tracker_verdicts_match_rank_growth(p):
    # the leads of any echelon basis of a span are the pivots of its RREF,
    # so the candidates know which columns lead a row without the tracker
    rng = np.random.default_rng(p)
    n = 48
    tracker = SpanTracker(n, p)
    held, verdicts = [], []
    for _ in range(20):
        pivots = list(rref(fpmat(np.array(held), p)).pivots) if held else []
        for v in list(span_tracker_candidates(held, pivots, n, p, rng)):
            grows = rank(fpmat(np.array(held + [v]), p)) > len(held)
            assert tracker.contains(v) is (not grows)
            assert tracker.insert(v) is grows
            if grows:
                held.append(v % p)
            assert tracker.dim == len(held)
            verdicts.append(grows)
    assert True in verdicts and False in verdicts
    assert 20 <= len(held) < n


def test_entries_stay_reduced():
    m = fpmat([[4, -1], [7, 9]], 3)
    assert m.a.min() >= 0 and m.a.max() < 3


def test_matrices_are_immutable():
    m = identity(2, 3)
    with pytest.raises(ValueError):
        m.a[0, 0] = 2


def test_moduli_whose_products_overflow_are_refused():
    with pytest.raises(ValueError, match="too large"):
        fpmat([[1]], 2**31 - 1)
    with pytest.raises(ValueError, match="too large"):
        identity(2, 65537)


def test_products_are_exact_at_the_largest_modulus():
    p = 65521
    row = fpmat([[p - 1] * 64], p)
    col = fpmat([[p - 1]] * 64, p)
    assert (row @ col).a.tolist() == [[64 * (p - 1) ** 2 % p]]


def as_python_ints(a):
    return [[int(x) for x in row] for row in a]


def python_product(a, b, p):
    """a @ b mod p in Python integers, for 2-d arrays or nested lists."""
    cols = list(zip(*as_python_ints(b)))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in as_python_ints(a)]


def largest_exact_inner_size(p):
    return (2**53 - 1) // (p - 1) ** 2


def assert_residues(got, p):
    assert got.dtype == np.int64
    assert ((0 <= got) & (got < p)).all()


@pytest.mark.parametrize("p", [3, 7, 65521])
def test_float_products_are_exact_against_python_integers(p):
    k = 4096
    rng = np.random.default_rng(0xF0B + p)
    a = rng.integers(0, p, size=(5, k))
    b = rng.integers(0, p, size=(k, 4))
    a[0] = p - 1
    b[:, 0] = p - 1
    got = _exact_matmul(a, b, p)
    want = python_product(a, b, p)
    assert_residues(got, p)
    assert as_python_ints(got) == want
    # stacked operands multiply slice by slice
    stacked = np.stack([a, a[::-1]])
    got = _exact_matmul(stacked, b, p)
    assert_residues(got, p)
    assert as_python_ints(got[0]) == want and as_python_ints(got[1]) == want[::-1]
    # k at the exactness bound, where the largest entry k * (p-1)^2 is just
    # below 2^53; at p = 3 and 7 that k is far beyond memory, so there k is
    # the bound at the largest modulus, about 2^21
    k = min(largest_exact_inner_size(p), largest_exact_inner_size(65521))
    row = np.broadcast_to(np.int64(p - 1), (1, k))
    col = rng.integers(0, p, size=k)
    got = np.concatenate([_exact_matmul(row, row.T, p)[0], _exact_matmul(row, col, p)])
    assert_residues(got, p)
    assert got.tolist() == [k * (p - 1) ** 2 % p, (p - 1) * sum(col.tolist()) % p]


def test_fpmat_products_and_powers_are_exact_above_the_serial_bound():
    p = 65521
    n = 66  # 66^3 multiply-adds lie between _SERIAL_MACS and _THREADED_MACS
    assert fplinalg._SERIAL_MACS <= n**3 < fplinalg._THREADED_MACS
    rng = np.random.default_rng(0xF0B)
    m = fpmat(rng.integers(0, p, size=(n, n)), p)
    other = fpmat(rng.integers(0, p, size=(n, n)), p)
    assert_residues((m @ other).a, p)
    assert as_python_ints((m @ other).a) == python_product(m.a, other.a, p)
    assert m.power(0) == identity(n, p)
    assert m.power(1) == m
    square = python_product(m.a, m.a, p)
    fourth = python_product(square, square, p)
    assert as_python_ints(m.power(2).a) == square
    assert as_python_ints(m.power(4).a) == fourth
    for n in (5, 8):
        assert m.power(n) == functools.reduce(operator.matmul, [m] * n)


def test_float_products_refuse_inner_sizes_past_the_exact_bound():
    p = 65521
    k = 2**53 // (p - 1) ** 2 + 1
    zero_row = np.broadcast_to(np.int64(0), (1, k))
    with pytest.raises(ValueError, match="2\\^53"):
        _exact_matmul(zero_row, zero_row.T, p)
    # one term fewer still fits, and every term is (p-1)^2 = 1 mod p
    row = np.broadcast_to(np.int64(p - 1), (1, k - 1))
    assert _exact_matmul(row, row.T, p).tolist() == [[(k - 1) % p]]


def slice_macs(a, b):
    """Multiply-adds of one slice of np.matmul(a, b), a 1-D operand as one row or column."""
    m = a.shape[-2] if a.ndim > 1 else 1
    n = b.shape[-1] if b.ndim > 1 else 1
    return m * a.shape[-1] * n


# (shape of a, shape of b): 2-D, stacked, 2-D @ 3-D, 3-D @ 2-D, column and
# 1-D operands, below, inside and above the range formed in blocks
PRODUCT_SHAPES = [
    ((30, 40), (40, 20)),
    ((130, 130), (130, 69)),
    ((3, 600), (600, 1000)),  # one row is over the bound: blocks of columns
    ((2, 200_000), (200_000, 3)),  # so is one row times two columns
    ((256, 256), (256, 256)),
    ((3, 100, 90), (3, 90, 80)),
    ((200, 197), (4, 197, 9)),
    ((3, 130, 130), (130, 69)),
    ((700, 700), (700, 1)),
    ((700, 700), (700,)),
    ((700,), (700, 700)),
    ((600,), (2, 600, 500)),
    ((2, 600, 500), (500,)),
    ((5,), (5,)),
    ((5,), (5, 3)),
    ((300, 2), (2, 300)),  # more entries than _CAST_CHUNK: reduced in place
    ((2, 300, 20), (20, 300)),
    ((148, 195), (195, 195)),  # a spin product of cohom-p7, between 2^22 and 2^23
]


@pytest.mark.parametrize("a_shape,b_shape", PRODUCT_SHAPES)
def test_exact_products_stay_below_the_thread_bound_or_run_whole(monkeypatch, a_shape, b_shape):
    p = 65521
    rng = np.random.default_rng(sum(a_shape) + sum(b_shape))
    a = rng.integers(0, p, size=a_shape)
    b = rng.integers(0, p, size=b_shape)
    calls = []
    matmul = np.matmul

    def counted(x, y, **kwargs):
        calls.append(slice_macs(x, y))
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(fplinalg.np, "matmul", counted)
    got = _exact_matmul(a, b, p)
    monkeypatch.undo()
    want = np.matmul(a, b) % p
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all()
    macs = slice_macs(a, b)
    if fplinalg._SERIAL_MACS <= macs < fplinalg._THREADED_MACS:
        assert len(calls) > 1 and max(calls) < fplinalg._SERIAL_MACS
    else:
        assert calls == [macs]


def test_blocked_products_of_a_skinny_operand_carry_all_its_rows(monkeypatch):
    # every block spans all 12 rows of a, so each slice of b is read once
    p = 65521
    rng = np.random.default_rng(12)
    a = rng.integers(0, p, size=(12, 600))
    b = rng.integers(0, p, size=(2, 600, 600))
    assert fplinalg._SERIAL_MACS <= slice_macs(a, b) < fplinalg._THREADED_MACS
    rows = []
    matmul = np.matmul

    def counted(x, y, **kwargs):
        rows.append(x.shape[-2])
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(fplinalg.np, "matmul", counted)
    got = _exact_matmul(a, b, p)
    monkeypatch.undo()
    assert (got == np.matmul(a, b) % p).all()
    assert len(rows) > 1 and set(rows) == {12}


def gauss_jordan(rows, p):
    """Nonzero RREF rows and pivots over F_p, in Python integers."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [(x - f * y) % p for x, y in zip(m[k], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def echelon_test_matrices(p, rng):
    rank_deficient = rng.integers(0, p, size=(25, 4)) @ rng.integers(0, p, size=(4, 18))
    mostly_zero = rng.integers(0, p, size=(30, 20)) * (rng.random((30, 20)) < 0.06)
    mostly_zero[7] = 0
    # distinct leads on the diagonal and a dense strictly upper part: one
    # round takes every row, and N on the lead columns is nilpotent of index 16
    upper = np.triu(rng.integers(0, p, size=(16, 24)), 1)
    upper[np.arange(16), np.arange(16)] = rng.integers(1, p, size=16)
    # distinct leads with N = 0: the rows are already reduced on their leads
    reduced = np.hstack([np.eye(16, dtype=np.int64), rng.integers(0, p, size=(16, 8))])
    one_lead = rng.integers(0, p, size=(40, 16))
    one_lead[:, 0] = rng.integers(1, p, size=40)
    zero_rows = rng.integers(0, p, size=(40, 12))
    zero_rows[::2] = 0
    return {
        "tall": rng.integers(0, p, size=(40, 12)),
        "wide": rng.integers(0, p, size=(9, 30)),
        "rank-deficient": rank_deficient % p,
        "mostly-zero": mostly_zero,
        "unit-upper-leads": upper[rng.permutation(16)],
        "reduced-leads": reduced[rng.permutation(16)],
        "one-lead": one_lead,
        "zero-rows": zero_rows,
    }


@pytest.mark.parametrize("p", [3, 5, 7, 65521])
def test_echelon_matches_big_integer_elimination(p, monkeypatch):
    rounds = []
    real_rounds = fplinalg._rref_in_rounds

    def spy(m, p):
        rounds.append(m.size)
        return real_rounds(m, p)

    monkeypatch.setattr(fplinalg, "_rref_in_rounds", spy)
    rng = np.random.default_rng(p)
    held_rounds = set()  # the inputs whose third uneven block ran in rounds
    for name, a in echelon_test_matrices(p, rng).items():
        want_rows, want_pivots = gauss_jordan(as_python_ints(a), p)
        # each input is eliminated in rounds as one block
        assert a.size > fplinalg._ROUND_ENTRIES, name
        for eliminate in (fplinalg._rref_by_pivots, real_rounds):
            rows, pivots = eliminate(a, p)
            assert pivots == want_pivots and as_python_ints(rows) == want_rows, name
        red = rref(fpmat(a, p))
        assert list(red.pivots) == want_pivots, name
        assert as_python_ints(red.matrix.a[: red.rank]) == want_rows, name
        assert not red.matrix.a[red.rank :].any(), name
        # one block, one stacked block of two slices, then uneven blocks
        # (some empty on the wide matrix) and a last one stacked as two
        # slices of four rows; the third block meets rows already held
        rest = a[:-8]
        uneven = [rest[:1], rest[1:4], rest[4:], a[-8:].reshape(2, 4, -1)]
        stacked = a[: len(a) // 2 * 2].reshape(2, len(a) // 2, -1)
        for blocks in ([a], [stacked, a[len(a) // 2 * 2 :]], uneven):
            del rounds[:]
            ech = Echelon(a.shape[1], p)
            for block in blocks:
                ech.add(block)
            if blocks is not uneven:
                assert rounds, name
            elif rounds:
                held_rounds.add(name)
            assert ech.pivots == want_pivots, name
            assert as_python_ints(ech.rows) == want_rows, name
            assert kernel_basis(fpmat(a, p)) == ech.kernel(), name
    assert {"tall", "one-lead", "zero-rows", "mostly-zero"} <= held_rounds
