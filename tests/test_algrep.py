"""Engine tests over small truncated polynomial algebras.

F_p[u]/(u^p) has Jordan blocks J_1..J_p as its indecomposables, with known
Hom dimensions, Heller images Omega(J_k) = J_{p-k}, and stable endomorphism
dimensions, so every operation can be checked against closed answers.  The
two-variable analogue provides a complexity-two growth profile.  Graded Hom
spaces and the per-module spin are also checked on graded u(sl2) modules.
"""

import collections
import contextlib
import dataclasses
import hashlib
import io
import itertools
import math
from functools import cached_property

import numpy as np
import pytest

from frobkern import algrep, cli, fplinalg, gacohom, sl2dist
from frobkern.algrep import (
    GenAlgebra,
    GenAlgebraModule,
    IsoResult,
    InconclusiveError,
    _complement_projection,
    _graded_kernel,
    _graded_kernel_and_unit_rows,
    _independent_columns,
    _pinned_kernel,
    _shift_candidates,
    _simple_targets,
    _span_module,
    composition_factors,
    direct_sum,
    dual_module,
    end_space,
    estimate_complexity,
    ext_dims,
    heller,
    heller_power,
    hom_space,
    is_isomorphic,
    is_projective,
    meataxe_split,
    module_from_json,
    module_to_json,
    opposite_algebra,
    projective_cover,
    quotient,
    radical,
    socle,
    stable_hom_dim,
    strip_projectives,
    submodule,
    top,
    zero_module,
)
from frobkern.fplinalg import (
    Echelon,
    FpMat,
    SpanTracker,
    fpmat,
    identity,
    kernel_basis,
    kron,
    rank,
    rref,
    vstack,
    zeros,
)
from frobkern.sl2dist import (
    distribution_sl2,
    graded_principal_indecomposable,
    graded_restricted_sl2,
    graded_simple_module,
    graded_verma_module,
    heart_module,
    principal_indecomposable,
    regular_module,
    restricted_sl2,
    simple_module,
    verma_module,
)


def line_algebra(p):
    """F_p[u]/(u^p), graded with u in degree -1."""

    def checker(action, pp):
        probs = []
        if not action["u"].power(pp).is_zero():
            probs.append("u^p != 0")
        return probs

    alg = GenAlgebra(f"nil-line-p{p}", p, ["u"], checker, shifts={"u": -1})
    triv = GenAlgebraModule(alg, {"u": zeros(1, 1, p)}, [0])
    alg.designate([triv], [jordan_raw(alg, p)])
    return alg


def jordan_raw(alg, k, shift=0):
    p = alg.p
    u = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        u[i + 1, i] = 1
    return GenAlgebraModule(alg, {"u": fpmat(u, p)}, [shift - i for i in range(k)])


def jordan(alg, k, shift=0, graded=True):
    m = jordan_raw(alg, k, shift)
    return m if graded else m.forget_grading()


def plane_algebra(p):
    """F_p[u0, u1]/(u0^p, u1^p), ungraded."""

    def checker(action, pp):
        probs = []
        for name in ("u0", "u1"):
            if not action[name].power(pp).is_zero():
                probs.append(f"{name}^p != 0")
        if action["u0"] @ action["u1"] != action["u1"] @ action["u0"]:
            probs.append("generators do not commute")
        return probs

    alg = GenAlgebra(f"nil-plane-p{p}", p, ["u0", "u1"], checker)
    triv = GenAlgebraModule(alg, {g: zeros(1, 1, p) for g in ("u0", "u1")})
    alg.designate([triv], [plane_regular(alg)])
    return alg


def plane_regular(alg):
    p = alg.p
    n = p * p
    u0 = np.zeros((n, n), dtype=np.int64)
    u1 = np.zeros((n, n), dtype=np.int64)
    for a in range(p):
        for b in range(p):
            j = a * p + b
            if a + 1 < p:
                u0[(a + 1) * p + b, j] = 1
            if b + 1 < p:
                u1[a * p + b + 1, j] = 1
    return GenAlgebraModule(alg, {"u0": fpmat(u0, p), "u1": fpmat(u1, p)})


def split_pair_algebra(p):
    """F_p x F_p presented by one idempotent; semisimple with two simples."""

    def checker(action, pp):
        e = action["e"]
        return [] if e @ e == e else ["e^2 != e"]

    alg = GenAlgebra(f"split-pair-p{p}", p, ["e"], checker)
    s0 = GenAlgebraModule(alg, {"e": zeros(1, 1, p)})
    s1 = GenAlgebraModule(alg, {"e": identity(1, p)})
    alg.designate([s0, s1], [s0, s1])
    return alg


def split_line_algebra(p):
    """F_p[z]/(z^2 (z - 1)) = F_p[z]/(z^2) x F_p, with the simples z = 0 and
    z = 1, whose covers are the Jordan block J_2 and the second simple."""

    def checker(action, pp):
        z = action["z"]
        return [] if z @ z @ z == z @ z else ["z^3 != z^2"]

    alg = GenAlgebra(f"split-line-p{p}", p, ["z"], checker)
    S0, S1 = (GenAlgebraModule(alg, {"z": fpmat([[c]], p)}) for c in (0, 1))
    J2 = GenAlgebraModule(alg, {"z": fpmat([[0, 0], [1, 0]], p)})
    alg.designate([S0, S1], [J2, S1])
    return alg


def record_calls(monkeypatch, name):
    """Wrap algrep.<name> so that the arguments of every call are recorded."""
    calls = []
    real = getattr(algrep, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algrep, name, recording)
    return calls


def one_solve_per_simple(M):
    """(grading, designated simple) of each Hom solve between M and the
    simples, in order: one per simple, ungraded, and for a graded M only
    those with a candidate shift."""
    return [(None, S) for S in M.algebra.simples if not M.graded or _shift_candidates(M, S)]


def fresh(M):
    """A copy of M with nothing cached."""
    return GenAlgebraModule(M.algebra, M.action, M.grading, check=False)


def conjugate(M, rng):
    """Same module in a scrambled basis; a graded one is scrambled within
    each degree."""
    p = M.algebra.p
    n = M.dim
    same_degree = np.equal.outer(M.grading, M.grading) if M.graded else 1
    while True:
        g = fpmat(rng.integers(0, p, size=(n, n)) * same_degree, p)
        if rank(g) == n:
            break
    from frobkern.fplinalg import inverse

    gi = inverse(g)
    action = {name: gi @ M.mat(name) @ g for name in M.algebra.gens}
    return GenAlgebraModule(M.algebra, action, M.grading)


def spans_agree(maps_a, maps_b):
    if len(maps_a) != len(maps_b):
        return False
    if not maps_a:
        return True
    p = maps_a[0].p
    flat = [m.a.reshape(1, -1) for m in maps_a + maps_b]
    stacked = fpmat(np.vstack(flat), p)
    return rref(stacked).rank == len(maps_a)


# ---------------------------------------------------------------------------
# validation


def test_relation_checker_rejects_bad_action():
    alg = line_algebra(3)
    with pytest.raises(ValueError, match="relations violated"):
        GenAlgebraModule(alg, {"u": identity(2, 3)})


def test_grading_must_match_shifts():
    alg = line_algebra(3)
    u = fpmat([[0, 0], [1, 0]], 3)
    with pytest.raises(ValueError, match="shift"):
        GenAlgebraModule(alg, {"u": u}, [0, 0])


def test_hom_space_rejects_algebra_mix():
    a3 = line_algebra(3)
    a5 = line_algebra(5)
    with pytest.raises(ValueError):
        hom_space(jordan(a3, 1), jordan(a5, 1))


# ---------------------------------------------------------------------------
# Hom spaces


def test_hom_between_jordan_blocks_has_min_dimension():
    alg = line_algebra(5)
    for j in range(1, 6):
        for k in range(1, 6):
            maps = hom_space(jordan(alg, j, graded=False), jordan(alg, k, graded=False))
            assert len(maps) == min(j, k)
            Mu = jordan(alg, j, graded=False).mat("u")
            Nu = jordan(alg, k, graded=False).mat("u")
            for phi in maps:
                assert Nu @ phi == phi @ Mu


def test_graded_hom_sees_only_degree_zero_maps():
    alg = line_algebra(3)
    assert hom_space(jordan(alg, 1, shift=0), jordan(alg, 2, shift=0)) == []
    shifted = hom_space(jordan(alg, 1, shift=-1), jordan(alg, 2, shift=0))
    assert len(shifted) == 1


def is_hom_basis(M, N, maps):
    """The maps are linearly independent and each one intertwines M and N."""
    flat = fpmat(np.vstack([phi.a.reshape(1, -1) for phi in maps]), M.algebra.p)
    return rank(flat) == len(maps) and all(
        N.mat(g) @ phi == phi @ M.mat(g) for phi in maps for g in M.algebra.gens
    )


def test_hom_between_sums_of_jordan_blocks_adds_up_min_dimensions():
    alg = line_algebra(5)
    sizes_M, sizes_N = (4, 2, 1), (3, 5, 2)
    M = direct_sum([jordan(alg, a, graded=False) for a in sizes_M])
    N = direct_sum([jordan(alg, b, graded=False) for b in sizes_N])
    maps = hom_space(M, N)
    assert len(maps) == sum(min(a, b) for a in sizes_M for b in sizes_N)
    assert is_hom_basis(M, N, maps)


def test_endomorphisms_of_regular_module_match_algebra_dimension():
    alg = plane_algebra(3)
    reg = plane_regular(alg)
    ends = end_space(reg)
    assert len(ends) == 9
    assert is_hom_basis(reg, reg, ends)


def degree_zero_part(M, N):
    """Maps of Hom(M, N) with no entry off the degree-0 blocks, computed as a
    kernel inside the ungraded Hom space."""
    maps = hom_space(M.forget_grading(), N.forget_grading())
    if not maps:
        return []
    p = M.algebra.p
    off = (np.asarray(N.grading)[:, None] != np.asarray(M.grading)[None, :]).reshape(-1)
    flat = np.column_stack([phi.a.reshape(-1) for phi in maps])
    coeffs = kernel_basis(FpMat(flat[off], p))
    stacked = np.stack([phi.a for phi in maps])
    return [
        FpMat(np.tensordot(coeffs.a[:, c], stacked, axes=1) % p, p) for c in range(coeffs.cols)
    ]


def graded_jordan_family():
    alg = line_algebra(3)
    return [jordan(alg, k, shift=d) for k in (1, 2, 3) for d in (-2, -1, 0, 1)]


def graded_sl2_family():
    mods = [graded_verma_module(3, lam) for lam in (-2, 0, 1, 2, 4)]
    mods += [graded_simple_module(3, lam) for lam in range(3)]
    pims = [graded_principal_indecomposable(3, lam) for lam in range(3)]
    return mods + [P.shifted(d) for P in pims for d in (-2, 0, 2)]


@pytest.mark.parametrize("family", [graded_jordan_family, graded_sl2_family])
def test_graded_hom_is_the_degree_zero_part_of_ungraded_hom(family):
    mods = family()
    nonzero = 0
    for M in mods:
        for N in mods:
            maps = hom_space(M, N)
            assert spans_agree(maps, degree_zero_part(M, N))
            nonzero += bool(maps)
    assert 0 < nonzero < len(mods) ** 2


def commutant_maps(M, N):
    """Hom(M, N) as the kernel of X -> N_g X - X M_g over every generator g.

    X is flattened row by row, so N_g X is kron(N_g, 1) and X M_g is
    kron(1, M_g^T).  Graded pairs keep only the entries X[i, j] with
    deg_N(i) = deg_M(j), which are the degree-0 maps.
    """
    p = M.algebra.p
    m, n = M.dim, N.dim
    system = vstack(
        [
            kron(N.mat(g), identity(m, p)) - kron(identity(n, p), M.mat(g).transpose())
            for g in M.algebra.gens
        ]
    )
    keep = np.ones(n * m, dtype=bool)
    if M.graded and N.graded:
        keep = (np.asarray(N.grading)[:, None] == np.asarray(M.grading)[None, :]).reshape(-1)
    ker = kernel_basis(FpMat(system.a[:, keep].copy(), p))
    maps = []
    for c in range(ker.cols):
        x = np.zeros(n * m, dtype=np.int64)
        x[keep] = ker.a[:, c]
        maps.append(FpMat(x.reshape(n, m), p))
    return maps


def assert_hom_matches_commutant(M, N):
    maps = hom_space(M, N)
    assert spans_agree(maps, commutant_maps(M, N))
    assert not maps or is_hom_basis(M, N, maps)
    return len(maps)


def test_hom_matches_commutant_oracle_over_restricted_sl2():
    kinds = (simple_module, verma_module, principal_indecomposable)
    mods = [f(3, 1, lam) for f in kinds for lam in range(3)]
    mods.append(regular_module(3))
    dims = [assert_hom_matches_commutant(M, N) for M in mods for N in mods]
    assert 0 < dims.count(0) < len(dims)


def test_graded_hom_matches_commutant_oracle_over_graded_restricted_sl2():
    mods = graded_sl2_family()
    dims = [assert_hom_matches_commutant(M, N) for M in mods for N in mods]
    assert 0 < dims.count(0) < len(dims)


def test_hom_matches_commutant_oracle_over_distribution_sl2(monkeypatch):
    # height two at p = 3: the simples, the covers of the Steinberg tail and
    # their hearts, each pair in both directions.  Most of these solves form
    # equations, and the commutant checks the maps they spin
    calls = record_calls(monkeypatch, "_pair_equations")
    alg = distribution_sl2(3, 2)
    covers = list(alg.projectives[6:8])
    hearts = [heart_module(3, 2, lam) for lam in (6, 7)]
    mods = list(alg.simples) + covers + hearts
    dims = [assert_hom_matches_commutant(M, N) for M in mods for N in mods]
    assert 0 < dims.count(0) < len(dims)
    assert calls


def test_hom_between_regular_module_and_syzygy_matches_commutant_oracle():
    reg = gacohom.regular_module(5, 2)
    k = gacohom.trivial_module(5, 2)
    omega2 = heller_power(k, 2)
    assert omega2.dim == 26
    # the regular module is free of rank one, so Hom(A, N) is N
    assert assert_hom_matches_commutant(reg, omega2) == 26
    # Omega^2 k needs dim Ext^2(k, k) = 3 generators
    assert assert_hom_matches_commutant(omega2, k) == 3


def test_hom_system_has_only_the_rows_off_the_spanning_tree():
    # the 9-dim regular module of F_3[u0, u1]/(u0^3, u1^3) is spun from one
    # vector along 8 tree edges; of its 2 * 9 (generator, column) pairs only
    # the other 10 give equations, one row each into the 1-dim trivial module
    M, k = gacohom.regular_module(3, 2), gacohom.trivial_module(3, 2)
    assert len(hom_space(M, k)) == 1
    assert k.dim * sum(ts.size for _, ts in M.spin.pairs) == 2 * 9 - 8


def test_empty_hom_stops_once_no_unknown_is_free(monkeypatch):
    # the Steinberg module L(4) of u(sl2) at p = 5 is simple and projective,
    # so it maps to no other projective indecomposable: Hom(L(4), P(0)) = 0.
    # Each P(0) is built anew, as the cached one keeps the local kernels of
    # the solves into it that ran before
    S, P = simple_module(5, 1, 4), principal_indecomposable(5, 1, 0)
    fed = []
    real_add = Echelon.add

    def add(self, block):
        before = self.rank
        real_add(self, block)
        fed.append((self.ncols, before, math.prod(block.shape[:-1]), self.rank))

    monkeypatch.setattr(Echelon, "add", add)
    # stage one pins every unknown, so nothing is eliminated
    M = GenAlgebraModule(P.algebra, P.action, check=False)
    assert hom_space(S, M) == []
    assert fed == []
    # L(3) leaves one unknown to stage two, whose first block binds it:
    # the blocks end before the last of the pairs, each giving dim M equations
    S = simple_module(5, 1, 3)
    M = GenAlgebraModule(P.algebra, P.action, check=False)
    assert hom_space(S, M) == []
    assert fed and all(before < unknowns for unknowns, before, _, _ in fed)
    assert fed[-1][3] == fed[-1][0]
    assert sum(rows for _, _, rows, _ in fed) < M.dim * sum(ts.size for _, ts in S.spin.pairs)


def one_stage_copy(M):
    """M with the local pairs taken off its spin: every Hom system out of it
    is then solved in one stage, all equations through the word operators."""
    out = GenAlgebraModule(M.algebra, M.action, M.grading, check=False)
    if M.dim:  # a zero module has no spin
        vars(out)["spin"] = dataclasses.replace(M.spin, local=())
    return out


def presolve_pairs():
    """(M, N) pairs over every algebra family, with Homs of all kinds."""
    for p in (3, 5):
        alg = distribution_sl2(p, 2)
        covers = [P for P in alg.projectives if P is not None]
        hearts = [heart_module(p, 2, lam) for lam in range(p * p - p, p * p - 1)]
        for S in alg.simples:
            for X in hearts + covers:
                yield S, X
                yield X, S
    alg = restricted_sl2(5)
    for S in alg.simples:
        omega2 = heller_power(S, 2)
        for P in alg.projectives:
            yield P, omega2
            yield omega2, P
    alg = graded_restricted_sl2(5)
    mods = [S.shifted(d) for S in alg.simples for d in (-10, 0, 10)]
    mods += [graded_verma_module(5, lam) for lam in (0, 3, 4, 7)]
    mods += [P.shifted(d) for P in alg.projectives for d in (-10, 0)]
    yield from ((M, N) for M in mods for N in mods)
    k = gacohom.trivial_module(3, 2)
    mods = [k, gacohom.regular_module(3, 2)] + [heller_power(k, i) for i in (1, 2, 3)]
    yield from ((M, N) for M in mods for N in mods)


def test_local_presolve_keeps_the_canonical_kernel():
    # stage one eliminates the local pairs and stage two solves in the
    # kernel K of stage one; K times the stage-two kernel must be the kernel
    # the one-stage solve returns, column for column
    shrunk = nonzero = 0
    for M, N in presolve_pairs():
        hom = algrep._hom_kernel(M, N)
        plain_M = one_stage_copy(M)
        plain = algrep._hom_kernel(plain_M, N)
        assert (hom is None) == (plain is None)
        if hom is None:
            continue
        nonzero += 1
        shrunk += hom.ker.shape[0] < plain.ker.shape[0]
        assert hom.dim == plain.dim
        assert np.array_equal(hom.gen_images, plain.gen_images)
        assert algrep._hom_maps(M, hom) == algrep._hom_maps(plain_M, plain)
    assert 0 < shrunk < nonzero


def local_solution_dim(S, N):
    """Dimension of the images x of S's one generator v with g*x = c*x for
    every generator g that sends v to c*v: the local equations, read off
    the actions."""
    (j,) = S.spin.gen_pos
    v = np.zeros(S.dim, dtype=np.int64)
    v[j] = 1
    p = S.algebra.p
    rows = []
    for g in S.algebra.gens:
        w = S.mat(g).a @ v % p
        if np.array_equal(w, w[j] * v):
            rows.append(N.mat(g) - identity(N.dim, p).scale(int(w[j])))
    return N.dim - rank(vstack(rows))


def test_local_presolve_shrinks_the_hom_system(monkeypatch):
    p, lam = 5, 21
    H = heart_module(p, 2, lam)
    alg = H.algebra
    sources = [S for S in alg.simples if hom_space(S, H)]
    assert sources
    for S in sources:
        hom = algrep._hom_kernel(S, H)
        assert S.spin.gen_pos.size == 1
        assert hom.ker.shape[0] == local_solution_dim(S, H) < H.dim
    # a simple whose weight carries no U+-invariant of H is refused by the
    # local equations alone: no word operator is formed
    S = next(S for S in alg.simples if local_solution_dim(S, H) == 0)
    S.spin  # spun before the count starts
    calls = []
    for module in (algrep, fplinalg):
        real = module._exact_matmul
        monkeypatch.setattr(module, "_exact_matmul", lambda *a, real=real: calls.append(a) or real(*a))
    assert algrep._hom_kernel(S, H) is None
    assert calls == []


def rebuilt(N):
    """N built anew from its action and grading: it keeps no stage one."""
    return GenAlgebraModule(N.algebra, N.action, N.grading, check=False)


def shared_kernel_pairs():
    """`presolve_pairs`, then every graded simple into graded targets at
    every shift from -5 to 5: sources whose local pairs differ in a
    coefficient alone (h*v = lam*v), and layouts that differ in their rows
    alone, meet in one target.  h*x = lam*x holds on no row unless the shift
    is 0 mod 5, so one such layout leaves unknowns free where another of the
    same size leaves none."""
    yield from presolve_pairs()
    alg = graded_restricted_sl2(5)
    targets = [graded_verma_module(5, lam) for lam in (3, 4)] + list(alg.projectives)
    for N in targets:
        for d in range(-5, 6):
            yield from ((S, N.shifted(d)) for S in alg.simples)


def test_shared_local_kernel_is_the_uncached_one():
    # stage one is kept on the target and read by every later solve with
    # the same local system; each solve must equal the solve into a module
    # built anew from the same action, which starts with nothing kept
    for M, N in shared_kernel_pairs():
        hom = algrep._hom_kernel(M, N)
        fresh = algrep._hom_kernel(M, rebuilt(N))
        assert (hom is None) == (fresh is None)
        if hom is None:
            continue
        assert hom.dim == fresh.dim
        assert np.array_equal(hom.gen_images, fresh.gen_images)
        assert algrep._hom_maps(M, hom) == algrep._hom_maps(M, fresh)


def unpinned_kernel(rows, p):
    """(free, pivots, K_piv) of one `Echelon` of all of `rows`, as stage one
    kept it before it pinned any unknown; None when no column is free."""
    ech = Echelon(rows.shape[1], p)
    ech.add(rows)
    free = ech.free
    if free.size == 0:
        return None
    return free, np.array(ech.pivots, dtype=np.int64), (-ech.rows[:, free]) % p


def assert_pinned_is_unpinned(rows, p):
    got, want = _pinned_kernel(rows, p), unpinned_kernel(rows, p)
    assert (got is None) == (want is None)
    for a, b in zip(got or (), want or ()):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    return got


def test_pinned_stage_one_is_the_full_elimination(monkeypatch):
    # stage one pins each unknown of a row with one nonzero entry, in one
    # pass, and eliminates only the rest: (free, pivots, K_piv) must be
    # those of one elimination of every row
    p = 5
    # h - c on three weight vectors next to e on three others: the diagonal
    # pins the unknowns where h - c is not 0, and e's last row pins one
    # more, which leaves e's first row with one entry: one pass does not
    # pin it, and the elimination must
    diagonal = np.diag([2, 0, 4])
    nilpotent = np.array([[0, 1, 3], [0, 0, 1], [0, 0, 0]])
    zero = np.zeros((3, 3), dtype=np.int64)
    rows = np.block([[diagonal, zero], [zero, nilpotent]])
    free, pivots, K_piv = assert_pinned_is_unpinned(rows, p)
    assert free.tolist() == [1, 3] and pivots.tolist() == [0, 2, 4, 5]
    # one entry only after pinning, with a nonzero value left in K
    rows = np.array([[0, 0, 3, 0], [1, 2, 1, 0], [0, 1, 4, 1]])
    free, pivots, K_piv = assert_pinned_is_unpinned(rows, p)
    assert free.tolist() == [3] and K_piv.any()
    # no row with one entry: the elimination sees every row
    rng = np.random.default_rng(5)
    rows = rng.integers(1, p, size=(3, 7))
    assert_pinned_is_unpinned(rows, p)
    # every unknown pinned, and no rows at all
    assert assert_pinned_is_unpinned(np.diag([1, 2, 3, 4]), p) is None
    free, pivots, K_piv = assert_pinned_is_unpinned(np.zeros((0, 4), dtype=np.int64), p)
    assert free.tolist() == [0, 1, 2, 3] and pivots.size == 0 and K_piv.shape == (0, 4)
    # sparse systems of every mix, zero rows and repeated rows included
    for _ in range(200):
        shape = tuple(rng.integers(1, 9, size=2))
        rows = rng.integers(0, p, size=shape) * (rng.random(shape) < 0.3)
        assert_pinned_is_unpinned(np.vstack([rows, rows[:1]]), p)
    # the local systems of real Hom solves, each into a target built anew
    # so that its stage one runs
    calls = record_calls(monkeypatch, "_pinned_kernel")
    for M, N in shared_kernel_pairs():
        algrep._hom_kernel(M, rebuilt(N))
    assert len(calls) > 100
    pinned = 0
    for rows, q in calls:
        assert_pinned_is_unpinned(rows, q)
        pinned += (np.count_nonzero(rows, axis=1) == 1).any()
    assert 0 < pinned < len(calls)


def test_local_kernel_is_solved_once_per_target_and_system(monkeypatch):
    # the heart and the algebras are built before the count starts: their
    # own solves are not the ones counted below, and an earlier test may
    # already have built the algebras
    heart, alg = heart_module(5, 2, 21), graded_restricted_sl2(5)
    calls = record_calls(monkeypatch, "_local_echelon")
    # two simples of Dist(G_2) at p = 5 whose generators both satisfy
    # e0*v = e1*v = 0 and nothing more: one local system into a heart
    S, S2 = distribution_sl2(5, 2).simples[6:8]
    key = [[(g, js.tolist(), c.tolist()) for g, js, c in T.spin.local] for T in (S, S2)]
    assert key[0] == key[1] and S.dim != S2.dim
    H = rebuilt(heart)
    assert algrep._hom_kernel(S, H) is None
    assert len(calls) == 1
    assert algrep._hom_kernel(S2, H) is None
    assert len(calls) == 1
    # a module built anew from the same action keeps its own
    algrep._hom_kernel(S2, rebuilt(H))
    assert len(calls) == 2
    # shifted and ungraded copies read the entries of the module they copy
    T, N = alg.simples[2], rebuilt(alg.projectives[2])
    assert algrep._hom_kernel(T, N) is not None
    assert len(calls) == 3
    assert algrep._hom_kernel(T.shifted(2), N.shifted(2)) is not None
    assert len(calls) == 3
    # an ungraded source gives every row of N an unknown: a new layout,
    # which the ungraded copy and a shift of N then share
    assert algrep._hom_kernel(T.forget_grading(), N.forget_grading()) is not None
    assert len(calls) == 4
    assert algrep._hom_kernel(T.forget_grading(), N.shifted(-2)) is not None
    assert len(calls) == 4


def all_pairs_kernel(monkeypatch, M, N):
    """`_hom_kernel(M, N)` with no source taken for free and no pair settled
    first: every off-tree pair of M's spin forms its equations, in one
    system.  A property, unlike a class attribute, hides the depth-one view
    that a spin keeps once it has formed it."""
    with monkeypatch.context() as m:
        m.setattr(algrep, "_is_free", lambda M: False)
        m.setattr(algrep.Spin, "shallow", property(lambda spin: None))
        return algrep._hom_kernel(M, N)


def formed_systems(calls, M):
    """For each recorded `_pair_equations` call, all on the spin of M,
    "shallow" when it formed the depth-one pairs of the spin alone, "all"
    when it formed every pair."""
    out = []
    for spin, _, _, _, *shallow in calls:
        assert spin is M.spin and all(view is M.spin.shallow for view in shallow)
        out.append("shallow" if shallow else "all")
    return out


def assert_same_kernel(M, hom, plain):
    """Two solves of Hom(M, N) agree: `gen_images`, `dim` and every map,
    formed as the whole basis, as some basis maps in another order, and as
    combinations given by coefficient columns."""
    assert (hom is None) == (plain is None)
    if hom is None:
        return
    assert hom.dim == plain.dim
    assert np.array_equal(hom.gen_images, plain.gen_images)
    basis = algrep._hom_maps(M, hom)
    assert basis == algrep._hom_maps(M, plain)
    p = M.algebra.p
    coeffs = np.random.default_rng(hom.dim).integers(0, p, size=(hom.dim, 2))
    for cols in (list(range(hom.dim))[::-2], coeffs):
        assert algrep._hom_maps(M, hom, cols) == algrep._hom_maps(M, plain, cols)
    # a coefficient column gives the combination of the basis maps
    combined = algrep._combination(coeffs[:, 0], np.stack([phi.a for phi in basis]), p)
    assert algrep._hom_maps(M, hom, coeffs[:, :1]) == [combined]


def faithful_cover_pairs():
    """(cover, target) out of the lone cover of an algebra with one simple,
    which is the free module: its shifts and ungraded copy too."""
    for p in (3, 5, 7):
        for r in (1, 2):
            alg = gacohom.truncated_poly_algebra(p, r)
            P = alg.projectives[0]
            for i in range(5):
                yield P, heller_power(alg.simples[0], i)
    alg = line_algebra(5)
    P = alg.projectives[0]
    targets = [jordan(alg, j, d) for j in (1, 2, 4, 5) for d in (-2, 0, 3)]
    for d in (-3, 0, 2):
        yield from ((P.shifted(d), N) for N in targets)
    for N in targets:
        yield P.forget_grading(), N.forget_grading()
    alg = plane_algebra(3)
    P = alg.projectives[0]
    targets = [heller_power(alg.simples[0], i) for i in range(4)]
    targets += [P, direct_sum([targets[1], targets[2]])]
    yield from ((P, N) for N in targets)


def test_faithful_cover_solves_only_the_relations_nonzero_in_the_algebra(monkeypatch):
    # the lone cover of an algebra with one simple is free, so each off-tree
    # pair of its spin is a relation of the algebra and gives zero equations
    # into every module: its solves form no pair and no word operators, and
    # they must give the kernel and the maps of the solves forming every pair
    calls = record_calls(monkeypatch, "_pair_equations")
    spins = record_calls(monkeypatch, "_spin_words")
    skipped = 0
    for P, N in faithful_cover_pairs():
        # freeness is read off the module: a copy built anew is free too
        assert algrep._is_free(P) and algrep._is_free(rebuilt(P))
        skipped += sum(ts.size for _, ts in P.spin.pairs)
        calls.clear()
        spins.clear()
        hom = algrep._hom_kernel(P, N)
        assert calls == [] and spins == []
        forced = all_pairs_kernel(monkeypatch, P, N)
        if hom is not None:
            # the forced solve spins the word operators it forms pairs on
            assert len(spins) >= 1 and hom.N is N
        assert_same_kernel(P, hom, forced)
    assert skipped > 0


def test_hom_out_of_the_regular_module_forms_no_equation(monkeypatch):
    # every off-tree pair of the spin of A = F_5[u0, u1]/(u0^5, u1^5) is a
    # relation of A, so Hom(A, N) is N: the solve forms one product, for the
    # pivot images of stage one, and neither the word operators W nor any
    # equation, and it runs no elimination
    alg = gacohom.truncated_poly_algebra(5, 2)
    A, omega3 = alg.projectives[0], heller_power(alg.simples[0], 3)
    assert algrep._is_free(A)
    A.spin
    counts = {}
    for free in (True, False):
        calls, adds = [], []
        with monkeypatch.context() as m:
            if not free:
                m.setattr(algrep, "_is_free", lambda M: False)
            for module in (algrep, fplinalg):
                real = module._exact_matmul
                m.setattr(module, "_exact_matmul", lambda *a, real=real: calls.append(a) or real(*a))
            real_add = Echelon.add
            m.setattr(Echelon, "add", lambda self, block: adds.append(block) or real_add(self, block))
            spins = record_calls(m, "_spin_words")
            hom = algrep._hom_kernel(A, omega3)
        assert hom.dim == omega3.dim
        counts[free] = (len(calls), len(adds), len(spins))
    assert counts[True] == (1, 0, 0)
    # forming W costs one product per tree level, and forming every pair
    # one lhs product per generator and one rhs
    assert counts[False][0] == counts[True][0] + len(A.spin.levels) + len(alg.gens) + 1
    assert counts[False][1:] == (0, 1)  # every equation is zero


def test_covers_of_several_simples_form_every_pair(monkeypatch):
    # a cover of one of several simples is not free: the spin of the cover
    # J_2 of z = 0 over F_3[z]/(z^2 (z - 1)) ends with the pair z*(z*v) = 0,
    # whose relation z^2 kills J_2 but not the simple z = 1, so it is the one
    # equation that makes Hom(J_2, S1) zero.  Such covers keep every pair,
    # graded or not
    calls = record_calls(monkeypatch, "_pair_equations")
    alg = split_line_algebra(3)
    J2, S1 = alg.projectives[0], alg.simples[1]
    assert not algrep._is_free(J2)
    calls.clear()
    assert hom_space(J2, S1) == []
    assert [spin for spin, *_ in calls] == [J2.spin]
    for alg in (restricted_sl2(5), graded_restricted_sl2(5)):
        covers = list(alg.projectives)
        covers += [P.forget_grading() for P in covers if P.graded]
        assert not any(algrep._is_free(P) for P in covers)
        targets = [heller_power(S, 2) for S in alg.simples] + list(alg.projectives)
        for P in covers:
            for N in targets:
                if P.graded != N.graded:
                    N = N.forget_grading()
                hom = algrep._hom_kernel(P, N)
                assert_same_kernel(P, hom, all_pairs_kernel(monkeypatch, P, N))
    assert len(calls) > 1


def test_hom_out_of_the_free_sl2_module_forms_no_equation(monkeypatch):
    # the regular module of u(sl2) at p = 3 is spun from one vector and is
    # p^3 = sum dim L(i) * dim P(i) dimensional, so it is free: its solves
    # into the simples, the covers and the Omega^2 of the simples run no
    # elimination and equal those that form every pair
    A = regular_module(3)
    alg = A.algebra
    assert algrep._is_free(A)
    targets = list(alg.simples) + list(alg.projectives)
    targets += [heller_power(S, 2) for S in alg.simples]
    real_add = Echelon.add
    for N in targets:
        adds = []
        with monkeypatch.context() as m:
            m.setattr(Echelon, "add", lambda self, b: adds.append(b) or real_add(self, b))
            spins = record_calls(m, "_spin_words")
            hom = algrep._hom_kernel(A, N)
        assert adds == [] and spins == []
        # Hom(A, N) is N; Omega^2 of the projective simple L(2) is zero
        assert (0 if hom is None else hom.dim) == N.dim
        assert_same_kernel(A, hom, all_pairs_kernel(monkeypatch, A, N))


def test_projective_cover_spins_one_column_per_summand_of_the_top(monkeypatch):
    # the 51-dimensional Omega^4 k over F_5[u0, u1]/(u0^5, u1^5) has a top of
    # five copies of k; its cover solves Hom(A, Omega^4 k), which is all of
    # Omega^4 k, and spins the generator images of the five lifts it keeps
    alg = gacohom.truncated_poly_algebra(5, 2)
    A, M = alg.projectives[0], heller_power(alg.simples[0], 4)
    assert top(M) == [(0, 5)]
    spins = record_calls(monkeypatch, "_spin_words")
    P, C, blocks = projective_cover(M)
    assert [(spin, W.shape) for spin, _, W, _ in spins] == [(A.spin, (A.dim, M.dim, 5))]
    with monkeypatch.context() as m:
        m.setattr(algrep, "_is_free", lambda M: False)
        forced = projective_cover(M)
    assert forced[1:] == (C, blocks)
    assert dict(forced[0].action) == dict(P.action)


def test_meataxe_forms_one_map_per_try_before_the_exhaustive_proof(monkeypatch):
    # the regular module of u(sl2) at p = 3 splits into P(0), two copies of
    # P(1) and three of the Steinberg module; End(P(i)) is two-dimensional,
    # so each P(i) ends in an exhaustive proof that its End is local.  Each
    # try before it forms its one map, and the proof forms the basis once.
    # The module, and with it the algebra, is built first: designating the
    # simples forms maps too, when no earlier test has built the algebra
    M = regular_module(3)
    events = []
    real_maps, real_split = algrep._hom_maps, algrep._fitting_split

    def hom_maps(M, hom, cols=slice(None)):
        out = real_maps(M, hom, cols)
        events.append(("maps", len(out), hom.dim))
        return out

    def fitting_split(M, theta):
        events.append(("try",))
        return real_split(M, theta)

    monkeypatch.setattr(algrep, "_hom_maps", hom_maps)
    monkeypatch.setattr(algrep, "_fitting_split", fitting_split)
    factors = meataxe_split(M, rng=5)
    assert sorted(F.dim for F in factors) == [3, 3, 3, 6, 6, 6]
    proofs = [i for i, e in enumerate(events) if e[0] == "maps" and e[1] > 1]
    assert len(proofs) == 3
    for i, e in enumerate(events):
        if e[0] == "maps" and e[1] == 1:
            assert events[i + 1] == ("try",)
    for i in proofs:
        _, n, dim = events[i]
        # the basis maps and the draws, each formed alone, all failed first
        before = events[i - 2 * (dim + algrep._MEATAXE_ATTEMPTS) : i]
        assert before == [("maps", 1, dim), ("try",)] * (dim + algrep._MEATAXE_ATTEMPTS)
        assert n == dim == 2
        assert events[i + 1 : i + 3**dim] == [("try",)] * (3**dim - 1)


def not_free_pairs():
    """(source, target) where the source is not free though it looks close:
    k^(p^r) has the dimension of the algebra but is not cyclic, Dist(G_2) at
    p = 3 leaves covers undesignated, and the cover J_2 of F_3[z]/(z^2 (z -
    1)) is cyclic but smaller than the algebra, also when the other cover is
    undesignated and the covers that are known add up to dim J_2."""
    alg = gacohom.truncated_poly_algebra(3, 2)
    k = alg.simples[0]
    sum_k = direct_sum([k] * 9)
    yield sum_k, k
    yield sum_k, alg.projectives[0]
    yield sum_k, heller_power(k, 1)
    alg = distribution_sl2(3, 2)
    P = next(P for P in alg.projectives if P is not None)
    yield from ((P, N) for N in list(alg.simples[:3]) + [P])
    for known in ([0, 1], [0]):
        alg = split_line_algebra(3)
        alg.projectives = [P if i in known else None for i, P in enumerate(alg.projectives)]
        J2 = alg.projectives[0]
        yield from ((J2, N) for N in list(alg.simples) + [J2])


def test_sources_that_are_not_free_form_every_pair(monkeypatch):
    calls = record_calls(monkeypatch, "_pair_equations")
    for M, N in not_free_pairs():
        assert not algrep._is_free(M)
        calls.clear()
        hom = algrep._hom_kernel(M, N)
        # a solve that stage one leaves open forms the equations of every
        # pair, after those of the depth-one pairs when the spin has them,
        # M is not N and they leave an image free
        first = ["shallow"] if M.spin.shallow is not None and M is not N else []
        formed = formed_systems(calls, M)
        assert formed in ([], first + ["all"]) or formed == first == ["shallow"] and hom is None
        assert_same_kernel(M, hom, all_pairs_kernel(monkeypatch, M, N))
        assert_hom_matches_commutant(M, N)
    alg = split_line_algebra(3)
    assert hom_space(alg.projectives[0], alg.simples[1]) == []


def height_two_pairs():
    """Each simple of Dist(G_2) at p = 3 and 5 into the hearts, their
    quotients by their socles and the Omega of the simples of the Steinberg
    tail.  Their Omega^2 is not formed, as the top of Omega L holds a simple
    with no designated cover; `presolve_pairs` holds the Omega^2 of the
    simples of u(sl2) at p = 5."""
    for p in (3, 5):
        alg = distribution_sl2(p, 2)
        tail = range(p * p - p, p * p - 1)
        hearts = [heart_module(p, 2, lam) for lam in tail]
        targets = hearts + [quotient(H, socle(H)[1])[0] for H in hearts]
        targets += [heller(alg.simples[lam]) for lam in tail]
        yield from ((S, N) for N in targets for S in alg.simples)


def test_shallow_step_keeps_the_kernel(monkeypatch):
    # stage two forms the equations of the depth-one pairs first and the
    # rest only when those leave an image free.  The RREF does not depend on
    # the order of the rows, so every solve must equal the one-system solve
    # of every pair.  presolve_pairs() is the first part of
    # shared_kernel_pairs()
    calls = record_calls(monkeypatch, "_pair_equations")
    paths = collections.Counter()
    for M, N in itertools.chain(shared_kernel_pairs(), not_free_pairs(), height_two_pairs()):
        calls.clear()
        hom = algrep._hom_kernel(M, N)
        paths[tuple(formed_systems(calls, M)), hom is None] += 1
        assert_same_kernel(M, hom, all_pairs_kernel(monkeypatch, M, N))
    # the shallow step settles empty Homs alone, and every path is taken
    assert paths[("shallow",), False] == 0
    for path in [("shallow",), ("shallow", "all"), ("all",)]:
        assert paths[path, True] > 0, path
    for path in [("shallow", "all"), ("all",)]:
        assert paths[path, False] > 0, path


def test_named_stage_two_paths(monkeypatch):
    # (case, M, N, the systems stage two forms, whether Hom(M, N) is zero);
    # each solve must equal the one-system solve of every pair
    L = distribution_sl2(3, 2).simples
    H6, H7 = heart_module(3, 2, 6), heart_module(3, 2, 7)
    line = line_algebra(5)
    # J_3 and J_1 over F_5[u]/(u^5), their tops in degrees -1 and -3: each
    # maps onto a submodule of J_4
    only_local = direct_sum([jordan(line, 3, shift=-1), jordan(line, 1, shift=-3)])
    cases = [
        ("the shallow step decides", L[5], H7, ["shallow"], True),
        ("a nonzero Hom", L[4], H6, ["shallow", "all"], False),
        ("no depth-2 vector", L[3], H7, ["all"], False),
        ("only local shallow pairs", only_local, jordan(line, 4), ["all"], False),
        ("two roots", direct_sum([L[5], L[7]]), H6, ["shallow"], True),
        ("an End solve", L[5], L[5], ["all"], False),
        ("graded", graded_simple_module(5, 3), graded_verma_module(5, 3), ["shallow", "all"], True),
    ]
    calls = record_calls(monkeypatch, "_pair_equations")
    spins = record_calls(monkeypatch, "_spin_words")
    for case, M, N, formed, zero in cases:
        calls.clear()
        spins.clear()
        hom = algrep._hom_kernel(M, N)
        assert (formed_systems(calls, M), hom is None) == (formed, zero), case
        # W is filled a level at a time, each level once, in order: to
        # depth 1 when the shallow step decides, and to the end otherwise
        levels = range(len(M.spin.levels))
        filled = [i for _, _, _, _, picked in spins for i in levels[picked]]
        assert filled == list(levels if "all" in formed else levels[: M.spin.shallow.levels])
        assert_same_kernel(M, hom, all_pairs_kernel(monkeypatch, M, N))
    # L(3) = L(0) (x) L(1)^[1] is spun from v to f1*v: nothing lies deeper
    assert L[3].dim == 2 and L[3].spin.shallow is None
    # J_3 + J_1 over F_5[u]/(u^5): u*u*v lies at depth 2, and the one pair
    # that reads only depth 0 and 1 is u*w = 0 at the root w of J_1, a
    # local pair, which stage one has solved
    M = cases[3][1]
    assert M.spin.local and M.spin.shallow is None
    assert [ts.tolist() for _, ts in M.spin.pairs] == [[2, 3]]
    # depth is counted below each root: the second summand's root and its
    # depth-1 vectors are shallow columns, as they are in its own spin
    M = cases[4][1]
    assert M.spin.roots.tolist() == [0, L[5].dim]
    cols = np.concatenate([L[5].spin.shallow.cols, L[5].dim + L[7].spin.shallow.cols])
    assert np.array_equal(M.spin.shallow.cols, cols)
    assert cases[6][1].graded and cases[6][2].graded
    # Hom(M, M) holds the identity, which no first step can rule out
    assert L[5].spin.shallow is not None


def test_empty_hom_out_of_a_simple_stops_at_depth_one(monkeypatch):
    # L(5) = L(2) (x) L(1)^[1] of Dist(G_2) at p = 3: its generator v has
    # e0*(f0*v) = 2v and e1*(f1*v) = v at depth one.  Stage one leaves the
    # primitive vectors of the heart H7 as images of v, and none has that
    # weight, so the shallow pairs leave no image free: W is filled on the
    # levels of depth 1 alone, and no deeper pair forms an equation.  H7 is
    # built anew, so that its stage one runs here
    S, H = distribution_sl2(3, 2).simples[5], rebuilt(heart_module(3, 2, 7))
    shallow = S.spin.shallow
    assert 0 < shallow.levels < len(S.spin.levels)
    assert shallow.rows.size < sum(ts.size for _, ts in S.spin.pairs)
    spins = record_calls(monkeypatch, "_spin_words")
    calls = record_calls(monkeypatch, "_pair_equations")
    assert algrep._hom_kernel(S, H) is None
    assert [(spin, levels) for spin, _, _, _, levels in spins] == [(S.spin, slice(shallow.levels))]
    assert formed_systems(calls, S) == ["shallow"]


def test_heart_suite_settles_most_stage_twos_at_depth_one(monkeypatch):
    # `verify heart --p 5 --seed 7` on Dist(G_2) built anew before the
    # count, so that no earlier solve has left Homs, socles or stage ones
    # on its simples.  Of its 373 stage twos the shallow step settles 342
    # and 18 go on to the deep system.  13 skip the shallow step: 4 End
    # solves, and 9 whose spins have no vector deeper than 1
    real = distribution_sl2
    alg = real.__wrapped__(5, 2)
    monkeypatch.setattr(sl2dist, "distribution_sl2", lambda *pr: alg if pr == (5, 2) else real(*pr))
    calls = record_calls(monkeypatch, "_pair_equations")
    real_kernel = algrep._hom_kernel
    paths = collections.Counter()

    def hom_kernel(M, N):
        calls.clear()
        hom = real_kernel(M, N)
        if calls:
            paths[tuple(formed_systems(calls, M))] += 1
        return hom

    monkeypatch.setattr(algrep, "_hom_kernel", hom_kernel)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "heart", "--p", "5", "--seed", "7"]) == 0
    assert paths == {("shallow",): 342, ("shallow", "all"): 18, ("all",): 13}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_restricted_regular_module_is_free(p):
    # restricted_sl2 designates its covers after its simples, and designate
    # solves Homs before then: the dimension of the algebra must be read
    # when asked, not kept from a call that had no covers to read
    assert algrep._is_free(regular_module(p))
    assert not any(algrep._is_free(P) for P in restricted_sl2(p).projectives)


def test_top_radical_and_cover_spin_the_module_once(monkeypatch):
    # an ungraded module that is not spun reads its top through its dual and
    # is never spun; one already spun reads it on that spin, and a graded
    # one is spun once for it
    unspun = regular_module(3)
    spun = regular_module(3)
    spun.spin
    graded = fresh(graded_verma_module(3, 0))
    calls = record_calls(monkeypatch, "build_spin")
    for M, spins in ((unspun, 0), (spun, 0), (graded, 1)):
        top(M)
        radical(M)
        projective_cover(M)
        assert sum(A is M for (A,) in calls) == spins
    assert "spin" not in vars(unspun)


def test_simple_homs_are_solved_once_per_module(monkeypatch):
    alg = restricted_sl2(3)
    op = opposite_algebra(alg)  # built before the count
    simples = [id(S) for S in alg.simples]
    calls = record_calls(monkeypatch, "hom_space")
    duals = record_calls(monkeypatch, "dual_module")
    for spun in (False, True):
        M = regular_module(3)
        if spun:
            M.spin
        calls.clear()
        duals.clear()
        # composition_factors starts from socle(M)
        composition_factors(M)
        struct, basis = socle(M)
        struct.append(None)  # the caller's list: the module keeps its own
        assert socle(M) == (struct[:-1], basis)
        assert [id(A) for A, N in calls if N is M] == simples
        for _ in range(2):
            top(M)
            radical(M)
            projective_cover(M)
        forward = [id(N) for A, N in calls if A is M]
        # the dual route solves Hom(S*, M*) once per op simple, into one M*
        through_dual = [(id(A), id(N)) for A, N in calls if N.algebra is op]
        if spun:
            assert forward == simples and through_dual == [] and duals == []
        else:
            assert forward == [] and [A for (A,) in duals] == [M]
            assert [a for a, _ in through_dual] == [id(S) for S in op.simples]
            assert len({n for _, n in through_dual}) == 1


def forward_maps_to_simples(M):
    """(simple index, Hom(M, S)) for each simple S with Hom(M, S) nonzero,
    every one solved out of M."""
    targets = ((idx, hom_space(M, S)) for idx, S in _simple_targets(M))
    return [(idx, maps) for idx, maps in targets if maps]


def span_of_maps(maps):
    """The RREF of the flattened maps: equal exactly when the spans are."""
    return rref(FpMat(np.stack([phi.a.ravel() for phi in maps]), maps[0].p)).matrix


def dual_route_inputs():
    for p in (3, 5):
        alg = restricted_sl2(p)
        for lam in range(p):
            for M in (alg.simples[lam], verma_module(p, 1, lam)):
                yield from syzygies(M, 3)
    yield from syzygies(gacohom.truncated_poly_algebra(3, 2).simples[0], 4)[1:]
    yield heart_module(3, 2, 6)
    yield from syzygies(fresh(graded_verma_module(3, 1)).forget_grading(), 1)


def test_top_through_the_dual_is_the_forward_top():
    # an unspun ungraded module solves Hom(S*, M*) over the opposite algebra
    # and transposes; the maps must be module maps spanning what a forward
    # solve of Hom(M, S) spans, and top, radical and cover must not change
    for X in dual_route_inputs():
        if X.dim == 0:
            continue
        dual, forward = fresh(X), fresh(X)
        forward.spin
        got, want = dual.maps_to_simples, forward_maps_to_simples(fresh(X))
        assert [idx for idx, *_ in got] == [idx for idx, _ in want]
        for (_, _, S, maps), (_, solved) in zip(got, want):
            assert span_of_maps(maps) == span_of_maps(solved)
            for phi in maps:
                assert all(phi @ X.mat(g) == S.mat(g) @ phi for g in X.algebra.gens)
        assert top(dual) == top(forward)
        assert radical(dual) == radical(forward)
        # the heart's top holds simples with no designated cover
        if all(X.algebra.projectives[idx] is not None for idx, *_ in got):
            (P, C, blocks), (Pf, Cf, blocks_f) = projective_cover(dual), projective_cover(forward)
            assert C == Cf and blocks == blocks_f
            assert algrep._module_key(P) == algrep._module_key(Pf)
        assert "spin" not in vars(dual)


def test_top_is_read_through_the_dual_only_for_unspun_ungraded_modules(monkeypatch):
    # a resolution spins only designated modules and op simples: each
    # syzygy's top is read through its dual, and no syzygy is spun
    alg = gacohom.truncated_poly_algebra(5, 2)
    op = opposite_algebra(alg)  # built before the count
    allowed = {id(M) for A in (alg, op) for M in A.simples}
    allowed |= {id(P) for P in alg.projectives}
    spins = record_calls(monkeypatch, "build_spin")
    duals = record_calls(monkeypatch, "dual_module")
    trace = gacohom.minimal_resolution_dims(5, 2, 6)
    assert {id(A) for (A,) in spins} <= allowed
    assert [A.dim for (A,) in duals] == trace.omega_dims[1:7]

    # a graded module, and an ungraded one already spun, read it forward
    graded = fresh(graded_verma_module(3, 1))
    spun = fresh(graded).forget_grading()
    spun.spin
    unspun = fresh(graded).forget_grading()
    opposite_algebra(graded.algebra)
    duals.clear()
    for M in (graded, spun, unspun):
        top(M)
    assert [A for (A,) in duals] == [unspun]
    # a trace with Ext forms a dual of Z for Z's top, which it does not
    # keep, and one kept of each module it forms a Heller step of, which
    # that module's stable Hom and top read: M0 = Z first.  Only Z* and
    # designated modules are spun, no syzygy and not Z
    Z = fresh(verma_module(5, 1, 0))
    algebras = (Z.algebra, opposite_algebra(Z.algebra))
    designated = {id(M) for A in algebras for M in [*A.simples, *A.projectives]}
    steps = record_calls(monkeypatch, "heller")
    duals.clear()
    spins.clear()
    ext_dims(Z, 4)
    assert [A for (A,) in duals] == [Z] + [A for (A,) in steps]
    assert steps[0] == (Z,) and len(steps) == 3
    assert {id(A) for (A,) in spins} <= designated | {id(Z.dual)}
    # with no stable Hom each syzygy's top is its dual's only reader, and
    # a module with a projective summand is not M0: neither keeps a dual,
    # and M0 keeps its own
    steps.clear()
    ext_dims(fresh(gacohom.truncated_poly_algebra(5, 2).simples[0]), 4, with_ext=False)
    assert len(steps) == 4 and not any("dual" in vars(A) for (A,) in steps)
    M = direct_sum([fresh(verma_module(5, 1, 0)), principal_indecomposable(5, 1, 1)])
    duals.clear()
    ext_dims(M, 2)
    assert "dual" not in vars(M)
    M0 = duals[1][0]
    assert duals[0] == (M,) and M0 is not M and M0.dim == 5 and "dual" in vars(M0)

    # hearts are read forward once their algebra is built
    distribution_sl2(3, 2)
    ops = record_calls(monkeypatch, "opposite_algebra")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "heart", "--p", "3"]) == 0
    assert ops == []


def test_graded_cover_solves_the_top_of_its_projective_once(monkeypatch):
    # the top of M holds the simple at shifts 0 and 2, so its cover has two
    # blocks of the one designated projective
    alg = line_algebra(3)
    M = direct_sum([jordan(alg, 2), jordan(alg, 2, shift=2)])
    Pcan = alg.projective_of(0)
    calls = record_calls(monkeypatch, "hom_space")
    for _ in range(2):
        _, _, blocks = projective_cover(M)
        assert [(idx, d) for idx, d, _ in blocks] == [(0, 0), (0, 2)]
    # one solve per simple with a candidate shift, every shift in it
    solved = [(N.grading, N._spin_source) for A, N in calls if A is Pcan]
    assert solved == one_solve_per_simple(Pcan) == [(None, alg.simples[0])]


def test_shifts_of_a_simple_share_its_spin(monkeypatch):
    # top and socle compare a graded module with each simple at every shift
    # that meets its degrees; a shift relabels degrees only, so the simple is
    # spun once, however many shifts there are
    calls = record_calls(monkeypatch, "build_spin")
    alg = line_algebra(3)  # designating the simple spins it
    (S,) = alg.simples
    P = alg.projective_of(0)
    top(P)
    socle(P)
    assert len(_shift_candidates(P, S)) == 3
    assert [id(A) for (A,) in calls] == [id(S), id(P)]

    P = graded_principal_indecomposable(3, 0)
    P = fresh(P)
    simples = [id(S) for S in P.algebra.simples]
    calls.clear()
    top(P)
    socle(P)
    assert sum(len(_shift_candidates(P, S)) for S in P.algebra.simples) > len(simples)
    spun = [id(A) for (A,) in calls if A is not P]
    assert len(set(spun)) == len(spun) and set(spun) <= set(simples)


def test_forget_grading_shares_the_spin(monkeypatch):
    P = graded_principal_indecomposable(3, 1)
    P = fresh(P)
    calls = record_calls(monkeypatch, "build_spin")
    Pu = P.forget_grading()
    assert Pu.spin is P.spin
    assert Pu.forget_grading().spin is P.spin and P.shifted(2).forget_grading().spin is P.spin
    assert [A for (A,) in calls] == [P]
    # an ungraded module is compared with ungraded copies of the graded
    # simples, and covered by ungraded copies of the graded projectives:
    # none of the copies is spun
    calls.clear()
    M = graded_verma_module(3, 1).forget_grading()
    socle(M)
    heller(M)
    spun = [id(A) for (A,) in calls]
    assert all(A.graded for (A,) in calls) and len(set(spun)) == len(spun)


def test_direct_sum_forms_its_action_only_when_read():
    # a Heller step reads the summands of its cover, never the cover's
    # block-diagonal action; read, the action is that of the summands, and a
    # copy regraded before it was read reads its source's
    for M in (fresh(verma_module(3, 1, 0)), fresh(gacohom.truncated_poly_algebra(3, 2).simples[0])):
        heller(heller(M))
        P, _, blocks = M.cover
        assert len(blocks) and "action" not in vars(P)
    alg = line_algebra(5)
    parts = [jordan(alg, 3), jordan(alg, 5, 1), jordan(alg, 2, -2)]
    D = direct_sum(parts)
    shifted, ungraded = D.shifted(2), D.forget_grading()
    assert "action" not in vars(D) and D.dim == 10 and D.grading == sum((J.grading for J in parts), ())
    block = fplinalg.block_diag([J.mat("u") for J in parts], 5)
    assert D.mat("u") == block and shifted.action is D.action and ungraded.action is D.action
    assert D.summands == tuple(parts) and not D.algebra.relation_checker(D.action, 5)


def test_regraded_copies_keep_the_spin_and_drop_every_other_cached_property():
    # the spin and the action do not depend on the degrees; every other
    # cached property does, so a shifted or ungraded copy computes it anew
    P = graded_principal_indecomposable(3, 1)
    P = fresh(P)
    cached = {
        name
        for name, attr in vars(GenAlgebraModule).items()
        if isinstance(attr, cached_property)
    }
    assert cached >= {"action", "spin", "maps_to_simples", "maps_from_simples", "radical_basis", "cover"}
    for name in cached:
        getattr(P, name)
    assert cached <= set(vars(P))
    for Q in (P.shifted(2), P.forget_grading()):
        assert cached & set(vars(Q)) == {"action", "spin"}
        assert Q.spin is P.spin and Q.action is P.action


def test_radical_cover_and_heller_eliminate_the_radical_once(monkeypatch):
    # `_graded_kernel` is `_graded_kernel_and_unit_rows` less the rows, which
    # heller reads its action from
    calls = record_calls(monkeypatch, "_graded_kernel_and_unit_rows")
    for M in [verma_module(3, 1, 0), graded_verma_module(3, 0)]:
        M = fresh(M)
        calls.clear()
        rad = radical(M)
        projective_cover(M)
        heller(M)
        assert radical(M) is rad
        # one elimination for rad(M) and one for the kernel of the cover
        assert [C.cols for C, _, _ in calls] == [M.dim, M.cover[0].dim]


def test_shifted_module_solves_its_own_simple_homs():
    # the Hom spaces to and from the simples depend on the degrees, so a
    # shift of a module whose caches are full must not inherit them
    for lam in range(3):
        P = graded_principal_indecomposable(3, lam)
        tops, socles = top(P), socle(P)[0]
        for d in (-2, 3):
            Q = P.shifted(d)
            assert Q.grading == tuple(x + d for x in P.grading)
            assert top(Q) == [(idx, s + d, mult) for idx, s, mult in tops]
            assert socle(Q)[0] == [(idx, s + d, mult) for idx, s, mult in socles]


def test_module_action_is_read_only():
    M = regular_module(3)
    with pytest.raises(TypeError):
        M.action["e"] = M.mat("f")


def test_hom_with_zero_module_is_empty():
    alg = line_algebra(3)
    assert hom_space(zero_module(alg), jordan(alg, 1)) == []


# ---------------------------------------------------------------------------
# top / radical / socle / composition factors


def test_top_and_socle_of_jordan_block():
    alg = line_algebra(3)
    M = jordan(alg, 3)
    assert top(M) == [(0, 0, 1)]
    struct, basis = socle(M)
    assert struct == [(0, -2, 1)]
    assert basis.cols == 1
    Mu = M.forget_grading()
    assert top(Mu) == [(0, 1)]
    assert radical(Mu).cols == 2


def _greedy_columns(a, p):
    tracker = SpanTracker(a.shape[0], p)
    return [c for c in range(a.shape[1]) if tracker.insert(a[:, c])]


def test_rref_pivots_are_the_greedy_independent_columns():
    # socle, the ungraded Fitting image and strip_projectives keep the pivot
    # columns of one RREF: the columns a greedy span pass over them keeps
    rng = np.random.default_rng(3)
    for p, rows, k, cols in [(3, 6, 3, 9), (5, 8, 5, 8), (7, 5, 4, 12)]:
        a = rng.integers(0, p, (rows, k)) @ rng.integers(0, p, (k, cols)) % p
        a[:, rng.integers(0, 2, cols) == 0] = 0
        assert list(rref(FpMat(a, p)).pivots) == _greedy_columns(a, p)
    for M in [regular_module(3), verma_module(3, 1, 0), principal_indecomposable(3, 1, 0)]:
        images = np.hstack([phi.a for *_, maps in M.maps_from_simples for phi in maps])
        assert np.array_equal(socle(M)[1].a, images[:, _greedy_columns(images, 3)])


def test_composition_factors_by_socle_peeling():
    alg = line_algebra(3)
    assert composition_factors(jordan(alg, 3, graded=False)) == [(0, 3)]
    pair = split_pair_algebra(3)
    M = GenAlgebraModule(pair, {"e": fpmat(np.diag([0, 1, 1]), 3)})
    assert composition_factors(M) == [(0, 1), (1, 2)]
    assert sorted(top(M)) == [(0, 1), (1, 2)]


def test_quotient_and_submodule_of_jordan():
    alg = line_algebra(3)
    M = jordan(alg, 3, graded=False)
    _, soc_basis = socle(M)
    Q, _ = quotient(M, soc_basis)
    assert is_isomorphic(Q, jordan(alg, 2, graded=False)).status == "iso"
    R = submodule(M, radical(M))
    assert is_isomorphic(R, jordan(alg, 2, graded=False)).status == "iso"


def solved_action(M, basis, vectors):
    """The coordinates of g * vectors in `basis`, for each generator g, as
    fplinalg.solve finds them."""
    out = {}
    for g in M.algebra.gens:
        x = fplinalg.solve(basis, M.mat(g) @ vectors)
        assert x is not None
        out[g] = x.a
    return out


def support_degrees(basis, grading):
    """The degree of each column's support, which must be one degree."""
    degrees = []
    for col in basis.a.T:
        (d,) = {grading[i] for i in np.nonzero(col)[0]}
        degrees.append(d)
    return degrees


def fitting_image_without_unit_rows():
    """A module in a scrambled basis and the image basis of a Fitting split
    of one of its endomorphisms, with two or more nonzero entries in every
    row, so that it is the identity on no rows."""
    M = conjugate(direct_sum([verma_module(5, 1, 0), simple_module(5, 1, 2)]), np.random.default_rng(1))
    img = next(split[1] for theta in end_space(M) if (split := algrep._fitting_split(M, theta)))
    assert ((img.a != 0).sum(axis=1) >= 2).all()
    return M, img


def span_cases():
    """(module, basis of a submodule): plain, graded and direct-sum modules
    with their radical and socle bases, and a Fitting image basis."""
    alg = line_algebra(5)
    graded = direct_sum([jordan(alg, 3), jordan(alg, 5, 1), jordan(alg, 2, -2)])
    modules = [
        jordan(alg, 4, graded=False),
        jordan(alg, 4, 2),
        graded,
        graded.forget_grading(),
        principal_indecomposable(5, 1, 1),
        graded_principal_indecomposable(5, 2),
        direct_sum([simple_module(5, 1, 1), verma_module(5, 1, 3), principal_indecomposable(5, 1, 0)]),
        direct_sum([graded_verma_module(5, 2), graded_verma_module(5, 7), graded_simple_module(5, 3)]),
    ]
    for M in modules:
        yield M, radical(M)
        yield M, socle(M)[1]
    yield fitting_image_without_unit_rows()


def test_submodule_and_quotient_match_coordinates_solved_for():
    for M, basis in span_cases():
        p = M.algebra.p
        N = submodule(M, basis)
        for g, x in solved_action(M, basis, basis).items():
            assert N.mat(g).a.dtype == np.int64 and np.array_equal(N.mat(g).a, x)
        assert N.grading == (tuple(support_degrees(basis, M.grading)) if M.graded else None)
        # the complement columns are the non-pivots of the subspace's RREF;
        # with the basis they make an invertible matrix, whose inverse's
        # last rows are the projection
        pivots = rref(FpMat(basis.a.T.copy(), p)).pivots
        comp = [c for c in range(M.dim) if c not in pivots]
        units = identity(M.dim, p).a[:, comp]
        whole = FpMat(np.hstack([basis.a, units]), p)
        Q, proj = quotient(M, basis)
        k = basis.cols
        assert np.array_equal(proj.a, fplinalg.solve(whole, identity(M.dim, p)).a[k:])
        for g, x in solved_action(M, whole, FpMat(units, p)).items():
            assert Q.mat(g).a.dtype == np.int64 and np.array_equal(Q.mat(g).a, x[k:])
        assert Q.grading == (tuple(M.grading[c] for c in comp) if M.graded else None)


def test_submodule_refuses_a_span_that_is_not_stable():
    M = principal_indecomposable(5, 1, 1)
    rad = radical(M)
    for basis in (FpMat(rad.a[:, :1], 5), FpMat(rad.a[:, [0]] + identity(M.dim, 5).a[:, [0]], 5)):
        with pytest.raises(ValueError, match="not stable"):
            submodule(M, basis)


def test_degrees_of_columns_refuses_a_zero_or_inhomogeneous_column():
    grading = [0, 0, 1, 2]
    basis = fpmat([[1, 0], [2, 0], [0, 1], [0, 0]], 5)
    assert algrep._degrees_of_columns(basis, grading) == [0, 1]
    for bad in ([[1, 0], [0, 0], [0, 0], [0, 0]], [[1, 0], [0, 0], [0, 1], [0, 3]]):
        with pytest.raises(ValueError, match="basis column is not homogeneous"):
            algrep._degrees_of_columns(fpmat(bad, 5), grading)


def graded_kernel_per_degree(C, row_deg, col_deg):
    """The homogeneous kernel of a degree-0 map, one kernel_basis per degree."""
    cols = []
    for d in sorted(set(col_deg)):
        cset = [j for j, e in enumerate(col_deg) if e == d]
        rset = [i for i, e in enumerate(row_deg) if e == d]
        ker = kernel_basis(FpMat(C.a[np.ix_(rset, cset)].copy(), C.p))
        for k in range(ker.cols):
            v = np.zeros(C.cols, dtype=np.int64)
            v[cset] = ker.a[:, k]
            cols.append(v)
    return np.column_stack(cols) if cols else np.zeros((C.cols, 0), dtype=np.int64)


def random_degree_zero_map(rng, p):
    """A map between shuffled graded spaces that is zero off the degree-0
    blocks.  Some degrees have no rows or no columns, and some blocks are
    zero or of low rank."""
    row_deg = rng.integers(-3, 3, size=rng.integers(0, 12)).tolist()
    col_deg = rng.integers(-2, 4, size=rng.integers(1, 12)).tolist()
    a = np.zeros((len(row_deg), len(col_deg)), dtype=np.int64)
    for d in set(row_deg) & set(col_deg):
        rset = np.flatnonzero(np.asarray(row_deg) == d)
        cset = np.flatnonzero(np.asarray(col_deg) == d)
        k = rng.integers(0, 3)  # the block's rank is at most k
        a[np.ix_(rset, cset)] = (
            rng.integers(0, p, size=(rset.size, k)) @ rng.integers(0, p, size=(k, cset.size)) % p
        )
    return FpMat(a, p), row_deg, col_deg


@pytest.mark.parametrize("p", [3, 5, 7])
def test_graded_kernel_is_the_kernel_of_each_degree(p):
    rng = np.random.default_rng(p)
    for _ in range(200):
        C, row_deg, col_deg = random_degree_zero_map(rng, p)
        ker = _graded_kernel(C, row_deg, col_deg)
        assert np.array_equal(ker.a, graded_kernel_per_degree(C, row_deg, col_deg))
        assert ker.a.flags.c_contiguous  # as the products that read it expect
    # an ungraded map is the one-degree case: its kernel is kernel_basis's,
    # column for column
    for _ in range(50):
        rows, k, cols = rng.integers(0, 8), rng.integers(0, 4), rng.integers(1, 8)
        C = FpMat(rng.integers(0, p, (rows, k)) @ rng.integers(0, p, (k, cols)) % p, p)
        assert _graded_kernel(C, [0] * rows, [0] * cols) == kernel_basis(C)
    # an entry from degree 1 to degree 0 is not a degree-0 map
    with pytest.raises(ValueError, match="degrees"):
        _graded_kernel(fpmat([[0, 1], [0, 0]], p), [0, 1], [0, 1])


def homogeneous_basis_per_degree(span, grading):
    """The homogeneous basis of a graded column span by a greedy span pass
    over the columns masked to each degree in turn, lowest degree first."""
    p = span.p
    deg = np.asarray(grading)
    tracker = SpanTracker(span.rows, p)
    cols = []
    for d in sorted(set(deg.tolist())):
        for k in range(span.cols):
            v = np.where(deg == d, span.a[:, k], 0) % p
            if v.any() and tracker.insert(v):
                cols.append(v)
    return np.column_stack(cols) if cols else np.zeros((span.rows, 0), dtype=np.int64)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_degree_ordered_pivots_are_the_per_degree_span_pass(p):
    # the image of a degree-0 map: its columns are homogeneous, so the RREF
    # pivots, stably ordered by degree, are the columns the per-degree pass keeps
    rng = np.random.default_rng(10 + p)
    for _ in range(200):
        C, row_deg, col_deg = random_degree_zero_map(rng, p)
        image = C.a[:, _independent_columns(C, col_deg)]
        assert np.array_equal(image, homogeneous_basis_per_degree(C, row_deg))


# ---------------------------------------------------------------------------
# projective covers and Heller


def test_projective_cover_solves_each_hom_to_a_simple_once(monkeypatch):
    alg = line_algebra(3)
    pair = split_pair_algebra(3)
    spun = jordan(alg, 2, graded=False)
    spun.spin
    # (module, whether it solves Hom(M, S) forward)
    mods = [
        (jordan(alg, 2, graded=False), False),
        (spun, True),
        (jordan(alg, 2), True),
        (GenAlgebraModule(pair, {"e": fpmat(np.diag([0, 1, 1]), 3)}), False),
    ]
    ops = [opposite_algebra(M.algebra) for M, _ in mods]  # built before the count
    calls = record_calls(monkeypatch, "hom_space")
    for (M, forward), op in zip(mods, ops):
        calls.clear()
        projective_cover(M)
        solved = [(N.grading, N._spin_source or N) for A, N in calls if A is M]
        # an op simple that is an ungraded copy reads its designated one
        through_dual = [(A._spin_source or A, N) for A, N in calls if N.algebra is op]
        if forward:
            # one solve per simple: a graded M solves every shift in it
            assert solved == one_solve_per_simple(M)
            assert through_dual == []
        else:
            assert solved == []
            assert [id(S) for S, _ in through_dual] == [id(S) for S in op.simples]
            assert len({id(N) for _, N in through_dual}) == 1


def reference_cover(M):
    """M's cover as chosen from whole maps: every map phi of Hom(P, M) is
    formed and the greedy pass runs on the flattened products proj . phi."""
    alg, p = M.algebra, M.algebra.p
    proj, _ = _complement_projection(radical(M), M.dim)
    blocks, columns = [], []
    for idx, d, _, maps in M.maps_to_simples:
        Pcan = alg.projective_of(idx)
        if M.graded:
            ((_, d_top, _),) = top(Pcan)
            P = Pcan.shifted(d - d_top)
        else:
            P = Pcan.forget_grading() if Pcan.graded else Pcan
        tracker = SpanTracker(proj.rows * P.dim, p)
        chosen = [phi for phi in hom_space(P, M) if tracker.insert((proj @ phi).a.ravel())]
        assert len(chosen) >= len(maps)
        for phi in chosen[: len(maps)]:
            blocks.append((idx, d, 1))
            columns.append(phi.a)
    return np.hstack(columns), blocks


def is_designated_projective(M):
    """True for a designated projective of M's algebra or a shift of one."""
    return any(
        Q is not None and (M is Q or M._spin_source is Q) for Q in M.algebra.projectives
    )


@contextlib.contextmanager
def without_homs_out_of_projectives(monkeypatch):
    """Make hom_space fail inside the block when its source is a designated
    projective or a shift of one."""
    real = algrep.hom_space

    def guarded(M, N):
        if is_designated_projective(M):
            raise AssertionError("a Hom space out of a projective was formed")
        return real(M, N)

    with monkeypatch.context() as m:
        m.setattr(algrep, "hom_space", guarded)
        yield


def syzygies(M, n):
    out = [M]
    for _ in range(n):
        out.append(heller(out[-1]))
    return out


def graded_cover_cases():
    graded = [graded_verma_module(3, lam) for lam in range(3)]
    graded += [graded_simple_module(3, lam) for lam in range(3)]
    return graded + [heller_power(Z, 2) for Z in graded[:2]]


COVER_CASES = {
    "syzygies-of-k": lambda: syzygies(gacohom.truncated_poly_algebra(5, 2).simples[0], 3),
    "vermas": lambda: [verma_module(3, 1, lam) for lam in range(3)],
    "pims": lambda: [principal_indecomposable(3, 1, lam) for lam in range(3)],
    "graded": graded_cover_cases,
    # decomposable, with several distinct simples in the top: (0, 2), (1, 1), (2, 1)
    "sum": lambda: [
        direct_sum([verma_module(3, 1, 0)] * 2 + [verma_module(3, 1, 1), simple_module(3, 1, 2)])
    ],
    "graded-sum": lambda: [
        direct_sum([graded_verma_module(3, lam).shifted(d) for lam, d in ((0, 0), (0, 6), (1, 0))])
    ],
}


def warm_projective_tops(alg):
    # the graded cover aligns each block by its projective's top, solved
    # once per projective and cached
    for Q in alg.projectives:
        if Q is not None:
            top(Q)


@pytest.mark.parametrize("case", list(COVER_CASES))
def test_cover_picks_the_lifts_of_the_reference_selection(monkeypatch, case):
    mods = COVER_CASES[case]()
    warm_projective_tops(mods[0].algebra)
    for M in mods:
        C_ref, blocks_ref = reference_cover(M)
        with without_homs_out_of_projectives(monkeypatch):
            P, C, blocks = projective_cover(M)
        assert blocks == blocks_ref
        assert np.array_equal(C.a, C_ref)
        assert P.dim == C.cols


def test_heller_forms_no_radical(monkeypatch):
    # the cover tells its lifts apart with the maps onto each simple, whose
    # common kernel is rad(M): neither rad(M) nor a complement of it is formed
    calls = record_calls(monkeypatch, "_complement_projection")
    mods = [
        verma_module(3, 1, 0),
        graded_verma_module(3, 0),
        gacohom.truncated_poly_algebra(3, 2).simples[0],
    ]
    for M in map(fresh, mods):
        assert heller(M).dim
        assert "radical_basis" not in vars(M)
    assert calls == []


def test_heart_solves_one_hom_out_of_its_cover(monkeypatch):
    # rad P(lam) is Omega L(lam), so the heart solves Hom(P, L) once, out of
    # the cover, and every other Hom out of a simple
    calls = record_calls(monkeypatch, "_hom_kernel")
    for p, r, lam in ((3, 1, 0), (3, 2, 6), (3, 2, 7), (5, 2, 21)):
        alg = restricted_sl2(p) if r == 1 else distribution_sl2(p, r)
        P, L = alg.projectives[lam], alg.simples[lam]
        vars(L).pop("cover", None)  # an earlier heart or Omega L leaves it
        calls.clear()
        heart_module(p, r, lam)
        sources = [M._spin_source or M for M, _ in calls]
        assert sum(M is P for M in sources) == 1
        assert all(M is P or any(M is S for S in alg.simples) for M in sources)


def reference_stable_hom_dim(M, N):
    """dim Hom(M, N) minus the rank of the maps C . psi, psi in Hom(M, P),
    each formed as a matrix."""
    P, C, _ = N.cover
    through = [(C @ psi).a.ravel() for psi in hom_space(M, P)]
    factoring = rank(fpmat(np.array(through), M.algebra.p)) if through else 0
    return len(hom_space(M, N)) - factoring


def forward_stable_hom_dim(M, N):
    """`reference_stable_hom_dim` out of a copy of M, which its Hom spaces
    spin: every Hom is solved forward, whichever route M itself takes."""
    return reference_stable_hom_dim(fresh(M), N)


def refuse_hom_space(M, N):
    raise AssertionError("a Hom space was formed as matrices")


def dual_stable_hom_inputs():
    """(M, Omega^1.. of M) for modules M of every kind: unspun and ungraded,
    graded, and the spun designated simples and covers."""
    for p in (3, 5):
        for lam in range(p):
            for M in (fresh(simple_module(p, 1, lam)), verma_module(p, 1, lam)):
                yield syzygies(M, 4)
    # a projective summand twice: the cover repeats it, and maps through
    # either copy count
    Z, Q = verma_module(3, 1, 1), principal_indecomposable(3, 1, 0)
    yield syzygies(direct_sum([Q, Z, Q]), 4)
    yield [zero_module(Z.algebra), Z]
    yield syzygies(fresh(gacohom.truncated_poly_algebra(3, 2).simples[0]), 4)
    # graded: the summands of P* are duals of shifted covers, not the
    # designated op covers
    for p in (3, 5):
        for lam in range(p):
            yield syzygies(graded_verma_module(p, lam), 3)
            yield syzygies(graded_simple_module(p, lam + 2 * p), 3)
    Z, Q = graded_verma_module(3, 1), graded_principal_indecomposable(3, 0)
    yield syzygies(direct_sum([Q, Z, Q]), 3)
    for p in (3, 5):
        alg = restricted_sl2(p)
        for S, P in zip(alg.simples, alg.projectives):
            P.spin
            yield syzygies(S, 3)
            yield syzygies(P, 1)


def test_stable_hom_through_the_duals_is_the_forward_count(monkeypatch):
    # the source counts Hom(N*, M*) less the rank of the psi* . C^T; it must
    # equal the count of matrices out of a spun copy, into M itself and into
    # its syzygies, whose covers repeat a summand; it spins no source
    for mods in dual_stable_hom_inputs():
        M = mods[0]
        pairs = [(om, M) for om in mods] + [(M, om) for om in mods[1:]]
        expected = [forward_stable_hom_dim(A, B) for A, B in pairs]
        # the covers and the opposite algebra are built; the dual route
        # forms no Hom space as matrices
        opposite_algebra(M.algebra)
        with monkeypatch.context() as m:
            m.setattr(algrep, "hom_space", refuse_hom_space)
            for (A, B), want in zip(pairs, expected):
                spun = "spin" in vars(A)
                assert stable_hom_dim(A, B) == want, (A, B)
                assert ("spin" in vars(A)) == spun and "dual" in vars(A)


def test_stable_hom_dim_matches_the_maps_and_rank_formula_on_the_ub1_modules(monkeypatch):
    p = 3
    mods = [simple_module(p, 1, lam) for lam in range(p)]
    mods += [verma_module(p, 1, lam) for lam in range(p)]
    for M in mods:
        M0 = strip_projectives(M)
        if M0.dim == 0:
            continue
        pairs = [(om, M0) for om in syzygies(M0, 4)] + [(M0, om) for om in syzygies(M0, 2)]
        expected = [reference_stable_hom_dim(A, B) for A, B in pairs]
        assert any(expected)
        # the covers are cached; no Hom space is formed as matrices after that
        with monkeypatch.context() as m:
            m.setattr(algrep, "hom_space", refuse_hom_space)
            assert [stable_hom_dim(A, B) for A, B in pairs] == expected


def test_cover_and_stable_hom_form_no_hom_space_out_of_a_projective(monkeypatch):
    ungraded = [verma_module(3, 1, 0), principal_indecomposable(3, 1, 1)]
    graded = [graded_verma_module(3, 1), graded_principal_indecomposable(3, 0)]
    for alg in (restricted_sl2(3), graded_restricted_sl2(3)):
        warm_projective_tops(alg)
    for Z, Q in (ungraded, graded):
        with without_homs_out_of_projectives(monkeypatch):
            assert projective_cover(Z)[2] and projective_cover(Q)[2]
            assert stable_hom_dim(Q, Z) == 0
            assert stable_hom_dim(Z, Z) == 1
            assert stable_hom_dim(Z, Q) == 0


def test_strip_projectives_reads_each_projective_socle_once(monkeypatch):
    # a fresh copy of u(sl2) at p = 5, so that no socle is known yet, and a
    # spun M, whose top builds no opposite algebra (which reads them all);
    # a strip reads the socle each designated projective keeps, so a
    # socle read before it, or by an earlier strip, is not solved again
    p = 5
    alg = restricted_sl2.__wrapped__(p)
    parts = [verma_module(p, 1, 1), principal_indecomposable(p, 1, 1)]
    parts += [principal_indecomposable(p, 1, 3), simple_module(p, 1, p - 1)]
    M = GenAlgebraModule(alg, direct_sum(parts).action, check=False)
    M.spin
    M.cover  # solved before counting: only the strip's own solves count
    alg.projective_of(3).socle_basis
    calls = record_calls(monkeypatch, "hom_space")
    assert strip_projectives(M).dim == parts[0].dim
    solved = [(A, N) for A, N in calls if is_designated_projective(N)]
    assert solved == [(S, alg.projective_of(idx)) for idx in (1, p - 1) for S in alg.simples]
    assert "op" not in alg.meta
    calls.clear()
    assert strip_projectives(M).dim == parts[0].dim
    assert not [N for _, N in calls if is_designated_projective(N)]


def test_projective_cover_of_trivial_module():
    alg = line_algebra(3)
    P, C, blocks = projective_cover(jordan(alg, 1, graded=False))
    assert P.dim == 3
    assert blocks == [(0, None, 1)]
    assert rank(C) == 1


def test_heller_of_jordan_blocks():
    alg = line_algebra(5)
    for k in range(1, 5):
        om = heller(jordan(alg, k, graded=False))
        assert om.dim == 5 - k
        w = is_isomorphic(om, jordan(alg, 5 - k, graded=False))
        assert w.status == "iso"
        u_om, u_target = om.mat("u"), jordan(alg, 5 - k, graded=False).mat("u")
        assert u_target @ w.witness == w.witness @ u_om
        assert rank(w.witness) == om.dim


def heller_cases():
    """Modules with Omega of every kind: graded and ungraded, over one or
    several simples, a projective among them."""
    alg = line_algebra(5)
    for graded in (True, False):
        yield from (jordan(alg, k, d, graded) for k in (1, 3, 5) for d in (0, 2))
    k = gacohom.trivial_module(3, 2)
    yield from (heller_power(k, i) for i in range(3))
    alg = restricted_sl2(5)
    yield from list(alg.simples) + [heller_power(alg.simples[1], 2)]
    alg = graded_restricted_sl2(5)
    yield from [S.shifted(3) for S in alg.simples] + [graded_verma_module(5, 7)]


def test_heller_reads_the_action_of_omega_off_the_kernel_rows(monkeypatch):
    # the kernel basis of the cover map is the identity on its free rows, so
    # Omega's action is those rows of the moved basis: no rref or inverse
    # once the cover is known, and the module submodule builds on the same
    # basis, byte for byte
    rrefs = record_calls(monkeypatch, "rref")
    inverses = record_calls(monkeypatch, "inverse")
    for M in heller_cases():
        P, C, _ = M.cover
        rrefs.clear()
        inverses.clear()
        omega = heller(M)
        assert rrefs == [] and inverses == []
        expected = submodule(P, _graded_kernel(C, M.degrees, P.degrees))
        assert omega.grading == expected.grading and omega.dim == expected.dim
        for g in M.algebra.gens:
            assert omega.mat(g).a.dtype == expected.mat(g).a.dtype
            assert omega.mat(g).a.tobytes() == expected.mat(g).a.tobytes()


def mixed_cover_cases():
    """Modules whose covers repeat a projective, shifted or not, beside others."""
    yield heller_power(gacohom.trivial_module(5, 2), 3)
    yield direct_sum([simple_module(5, 1, 0), simple_module(5, 1, 2), verma_module(5, 1, 0)])
    graded = [graded_simple_module(5, 0), graded_simple_module(5, 3), graded_simple_module(5, 5)]
    yield direct_sum(graded + [graded_verma_module(5, 1), graded_verma_module(5, 6)])
    yield heller_power(direct_sum([graded_verma_module(5, 2), graded_verma_module(5, 7)]), 2)


def test_heller_acts_summand_by_summand_as_on_the_whole_cover():
    shared, shifted = 0, 0
    for M in mixed_cover_cases():
        P, C, _ = M.cover
        owners = [S._spin_source or S for S in P.summands]
        assert sum(S.dim for S in P.summands) == P.dim and len(owners) > 1
        shared += len(set(owners)) < len(owners)
        shifted += any(S._spin_source is not None and S.graded for S in P.summands)
        omega = heller(M)
        # the same action and grading, with no summands but itself
        whole = GenAlgebraModule(P.algebra, P.action, P.grading, check=False)
        expected = _span_module(whole, *_graded_kernel_and_unit_rows(C, M.degrees, P.degrees))
        assert omega.grading == expected.grading and omega.dim == expected.dim
        for g in M.algebra.gens:
            assert omega.mat(g).a.dtype == expected.mat(g).a.dtype
            assert omega.mat(g).a.tobytes() == expected.mat(g).a.tobytes()
    assert shared == 4 and shifted == 2


def test_direct_sum_keeps_its_summands_flattened():
    alg = line_algebra(5)
    parts = [jordan(alg, 2), jordan(alg, 3, shift=1)]
    inner = direct_sum(parts)
    outer = direct_sum([inner, jordan(alg, 1)])
    assert outer.summands[:2] == tuple(parts) and len(outer.summands) == 3
    assert parts[0].summands == (parts[0],)
    # a regraded copy is its own one summand, as its summands keep their degrees
    for copy_ in (outer.shifted(2), outer.forget_grading()):
        assert copy_.summands == (copy_,)


def slice_macs(a, b):
    """Multiply-adds of one slice of np.matmul(a, b), a 1-D operand as one row or column."""
    m = a.shape[-2] if a.ndim > 1 else 1
    n = b.shape[-1] if b.ndim > 1 else 1
    return m * a.shape[-1] * n


def test_resolution_steps_form_no_threaded_product_in_span_module(monkeypatch):
    # each cover of `cohom --p 7 --r 2 --n 8` is copies of the regular module,
    # so each step forms one stacked product of 49 x 49 actions per slice:
    # one product per distinct action of the cover
    inside, macs, shapes, expected = [], [], [], []
    real_span, real_matmul = algrep._span_module, algrep._exact_matmul

    def span(P, *args):
        for S in {S._spin_source or S for S in P.summands}:
            expected.append((len(P.algebra.gens), 1, S.dim, S.dim))
        inside.append(True)
        try:
            return real_span(P, *args)
        finally:
            inside.pop()

    def matmul(a, b, p):
        if inside:
            macs.append(slice_macs(a, b))
            shapes.append(a.shape)
        return real_matmul(a, b, p)

    monkeypatch.setattr(algrep, "_span_module", span)
    monkeypatch.setattr(algrep, "_exact_matmul", matmul)
    trace = gacohom.minimal_resolution_dims(7, 2, 8)
    assert trace.ext_dims == list(range(1, 10))
    assert len(macs) == 9 and max(macs) < 2**22
    assert shapes == expected == [(2, 1, 49, 49)] * 9


def test_cohom_p7_resolution_forms_every_product_on_the_calling_thread(monkeypatch):
    # its two spin products of about 2^22.4 multiply-adds are formed in
    # blocks, so no np.matmul call is large enough to wake a BLAS helper
    calls = []
    matmul = np.matmul

    def counted(x, y, **kwargs):
        calls.append(slice_macs(x, y))
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(fplinalg.np, "matmul", counted)
    trace = gacohom.minimal_resolution_dims(7, 2, 8)
    monkeypatch.undo()
    assert trace.ext_dims == list(range(1, 10))
    assert calls and max(calls) < fplinalg._SERIAL_MACS


def test_spin_moves_a_level_per_product(monkeypatch):
    # one product per level of the breadth-first pass, and one per generator
    # for the coordinates of the pairs off the tree
    M = heller_power(gacohom.trivial_module(7, 2), 8)
    calls = []
    real_matmul = algrep._exact_matmul

    def matmul(a, b, p):
        calls.append(a.shape)
        return real_matmul(a, b, p)

    monkeypatch.setattr(algrep, "_exact_matmul", matmul)
    spin = algrep.build_spin(M)
    # the level of a column is its root and its depth below that root
    level = {int(t): (int(t), 0) for t in spin.roots}
    for _, parents, kids in spin.levels:
        for parent, kid in zip(parents.tolist(), kids.tolist()):
            root, depth = level[parent]
            level[kid] = (root, depth + 1)
    levels = len(set(level.values()))
    assert len(level) == M.dim == 197 and levels + 2 < M.dim
    assert len(calls) <= levels + len(M.algebra.gens)


def spin_digest(modules) -> str:
    """One blake2b digest over the dimension and every field of the spin of
    each module, in field order; arrays by dtype, shape and bytes."""
    h = hashlib.blake2b(digest_size=16)

    def feed(x):
        if isinstance(x, tuple):
            h.update(b"(%d" % len(x))
            for y in x:
                feed(y)
        elif isinstance(x, str):
            h.update(x.encode())
        else:
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())

    for M in modules:
        h.update(f"{M.algebra.algebra_id};{M.dim};".encode())
        spin = algrep.build_spin(M)
        for f in dataclasses.fields(spin):
            h.update(f.name.encode())
            feed(getattr(spin, f.name))
    return h.hexdigest()


def nonzero_syzygies(M, n):
    return [om for om in syzygies(M, n)[1:] if om.dim]


SPIN_DIGESTS = {
    "omega-1-8-of-k-p5-r2": (
        lambda: nonzero_syzygies(gacohom.trivial_module(5, 2), 8),
        "2030e1681b1515c698becf5a9c742183",
    ),
    "omega-1-4-of-simples-p5": (
        lambda: [om for S in restricted_sl2(5).simples for om in nonzero_syzygies(S, 4)],
        "cc1de8fcb1efa6284af2e8a0bbb87b82",
    ),
    "omega-1-2-of-graded-vermas-p5": (
        lambda: [om for lam in range(5) for om in nonzero_syzygies(graded_verma_module(5, lam), 2)],
        "b3d4fcaf520cb13a43ea1f348484a6a8",
    ),
}


@pytest.mark.parametrize("family", list(SPIN_DIGESTS))
def test_spins_match_pinned_digest(family):
    # pinned before spins reduced by leads and moved a vector by all
    # generators in one product: a spin's basis, tree and coordinates are
    # fixed by the order of the greedy pass, and every solve reads them
    build, digest = SPIN_DIGESTS[family]
    assert spin_digest(build()) == digest


def test_heller_kills_projectives():
    alg = line_algebra(3)
    assert heller(jordan(alg, 3, graded=False)).dim == 0
    assert strip_projectives(direct_sum([jordan(alg, 3), jordan(alg, 1)])).dim == 1


def test_graded_heller_square_shifts_degrees():
    # over F_p[u]/(u^p) with u in degree -1 the square of the Heller operator
    # is the degree shift by -p on the trivial module
    alg = line_algebra(3)
    k0 = jordan(alg, 1, shift=0)
    om1 = heller(k0)
    assert om1.dim == 2 and sorted(om1.grading) == [-2, -1]
    om2 = heller(om1)
    assert om2.dim == 1 and om2.grading == (-3,)
    assert is_isomorphic(om2, jordan(alg, 1, shift=-3)).status == "iso"
    assert is_isomorphic(om2, k0).status == "not_iso"
    assert is_isomorphic(om2.forget_grading(), k0.forget_grading()).status == "iso"


def test_heller_power_inverts():
    alg = line_algebra(5)
    m1 = heller_power(jordan(alg, 1, graded=False), -1)
    assert m1.dim == 4
    back = heller_power(heller_power(jordan(alg, 2, graded=False), 2), -2)
    assert is_isomorphic(back, jordan(alg, 2, graded=False)).status == "iso"


def test_is_projective():
    alg = line_algebra(3)
    assert is_projective(jordan(alg, 3))
    assert not is_projective(jordan(alg, 2))


def test_simple_targets_are_the_shifts_inside_the_degrees_of_the_module():
    # a nonzero M -> S_d is onto and S_d -> M one-to-one, so each compared
    # shift puts S inside M's degrees, and no shift with a nonzero Hom is lost
    for M in (graded_verma_module(3, 0), graded_principal_indecomposable(3, 1)):
        degs = set(M.grading)
        compared = set()
        for idx, S in enumerate(M.algebra.simples):
            for d in _shift_candidates(M, S):
                assert set(S.shifted(d).grading) <= degs
                compared.add((idx, d))
        # a simple is solved, once, exactly when it has a candidate shift
        assert [idx for idx, _ in _simple_targets(M)] == sorted({idx for idx, _ in compared})
        for idx, S in enumerate(M.algebra.simples):
            for d in {dm - ds for dm in degs for ds in S.grading}:
                if hom_space(M, S.shifted(d)) or hom_space(S.shifted(d), M):
                    assert (idx, d) in compared


def graded_simple_map_inputs():
    for p in (3, 5):
        yield from (graded_verma_module(p, lam) for lam in range(-p, 2 * p))
        yield from (graded_principal_indecomposable(p, lam) for lam in range(p))
        yield from syzygies(graded_verma_module(p, 1), 2)[1:]
        yield graded_simple_module(p, 1).shifted(2 * p)
    # the top at shifts 0 and 2; summed the other way round, the solve's
    # basis holds shift 2 first
    alg = line_algebra(3)
    yield direct_sum([jordan(alg, 2), jordan(alg, 2, shift=2)])
    yield direct_sum([jordan(alg, 2, shift=2), jordan(alg, 2)])


def per_shift_maps(M, onto):
    """(simple index, shift, simple, maps) for each shift d of
    `_shift_candidates` with a nonzero Hom(M, S<d>) when `onto`, else
    Hom(S<d>, M): one degree-0 solve per shift."""
    out = []
    for idx, S in enumerate(M.algebra.simples):
        for d in _shift_candidates(M, S):
            maps = hom_space(M, S.shifted(d)) if onto else hom_space(S.shifted(d), M)
            if maps:
                out.append((idx, d, S.shifted(d), maps))
    return out


def test_one_solve_per_simple_is_the_per_shift_solves():
    # the ungraded Hom between a graded M and a simple is the direct sum of
    # the degree-0 Homs with its shifts, and each shift's maps must be
    # exactly its own canonical basis: same entries, order and matrices
    for M in graded_simple_map_inputs():
        for onto in (True, False):
            got = fresh(M).maps_to_simples if onto else fresh(M).maps_from_simples
            want = per_shift_maps(fresh(M), onto)
            assert [(i, d) for i, d, *_ in got] == [(i, d) for i, d, *_ in want]
            for (idx, _, S, maps), (_, _, S_ref, ref) in zip(got, want):
                assert S.grading == S_ref.grading and S._spin_source is M.algebra.simples[idx]
                assert len(maps) == len(ref) and all(a == b for a, b in zip(maps, ref))


def test_graded_top_and_socle_shift_a_simple_only_for_a_nonzero_hom(monkeypatch):
    real = GenAlgebraModule.shifted
    shifted = []

    def recording(M, d):
        shifted.append((M, d))
        return real(M, d)

    monkeypatch.setattr(GenAlgebraModule, "shifted", recording)
    formed = compared = 0
    for M in graded_simple_map_inputs():
        M = fresh(M)
        shifted.clear()
        top(M)
        socle(M)
        found = [*M.maps_to_simples, *M.maps_from_simples]
        assert shifted == [(M.algebra.simples[idx], d) for idx, d, *_ in found]
        formed += len(shifted)
        compared += 2 * sum(len(_shift_candidates(M, S)) for S in M.algebra.simples)
    # most candidate shifts have a zero Hom, and form no copy
    assert 2 * formed < compared


def assert_iso_with_witness(A, B):
    res = is_isomorphic(A, B)
    assert res.status == "iso" and rank(res.witness) == A.dim
    assert all(B.mat(g) @ res.witness == res.witness @ A.mat(g) for g in A.algebra.gens)


@contextlib.contextmanager
def without_meataxe(monkeypatch):
    """Make every MeatAxe call fail inside the block."""

    def refuse(*args, **kwargs):
        raise AssertionError("the Heller path reached the MeatAxe")

    with monkeypatch.context() as m:
        m.setattr(algrep, "meataxe_split", refuse)
        m.setattr(algrep, "meataxe_split_with_bases", refuse)
        yield


def test_heller_path_runs_without_the_meataxe(monkeypatch):
    # the modules of the verma-period, graded-orbit and ub1 suites at p = 3,
    # built before the MeatAxe is taken away (their algebras split PIMs)
    ungraded = [verma_module(3, 1, lam) for lam in range(3)]
    ungraded += [simple_module(3, 1, lam) for lam in range(3)]
    graded = [graded_verma_module(3, lam) for lam in range(2)]
    targets = [graded_verma_module(3, lam + 6) for lam in range(2)]
    with without_meataxe(monkeypatch):
        for M in ungraded + graded:
            stripped = strip_projectives(M)
            om1, om2 = heller(M), heller_power(M, 2)
            assert heller_power(heller_power(M, -2), 2).dim == stripped.dim
            assert heller(om1).dim == om2.dim
            trace = ext_dims(M, 4)
            assert trace.omega_dims[:3] == [stripped.dim, om1.dim, om2.dim]
        # a baby Verma has Heller period 2, and its graded orbit moves by 2p
        assert [heller_power(Z, 2).dim for Z in ungraded[:2]] == [3, 3]
        for Z, target in zip(graded, targets):
            assert sorted(heller_power(Z, 2).grading) == sorted(target.grading)
        # the Steinberg module is projective: nothing is left
        assert strip_projectives(ungraded[-1]).dim == 0
        assert ext_dims(ungraded[-1], 3).omega_dims == [0] * 4


def test_strip_projectives_keeps_the_non_projective_part_of_a_scrambled_sum(monkeypatch):
    p = 5
    rng = np.random.default_rng(11)
    for lam, mu in [(0, 3), (2, 2)]:
        Z = verma_module(p, 1, lam)
        parts = [Z, principal_indecomposable(p, 1, lam), simple_module(p, 1, p - 1)]
        parts.append(principal_indecomposable(p, 1, mu))
        M = conjugate(direct_sum(parts), rng)
        with without_meataxe(monkeypatch):
            stripped, om, om_Z = strip_projectives(M), heller(M), heller(Z)
            assert strip_projectives(parts[1]).dim == 0
        assert_iso_with_witness(stripped, Z)
        assert_iso_with_witness(om, om_Z)


def test_strip_projectives_of_a_graded_sum_with_shifted_summands(monkeypatch):
    alg = line_algebra(3)
    rng = np.random.default_rng(5)
    keep = [jordan(alg, 1, shift=2), jordan(alg, 2, shift=-1), jordan(alg, 2, shift=1)]
    projectives = [jordan(alg, 3, shift=0), jordan(alg, 3, shift=1), jordan(alg, 3, shift=4)]
    interleaved = [keep[0], projectives[0], keep[1], projectives[1], keep[2], projectives[2]]
    M = conjugate(direct_sum(interleaved), rng)
    rest = direct_sum(keep)
    with without_meataxe(monkeypatch):
        stripped, om, om_rest = strip_projectives(M), heller(M), heller(rest)
        assert strip_projectives(direct_sum(projectives)).dim == 0
    assert stripped.graded
    assert_iso_with_witness(stripped, rest)  # the witness has degree 0
    assert_iso_with_witness(om, om_rest)


def test_shifted_module_covers_itself_at_its_own_degrees():
    alg = line_algebra(3)
    M = direct_sum([jordan(alg, 2, shift=1), jordan(alg, 1, shift=-2)])
    P, C, blocks = M.cover  # cached before the shift
    for d in (3, -1):
        Ps, Cs, blocks_s = M.shifted(d).cover
        assert blocks_s == [(idx, s + d, mult) for idx, s, mult in blocks]
        assert Ps.grading == tuple(x + d for x in P.grading)
        assert Cs == C
    assert M.cover[2] == blocks


# ---------------------------------------------------------------------------
# MeatAxe and isomorphism testing


def test_meataxe_splits_scrambled_sum():
    alg = line_algebra(3)
    rng = np.random.default_rng(7)
    M = conjugate(
        direct_sum([jordan(alg, 1), jordan(alg, 2), jordan(alg, 2)]).forget_grading(),
        rng,
    )
    dims = sorted(f.dim for f in meataxe_split(M, rng=0))
    assert dims == [1, 2, 2]
    again = sorted(f.dim for f in meataxe_split(M, rng=0))
    assert dims == again


def test_meataxe_certifies_indecomposable():
    alg = line_algebra(3)
    factors = meataxe_split(jordan(alg, 3, graded=False), rng=0)
    assert len(factors) == 1 and factors[0].dim == 3


def test_semisimple_algebra_behaviour():
    pair = split_pair_algebra(3)
    M = GenAlgebraModule(pair, {"e": fpmat(np.diag([0, 1, 1]), 3)})
    assert sorted(f.dim for f in meataxe_split(M, rng=0)) == [1, 1, 1]
    assert is_projective(M)
    assert heller(M).dim == 0


def test_is_isomorphic_uses_invariants_then_witness():
    alg = line_algebra(3)
    rng = np.random.default_rng(11)
    J2 = jordan(alg, 2, graded=False)
    assert is_isomorphic(J2, direct_sum([jordan(alg, 1), jordan(alg, 1)]).forget_grading()).status == "not_iso"
    scrambled = conjugate(J2, rng)
    res = is_isomorphic(J2, scrambled)
    assert res.status == "iso"
    assert rank(res.witness) == 2
    assert bool(res)


def test_iso_result_refuses_boolean_coercion_when_inconclusive():
    r = IsoResult("inconclusive")
    with pytest.raises(InconclusiveError):
        bool(r)


def test_certified_pair_finds_its_witness_past_a_singular_basis_map():
    # J_2 has a simple top.  N is J_2 with its basis reversed, so the first
    # basis map of Hom(J_2, N) sends the generator of J_2 into the socle of
    # N; the witness is a later basis map
    alg = line_algebra(3)
    J2 = jordan(alg, 2, graded=False)
    N = GenAlgebraModule(alg, {"u": fpmat(np.array([[0, 1], [0, 0]]), 3)})
    maps = hom_space(J2, N)
    assert top(J2) == [(0, 1)]
    assert rank(maps[0]) < 2
    assert_iso_with_witness(J2, N)
    assert rank(is_isomorphic(J2, N).witness - maps[0]) > 0


def test_uncertified_pairs_are_enumerated_up_to_the_limit():
    alg = line_algebra(3)
    rng = np.random.default_rng(5)

    def ungraded_sum(*ks):
        return direct_sum([jordan(alg, k) for k in ks]).forget_grading()

    # J_1 + J_2 has top and socle twice the simple; the 3^5 combinations
    # of its Hom basis are enumerated
    M = ungraded_sum(1, 2)
    assert top(M) == [(0, 2)] and socle(M)[0] == [(0, 2)]
    assert_iso_with_witness(M, conjugate(M, rng))
    # J_1 + J_3 and J_2 + J_2 agree on every invariant, and none of the
    # 3^6 combinations is invertible
    A, B = ungraded_sum(1, 3), ungraded_sum(2, 2)
    assert top(A) == top(B) and socle(A)[0] == socle(B)[0]
    assert len(hom_space(A, B)) == 6
    assert is_isomorphic(A, B).status == "not_iso"
    # End(S^4) has dimension 16, and 3^16 combinations are past the limit
    S4 = ungraded_sum(1, 1, 1, 1)
    assert 3**16 > algrep._ENUM_LIMIT
    res = is_isomorphic(S4, conjugate(S4, rng))
    assert res.status == "inconclusive" and res.witness is None
    with pytest.raises(InconclusiveError):
        bool(res)


def test_verify_suite_isomorphisms_draw_nothing(monkeypatch):
    # the comparisons of verma-period, graded-orbit and meataxe-regular at
    # p = 3 are decided, each "iso" with a checked witness, while every
    # random generator raises; the MeatAxe draws, so it splits first
    p = 3
    factors = meataxe_split(regular_module(p), rng=0)

    def refuse(*args, **kwargs):
        raise AssertionError("the isomorphism test drew at random")

    monkeypatch.setattr(algrep, "_rng_of", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for lam in range(p - 1):
        Z = verma_module(p, 1, lam)
        om1 = heller(Z)
        assert is_isomorphic(om1, Z).status == "not_iso"
        assert_iso_with_witness(heller(om1), Z)
        om2 = heller_power(graded_verma_module(p, lam), 2)
        assert_iso_with_witness(om2, graded_verma_module(p, lam + 2 * p))
    pims = [principal_indecomposable(p, 1, lam) for lam in range(p)]
    matched = []
    for F in factors:
        statuses = [is_isomorphic(F, P).status for P in pims]
        assert statuses.count("iso") == 1 and "inconclusive" not in statuses
        matched.append(statuses.index("iso"))
        assert_iso_with_witness(F, pims[matched[-1]])
    assert sorted(matched) == [0, 1, 1, 2, 2, 2]


# ---------------------------------------------------------------------------
# stable Hom, traces, complexity estimates


def test_stable_endomorphism_dimensions():
    alg = line_algebra(3)
    assert stable_hom_dim(jordan(alg, 1, graded=False), jordan(alg, 1, graded=False)) == 1
    assert stable_hom_dim(jordan(alg, 2, graded=False), jordan(alg, 2, graded=False)) == 1
    assert stable_hom_dim(jordan(alg, 3, graded=False), jordan(alg, 3, graded=False)) == 0


def test_periodic_trace_over_line_algebra():
    alg = line_algebra(3)
    tr = ext_dims(jordan(alg, 1, graded=False), 12)
    assert tr.omega_dims == [1, 2] * 6 + [1]
    assert all(d == 1 for d in tr.ext_dims)
    assert estimate_complexity(tr) == 1
    assert tr.report()["complexity_estimate"] == 1
    with pytest.raises(ValueError, match="cohomological degree must be >= 0"):
        ext_dims(jordan(alg, 1, graded=False), -2)


def test_ext_dims_builds_the_cover_of_its_module_once(monkeypatch):
    alg = line_algebra(3)
    M = jordan(alg, 1, graded=False)
    # stripping M reads the same cached cover as its first step and its stable Homs
    calls = record_calls(monkeypatch, "projective_cover")
    tr = ext_dims(M, 6)
    assert tr.ext_dims == [1] * 7
    assert sum(A is M for (A,) in calls) == 1
    # Omega^2 J_1 = J_1 ends the resolution: the covers of J_1 and Omega J_1
    assert len(calls) == 2
    # dimensions that only grow never repeat: one cover per resolution step
    calls.clear()
    ext_dims(plane_algebra(3).simples[0], 12, with_ext=False)
    assert len(calls) == 12


def full_trace(M, length, with_ext=True):
    """omega_dims and ext_dims of ext_dims(M, length, with_ext), with every
    Heller step and stable Hom formed, each stable Hom counted forward."""
    M0 = strip_projectives(M)
    mods = [M0]
    for _ in range(length):
        mods.append(heller(mods[-1]))
    exts = [forward_stable_hom_dim(X, M0) for X in mods] if with_ext else None
    return [X.dim for X in mods], exts


def test_stopped_trace_is_the_full_trace(monkeypatch):
    # (module, length, with Ext, whether the trace counts stable Homs): a
    # semisimple M0 reads each Ext off a top, and any other M0 counts it
    cases = [(jordan(line_algebra(3), 1, graded=False), 12, True, False)]
    for p in (3, 5):
        for lam in range(p):
            # the Steinberg Verma is projective, and its M0 is zero
            cases += [(simple_module(p, 1, lam), 13, True, False)]
            cases += [(verma_module(p, 1, lam), 13, True, lam < p - 1)]
    cases.append((gacohom.truncated_poly_algebra(3, 2).simples[0], 8, False, False))
    # semisimple, graded and ungraded: a graded simple and a shift of it,
    # a simple twice, two simples, and a simple beside the Steinberg module,
    # which is split off
    S = graded_simple_module(3, 1)
    L = restricted_sl2(3).simples
    cases += [(S, 8, True, False), (S.shifted(6), 8, True, False)]
    cases += [(direct_sum([L[1], L[1]]), 10, True, False), (direct_sum([L[0], L[1]]), 10, True, False)]
    cases += [(direct_sum([L[0], L[2]]), 10, True, False)]
    calls = record_calls(monkeypatch, "stable_hom_dim")
    for M, length, with_ext, counts in cases:
        calls.clear()
        tr = ext_dims(M, length, with_ext)
        assert bool(calls) == counts, M
        assert (tr.omega_dims, tr.ext_dims) == full_trace(M, length, with_ext), M
        assert tr.length == length and tr.module is M


def test_ungraded_trace_spins_no_syzygy_and_adds_no_stage_one_to_the_simples(monkeypatch):
    # a fresh copy of u(sl2) at p = 5, so that no earlier trace has left
    # stage ones on its simples; M0 = S is simple, so each Ext is read off a
    # syzygy's top and no stable Hom is counted.  The top is solved through
    # the syzygy's dual, into that dual, not into a simple.  Only designated
    # modules are spun: S, the covers and their duals
    alg = restricted_sl2.__wrapped__(5)
    designated = {id(M) for A in (alg, opposite_algebra(alg)) for M in [*A.simples, *A.projectives]}
    spins = record_calls(monkeypatch, "build_spin")
    steps = record_calls(monkeypatch, "heller")
    stable = record_calls(monkeypatch, "stable_hom_dim")
    for S in alg.simples[:-1]:  # the last, the Steinberg module, is projective
        strip_projectives(S)  # the top of M0 = S is solved forward, as S is spun
        kept = [len(T._local_kernels) for T in alg.simples]
        spins.clear()
        steps.clear()
        ext_dims(S, 13)
        assert len(steps) == 13
        assert {id(A) for (A,) in spins} <= designated
        assert [len(T._local_kernels) for T in alg.simples] == kept
        assert stable == []
    # the Heller steps of the ub1 suite are those of the forward route
    steps.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "ub1", "--p", "5"]) == 0
    assert len(steps) == 66


def test_ext_dims_stops_at_the_first_syzygy_that_repeats(monkeypatch):
    calls = record_calls(monkeypatch, "heller")
    # Omega^3 Z(lam) has the action of Omega Z(lam)
    for lam in range(4):
        calls.clear()
        tr = ext_dims(verma_module(5, 1, lam), 13)
        assert len(calls) == 3, lam
        assert tr.omega_dims == [5] * 14 and tr.ext_dims == [1] * 14
    # graded, Omega^3 has the matrices of Omega in a grading moved by 2p:
    # a different module, so no step is skipped
    for lam in range(2):
        Z = graded_verma_module(3, lam)
        om1 = heller(Z)
        om3 = heller_power(om1, 2)
        assert all(om3.mat(g) == om1.mat(g) for g in Z.algebra.gens)
        assert om3.grading == tuple(d + 6 for d in om1.grading)
        calls.clear()
        tr = ext_dims(Z, 8)
        assert len(calls) == 8, lam
        assert tr.omega_dims == [3] * 9 and tr.ext_dims == [1] + [0] * 8


def test_module_key_tells_apart_a_shift_and_one_generator():
    Z = graded_verma_module(3, 0)
    assert algrep._module_key(fresh(Z)) == algrep._module_key(Z)
    assert algrep._module_key(Z.shifted(6)) != algrep._module_key(Z)
    assert algrep._module_key(Z.forget_grading()) != algrep._module_key(Z)
    alg = plane_algebra(3)
    n2 = fpmat([[0, 0], [1, 0]], 3)
    M = GenAlgebraModule(alg, {"u0": n2, "u1": zeros(2, 2, 3)})
    N = GenAlgebraModule(alg, {"u0": n2, "u1": n2})
    assert algrep._module_key(M) != algrep._module_key(N)


def test_linear_growth_trace_over_plane_algebra():
    alg = plane_algebra(3)
    triv = alg.simples[0]
    tr = ext_dims(triv, 12, with_ext=False)
    assert tr.omega_dims[:7] == [1, 8, 10, 17, 19, 26, 28]
    # adjacent dims sum to 9 * (n + 1), the rank of the n-th resolution term
    sums = [tr.omega_dims[i] + tr.omega_dims[i + 1] for i in range(12)]
    assert sums == [9 * (n + 1) for n in range(12)]
    assert estimate_complexity(tr) == 2


def test_estimate_complexity_synthetic_inputs():
    class T:
        pass

    assert estimate_complexity([4, 2, 0, 0]) == 0
    assert estimate_complexity([3, 4, 5]) is None  # too short to call
    assert estimate_complexity([7] * 13) == 1
    assert estimate_complexity([(n + 1) for n in range(13)]) == 2
    assert estimate_complexity([(n + 1) ** 2 for n in range(13)]) == 3
    # nearly constant is not constant: the tail never becomes polynomial
    assert estimate_complexity([1000] * 12 + [1001]) is None


# ---------------------------------------------------------------------------
# duality and serialization


def test_double_dual_returns_original_matrices():
    alg = line_algebra(3)
    M = jordan(alg, 2)
    DD = dual_module(dual_module(M))
    assert DD.algebra is alg
    assert DD.mat("u") == M.mat("u")
    assert DD.grading == M.grading


def test_dual_of_projective_is_projective():
    alg = line_algebra(3)
    D = dual_module(jordan(alg, 3))
    assert D.algebra is opposite_algebra(alg)
    assert is_projective(D)


def test_opposite_algebra_matches_covers_by_their_socle(monkeypatch):
    # top(P*) = (soc P)*, so each dualized cover is designated at the index
    # of P's socle, which is solved out of the simples: no Hom is solved out
    # of a dualized cover, and the top of each, computed after, agrees
    algs = [
        restricted_sl2.__wrapped__(3),
        graded_restricted_sl2.__wrapped__(3),
        distribution_sl2.__wrapped__(3, 2),
    ]
    calls = record_calls(monkeypatch, "_hom_kernel")
    ops = [opposite_algebra(alg) for alg in algs]
    sources = [M._spin_source or M for M, _ in calls]
    for alg, op in zip(algs, ops):
        covers = [(idx, Q) for idx, Q in enumerate(op.projectives) if Q is not None]
        assert len(covers) == sum(P is not None for P in alg.projectives)
        assert not any(M is Q for M in sources for _, Q in covers)
        for idx, Q in covers:
            assert [(entry[0], entry[-1]) for entry in top(Q)] == [(idx, 1)]
    # a designated projective whose socle is not simple is refused
    alg = line_algebra(3)
    alg.projectives = [direct_sum([jordan(alg, 3), jordan(alg, 3)])]
    with pytest.raises(RuntimeError, match="no simple socle"):
        opposite_algebra(alg)


def test_module_json_roundtrip():
    alg = line_algebra(3)
    M = jordan(alg, 2, shift=4)
    data = module_to_json(M)
    back = module_from_json(data, alg)
    assert back.mat("u") == M.mat("u")
    assert back.grading == M.grading
    other = plane_algebra(3)
    with pytest.raises(ValueError, match="algebra"):
        module_from_json(data, other)
