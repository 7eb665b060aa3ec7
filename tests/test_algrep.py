"""Engine tests over small truncated polynomial algebras.

F_p[u]/(u^p) has Jordan blocks J_1..J_p as its indecomposables, with known
Hom dimensions, Heller images Omega(J_k) = J_{p-k}, and stable endomorphism
dimensions, so every operation can be checked against closed answers.  The
two-variable analogue provides a complexity-two growth profile.  Graded Hom
spaces and the per-module spin are also checked on graded u(sl2) modules.
"""

import math

import numpy as np
import pytest

from frobkern import algrep, gacohom
from frobkern.algrep import (
    GenAlgebra,
    GenAlgebraModule,
    IsoResult,
    InconclusiveError,
    _graded_kernel,
    _simple_targets,
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
    graded_principal_indecomposable,
    graded_simple_module,
    graded_verma_module,
    principal_indecomposable,
    regular_module,
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


def record_calls(monkeypatch, name):
    """Wrap algrep.<name> so that the arguments of every call are recorded."""
    calls = []
    real = getattr(algrep, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algrep, name, recording)
    return calls


def conjugate(M, rng):
    """Same module in a scrambled basis (ungraded)."""
    p = M.algebra.p
    n = M.dim
    while True:
        g = fpmat(rng.integers(0, p, size=(n, n)), p)
        if rank(g) == n:
            break
    from frobkern.fplinalg import inverse

    gi = inverse(g)
    action = {name: gi @ M.mat(name) @ g for name in M.algebra.gens}
    return GenAlgebraModule(M.algebra, action, None)


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


def test_hom_between_regular_module_and_syzygy_matches_commutant_oracle():
    reg = gacohom.regular_module(5, 2)
    k = gacohom.trivial_module(5, 2)
    omega2 = heller_power(k, 2, rng=0)
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
    # so it maps to no other projective indecomposable: Hom(L(4), P(0)) = 0
    S, M = simple_module(5, 1, 4), principal_indecomposable(5, 1, 0)
    fed = []
    real_add = Echelon.add

    def add(self, block):
        before = self.rank
        real_add(self, block)
        fed.append((before, math.prod(block.shape[:-1]), self.rank))

    monkeypatch.setattr(Echelon, "add", add)
    assert hom_space(S, M) == []
    unknowns = S.spin.gen_pos.size * M.dim
    assert all(before < unknowns for before, _, _ in fed)
    assert fed[-1][2] == unknowns
    # the blocks end before the last of the pairs, each giving dim M equations
    assert sum(rows for _, rows, _ in fed) < M.dim * sum(ts.size for _, ts in S.spin.pairs)


def test_top_radical_and_cover_spin_the_module_once(monkeypatch):
    M = regular_module(3)
    calls = record_calls(monkeypatch, "generating_set")
    top(M)
    radical(M)
    projective_cover(M)
    assert sum(A is M for (A,) in calls) == 1


def test_simple_homs_are_solved_once_per_module(monkeypatch):
    M = regular_module(3)
    simples = [id(S) for S in M.algebra.simples]
    calls = record_calls(monkeypatch, "hom_space")
    # composition_factors starts from socle(M)
    composition_factors(M)
    socle(M)
    assert [id(A) for A, N in calls if N is M] == simples
    for _ in range(2):
        top(M)
        radical(M)
        projective_cover(M)
    assert [id(N) for A, N in calls if A is M] == simples


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
    solved = [N.grading for A, N in calls if A is Pcan]
    assert solved == [S.grading for _, _, S in _simple_targets(Pcan)]


def test_shifts_of_a_simple_share_its_spin(monkeypatch):
    # top and socle compare a graded module with each simple at every shift
    # that meets its degrees; a shift relabels degrees only, so the simple is
    # spun once, however many shifts there are
    calls = record_calls(monkeypatch, "generating_set")
    alg = line_algebra(3)  # designating the simple spins it
    (S,) = alg.simples
    P = alg.projective_of(0)
    top(P)
    socle(P)
    assert len(list(_simple_targets(P))) == 3
    assert [id(A) for (A,) in calls] == [id(S), id(P)]

    P = graded_principal_indecomposable(3, 0)
    P = GenAlgebraModule(P.algebra, P.action, P.grading, check=False)  # nothing cached
    simples = [id(S) for S in P.algebra.simples]
    calls.clear()
    top(P)
    socle(P)
    assert len(list(_simple_targets(P))) > len(simples)
    spun = [id(A) for (A,) in calls if A is not P]
    assert len(set(spun)) == len(spun) and set(spun) <= set(simples)


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
    # an entry from degree 1 to degree 0 is not a degree-0 map
    with pytest.raises(ValueError, match="degrees"):
        _graded_kernel(fpmat([[0, 1], [0, 0]], p), [0, 1], [0, 1])


# ---------------------------------------------------------------------------
# projective covers and Heller


def test_projective_cover_solves_each_hom_to_a_simple_once(monkeypatch):
    alg = line_algebra(3)
    pair = split_pair_algebra(3)
    mods = [
        jordan(alg, 2, graded=False),
        jordan(alg, 2),
        GenAlgebraModule(pair, {"e": fpmat(np.diag([0, 1, 1]), 3)}),
    ]
    calls = record_calls(monkeypatch, "hom_space")
    for M in mods:
        calls.clear()
        projective_cover(M)
        solved = [N.grading for A, N in calls if A is M]
        assert solved == [S.grading for _, _, S in _simple_targets(M)]


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


def test_ext_dims_builds_the_cover_of_its_module_once(monkeypatch):
    alg = line_algebra(3)
    M = jordan(alg, 1, graded=False)
    # M has no projective summand; stripping would test that with a cover of its own
    monkeypatch.setattr(algrep, "strip_projectives", lambda N, rng=None: N)
    calls = record_calls(monkeypatch, "projective_cover")
    tr = ext_dims(M, 6)
    assert tr.ext_dims == [1] * 7
    assert sum(A is M for (A,) in calls) == 1
    assert len(calls) == 6  # one cover per resolution step


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
