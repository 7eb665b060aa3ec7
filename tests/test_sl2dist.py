"""sl2 kernel representation tests, p = 3 scale.

Expected values here were either derived by hand from the defining formulas
(PIM factor lists, graded degree multisets) or frozen from oracle runs that
were cross-checked against closed forms (Heller orbits, regular module
splitting).  The p = 5 versions of the expensive checks live in the
acceptance suite.
"""

import numpy as np
import pytest

from frobkern import algrep, sl2dist
from frobkern.algrep import (
    GenAlgebraModule,
    _degrees_of_columns,
    _shift_candidates,
    composition_factors,
    end_space,
    heller,
    heller_power,
    hom_space,
    is_isomorphic,
    is_projective,
    meataxe_split,
    radical,
    socle,
    top,
)
from frobkern.fplinalg import hstack, identity, kernel_basis, rank, vstack
from frobkern.sl2dist import (
    _pim_ladders,
    _twisted_tensor,
    base_p_digits,
    distribution_sl2,
    frobenius_twist,
    gbinom,
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


def test_generalized_binomial():
    assert gbinom(7, 2, 5) == 21 % 5
    assert gbinom(4, 0, 3) == 1
    assert gbinom(2, 5, 7) == 0
    # binom(-1, k) = (-1)^k
    for k in range(6):
        assert gbinom(-1, k, 5) == pow(-1, k, 5)
    # Lucas: binom(p+1, p) = binom(1,1) binom(1,0) = 1
    assert gbinom(4, 3, 3) == 1


def test_base_p_digits_and_ranges():
    assert base_p_digits(7, 3, 2) == [1, 2]
    with pytest.raises(ValueError):
        base_p_digits(9, 3, 2)
    # every constructor checks its weight against [0, p^r), at every height
    for r in (1, 2):
        for lam in (-1, 3**r):
            for make in (simple_module, principal_indecomposable, heart_module, verma_module):
                with pytest.raises(ValueError, match="outside"):
                    make(3, r, lam)
    # and the height itself, before the weight
    for r in (0, -1):
        for make in (simple_module, principal_indecomposable, heart_module, verma_module):
            with pytest.raises(ValueError, match="height r must be >= 1"):
                make(3, r, 0)


# ---------------------------------------------------------------------------
# simples and Vermas


def test_simple_dimensions():
    assert [simple_module(3, 1, m).dim for m in range(3)] == [1, 2, 3]
    assert [simple_module(3, 2, lam).dim for lam in range(9)] == [1, 2, 3, 2, 4, 6, 3, 6, 9]


def test_simples_are_simple():
    for lam in range(9):
        L = simple_module(3, 2, lam)
        assert top(L) == [(lam, 1)]
        assert socle(L)[0] == [(lam, 1)]


def test_verma_weight_structure():
    Z = verma_module(3, 1, 1)
    assert Z.dim == 3
    assert np.array_equal(np.diag(Z.mat("h").a), [1 % 3, (1 - 2) % 3, (1 - 4) % 3])
    Z2 = verma_module(3, 2, 5)
    h = Z2.mat("e0") @ Z2.mat("f0") - Z2.mat("f0") @ Z2.mat("e0")
    assert np.array_equal(np.diag(h.a), [(5 - 2 * a) % 3 for a in range(9)])


def test_steinberg_verma_is_simple_projective():
    Z = verma_module(3, 2, 8)
    assert is_isomorphic(Z, simple_module(3, 2, 8)).status == "iso"
    Z1 = verma_module(3, 1, 2)
    assert is_projective(Z1)
    assert heller(Z1).dim == 0


def test_verma_composition_factors():
    # dim p Verma: head of weight lam, socle factor of weight p-2-lam
    assert composition_factors(verma_module(3, 1, 0)) == [(0, 1), (1, 1)]
    assert composition_factors(verma_module(3, 1, 1)) == [(0, 1), (1, 1)]
    assert composition_factors(verma_module(3, 1, 2)) == [(2, 1)]


# ---------------------------------------------------------------------------
# projective covers


def test_level_one_projective_covers():
    alg = restricted_sl2(3)
    assert [P.dim for P in alg.projectives] == [6, 6, 3]
    for lam in range(3):
        P = alg.projectives[lam]
        assert top(P) == [(lam, 1)]
        assert socle(P)[0] == [(lam, 1)]
    assert composition_factors(alg.projectives[0]) == [(0, 2), (1, 2)]
    assert composition_factors(alg.projectives[1]) == [(0, 2), (1, 2)]


def _weyl_weights(mu):
    return [mu - 2 * a for a in range(mu + 1)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_graded_projective_degree_multisets(p):
    # Q(lam0) is the tilting module T(2p-2-lam0), with the weights of
    # Delta(2p-2-lam0) and Delta(lam0); the Steinberg module is its own cover
    for lam0 in range(p):
        P = graded_principal_indecomposable(p, lam0)
        if lam0 == p - 1:
            expected = _weyl_weights(p - 1)
        else:
            expected = _weyl_weights(2 * p - 2 - lam0) + _weyl_weights(lam0)
        assert sorted(P.grading) == sorted(expected)
        assert top(P) == [(lam0, 0, 1)]


def test_graded_radical_solves_one_hom_per_simple_and_is_homogeneous(monkeypatch):
    mods = [graded_verma_module(3, lam) for lam in (0, 1, 2, 6)]
    mods += [graded_principal_indecomposable(3, lam) for lam in range(3)]
    real = algrep.hom_space
    calls = []

    def recording(A, B):
        calls.append((A, B))
        return real(A, B)

    for M in mods:
        # a copy with nothing cached, as earlier tests may have read its top
        M = GenAlgebraModule(M.algebra, M.action, M.grading, check=False)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(algrep, "hom_space", recording)
            rad = radical(M)
        # one solve out of M, graded, into each simple with a candidate
        # shift, ungraded: every shift of the simple in one solve
        simples = [S for S in M.algebra.simples if _shift_candidates(M, S)]
        assert [A for A, _ in calls] == [M] * len(simples)
        assert [B._spin_source for _, B in calls] == simples
        assert not any(B.graded for _, B in calls)
        _degrees_of_columns(rad, M.grading)  # raises unless every column is homogeneous
        # reference: the kernel of the ungraded maps onto simples
        Mu = M.forget_grading()
        maps = [phi for S in M.algebra.simples for phi in hom_space(Mu, S.forget_grading())]
        ref = kernel_basis(vstack(maps))
        assert rank(rad) == rank(ref) == rank(hstack([rad, ref]))


def test_second_kernel_projectives_exist_for_steinberg_twist_family():
    alg = distribution_sl2(3, 2)
    available = [i for i, P in enumerate(alg.projectives) if P is not None]
    assert available == [6, 7, 8]
    assert alg.projectives[6].dim == 18
    assert alg.projectives[7].dim == 18
    assert alg.projectives[8].dim == 9
    assert top(alg.projectives[6]) == [(6, 1)]
    with pytest.raises(ValueError):
        principal_indecomposable(3, 2, 3)


def test_second_kernel_projectivity_via_hom_multiplicities():
    # Hom(P(lam), M) must have the composition multiplicity of L(lam) as its
    # dimension; check against every level-two Verma
    P6 = principal_indecomposable(3, 2, 6)
    for mu in range(9):
        Z = verma_module(3, 2, mu)
        mult = dict(composition_factors(Z)).get(6, 0)
        assert len(hom_space(P6, Z)) == mult


def test_twisted_tensor_of_level_one_covers_is_the_cover_at_every_weight():
    # Q_2(lam0 + p lam1) = Q_1(lam0) tensor Q_1(lam1)^[1].  A module with top
    # L(lam) is a quotient of the cover of L(lam), so the dimension sum
    # sum_lam dim L(lam) dim Q(lam) = p^6 = dim Dist(G_2) proves each is the cover
    p = 3
    alg = distribution_sl2(p, 2)
    pims = _pim_ladders(p)
    total = 0
    for lam in range(p**2):
        Q = _twisted_tensor(alg, [pims[d] for d in base_p_digits(lam, p, 2)])
        assert alg.relation_checker(Q.action, p) == []
        assert top(Q) == [(lam, 1)]
        assert socle(Q)[0] == [(lam, 1)]
        designated = alg.projectives[lam]
        if designated is not None:
            assert all(Q.mat(g) == designated.mat(g) for g in alg.gens)
        total += alg.simples[lam].dim * Q.dim
    assert total == p**6


def test_height_two_verma_syzygies_with_every_cover(monkeypatch):
    # the oracle side of the height-two Verma period at p = 3.  The formula
    # layer gives period 6 to the depth-1 weight 0 and period 2 to the
    # depth-2 weight 2.  With all nine covers of Dist(G_2) installed, the
    # syzygies of Z_2(0) grow, while those of Z_2(2) keep dimension 9 and
    # the second one is Z_2(2) again
    p = 3
    alg = distribution_sl2(p, 2)
    pims = _pim_ladders(p)
    digits = [base_p_digits(lam, p, 2) for lam in range(p**2)]
    covers = [_twisted_tensor(alg, [pims[d] for d in ds]) for ds in digits]
    monkeypatch.setattr(alg, "projectives", covers)
    for lam, dims in ((0, [27, 45, 45, 63]), (2, [9, 9, 9, 9])):
        Z = verma_module(p, 2, lam)
        syzygies = [heller(Z)]
        for _ in range(3):
            syzygies.append(heller(syzygies[-1]))
        assert [om.dim for om in syzygies] == dims, lam
    # Z and its syzygies are now those of the depth-2 weight
    assert is_isomorphic(syzygies[1], Z).status == "iso"


def test_dist_checker_reports_each_broken_relation():
    # a Dist(G_2) cover at p = 3 with generators altered: each alteration
    # breaks exactly the relations listed, reported in the checker's order
    p = 3
    X = distribution_sl2(p, 2).projective_of(p * p - 2)
    a, one = dict(X.action), identity(X.dim, p)
    h_f1 = "[e0, f1] != (-1)^1 f^(p^1-1) (h+1)"
    e1_h = "[e1, f0] != (-1)^1 (h+1) e^(p^1-1)"
    cases = [
        ({}, []),
        ({"e0": a["e0"] + one}, ["e0^p != 0", "[h,e0] != 2 e0", e1_h]),
        ({"f0": a["f0"] + one}, ["f0^p != 0", "[h,f0] != -2 f0", h_f1]),
        ({"f0": a["f0"].scale(2)}, ["[h,e0] != 2 e0", "[h,f0] != -2 f0", h_f1, e1_h]),
        ({"e1": a["e1"] + one}, ["e1^p != 0"]),
        ({"f1": a["f1"] + one}, ["f1^p != 0"]),
        ({"e1": a["e1"].scale(2)}, [e1_h]),
        ({"f1": a["e1"]}, ["[f0,f1] != 0", h_f1]),
        ({"e1": a["e0"]}, ["h does not commute with level 1", e1_h]),
        ({"e0": a["f0"], "f0": a["e0"]}, ["[e0,e1] != 0", "[f0,f1] != 0", h_f1, e1_h]),
    ]
    checker = sl2dist._dist_checker(2)
    for change, messages in cases:
        assert checker({**a, **change}, p) == messages


def test_pim_ladder_carries_divided_powers():
    for p in (3, 5):
        alg2 = distribution_sl2(p, 2)
        for lam0 in range(p - 1):
            lad = _pim_ladders(p)[lam0]
            e, f = lad.e_pows, lad.f_pows
            for k in range(p):
                assert e[1] @ e[k] == e[k + 1].scale(k + 1)
                assert f[1] @ f[k] == f[k + 1].scale(k + 1)
            assert e[1] @ f[1] - f[1] @ e[1] == lad.h
            carrier = {"e0": e[1], "f0": f[1], "e1": e[p], "f1": f[p]}
            assert alg2.relation_checker(carrier, p) == []
            assert top(GenAlgebraModule(alg2, carrier)) == [(lam0, 1)]


def test_algebra_setup_makes_no_random_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("algebra set-up ran the MeatAxe or drew at random")

    monkeypatch.setattr(algrep, "_fitting_split", refuse)
    monkeypatch.setattr(algrep, "_rng_of", refuse)
    # the level-one covers are certified over one u(sl2) per prime, so the
    # three algebras below make three level-one algebras in all
    level_one = sl2dist._level_one_algebra
    built = []

    def counting(p, graded):
        built.append(p)
        return level_one(p, graded)

    monkeypatch.setattr(sl2dist, "_level_one_algebra", counting)
    for p in (3, 5):
        _pim_ladders.cache_clear()
        fresh = (
            restricted_sl2.__wrapped__(p),
            graded_restricted_sl2.__wrapped__(p),
            distribution_sl2.__wrapped__(p, 2),
        )
        assert built.count(p) == 3
        for alg in fresh:
            q = p ** alg.meta["r"]
            for lam, P in enumerate(alg.projectives):
                if P is None:
                    continue
                assert P.dim == (q if lam == q - 1 else 2 * q)
                simple_top = [(lam, 0, 1)] if P.graded else [(lam, 1)]
                assert top(P) == simple_top
                assert socle(P)[0] == simple_top


# ---------------------------------------------------------------------------
# hearts


def test_heart_factors_and_structure():
    H6 = heart_module(3, 2, 6)
    assert H6.dim == 12
    assert composition_factors(H6) == [(1, 2), (4, 2)]
    assert len(meataxe_split(H6, rng=0)) == 1
    assert socle(H6)[0] == [(4, 1)]
    H7 = heart_module(3, 2, 7)
    assert H7.dim == 6
    assert composition_factors(H7) == [(0, 2), (3, 2)]
    assert len(meataxe_split(H7, rng=0)) == 1
    assert socle(H7)[0] == [(3, 1)]


def test_heart_of_simple_projective_raises():
    with pytest.raises(ValueError, match="no heart"):
        heart_module(3, 1, 2)
    with pytest.raises(ValueError, match="no heart"):
        heart_module(3, 2, 8)


# ---------------------------------------------------------------------------
# Heller orbits


def test_graded_heller_orbit_level_one():
    Z0 = graded_verma_module(3, 0)
    om1 = heller(Z0)
    assert is_isomorphic(om1, graded_verma_module(3, 4)).status == "iso"
    om2 = heller(om1)
    assert is_isomorphic(om2, graded_verma_module(3, 6)).status == "iso"
    assert is_isomorphic(om2, Z0).status == "not_iso"


def test_ungraded_heller_period_two():
    for lam in (0, 1):
        Z = verma_module(3, 1, lam)
        assert is_isomorphic(heller(Z), Z).status == "not_iso"
        assert is_isomorphic(heller_power(Z, 2), Z).status == "iso"


def test_graded_degrees_keep_weight_parity():
    Z = graded_verma_module(3, 1)
    current = Z
    for _ in range(3):
        current = heller(current)
        assert all((d - 1) % 2 == 0 for d in current.grading)


# ---------------------------------------------------------------------------
# regular module and twists


def test_regular_module_end_dimension():
    reg = regular_module(3)
    assert reg.dim == 27
    assert len(end_space(reg)) == 27


def test_regular_module_splits_into_projectives():
    reg = regular_module(3)
    dims = sorted(f.dim for f in meataxe_split(reg, rng=0))
    assert dims == [3, 3, 3, 6, 6, 6]


def test_frobenius_twist():
    L1 = simple_module(3, 1, 1)
    T = frobenius_twist(L1, 1)
    assert T.algebra.algebra_id == "dist-sl2-p3-r2"
    assert is_isomorphic(T, simple_module(3, 2, 3)).status == "iso"
    with pytest.raises(ValueError):
        frobenius_twist(graded_simple_module(3, 1), 1)


def test_graded_simple_shifts():
    L7 = graded_simple_module(3, 7)
    assert sorted(L7.grading) == [5, 7]
    assert top(L7) == [(1, 6, 1)]
