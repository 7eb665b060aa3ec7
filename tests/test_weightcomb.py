"""Combinatorial layer: formulas, hypothesis guards, and the point-count
evidence behind the complexity digit rule."""

import itertools
import math

import pytest

from frobkern.algrep import InconclusiveError, ext_dims
from frobkern.gacohom import trivial_module
from frobkern.weightcomb import (
    BlockId,
    HypothesisError,
    RootDatum,
    all_blocks,
    block_members,
    block_of,
    classify_block_type,
    classify_component,
    depth,
    heart_weights,
    heller_orbit_verma,
    morita_weight_map,
    psi_s,
    simple_complexity,
    simple_dim,
    sl2_root_datum,
    steinberg_ph,
    ub1_bound_check,
    verma_period,
    verma_projective_height,
)


def sl3_root_datum(p):
    # fundamental-weight coordinates: alpha_1 = (2,-1), alpha_2 = (-1,2)
    return RootDatum(2, ((2, -1), (-1, 2)), ((1, 0), (0, 1)), p)


def test_root_datum_validation():
    rd = sl2_root_datum(3)
    assert rd.rho == (1,)
    assert set(rd.roots) == {((2,), (1,)), ((-2,), (-1,))}
    with pytest.raises(ValueError):
        RootDatum(1, ((2,),), ((2,),), 3)  # diagonal pairing 4
    with pytest.raises(ValueError):
        RootDatum(1, ((2,),), ((1,),), 4)  # p not prime


def test_rank_two_closure_and_depth():
    rd = sl3_root_datum(3)
    assert len(rd.roots) == 6
    roots = {r for r, _ in rd.roots}
    assert (1, 1) in roots and (-1, -1) in roots
    assert depth(rd, (0, 0)) == 1
    # lam + rho = (3, 3): every pairing 3, 3, 6 is divisible by 3 once
    assert depth(rd, (2, 2)) == 2


def test_psi_s_examples():
    rd = sl2_root_datum(3)
    assert psi_s(rd, 5, 0) == tuple(r for r, _ in rd.roots)
    assert len(psi_s(rd, 5, 1)) == 2  # 6 in 3Z
    assert psi_s(rd, 5, 2) == ()  # 6 not in 9Z


def test_depth_rank_one():
    rd = sl2_root_datum(3)
    assert depth(rd, 0) == 1
    assert depth(rd, 5) == 2
    assert depth(rd, 8) == 3
    assert depth(rd, -1) == math.inf


def test_verma_projective_height():
    rd = sl2_root_datum(3)
    assert verma_projective_height(rd, 0, 2) == 1
    assert verma_projective_height(rd, 5, 2) == 2
    assert verma_projective_height(rd, 2, 1) == "projective"


def test_hypothesis_flags_refuse():
    import dataclasses

    rd = dataclasses.replace(sl2_root_datum(3), good_prime=False)
    with pytest.raises(HypothesisError) as exc:
        verma_projective_height(rd, 0, 1)
    assert "good_prime" in exc.value.hypotheses


def test_verma_period():
    rd3, rd5 = sl2_root_datum(3), sl2_root_datum(5)
    assert verma_period(rd3, 0, 1) == 2
    assert verma_period(rd3, 0, 2) == 6
    assert verma_period(rd3, 5, 2) == 2
    assert verma_period(rd5, 4, 2) == 2  # 4+1 = 5, depth 2
    with pytest.raises(HypothesisError):
        verma_period(rd3, 8, 2)  # Steinberg weight, projective


def test_heller_orbit_formula():
    rd = sl2_root_datum(3)
    assert heller_orbit_verma(rd, 0, 1, 1) == 6
    assert heller_orbit_verma(rd, 0, 1, 0) == 0
    assert heller_orbit_verma(rd, 1, 1, -1) == -5
    with pytest.raises(HypothesisError):
        heller_orbit_verma(rd, 2, 1, 1)  # depth 2 != 1
    with pytest.raises(HypothesisError):
        heller_orbit_verma(rd, 0, 2, 1)  # depth 1 != 2
    # orbit weights never move mod p^r: distinct restricted weights
    # cannot share an orbit
    for lam in (0, 1, 5):
        r = depth(rd, lam)
        for n in (-2, -1, 1, 2):
            assert heller_orbit_verma(rd, lam, r, n) % 3**r == lam % 3**r


def test_steinberg_ph():
    assert steinberg_ph(0, 1) == 1
    assert steinberg_ph(1, 2) == 2
    with pytest.raises(ValueError):
        steinberg_ph(2, 2)


# ---------------------------------------------------------------------------
# blocks


def test_block_membership_examples():
    assert block_members(3, 2, BlockId(3, 2, "regular", i=0, s=0)) == [0, 1, 3, 4, 6, 7]
    assert block_members(3, 2, BlockId(3, 2, "regular", i=0, s=1)) == [2, 5]
    assert block_members(3, 2, BlockId(3, 2, "steinberg")) == [8]
    b5 = block_of(3, 2, 5)
    assert (b5.kind, b5.i, b5.s) == ("regular", 0, 1)
    assert block_of(3, 2, 8).kind == "steinberg"


def test_block_members_past_the_bound_are_refused_without_forming_the_count():
    # 2 * 1021 members at s = 1, and 2 * 1021^2 > 2^20 at s = 0
    assert len(block_members(1021, 3, BlockId(1021, 3, "regular", i=5, s=1))) == 2042
    for p, r in [(1021, 3), (3, 13), (3, 10**12)]:
        with pytest.raises(ValueError, match="the most it lists"):
            block_members(p, r, BlockId(p, r, "regular", i=0, s=0))


@pytest.mark.parametrize("r", [0, -1])
def test_block_and_simple_formulas_refuse_a_height_below_one(r):
    # weight 0 lies in [0, p^r) for r = 0 and r = -1 too, and read as the
    # empty digit string it gave a Steinberg block with complexity 0
    calls = [
        lambda: simple_complexity(3, r, 0),
        lambda: block_of(3, r, 0),
        lambda: simple_dim(3, r, 0),
        lambda: all_blocks(3, r),
        lambda: BlockId(3, r, "steinberg"),
        # a depth HypothesisError at r = 0, where a bad height is meant
        lambda: heller_orbit_verma(sl2_root_datum(3), 0, r, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="height r must be >= 1"):
            call()


def test_blocks_partition():
    for p, r in ((3, 1), (3, 2), (5, 1), (5, 2)):
        seen = []
        for block in all_blocks(p, r):
            members = block_members(p, r, block)
            if block.kind == "regular":
                assert len(members) == 2 * p ** (r - 1 - block.s)
            seen.extend(members)
        assert sorted(seen) == list(range(p**r))
        for lam in range(p**r):
            assert lam in block_members(p, r, block_of(p, r, lam))


def test_block_id_validation():
    with pytest.raises(ValueError):
        BlockId(3, 2, "regular", i=1, s=0)  # i > (p-3)/2
    with pytest.raises(ValueError):
        BlockId(3, 2, "regular", i=0, s=2)
    with pytest.raises(ValueError):
        BlockId(3, 2, "steinberg", i=0, s=0)


def test_formulas_refuse_a_modulus_that_is_not_an_odd_prime():
    for call in (
        lambda: block_of(9, 2, 4),
        lambda: simple_complexity(9, 2, 3),
        lambda: all_blocks(4, 1),
        lambda: classify_component("G_r", "complexity-1", p=9, s=1),
    ):
        with pytest.raises(ValueError, match="odd prime"):
            call()


def test_morita_weight_map():
    assert morita_weight_map(3, 2, 0, 4) == 4
    assert morita_weight_map(3, 2, 1, 0) == 2
    assert simple_dim(3, 2, 2) == 3
    # dimension law: the equivalence multiplies dimensions by p^s
    for p, r, s in ((3, 2, 1), (5, 2, 1), (3, 3, 2)):
        for n in range(p ** (r - s)):
            assert simple_dim(p, r, morita_weight_map(p, r, s, n)) == p**s * simple_dim(
                p, r - s, n
            )


# ---------------------------------------------------------------------------
# complexity digit rule


def test_simple_complexity_examples():
    assert simple_complexity(3, 2, 8) == 0
    assert simple_complexity(3, 2, 5) == 2
    assert simple_complexity(3, 2, 4) == 3
    assert [simple_complexity(3, 1, m) for m in range(3)] == [2, 2, 0]


def test_complexity_two_locus_matches_block_lists():
    # within each lowest-level block the complexity-2 simples are exactly
    # the pair p^r - p + i, p^r - 2 - i
    for p, r in ((3, 2), (5, 2), (3, 3)):
        for i in range((p - 1) // 2):
            block = BlockId(p, r, "regular", i=i, s=0)
            locus = {
                lam
                for lam in block_members(p, r, block)
                if simple_complexity(p, r, lam) == 2
            }
            assert locus == {p**r - p + i, p**r - 2 - i}


def _gf(q):
    # tiny finite field: element list, add, mul, zero
    if q == 3:
        els = list(range(3))
        add = lambda a, b: (a + b) % 3
        mul = lambda a, b: (a * b) % 3
        return els, add, mul, 0
    if q == 9:
        # F_3[t]/(t^2+1), elements (a, b) = a + bt
        els = [(a, b) for a in range(3) for b in range(3)]
        add = lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3)
        mul = lambda x, y: (
            (x[0] * y[0] - x[1] * y[1]) % 3,
            (x[0] * y[1] + x[1] * y[0]) % 3,
        )
        return els, add, mul, (0, 0)
    raise ValueError(q)


def test_commuting_nilpotent_point_counts():
    # evidence for the digit rule: the variety of m-tuples of commuting
    # nilpotents in sl_2 has 1 + (q+1)(q^m - 1) points over F_q, so its
    # dimension is m + 1; checked over F_3 and F_9 before the rule is
    # trusted.  Elements (a, b, c) stand for [[a, b], [c, -a]]; square
    # zero means a^2 + bc = 0 and [x, y] = 0 reduces to the three minors
    # bf - ce, ae - bd, cd - af vanishing.
    for q in (3, 9):
        els, add, mul, zero = _gf(q)
        neg = lambda x: ((-x[0]) % 3, (-x[1]) % 3) if isinstance(x, tuple) else (-x) % 3
        nil = [
            (a, b, c)
            for a in els
            for b in els
            for c in els
            if add(mul(a, a), mul(b, c)) == zero
        ]
        assert len(nil) == q**2  # the nilpotent cone itself

        def commute(x, y):
            (a, b, c), (d, e, f) = x, y
            return all(
                add(mul(u, v), neg(mul(w, z))) == zero
                for u, v, w, z in ((b, f, c, e), (a, e, b, d), (c, d, a, f))
            )

        for m in (1, 2):
            count = sum(
                1
                for tup in itertools.product(nil, repeat=m)
                if all(commute(x, y) for x, y in itertools.combinations(tup, 2))
            )
            assert count == 1 + (q + 1) * (q**m - 1)


# ---------------------------------------------------------------------------
# hearts, block types, components


def test_heart_weights():
    assert heart_weights(3, 2, 6) == (1, 4)
    assert heart_weights(3, 2, 7) == (0, 3)
    assert heart_weights(5, 2, 20) == (3, 18)
    assert heart_weights(3, 3, 24) == (1, 10, 22)
    with pytest.raises(ValueError):
        heart_weights(3, 2, 3)  # digits (0, 1): not in the family
    with pytest.raises(ValueError):
        heart_weights(3, 1, 0)


def test_classify_block_type():
    assert classify_block_type(3, 1, BlockId(3, 1, "regular", i=0, s=0)) == "tame"
    assert classify_block_type(3, 2, BlockId(3, 2, "regular", i=0, s=1)) == "tame"
    assert classify_block_type(3, 2, BlockId(3, 2, "regular", i=0, s=0)) == "wild"
    assert classify_block_type(3, 2, BlockId(3, 2, "steinberg")) == "finite"


def test_classify_component():
    assert classify_component("G_r", "complexity-1", p=3, s=1) == ("Z[A_inf]/tau^3",)
    assert classify_component("G_rT", "generic") == (
        "Z[A_inf]",
        "Z[A_inf^inf]",
        "Z[D_inf]",
    )
    assert classify_component("G_r", "simple-cx2", r=1) == ("Z[A~_12]",)
    assert classify_component("G_r", "simple-cx2", r=2) == ("Z[A_inf]", "Z[A~_12]")
    assert classify_component("G_rT", "simple-cx2") == ("Z[A_inf]", "Z[A_inf^inf]")
    assert classify_component("G_rT", "verma") == ("Z[A_inf]",)
    # the third shape's occurrence is open: never excluded from generic
    assert "Z[D_inf]" in classify_component("G_rT", "generic")
    with pytest.raises(ValueError):
        classify_component("G_rT", "complexity-1", p=3, s=0)
    for r in (None, 2):
        with pytest.raises(ValueError, match="tube rank exponent"):
            classify_component("G_r", "complexity-1", p=3, r=r, s=-1)
    with pytest.raises(ValueError):
        classify_component("G_r", "generic")
    with pytest.raises(ValueError):
        classify_component("G_r", "verma")


# ---------------------------------------------------------------------------
# oracle cross-checks of the closed forms


def test_depth_matches_oracle_projectivity():
    from frobkern.algrep import heller, is_projective
    from frobkern.sl2dist import verma_module

    rd = sl2_root_datum(3)
    for lam in range(3):
        Z = verma_module(3, 1, lam)
        assert is_projective(Z) == (depth(rd, lam) > 1)
    assert heller(verma_module(3, 1, 2)).dim == 0


def test_heller_translates_raise_weights():
    # graded syzygies of a baby Verma only involve composition factors
    # of strictly larger weight
    from frobkern.algrep import heller_power, quotient, socle
    from frobkern.sl2dist import graded_verma_module

    def factor_weights(M):
        out = []
        current = M
        while current.dim:
            structure, basis = socle(current)
            for idx, shift, mult in structure:
                out.extend([idx + shift] * mult)
            current, _ = quotient(current, basis)
        return out

    for lam in (0, 1):
        Z = graded_verma_module(3, lam)
        for m in (1, 2):
            M = heller_power(Z, 2 * m)
            weights = factor_weights(M)
            assert weights and all(w > lam for w in weights)


# ---------------------------------------------------------------------------
# self-extension bound report


def test_ub1_bound_check_on_uniserial_trace():
    trace = ext_dims(trivial_module(3, 1), 14)
    report = ub1_bound_check(trace, 1, 1)
    assert report["degree"] == 2
    assert report["complexity_estimate"] == 1
    assert report["ext_dim_at_degree"] == 1
    assert report["inequality_holds"]
    with pytest.raises(ValueError):
        ub1_bound_check(trace, 2, 3)  # degree 18 beyond the trace
