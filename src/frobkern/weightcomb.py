"""Closed-form weight combinatorics for Frobenius kernels.

Root-datum arithmetic (depth, the root subsets cut out by p-power
congruences), baby Verma projective heights and periods, graded Heller
orbits, the block partition of restricted weights for SL(2) kernels,
complexity digit rules, heart composition-factor weights, Morita weight
maps, and block-type / AR-component classification.  Everything here is
a formula evaluator: exact integer arithmetic, no representation theory
is computed.  The oracle layer (sl2dist, gacohom over algrep) exists to
check these formulas at small scale; tests and the verify suites do the
comparing.

Theorem-backed operations carry hypothesis flags and refuse, with the
failed hypotheses named, rather than extrapolate outside them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import base_p_digits, check_height, check_odd_prime, power_exceeds
from .algrep import InconclusiveError, ResolutionTrace, estimate_complexity
from .gacohom import MAX_TUPLES

Weight = Union[int, Sequence[int]]


class HypothesisError(ValueError):
    """Raised when a theorem-backed operation is called outside its
    stated hypotheses; carries the names of the failed ones."""

    def __init__(self, hypotheses: Sequence[str], detail: str = ""):
        self.hypotheses = list(hypotheses)
        msg = "unsatisfied hypotheses: " + ", ".join(self.hypotheses)
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _vp(n: int, p: int) -> int:
    # p-adic valuation of a nonzero integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class RootDatum:
    """Root datum in fundamental-weight coordinates.

    Weights are integer vectors of length `rank` with <lam, alpha_i^vee>
    = lam_i for the i-th simple coroot; coroots are stored as the dual
    functionals, so pairings are plain dot products.  The full root list
    is generated from the simple pairs by closing under the simple
    reflections.
    """

    rank: int
    simple_roots: Tuple[Tuple[int, ...], ...]
    simple_coroots: Tuple[Tuple[int, ...], ...]
    p: int
    is_reductive: bool = True
    defined_over_Fp: bool = True
    good_prime: bool = True

    def __post_init__(self):
        check_odd_prime(self.p)
        if len(self.simple_roots) != len(self.simple_coroots):
            raise ValueError("simple roots and coroots must align")
        for a, av in zip(self.simple_roots, self.simple_coroots):
            if len(a) != self.rank or len(av) != self.rank:
                raise ValueError("root and coroot vectors must have length rank")
            if _dot(a, av) != 2:
                raise ValueError("<alpha, alpha_vee> must be 2")
        for av in self.simple_coroots:
            if _dot(self.rho, av) != 1:
                raise ValueError("<rho, alpha_vee> must be 1 for simple alpha")

    @property
    def rho(self) -> Tuple[int, ...]:
        return (1,) * self.rank

    @cached_property
    def roots(self) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
        """All (root, coroot) pairs, closed under simple reflections."""
        simple = list(zip(self.simple_roots, self.simple_coroots))
        seen = {}
        frontier = list(simple)
        steps = 0
        while frontier:
            b, bv = frontier.pop()
            if b in seen:
                continue
            seen[b] = bv
            for a, av in simple:
                nb = tuple(x - _dot(b, av) * y for x, y in zip(b, a))
                nbv = tuple(x - _dot(a, bv) * y for x, y in zip(bv, av))
                if nb not in seen:
                    frontier.append((nb, nbv))
            steps += 1
            if steps > 10_000:
                raise ValueError("root closure did not terminate; bad datum")
        return tuple(sorted(seen.items()))


@lru_cache(maxsize=None)
def sl2_root_datum(p: int) -> RootDatum:
    """Rank one: alpha = 2, coroot pairing <lam, alpha_vee> = lam, rho = 1."""
    return RootDatum(1, ((2,),), ((1,),), p)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(int(a) * int(b) for a, b in zip(u, v))


def _as_vector(rd: RootDatum, lam: Weight) -> Tuple[int, ...]:
    if isinstance(lam, (int, np.integer)):
        if rd.rank != 1:
            raise ValueError("scalar weights only make sense in rank one")
        return (int(lam),)
    vec = tuple(int(c) for c in lam)
    if len(vec) != rd.rank:
        raise ValueError("weight vector has wrong length")
    return vec


# ---------------------------------------------------------------------------
# depth and projective height


def psi_s(rd: RootDatum, lam: Weight, s: int) -> Tuple[Tuple[int, ...], ...]:
    """Roots alpha with <lam + rho, alpha_vee> divisible by p^s; s = 0
    returns all of them."""
    if s < 0:
        raise ValueError("s must be >= 0")
    shifted = tuple(a + b for a, b in zip(_as_vector(rd, lam), rd.rho))
    q = rd.p**s
    return tuple(root for root, coroot in rd.roots if _dot(shifted, coroot) % q == 0)


def depth(rd: RootDatum, lam: Weight) -> Union[int, float]:
    """Least s for which some root pairing <lam+rho, alpha_vee> escapes
    p^s Z; math.inf when every pairing vanishes.  Rank one: v_p(lam+1)+1."""
    shifted = tuple(a + b for a, b in zip(_as_vector(rd, lam), rd.rho))
    vals = []
    for _, coroot in rd.roots:
        a = _dot(shifted, coroot)
        if a != 0:
            vals.append(_vp(abs(a), rd.p))
    if not vals:
        return math.inf
    return 1 + min(vals)


def _require_flags(rd: RootDatum) -> None:
    missing = [
        name
        for name, ok in (
            ("reductive", rd.is_reductive),
            ("defined_over_Fp", rd.defined_over_Fp),
            ("good_prime", rd.good_prime),
        )
        if not ok
    ]
    if missing:
        raise HypothesisError(missing)


def verma_projective_height(rd: RootDatum, lam: Weight, r: int):
    """Projective height of the height-r baby Verma of highest weight
    lam: equals depth(lam) when that is <= r, otherwise the module is
    projective and the string "projective" is returned."""
    _require_flags(rd)
    check_height(r)
    dep = depth(rd, lam)
    if dep > r:
        return "projective"
    return dep


def verma_period(rd: RootDatum, lam: Weight, r: int) -> int:
    """Heller period 2 * p^(r - depth) of a non-projective baby Verma."""
    ph = verma_projective_height(rd, lam, r)
    if ph == "projective":
        raise HypothesisError(
            ["depth(lambda) <= r"], "the baby Verma is projective, no period"
        )
    return 2 * rd.p ** (r - ph)


def heller_orbit_verma(rd: RootDatum, lam: Weight, r: int, n: int) -> Weight:
    """Highest weight of the 2n-th graded Heller translate of the
    height-r baby Verma: lam + n * p^r * alpha.

    Defined when depth(lam) = r exactly; alpha is then required to be
    the unique simple root whose pairing with lam + rho escapes p^r Z.
    """
    _require_flags(rd)
    dep = depth(rd, lam)
    if dep != r:
        raise HypothesisError(
            ["depth(lambda) == r"], f"depth is {dep}, height is {r}"
        )
    vec = _as_vector(rd, lam)
    shifted = tuple(a + b for a, b in zip(vec, rd.rho))
    q = rd.p**r
    outside = [
        root
        for root, coroot in zip(rd.simple_roots, rd.simple_coroots)
        if _dot(shifted, coroot) % q != 0
    ]
    if len(outside) != 1:
        raise HypothesisError(
            ["unique simple root outside Psi^r"], f"found {len(outside)}"
        )
    alpha = outside[0]
    result = tuple(x + n * q * a for x, a in zip(vec, alpha))
    if isinstance(lam, (int, np.integer)):
        return result[0]
    return result


def steinberg_ph(d: int, r: int) -> int:
    """Projective height of the d-th Steinberg module inside a height-r
    kernel: d + 1, defined for 0 <= d < r (at d = r it is projective)."""
    if not 0 <= d < r:
        raise ValueError("need 0 <= d < r; at d = r the module is projective")
    return d + 1


# ---------------------------------------------------------------------------
# SL(2) block combinatorics (restricted weights 0 <= lam < p^r)


@dataclass(frozen=True)
class BlockId:
    """Block label for a height-r SL(2) kernel: either the Steinberg
    singleton or regular(i, s) with 0 <= i <= (p-3)/2, 0 <= s <= r-1."""

    p: int
    r: int
    kind: str
    i: Optional[int] = None
    s: Optional[int] = None

    def __post_init__(self):
        check_odd_prime(self.p)
        check_height(self.r)
        if self.kind not in ("regular", "steinberg"):
            raise ValueError("kind must be 'regular' or 'steinberg'")
        if self.kind == "steinberg":
            if self.i is not None or self.s is not None:
                raise ValueError("steinberg block carries no (i, s)")
        else:
            if self.i is None or self.s is None:
                raise ValueError("regular block needs both i and s")
            if not 0 <= self.i <= (self.p - 3) // 2:
                raise ValueError(f"i must lie in 0..{(self.p - 3) // 2}")
            if not 0 <= self.s <= self.r - 1:
                raise ValueError(f"s must lie in 0..{self.r - 1}")


def block_of(p: int, r: int, lam: int) -> BlockId:
    """The block containing lam: s counts the leading p-1 digits, and
    the first other digit determines i."""
    digits = base_p_digits(lam, p, r)
    if all(d == p - 1 for d in digits):
        return BlockId(p, r, "steinberg")
    s = next(j for j, d in enumerate(digits) if d != p - 1)
    d = digits[s]
    return BlockId(p, r, "regular", i=min(d, p - 2 - d), s=s)


def block_members(p: int, r: int, block: BlockId) -> List[int]:
    """All weights in the block: digits below s are pinned at p-1, digit
    s is i or p-2-i, digits above s are free.

    Refused when the block has more than `MAX_TUPLES` members.
    """
    if (block.p, block.r) != (p, r):
        raise ValueError("block id belongs to a different (p, r)")
    if block.kind == "steinberg":
        return [p**r - 1]
    free = r - 1 - block.s
    # 2 * p^free > MAX_TUPLES exactly when p^free > MAX_TUPLES // 2
    if power_exceeds(p, free, MAX_TUPLES // 2):
        raise ValueError(
            f"the block has 2 * {p}^{free} members, above {MAX_TUPLES}, the most it lists"
        )
    members = []
    for ds in (block.i, p - 2 - block.i):
        for rest in itertools.product(range(p), repeat=free):
            digits = [p - 1] * block.s + [ds] + list(rest)
            members.append(sum(d * p**j for j, d in enumerate(digits)))
    return sorted(members)


def all_blocks(p: int, r: int) -> List[BlockId]:
    out = [
        BlockId(p, r, "regular", i=i, s=s)
        for s in range(r)
        for i in range((p - 1) // 2)
    ]
    out.append(BlockId(p, r, "steinberg"))
    return out


def morita_weight_map(p: int, r: int, s: int, n: int) -> int:
    """Weight correspondence of the block equivalence that raises height
    by s: n maps to n*p^s + p^s - 1 (the s low digits fill with p-1)."""
    if not 0 <= s <= r - 1:
        raise ValueError("need 0 <= s <= r-1")
    if not 0 <= n < p ** (r - s):
        raise ValueError("source weight out of range")
    return n * p**s + p**s - 1


def simple_dim(p: int, r: int, lam: int) -> int:
    """Dimension of the simple of highest weight lam: product of
    (digit + 1) over the base-p digits (twisted tensor factorization)."""
    return math.prod(d + 1 for d in base_p_digits(lam, p, r))


def simple_complexity(p: int, r: int, lam: int) -> int:
    """Complexity of the simple of highest weight lam over the height-r
    SL(2) kernel: 0 for the Steinberg weight, else one more than the
    number of digits below p-1.

    The support variety is the set of commuting nilpotent tuples with
    the slots of maximal digits forced to zero; commuting nilpotents in
    the rank-one Lie algebra are proportional, so the dimension is one
    more than the number of free slots.  (Confirmed by F_q point counts
    in the tests before being relied on.)
    """
    digits = base_p_digits(lam, p, r)
    free = sum(1 for d in digits if d != p - 1)
    return 0 if free == 0 else 1 + free


def heart_weights(p: int, r: int, lam: int) -> Tuple[int, ...]:
    """Composition-factor highest weights of the heart rad P / soc P of
    the projective cover of L(lam), for lam with top digit pattern
    (lam_0, p-1, ..., p-1), lam_0 <= p-2, r >= 2.

    Multiplicities are not part of the closed form; the oracle reports
    them.  Returns the sorted weight set.
    """
    if r < 2:
        raise ValueError("hearts with a closed form need r >= 2")
    digits = base_p_digits(lam, p, r)
    if digits[0] > p - 2 or any(d != p - 1 for d in digits[1:]):
        raise ValueError(
            "closed form covers digits (lam_0, p-1, ..., p-1) with lam_0 <= p-2"
        )
    w0 = p - 2 - digits[0]
    weights = [w0]
    for ell in range(2, r + 1):
        tail = sum((p - 1) * p**i for i in range(ell, r))
        weights.append(w0 + (p - 2) * p ** (ell - 1) + tail)
    return tuple(sorted(weights))


# ---------------------------------------------------------------------------
# classification


def classify_block_type(p: int, r: int, block: BlockId) -> str:
    """Representation type of a block: the Steinberg block is simple
    (finite type); a regular block is tame exactly when its simples
    have a single non-maximal digit (r - s = 1), wild otherwise."""
    if (block.p, block.r) != (p, r):
        raise ValueError("block id belongs to a different (p, r)")
    if block.kind == "steinberg":
        return "finite"
    return "tame" if r - block.s == 1 else "wild"


_WT_ALL = ("Z[A_inf]", "Z[A_inf^inf]", "Z[D_inf]")


def classify_component(
    context: str,
    evidence: str,
    p: Optional[int] = None,
    r: Optional[int] = None,
    s: Optional[int] = None,
) -> Tuple[str, ...]:
    """Stable AR-component shapes permitted by the classification
    theorems for the given evidence; a singleton only when they pin the
    shape down, never a guess beyond them.

    context: "G_r" (ungraded kernel) or "G_rT" (graded).
    evidence:
      "complexity-1"  a periodic module lies in the component (needs p
                      and s; ungraded only -- the graded category has no
                      periodic modules);
      "simple-cx2"    a complexity-2 simple lies in it (r pins the
                      ungraded rank-one case at r = 1);
      "verma"         a graded baby Verma lies in it (graded only; the
                      Verma is then quasi-simple);
      "generic"       no usable evidence (graded only: the full list of
                      three shapes; whether the third occurs is open, so
                      it is never excluded).
    """
    if context not in ("G_r", "G_rT"):
        raise ValueError("context must be 'G_r' or 'G_rT'")
    if evidence == "complexity-1":
        if context == "G_rT":
            raise ValueError("the graded category has no periodic modules")
        if p is None or s is None:
            raise ValueError("complexity-1 evidence needs p and s")
        check_odd_prime(p)
        if s < 0:
            raise ValueError("tube rank exponent s must be >= 0")
        if r is not None and s > r - 1:
            raise ValueError("tube rank exponent s must lie in 0..r-1")
        return (f"Z[A_inf]/tau^{p**s}",)
    if evidence == "simple-cx2":
        if context == "G_rT":
            return ("Z[A_inf]", "Z[A_inf^inf]")
        if r == 1:
            return ("Z[A~_12]",)
        return ("Z[A_inf]", "Z[A~_12]")
    if evidence == "verma":
        if context != "G_rT":
            raise ValueError("verma evidence applies to the graded category")
        return ("Z[A_inf]",)
    if evidence == "generic":
        if context != "G_rT":
            raise ValueError(
                "no classification is available for the ungraded category "
                "without evidence; supply complexity-1 or simple-cx2"
            )
        return _WT_ALL
    raise ValueError(f"unknown evidence kind {evidence!r}")


# ---------------------------------------------------------------------------
# complexity upper bound check


def ub1_bound_check(trace: ResolutionTrace, r: int, n: int) -> dict:
    """Check the self-extension upper bound on complexity from a
    resolution trace: the growth estimate must not exceed the dimension
    of Ext in degree 2 n p^(r-1)."""
    check_height(r)
    if n < 1:
        raise ValueError("need n >= 1")
    p = trace.module.algebra.p
    degree = 2 * n * p ** (r - 1)
    if trace.ext_dims is None or len(trace.ext_dims) <= degree:
        raise ValueError(
            f"trace too short: need Ext dims through degree {degree}"
        )
    est = estimate_complexity(trace)
    if est is None:
        raise InconclusiveError("complexity estimate inconclusive")
    ext_dim = trace.ext_dims[degree]
    return {
        "complexity_estimate": est,
        "degree": degree,
        "ext_dim_at_degree": ext_dim,
        "inequality_holds": est <= ext_dim,
    }
