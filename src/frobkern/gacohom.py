"""Cohomology of additive-group Frobenius kernels.

The height-r kernel of the additive group has group algebra
F_p[u_0, ..., u_{r-1}]/(u_0^p, ..., u_{r-1}^p), a commutative local
algebra of dimension p^r with a single simple module (the trivial one)
and a single indecomposable projective (the algebra itself).  Its
cohomology is a polynomial algebra on r generators x_1..x_r in degree 2
tensored with an exterior algebra on r generators y_0..y_{r-1} in degree
1, so dim H^n is the number of monomials of total degree n and has the
p-free closed form binomial(n+r-1, r-1).

Three independent routes to that dimension live here: the closed form,
a literal monomial count, and the term ranks of an actual minimal
resolution of the trivial module computed over the algebra.  Tests and
the verify suites compare them; nothing in this file assumes they agree.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

import numpy as np

from . import check_degree, check_height, power_exceeds
from .algrep import GenAlgebra, GenAlgebraModule, ResolutionTrace, ext_dims
from .fplinalg import fpmat


# the largest algebra dimension p^r that `truncated_poly_algebra` builds: its
# regular module has one dense p^r x p^r action matrix per generator, and
# each resolution step spins and eliminates a syzygy of about that size.
# Near the bound, minimal_resolution_dims(43, 2, 1) (p^r = 1849) took 100 s
# at 1.2 GB of peak memory on a 2-vCPU Xeon VM
MAX_ORDER = 2000

# the most tuples (a, e) that `cohom_dim_by_enumeration` walks; at 2^20, r = 20
# and n = 1 took 0.46 s on a 2-vCPU Xeon VM.  `weightcomb.block_members` lists
# at most this many weights, too
MAX_TUPLES = 2**20


def _truncated_checker(r: int):
    names = [f"u{i}" for i in range(r)]

    def checker(action, p):
        bad = []
        for name in names:
            if not action[name].power(p).is_zero():
                bad.append(f"{name}^p != 0")
        for a, b in itertools.combinations(names, 2):
            if action[a] @ action[b] != action[b] @ action[a]:
                bad.append(f"{a} and {b} do not commute")
        return bad

    return checker


def _trivial(alg: GenAlgebra) -> GenAlgebraModule:
    z = fpmat(np.zeros((1, 1), dtype=np.int64), alg.p)
    return GenAlgebraModule(alg, {g: z for g in alg.gens})


def _regular(alg: GenAlgebra) -> GenAlgebraModule:
    p, r = alg.p, alg.meta["r"]
    dim = p**r
    exps = list(itertools.product(range(p), repeat=r))
    index = {e: i for i, e in enumerate(exps)}
    action = {}
    for i in range(r):
        m = np.zeros((dim, dim), dtype=np.int64)
        for e, src in index.items():
            if e[i] < p - 1:
                target = list(e)
                target[i] += 1
                m[index[tuple(target)], src] = 1
        action[f"u{i}"] = fpmat(m, p)
    return GenAlgebraModule(alg, action)


def check_algebra_order(p: int, r: int) -> None:
    """Raise ValueError when p^r exceeds `MAX_ORDER`, without forming p^r
    for a huge r."""
    if power_exceeds(p, r, MAX_ORDER):
        raise ValueError(
            f"the algebra has dimension {p}^{r}, above {MAX_ORDER}, the largest the oracle builds"
        )


@lru_cache(maxsize=None)
def truncated_poly_algebra(p: int, r: int) -> GenAlgebra:
    """F_p[u_0..u_{r-1}]/(u_i^p), with its one simple and one projective.

    Refused, before anything is built, when p^r exceeds `MAX_ORDER`.
    """
    check_height(r)
    check_algebra_order(p, r)
    alg = GenAlgebra(
        f"ga-p{p}-r{r}",
        p,
        [f"u{i}" for i in range(r)],
        _truncated_checker(r),
        meta={"r": r},
    )
    alg.designate([_trivial(alg)], [_regular(alg)])
    return alg


def trivial_module(p: int, r: int) -> GenAlgebraModule:
    return truncated_poly_algebra(p, r).simples[0]


def regular_module(p: int, r: int) -> GenAlgebraModule:
    return truncated_poly_algebra(p, r).projectives[0]


# ---------------------------------------------------------------------------
# graded dimensions of H^*


def cohom_dim(p: int, r: int, n: int) -> int:
    """dim H^n for the height-r additive kernel.

    Closed form binomial(n+r-1, r-1): the Poincare series of r degree-2
    polynomial generators and r degree-1 exterior ones collapses to
    (1-t)^{-r}.  Independent of p; the ring structure is not.
    """
    check_height(r)
    check_degree(n)
    return math.comb(n + r - 1, r - 1)


def check_enumeration_size(r: int, n: int) -> None:
    """Raise ValueError when `cohom_dim_by_enumeration` would walk more than
    `MAX_TUPLES` tuples, without forming their count for a huge r, or
    when n is negative."""
    check_degree(n)
    base = 2 * (n // 2 + 1)  # (n//2 + 1)^r exponent tuples a, 2^r tuples e
    if power_exceeds(base, r, MAX_TUPLES):
        raise ValueError(
            f"the enumeration walks {n // 2 + 1}^{r} * 2^{r} tuples, above {MAX_TUPLES}, "
            "the most it walks"
        )


def cohom_dim_by_enumeration(p: int, r: int, n: int) -> int:
    """Count monomials x_1^{a_1}..x_r^{a_r} y_0^{e_0}..y_{r-1}^{e_{r-1}}
    with 2*sum(a) + sum(e) = n directly, no binomials.

    Refused when it would walk more than `MAX_TUPLES` tuples.
    """
    check_height(r)
    check_enumeration_size(r, n)
    count = 0
    bound = n // 2 + 1
    for a in itertools.product(range(bound), repeat=r):
        rem = n - 2 * sum(a)
        if rem < 0:
            continue
        for eps in itertools.product((0, 1), repeat=r):
            if sum(eps) == rem:
                count += 1
    return count


def minimal_resolution_dims(p: int, r: int, length: int) -> ResolutionTrace:
    """Initial segment of the minimal resolution of the trivial module.

    Returns a trace whose omega_dims are the syzygy dimensions and whose
    ext_dims slot holds the free-term ranks for n = 0..length (equal to
    dim Ext^n(k,k) by minimality).  rank_n * p^r = dim Omega^n + dim
    Omega^{n+1} because the algebra is local, so each term is a direct
    sum of copies of the regular module.
    """
    check_degree(length)
    alg = truncated_poly_algebra(p, r)
    trace = ext_dims(alg.simples[0], length + 1, with_ext=False)
    order = p**r
    ranks = []
    for n in range(length + 1):
        total = trace.omega_dims[n] + trace.omega_dims[n + 1]
        if total % order:
            raise RuntimeError("resolution term is not free; minimality violated")
        ranks.append(total // order)
    return ResolutionTrace(trace.module, length, trace.omega_dims, ranks)


# ---------------------------------------------------------------------------
# torus weights of the cohomology generators

_GEN_RE = re.compile(r"^([xy])_?(\d+)$")


def cohom_ring_generators(p: int, r: int) -> List[Tuple[str, int, int]]:
    """(name, cohomological degree, weight as a multiple of alpha)."""
    check_height(r)
    gens = [(f"x_{i}", 2, -(p**i)) for i in range(1, r + 1)]
    gens += [(f"y_{i}", 1, -(p**i)) for i in range(r)]
    return gens


def weight_of_generator(p: int, r: int, gen: str, alpha: Union[int, Sequence[int]]):
    """Torus weight of a cohomology generator: -p^i * alpha.

    Polynomial generators are named x_1..x_r, exterior ones y_0..y_{r-1};
    both kinds of index feed the same exponent.  alpha may be an integer
    (rank-one weight coordinate) or an integer vector.
    """
    check_height(r)
    m = _GEN_RE.match(gen)
    if not m:
        raise ValueError(f"unknown cohomology generator {gen!r}")
    kind, i = m.group(1), int(m.group(2))
    if kind == "x" and not 1 <= i <= r:
        raise ValueError(f"x index must lie in 1..{r}")
    if kind == "y" and not 0 <= i <= r - 1:
        raise ValueError(f"y index must lie in 0..{r - 1}")
    scale = -(p**i)
    if isinstance(alpha, (int, np.integer)):
        return scale * int(alpha)
    return tuple(scale * int(c) for c in alpha)


def repfinite_criterion(p: int, r: int, n: int, hdim: int) -> str:
    """Representation-type verdict from hdim = dim H^{2n p^{r-1}}, n >= 1.

    Zero forces a diagonalizable kernel, dimension <= 1 forces finite
    representation type, anything larger rules out both.
    """
    check_height(r)
    if n < 1:
        raise ValueError("need n >= 1")
    if hdim < 0:
        raise ValueError("hdim must be >= 0")
    if hdim == 0:
        return "diagonalizable"
    if hdim <= 1:
        return "representation-finite"
    return "neither"
