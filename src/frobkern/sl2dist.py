"""SL(2) Frobenius kernel representations in exact F_p arithmetic.

Three algebra families, all built on the generic engine:

* ``restricted_sl2(p)``: the restricted enveloping algebra of sl2, with
  generators e, f, h.  Comes with all p simple modules and all projective
  covers designated.
* ``graded_restricted_sl2(p)``: the same algebra with the weight grading
  (e has degree 2, f degree -2).  Graded modules model the category where
  the torus action is kept; degree shifts that change the h-action are
  killed by the Hom machinery automatically.
* ``distribution_sl2(p, r)`` for r >= 2: the r-th kernel, generated by the
  divided powers e^(p^i), f^(p^i) for i < r (named e0, f0, e1, f1, ...).
  All p^r simples are designated; projective covers are designated for the
  family whose restriction to higher levels is a Steinberg twist (all
  base-p digits above the first equal p-1), which is the family with a
  known closed construction, plus the Steinberg module itself.

Module constructors: simple modules via tensor products of Frobenius
twists, baby Verma modules via divided-power binomial formulas, structured
projective covers as the Casimir block of a tilting tensor product with
the full divided-power ladder retained, hearts rad P / soc P, and the left
regular module of the restricted algebra in the PBW basis.  Every algebra
and module is built exactly: no constructor runs the MeatAxe or draws at
random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import base_p_digits
from .algrep import (
    GenAlgebra,
    GenAlgebraModule,
    _degrees_of_columns,
    _graded_kernel,
    quotient,
    radical,
    socle,
    submodule,
    top,
)
from .fplinalg import FpMat, fpmat, identity, kron, solve, zeros


def gbinom(x: int, k: int, p: int) -> int:
    """binom(x, k) mod p for any integer x and k >= 0."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= x - i
    return (num // math.factorial(k)) % p


# ---------------------------------------------------------------------------
# relation checkers


def _restricted_checker(action: Dict[str, FpMat], p: int) -> List[str]:
    e, f, h = action["e"], action["f"], action["h"]
    probs = []
    if h @ e - e @ h != e.scale(2):
        probs.append("[h,e] != 2e")
    if h @ f - f @ h != f.scale(-2):
        probs.append("[h,f] != -2f")
    if e @ f - f @ e != h:
        probs.append("[e,f] != h")
    if not e.power(p).is_zero():
        probs.append("e^p != 0")
    if not f.power(p).is_zero():
        probs.append("f^p != 0")
    if h.power(p) != h:
        probs.append("h^p != h")
    return probs


def _dist_checker(r: int):
    # identities among divided powers that are expressible in the generators:
    # nilpotency, h-weights, commuting powers of one root vector, and the
    # mixed commutators [e, f^(p^j)] = f^(p^j - 1)(h+1) and its mirror,
    # with f^(p^j - 1) rewritten as (-1)^j f0^(p-1) ... f_{j-1}^(p-1).
    # Commutators between two higher divided powers involve binom(h, p^i),
    # which is not a polynomial in the generators, and are not checked.
    def checker(action: Dict[str, FpMat], p: int) -> List[str]:
        probs = []
        e = [action[f"e{i}"] for i in range(r)]
        f = [action[f"f{i}"] for i in range(r)]
        h = e[0] @ f[0] - f[0] @ e[0]
        n = e[0].rows
        eye = identity(n, p)
        for i in range(r):
            if not e[i].power(p).is_zero():
                probs.append(f"e{i}^p != 0")
            if not f[i].power(p).is_zero():
                probs.append(f"f{i}^p != 0")
        if h @ e[0] - e[0] @ h != e[0].scale(2):
            probs.append("[h,e0] != 2 e0")
        if h @ f[0] - f[0] @ h != f[0].scale(-2):
            probs.append("[h,f0] != -2 f0")
        if h.power(p) != h:
            probs.append("h^p != h")
        for i in range(1, r):
            if h @ e[i] != e[i] @ h or h @ f[i] != f[i] @ h:
                probs.append(f"h does not commute with level {i}")
            for j in range(i):
                if e[j] @ e[i] != e[i] @ e[j]:
                    probs.append(f"[e{j},e{i}] != 0")
                if f[j] @ f[i] != f[i] @ f[j]:
                    probs.append(f"[f{j},f{i}] != 0")
        for j in range(1, r):
            sign = 1 if j % 2 == 0 else -1
            prod_f = eye
            prod_e = eye
            for i in range(j):
                prod_f = prod_f @ f[i].power(p - 1)
                prod_e = prod_e @ e[i].power(p - 1)
            if e[0] @ f[j] - f[j] @ e[0] != (prod_f @ (h + eye)).scale(sign):
                probs.append(f"[e0, f{j}] != (-1)^{j} f^(p^{j}-1) (h+1)")
            if e[j] @ f[0] - f[0] @ e[j] != ((h + eye) @ prod_e).scale(sign):
                probs.append(f"[e{j}, f0] != (-1)^{j} (h+1) e^(p^{j}-1)")
        return probs

    return checker


# ---------------------------------------------------------------------------
# rational divided-power ladders


@dataclass(frozen=True)
class _Ladder:
    """Matrices of e^(k), f^(k) for k <= p on one module, with the integer
    T-weights of its basis; h acts by the weights mod p."""

    p: int
    weights: Tuple[int, ...]
    e_pows: Tuple[FpMat, ...]
    f_pows: Tuple[FpMat, ...]

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def h(self) -> FpMat:
        return fpmat(np.diag(np.asarray(self.weights, dtype=np.int64) % self.p), self.p)


def _simple_ladder(p: int, mu: int) -> _Ladder:
    """Divided powers on the simple module of highest weight mu <= p-1.

    Basis v_0 .. v_mu with v_a = f^(a) v_0 of weight mu-2a, so f^(k) v_a =
    binom(a+k, k) v_{a+k} and e^(k) v_a = binom(mu-a+k, k) v_{a-k}.
    """
    n = mu + 1
    e_pows = []
    f_pows = []
    for k in range(p + 1):
        em = np.zeros((n, n), dtype=np.int64)
        fm = np.zeros((n, n), dtype=np.int64)
        for a in range(n):
            if a - k >= 0:
                em[a - k, a] = gbinom(mu - a + k, k, p)
            if a + k < n:
                fm[a + k, a] = gbinom(a + k, k, p)
        e_pows.append(fpmat(em, p))
        f_pows.append(fpmat(fm, p))
    weights = tuple(mu - 2 * a for a in range(n))
    return _Ladder(p, weights, tuple(e_pows), tuple(f_pows))


def _tensor_ladder(a: _Ladder, b: _Ladder) -> _Ladder:
    """Ladder on the tensor product via the divided-power comultiplication."""
    p = a.p
    e_pows = []
    f_pows = []
    for k in range(p + 1):
        esum = zeros(a.dim * b.dim, a.dim * b.dim, p)
        fsum = zeros(a.dim * b.dim, a.dim * b.dim, p)
        for i in range(k + 1):
            esum = esum + kron(a.e_pows[i], b.e_pows[k - i])
            fsum = fsum + kron(a.f_pows[i], b.f_pows[k - i])
        e_pows.append(esum)
        f_pows.append(fsum)
    weights = tuple(wa + wb for wa in a.weights for wb in b.weights)
    return _Ladder(p, weights, tuple(e_pows), tuple(f_pows))


@lru_cache(maxsize=None)
def _pim_ladder(p: int, lam0: int) -> _Ladder:
    """Projective cover Q_1(lam0) of the weight-lam0 simple, with its G-structure.

    Q_1(lam0) is the summand of T = St tensor L(p-1-lam0) cut out by the
    Casimir element c = (h+1)^2 + 4fe.  c is central in Dist(G), so it
    commutes with every divided power, and it acts on the u-block
    {lam, p-2-lam} by (lam+1)^2 and on the Steinberg block by 0.  The tops
    of T are lam0, lam0+2, ..., so by parity lam0 is the only one in its
    block, and Q_1(lam0) is the kernel of (c - (lam0+1)^2)^(dim T).  That
    kernel is taken homogeneously in the T-weights, and the whole ladder
    is compressed to it.  No step is random; the dimension and the top are
    checked.
    """
    st = _simple_ladder(p, p - 1)
    if lam0 == p - 1:
        return st
    tens = _tensor_ladder(st, _simple_ladder(p, p - 1 - lam0))
    # c - (lam0+1)^2, with (h+1)^2 read off the integer weights
    c = fpmat(np.diag([(w + 1) ** 2 - (lam0 + 1) ** 2 for w in tens.weights]), p)
    c = c + (tens.f_pows[1] @ tens.e_pows[1]).scale(4)
    pick = _graded_kernel(c.power(tens.dim), tens.weights, tens.weights)

    def compress(mat: FpMat) -> FpMat:
        coords = solve(pick, mat @ pick)
        if coords is None:
            raise RuntimeError("summand basis is not stable under the ladder")
        return coords

    lad = _Ladder(
        p,
        tuple(_degrees_of_columns(pick, tens.weights)),
        tuple(compress(m) for m in tens.e_pows),
        tuple(compress(m) for m in tens.f_pows),
    )
    head = top(_ladder_module(_level_one_algebra(p, graded=False), lad))
    if lad.dim != 2 * p or head != [(lam0, 1)]:
        raise RuntimeError(f"the Casimir block of St tensor L({p - 1 - lam0}) is not Q({lam0})")
    return lad


# ---------------------------------------------------------------------------
# algebras


def _ladder_module(alg: GenAlgebra, lad: _Ladder) -> GenAlgebraModule:
    """The level-one module of a ladder, graded by its weights when alg is."""
    action = {"e": lad.e_pows[1], "f": lad.f_pows[1], "h": lad.h}
    return GenAlgebraModule(alg, action, lad.weights if alg.shifts else None)


def _level_one_algebra(p: int, graded: bool) -> GenAlgebra:
    """u(sl2) over F_p with its p simples designated, weight-graded if asked."""
    alg = GenAlgebra(
        f"u-sl2T-p{p}" if graded else f"u-sl2-p{p}",
        p,
        ("e", "f", "h"),
        _restricted_checker,
        shifts={"e": 2, "f": -2, "h": 0} if graded else None,
        meta={"r": 1},
    )
    alg.designate([_ladder_module(alg, _simple_ladder(p, mu)) for mu in range(p)])
    return alg


@lru_cache(maxsize=None)
def restricted_sl2(p: int) -> GenAlgebra:
    """u(sl2) over F_p with simples and projective covers designated."""
    alg = _level_one_algebra(p, graded=False)
    alg.projectives = [_ladder_module(alg, _pim_ladder(p, lam0)) for lam0 in range(p)]
    return alg


@lru_cache(maxsize=None)
def graded_restricted_sl2(p: int) -> GenAlgebra:
    """u(sl2) with the weight grading; simples carry top degree = weight.

    The projective covers are graded by their T-weights, which put each top
    in degree lam0: Q_1(lam0) is the tilting module T(2p-2-lam0), whose
    head as a G_1T-module is the simple of weight lam0 itself.
    """
    alg = _level_one_algebra(p, graded=True)
    alg.projectives = [_ladder_module(alg, _pim_ladder(p, lam0)) for lam0 in range(p)]
    return alg


@lru_cache(maxsize=None)
def distribution_sl2(p: int, r: int) -> GenAlgebra:
    """Distribution algebra of the r-th kernel of SL2, r >= 2."""
    if r < 2:
        raise ValueError("use restricted_sl2 for r = 1")
    gens = tuple(x for i in range(r) for x in (f"e{i}", f"f{i}"))
    alg = GenAlgebra(f"dist-sl2-p{p}-r{r}", p, gens, _dist_checker(r), meta={"r": r})
    simples = [_tensor_simple(alg, lam) for lam in range(p**r)]
    alg.designate(simples)
    projs: List[Optional[GenAlgebraModule]] = [None] * p**r
    projs[p**r - 1] = simples[p**r - 1]
    steinberg_tail = p**r - p  # digits p-1 at every level above the first
    for lam0 in range(p - 1):
        projs[lam0 + steinberg_tail] = _assemble_twist_projective(alg, _pim_ladder(p, lam0), r)
    alg.projectives = projs
    return alg


def _kron_chain(mats: List[FpMat]) -> FpMat:
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def _tensor_simple(alg: GenAlgebra, lam: int) -> GenAlgebraModule:
    """Simple module of weight lam as a tensor of Frobenius twists.

    The divided power e^(p^j) acts through factor j alone: any other split
    of p^j across the factors needs a divided power that vanishes on a
    simple of highest weight below p.
    """
    p = alg.p
    r = alg.meta["r"]
    digits = base_p_digits(lam, p, r)
    ladders = [_simple_ladder(p, d) for d in digits]
    eyes = [identity(l.dim, p) for l in ladders]
    action = {}
    for j in range(r):
        action[f"e{j}"] = _kron_chain(
            [l.e_pows[1] if i == j else eyes[i] for i, l in enumerate(ladders)]
        )
        action[f"f{j}"] = _kron_chain(
            [l.f_pows[1] if i == j else eyes[i] for i, l in enumerate(ladders)]
        )
    return GenAlgebraModule(alg, action)


def _assemble_twist_projective(
    alg: GenAlgebra, base: _Ladder, r: int
) -> GenAlgebraModule:
    """Projective cover base tensor Steinberg twists, with its cross terms.

    e^(p^j) on the product is e acting on factor j plus the single surviving
    comultiplication term e^(p) on the base times e^(p-1) on every Steinberg
    factor below level j; everything else vanishes on the factors involved.
    """
    p = alg.p
    st = _simple_ladder(p, p - 1)
    eye_b = identity(base.dim, p)
    eye_s = identity(st.dim, p)

    def chain(base_mat: FpMat, per_level: Dict[int, FpMat]) -> FpMat:
        return _kron_chain(
            [base_mat] + [per_level.get(i, eye_s) for i in range(1, r)]
        )

    action = {"e0": chain(base.e_pows[1], {}), "f0": chain(base.f_pows[1], {})}
    for j in range(1, r):
        direct_e = chain(eye_b, {j: st.e_pows[1]})
        direct_f = chain(eye_b, {j: st.f_pows[1]})
        cross_e = chain(base.e_pows[p], {i: st.e_pows[p - 1] for i in range(1, j)})
        cross_f = chain(base.f_pows[p], {i: st.f_pows[p - 1] for i in range(1, j)})
        action[f"e{j}"] = direct_e + cross_e
        action[f"f{j}"] = direct_f + cross_f
    return GenAlgebraModule(alg, action)


# ---------------------------------------------------------------------------
# module constructors


def simple_module(p: int, r: int, lam: int) -> GenAlgebraModule:
    if r == 1:
        if not 0 <= lam < p:
            raise ValueError(f"weight {lam} outside [0, {p})")
        return restricted_sl2(p).simples[lam]
    return distribution_sl2(p, r).simples[lam]


def graded_simple_module(p: int, lam: int) -> GenAlgebraModule:
    """Level-one graded simple with top degree lam (any integer)."""
    alg = graded_restricted_sl2(p)
    mu = lam % p
    base = alg.simples[mu]
    return base if lam == mu else base.shifted(lam - mu)


def verma_module(p: int, r: int, lam: int) -> GenAlgebraModule:
    """Baby Verma module: basis f^(a) v for a < p^r, head of weight lam."""
    digits = base_p_digits(lam, p, r)  # validates the range
    n = p**r
    if r == 1:
        return GenAlgebraModule(restricted_sl2(p), _verma_action(p, lam))
    alg = distribution_sl2(p, r)
    action = {}
    for i in range(r):
        q = p**i
        e = np.zeros((n, n), dtype=np.int64)
        f = np.zeros((n, n), dtype=np.int64)
        for a in range(n):
            if a + q < n:
                f[a + q, a] = gbinom(a + q, q, p)
            if a - q >= 0:
                e[a - q, a] = gbinom(lam + q - a, q, p)
        action[f"e{i}"] = fpmat(e, p)
        action[f"f{i}"] = fpmat(f, p)
    return GenAlgebraModule(alg, action)


def graded_verma_module(p: int, lam: int) -> GenAlgebraModule:
    """Level-one Verma with its weight grading; lam may be any integer."""
    return GenAlgebraModule(
        graded_restricted_sl2(p),
        _verma_action(p, lam),
        grading=[lam - 2 * a for a in range(p)],
    )


def _verma_action(p: int, lam: int) -> Dict[str, FpMat]:
    """e, f, h on the level-one baby Verma basis f^a v, a < p."""
    e = np.zeros((p, p), dtype=np.int64)
    f = np.zeros((p, p), dtype=np.int64)
    for a in range(p):
        if a + 1 < p:
            f[a + 1, a] = a + 1
        if a - 1 >= 0:
            e[a - 1, a] = (lam + 1 - a) % p
    h = np.diag([(lam - 2 * a) % p for a in range(p)])
    return {"e": fpmat(e, p), "f": fpmat(f, p), "h": fpmat(h, p)}


def principal_indecomposable(p: int, r: int, lam: int) -> GenAlgebraModule:
    """Projective cover of the weight-lam simple, where a construction exists."""
    if r == 1:
        if not 0 <= lam < p:
            raise ValueError(f"weight {lam} outside [0, {p})")
        return restricted_sl2(p).projective_of(lam)
    return distribution_sl2(p, r).projective_of(lam)


def graded_principal_indecomposable(p: int, lam0: int) -> GenAlgebraModule:
    return graded_restricted_sl2(p).projective_of(lam0)


def heart_module(p: int, r: int, lam: int) -> GenAlgebraModule:
    """rad P / soc P of the projective cover of the weight-lam simple."""
    P = principal_indecomposable(p, r, lam)
    rad = radical(P)
    if rad.cols == 0:
        raise ValueError(f"weight {lam} gives a simple projective: no heart")
    R = submodule(P, rad)
    _, soc_basis = socle(P)
    coords = solve(rad, soc_basis)
    if coords is None:
        raise RuntimeError("socle does not sit inside the radical")
    heart, _ = quotient(R, coords)
    return heart


def frobenius_twist(M: GenAlgebraModule, i: int) -> GenAlgebraModule:
    """Pull M through the i-th Frobenius: lives over the (i+1)-st kernel."""
    if i < 1:
        raise ValueError("twist exponent must be positive")
    if M.algebra.meta.get("r") != 1 or M.algebra.shifts is not None:
        raise ValueError("twist is implemented for ungraded level-one modules")
    p = M.algebra.p
    target = distribution_sl2(p, i + 1)
    z = zeros(M.dim, M.dim, p)
    action = {}
    for j in range(i + 1):
        action[f"e{j}"] = M.mat("e") if j == i else z
        action[f"f{j}"] = M.mat("f") if j == i else z
    return GenAlgebraModule(target, action)


# ---------------------------------------------------------------------------
# the regular module in the PBW basis


def regular_module(p: int) -> GenAlgebraModule:
    """Left regular module of u(sl2) on the basis f^a h^b e^c, a,b,c < p."""
    alg = restricted_sl2(p)
    n = p**3

    def idx(a, b, c):
        return (a * p + b) * p + c

    def add(d, key, coeff):
        coeff %= p
        if coeff:
            d[key] = (d.get(key, 0) + coeff) % p

    def reduce_h(b):
        # h^p = h
        return 1 if b == p else b

    fm = np.zeros((n, n), dtype=np.int64)
    hm = np.zeros((n, n), dtype=np.int64)
    em = np.zeros((n, n), dtype=np.int64)
    for a in range(p):
        for b in range(p):
            for c in range(p):
                col = idx(a, b, c)
                if a + 1 < p:
                    fm[idx(a + 1, b, c), col] = 1
                # h f^a h^b e^c = f^a h^{b+1} e^c - 2a f^a h^b e^c
                out: Dict[Tuple[int, int, int], int] = {}
                add(out, (a, reduce_h(b + 1), c), 1)
                add(out, (a, b, c), -2 * a)
                for key, coeff in out.items():
                    hm[idx(*key), col] = coeff
                # e f^a h^b e^c = f^a (h-2)^b e^{c+1}
                #               + a f^{a-1} (h^{b+1} + (1-a) h^b) e^c
                out = {}
                if c + 1 < p:
                    for j in range(b + 1):
                        add(out, (a, j, c + 1), gbinom(b, j, p) * pow(-2, b - j, p))
                if a >= 1:
                    add(out, (a - 1, reduce_h(b + 1), c), a)
                    add(out, (a - 1, b, c), a * (1 - a))
                for key, coeff in out.items():
                    em[idx(*key), col] = (em[idx(*key), col] + coeff) % p
    return GenAlgebraModule(
        alg, {"e": fpmat(em, p), "f": fpmat(fm, p), "h": fpmat(hm, p)}
    )
