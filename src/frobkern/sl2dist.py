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
  All p^r simples are designated.  Projective covers are designated for
  the Steinberg-tail family (every base-p digit above the first equal to
  p-1) and for the Steinberg module, which is its own cover.

Level-one modules are ladders: the matrices of e^(k), f^(k) for k <= p on
a G-module with its integer weights.  Every Dist(G_r)-module built from
ladders is one tensor product of Frobenius twists,
L_0 tensor L_1^[1] tensor ... tensor L_{r-1}^[r-1], ladder i twisted i times
(``_twisted_tensor``).  e^(p^j) acts by the comultiplication: each term
puts e^(a_i) on factor i with sum a_i p^i = p^j, since the twist makes
e^(m) act on factor i as e^(m/p^i), or as zero when p^i does not divide m.
On the simple and level-one projective ladders the terms that survive are
e on factor j and, for each k < j, e^(p) on factor k times e^(p-1) on the
factors k+1 .. j-1; f likewise.  The simple of weight lam is the twisted
tensor of the simple ladders of its base-p digits (Steinberg's tensor
product theorem), and its cover is that of the level-one covers Q_1 of the
digits (Jantzen, Representations of Algebraic Groups, II.11).  Q_1(lam0)
is the Casimir block of St tensor L(p-1-lam0).  The construction serves
every weight; only the covers listed above are built at set-up.

The other constructors: baby Verma modules by one divided-power formula at
every height, hearts rad P / soc P read as Omega L / soc Omega L (rad P is
the kernel of the cover P -> L), and the left regular module of the
restricted algebra in the PBW basis.  Every algebra and module is built
exactly: no constructor runs the MeatAxe or draws at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import base_p_digits
from .algrep import (
    GenAlgebra,
    GenAlgebraModule,
    _degrees_of_columns,
    _graded_kernel_and_unit_rows,
    heller,
    quotient,
    socle,
    top,
)
from .fplinalg import FpMat, fpmat, identity, kron, zeros


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
        eye = identity(e[0].rows, p)
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
            prod_f = reduce(FpMat.__matmul__, [x.power(p - 1) for x in f[:j]])
            prod_e = reduce(FpMat.__matmul__, [x.power(p - 1) for x in e[:j]])
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
def _pim_ladders(p: int) -> Tuple[_Ladder, ...]:
    """Projective covers Q_1(lam0) of the p simples, with their G-structure.

    Q_1(lam0) is the summand of T = St tensor L(p-1-lam0) cut out by the
    Casimir element c = (h+1)^2 + 4fe.  c is central in Dist(G), so it
    commutes with every divided power, and it acts on the u-block
    {lam, p-2-lam} by (lam+1)^2 and on the Steinberg block by 0.  The tops
    of T are lam0, lam0+2, ..., so by parity lam0 is the only one in its
    block, and Q_1(lam0) is the kernel of (c - (lam0+1)^2)^(dim T).  That
    kernel is taken homogeneously in the T-weights, and the whole ladder
    is compressed to it.  Q_1(p-1) is St itself.  No step is random; the
    dimension of each cover and its top over one u(sl2) are checked.
    """
    st = _simple_ladder(p, p - 1)
    certifier = _level_one_algebra(p, graded=False)
    ladders = []
    for lam0 in range(p - 1):
        tens = _tensor_ladder(st, _simple_ladder(p, p - 1 - lam0))
        # c - (lam0+1)^2, with (h+1)^2 read off the integer weights
        c = fpmat(np.diag([(w + 1) ** 2 - (lam0 + 1) ** 2 for w in tens.weights]), p)
        c = c + (tens.f_pows[1] @ tens.e_pows[1]).scale(4)
        pick, unit_rows = _graded_kernel_and_unit_rows(
            c.power(tens.dim), tens.weights, tens.weights
        )

        def compress(mat: FpMat) -> FpMat:
            # pick is the identity on its unit rows, so those rows of the
            # image are its coordinates when the image lies in the span
            image = mat @ pick
            coords = FpMat(image.a[unit_rows], p)
            if pick @ coords != image:
                raise RuntimeError("summand basis is not stable under the ladder")
            return coords

        lad = _Ladder(
            p,
            tuple(_degrees_of_columns(pick, tens.weights)),
            tuple(compress(m) for m in tens.e_pows),
            tuple(compress(m) for m in tens.f_pows),
        )
        if lad.dim != 2 * p or top(_ladder_module(certifier, lad)) != [(lam0, 1)]:
            raise RuntimeError(
                f"the Casimir block of St tensor L({p - 1 - lam0}) is not Q({lam0})"
            )
        ladders.append(lad)
    return (*ladders, st)


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
    alg.projectives = [_ladder_module(alg, lad) for lad in _pim_ladders(p)]
    return alg


@lru_cache(maxsize=None)
def graded_restricted_sl2(p: int) -> GenAlgebra:
    """u(sl2) with the weight grading; simples carry top degree = weight.

    The projective covers are graded by their T-weights, which put each top
    in degree lam0: Q_1(lam0) is the tilting module T(2p-2-lam0), whose
    head as a G_1T-module is the simple of weight lam0 itself.
    """
    alg = _level_one_algebra(p, graded=True)
    alg.projectives = [_ladder_module(alg, lad) for lad in _pim_ladders(p)]
    return alg


@lru_cache(maxsize=None)
def distribution_sl2(p: int, r: int) -> GenAlgebra:
    """Distribution algebra of the r-th kernel of SL2, r >= 2."""
    if r < 2:
        raise ValueError("use restricted_sl2 for r = 1")
    gens = tuple(x for i in range(r) for x in (f"e{i}", f"f{i}"))
    alg = GenAlgebra(f"dist-sl2-p{p}-r{r}", p, gens, _dist_checker(r), meta={"r": r})
    simple = [_simple_ladder(p, mu) for mu in range(p)]
    digits = [base_p_digits(lam, p, r) for lam in range(p**r)]
    alg.designate([_twisted_tensor(alg, [simple[d] for d in ds]) for ds in digits])
    # covers of the Steinberg tail (digits p-1 above the first), and St, its own cover
    pims = _pim_ladders(p)
    tail = [_twisted_tensor(alg, [pims[d] for d in ds]) for ds in digits[p**r - p : -1]]
    alg.projectives = [None] * (p**r - p) + tail + [alg.simples[-1]]
    return alg


def _twisted_tensor(alg: GenAlgebra, ladders: Sequence[_Ladder]) -> GenAlgebraModule:
    """L_0 tensor L_1^[1] tensor ... tensor L_{r-1}^[r-1] over Dist(G_r).

    Ladder i is twisted i times.  e^(p^j) acts as the sum of the
    comultiplication terms that put e^(a_i) on factor i, with
    sum a_i p^i = p^j.  On a simple or level-one projective ladder, whose
    weights span at most 4p-4, e^(a) vanishes for a > 2p-2.  The carries of
    sum a_i p^i = p^j then leave e on factor j and, for each k < j, e^(p) on
    factor k times e^(p-1) on factors k+1 .. j-1.  f is the same with f in
    place of e.  Terms with a zero factor are skipped.
    """
    p = alg.p
    eyes = [identity(lad.dim, p) for lad in ladders]
    n = math.prod(lad.dim for lad in ladders)
    action = {}
    for j in range(len(ladders)):
        # the divided power each term puts on a factor; absent factors get 1
        terms = [{j: 1}] + [{k: p, **dict.fromkeys(range(k + 1, j), p - 1)} for k in range(j)]
        for x in ("e", "f"):
            total = zeros(n, n, p)
            for term in terms:
                factors = [
                    getattr(lad, f"{x}_pows")[term[i]] if i in term else eyes[i]
                    for i, lad in enumerate(ladders)
                ]
                if not any(m.is_zero() for m in factors):
                    total = total + reduce(kron, factors)
            action[f"{x}{j}"] = total
    return GenAlgebraModule(alg, action)


# ---------------------------------------------------------------------------
# module constructors


def _kernel_algebra(p: int, r: int, lam: int) -> GenAlgebra:
    """The algebra of the r-th kernel, once r and lam are checked."""
    base_p_digits(lam, p, r)
    return restricted_sl2(p) if r == 1 else distribution_sl2(p, r)


def simple_module(p: int, r: int, lam: int) -> GenAlgebraModule:
    return _kernel_algebra(p, r, lam).simples[lam]


def graded_simple_module(p: int, lam: int) -> GenAlgebraModule:
    """Level-one graded simple with top degree lam (any integer)."""
    alg = graded_restricted_sl2(p)
    mu = lam % p
    base = alg.simples[mu]
    return base if lam == mu else base.shifted(lam - mu)


def verma_module(p: int, r: int, lam: int) -> GenAlgebraModule:
    """Baby Verma module: basis f^(a) v for a < p^r, head of weight lam."""
    return GenAlgebraModule(_kernel_algebra(p, r, lam), _verma_action(p, r, lam))


def graded_verma_module(p: int, lam: int) -> GenAlgebraModule:
    """Level-one Verma with its weight grading; lam may be any integer."""
    return GenAlgebraModule(
        graded_restricted_sl2(p),
        _verma_action(p, 1, lam),
        grading=[lam - 2 * a for a in range(p)],
    )


def _verma_action(p: int, r: int, lam: int) -> Dict[str, FpMat]:
    """e^(q), f^(q) for q = p^i, i < r, on the baby Verma basis v_a = f^(a) v.

    f^(q) v_a = binom(a+q, q) v_{a+q} and e^(q) v_a = binom(lam+q-a, q) v_{a-q},
    for a < p^r.  At r = 1 the generators are e, f and h = diag(lam - 2a).
    """
    n = p**r
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
    if r > 1:
        return action
    h = np.diag([(lam - 2 * a) % p for a in range(n)])
    return {"e": action["e0"], "f": action["f0"], "h": fpmat(h, p)}


def principal_indecomposable(p: int, r: int, lam: int) -> GenAlgebraModule:
    """Projective cover of the weight-lam simple, where a construction exists."""
    return _kernel_algebra(p, r, lam).projective_of(lam)


def graded_principal_indecomposable(p: int, lam0: int) -> GenAlgebraModule:
    return graded_restricted_sl2(p).projective_of(lam0)


def heart_module(p: int, r: int, lam: int) -> GenAlgebraModule:
    """rad P / soc P of the cover P of the weight-lam simple L: rad P is
    Omega L, and soc Omega L = soc P, as P's socle is simple and lies in
    rad P unless P = L.  One Hom is solved out of P, the rest out of simples."""
    R = heller(simple_module(p, r, lam))
    if R.dim == 0:
        raise ValueError(f"weight {lam} gives a simple projective: no heart")
    heart, _ = quotient(R, socle(R)[1])
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
