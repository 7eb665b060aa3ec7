"""Modules over generator-presented finite-dimensional algebras.

An algebra is presented by named generators, a relation checker supplied by
the client, and a designated full set of simple modules (plus projective
covers where available).  On top of that this module provides Hom spaces,
tops/radicals/socles, MeatAxe splitting into indecomposables, projective
covers, the Heller operator and its negative powers, isomorphism testing
with explicit witnesses, stable Hom spaces, and resolution traces with an
exact complexity estimator.

Every Hom space is solved one way: spin M once from generator vectors and
solve for their images; degree-0 maps mask those images by degree.  The
equations stream into an incremental echelon form, which stops as soon as
no image is left free.  Each module keeps its Hom spaces to and from the
simples; a degree shift of a module shares its spin.  The homogeneous
kernel of a degree-0 map is one elimination of the whole map.

Gradings are plain integers; a generator may carry a degree shift, and a
graded module's action matrices must shift degrees exactly.  All randomness
is seeded (default 0xF0B) so repeated runs agree.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import DEFAULT_SEED
from .fplinalg import (
    Echelon,
    FpMat,
    SpanTracker,
    _exact_matmul,
    block_diag,
    fpmat,
    hstack,
    identity,
    inverse,
    kernel_basis,
    rref,
    solve,
    vstack,
    zeros,
)

# exhaustive-enumeration ceilings for locality proofs and iso fallbacks
_ENUM_LIMIT = 4096

# random draws before a MeatAxe factor or an isomorphism search gives up
# (above _ENUM_LIMIT), and the largest module the MeatAxe accepts
_MEATAXE_ATTEMPTS = 64
_ISO_ATTEMPTS = 256
_MEATAXE_DIM_BOUND = 2000


class MeataxeBudgetError(RuntimeError):
    """Splitting was not achieved within the configured trial budget."""


class InconclusiveError(RuntimeError):
    pass


def _rng_of(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if seed_or_rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    return np.random.default_rng(seed_or_rng)


# ---------------------------------------------------------------------------
# Algebras and modules


class GenAlgebra:
    """Generator-presented algebra with designated simples and projectives.

    `relation_checker(action, p)` returns a list of violation messages for a
    candidate action dict.  `shifts` maps generator names to grading shifts;
    None means the algebra carries no grading convention and its modules
    must be ungraded.  `projectives[i]`, when present, is the projective
    cover of `simples[i]`; entries may be None when no construction is
    available for that simple.
    """

    def __init__(
        self,
        algebra_id: str,
        p: int,
        gens: Sequence[str],
        relation_checker: Callable[[Dict[str, FpMat], int], List[str]],
        shifts: Optional[Dict[str, int]] = None,
        meta: Optional[dict] = None,
    ):
        self.algebra_id = algebra_id
        self.p = p
        self.gens = tuple(gens)
        self.relation_checker = relation_checker
        self.shifts = dict(shifts) if shifts is not None else None
        self.simples: List["GenAlgebraModule"] = []
        self.projectives: List[Optional["GenAlgebraModule"]] = []
        self.meta = meta or {}

    def designate(self, simples, projectives=None) -> None:
        self.simples = list(simples)
        self.projectives = list(projectives) if projectives else [None] * len(self.simples)
        if len(self.projectives) != len(self.simples):
            raise ValueError("projectives must align with simples")
        for s in self.simples:
            if len(hom_space(s, s)) != 1:
                raise ValueError("designated simple is not split (End != F_p)")

    def projective_of(self, idx: int) -> "GenAlgebraModule":
        cover = self.projectives[idx]
        if cover is None:
            raise ValueError(
                f"{self.algebra_id}: no projective cover designated for simple #{idx}"
            )
        return cover

    def __repr__(self):
        return f"GenAlgebra({self.algebra_id})"


class GenAlgebraModule:
    """Finite-dimensional module given by one action matrix per generator."""

    def __init__(
        self,
        algebra: GenAlgebra,
        action: Dict[str, FpMat],
        grading: Optional[Sequence[int]] = None,
        check: bool = True,
    ):
        self.algebra = algebra
        # read-only, so that the cached spin and simple Homs below cannot go stale
        self.action = MappingProxyType(dict(action))
        self.grading = None if grading is None else tuple(int(d) for d in grading)
        # the module whose spin this one shares; set on shifts only
        self._spin_source: Optional[GenAlgebraModule] = None
        dims = {m.rows for m in self.action.values()} | {m.cols for m in self.action.values()}
        if set(self.action) != set(algebra.gens):
            raise ValueError("action must cover exactly the algebra's generators")
        if len(dims) > 1:
            raise ValueError("action matrices must be square of equal size")
        self.dim = dims.pop() if dims else 0
        for m in self.action.values():
            if m.p != algebra.p:
                raise ValueError("module modulus differs from the algebra's")
        if self.grading is not None:
            if algebra.shifts is None:
                raise ValueError(f"{algebra.algebra_id} carries no grading convention")
            if len(self.grading) != self.dim:
                raise ValueError("grading length must equal the dimension")
            self._check_grading()
        if check:
            problems = algebra.relation_checker(self.action, algebra.p)
            if problems:
                raise ValueError(f"relations violated: {problems}")

    def _check_grading(self):
        deg = np.asarray(self.grading)
        for g, m in self.action.items():
            s = self.algebra.shifts[g]
            i, j = np.nonzero(m.a)
            if i.size and not np.array_equal(deg[i], deg[j] + s):
                raise ValueError(f"generator {g} does not shift degrees by {s}")

    @property
    def graded(self) -> bool:
        return self.grading is not None

    def mat(self, g: str) -> FpMat:
        return self.action[g]

    @cached_property
    def spin(self) -> "Spin":
        """The spun basis of `generating_set`, in the form Hom solves read.

        Computed once per module and shared with its shifts, which have the
        same action; every Hom space out of the module reads it.
        """
        if self._spin_source is not None:
            return self._spin_source.spin
        p = self.algebra.p
        B, derivs, G = generating_set(self)
        binv = inverse(B).a.astype(np.float64)
        roots = np.array([t for t, d in enumerate(derivs) if d[0] == "root"], dtype=np.int64)
        # the spanning-tree edges b_t = g*b_parent, grouped by the depth of t
        # and then by generator: every parent of a group lies one level up
        gens = self.algebra.gens
        depth = [0] * self.dim
        edges: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        tree = set()
        for t, d in enumerate(derivs):
            if d[0] == "mul":
                _, g, parent = d
                tree.add((g, parent))
                depth[t] = depth[parent] + 1
                edges.setdefault((depth[t], gens.index(g)), []).append((parent, t))
        levels = []
        for key in sorted(edges):
            parents, kids = np.array(edges[key], dtype=np.int64).T
            levels.append((gens[key[1]], parents, kids))
        pairs, rows = [], []
        for g in self.algebra.gens:
            ts = np.array([t for t in range(self.dim) if (g, t) not in tree], dtype=np.int64)
            pairs.append((g, ts))
            # column t of B^-1 g B holds the coordinates of g*b_t
            rows.append(_exact_matmul(binv, _exact_matmul(self.mat(g).a, B.a[:, ts], p), p).T)
        return Spin(roots, tuple(levels), G.a.argmax(axis=0), binv, tuple(pairs), np.vstack(rows))

    @cached_property
    def maps_to_simples(self) -> Tuple[tuple, ...]:
        """(simple index, shift or None, simple S, Hom(M, S)) for each S of
        `_simple_targets` with Hom(M, S) nonzero, M being this module.

        Solved once per module; top, radical and projective_cover read it.
        """
        targets = ((idx, d, S, hom_space(self, S)) for idx, d, S in _simple_targets(self))
        return tuple(t for t in targets if t[3])

    @cached_property
    def maps_from_simples(self) -> Tuple[tuple, ...]:
        """(simple index, shift or None, simple S, Hom(S, M)) for each S of
        `_simple_targets` with Hom(S, M) nonzero, M being this module.

        Solved once per module; socle reads it.
        """
        sources = ((idx, d, S, hom_space(S, self)) for idx, d, S in _simple_targets(self))
        return tuple(t for t in sources if t[3])

    def forget_grading(self) -> "GenAlgebraModule":
        return GenAlgebraModule(self.algebra, self.action, None, check=False)

    def shifted(self, d: int) -> "GenAlgebraModule":
        """This module with every degree raised by d.

        A shift relabels degrees only, so the shifted grading needs no new
        check and the spin is shared.  The Hom spaces to and from the
        simples depend on the degrees, so they start empty.
        """
        if not self.graded:
            raise ValueError("cannot shift an ungraded module")
        out = copy.copy(self)
        out.grading = tuple(x + d for x in self.grading)
        out._spin_source = self if self._spin_source is None else self._spin_source
        for name in ("maps_to_simples", "maps_from_simples"):
            vars(out).pop(name, None)
        return out

    def __repr__(self):
        tag = f", degrees {sorted(set(self.grading))}" if self.graded else ""
        return f"<module dim {self.dim} over {self.algebra.algebra_id}{tag}>"


@dataclass(frozen=True)
class Spin:
    """A module's spun basis B = (b_0, ..., b_{m-1}) from `generating_set`.

    Generator j is the unit vector e_{gen_pos[j]} and spins into column
    roots[j] of B.  `levels` lists the spanning tree of the spin as
    (g, parents, kids) with b_kid = g*b_parent, grouped by the depth of the
    kids and then by generator, so each group's parents lie in earlier
    groups.  `pairs` lists, per generator g, the columns t where g*b_t is
    not itself a column of B (the pairs off the spanning tree), and
    `coord_rows` holds the coordinates of those g*b_t in B, one float64 row
    per pair in the same order.  `binv` is B^-1 in float64.
    """

    roots: np.ndarray
    levels: Tuple[Tuple[str, np.ndarray, np.ndarray], ...]
    gen_pos: np.ndarray
    binv: np.ndarray
    pairs: Tuple[Tuple[str, np.ndarray], ...]
    coord_rows: np.ndarray


def zero_module(algebra: GenAlgebra, graded: bool = False) -> GenAlgebraModule:
    action = {g: zeros(0, 0, algebra.p) for g in algebra.gens}
    return GenAlgebraModule(algebra, action, [] if graded else None, check=False)


def direct_sum(mods: Sequence[GenAlgebraModule]) -> GenAlgebraModule:
    if not mods:
        raise ValueError("direct_sum of nothing; pass zero_module explicitly")
    alg = mods[0].algebra
    for m in mods[1:]:
        if m.algebra is not alg:
            raise ValueError("summands live over different algebras")
    graded = all(m.graded for m in mods)
    action = {g: block_diag([m.mat(g) for m in mods], alg.p) for g in alg.gens}
    grading = None
    if graded:
        grading = [d for m in mods for d in m.grading]
    return GenAlgebraModule(alg, action, grading, check=False)


# ---------------------------------------------------------------------------
# Sub/quotient structures


def _coords_in_basis(basis: FpMat, vectors: FpMat) -> FpMat:
    x = solve(basis, vectors)
    if x is None:
        raise ValueError("vectors do not lie in the span of the basis")
    return x


def submodule(M: GenAlgebraModule, basis: FpMat) -> GenAlgebraModule:
    """Module structure on the span of `basis` columns (must be action-stable)."""
    if basis.cols == 0:
        return zero_module(M.algebra, M.graded)
    p = M.algebra.p
    action = {}
    for g in M.algebra.gens:
        moved = _exact_matmul(M.mat(g).a, basis.a, p).astype(np.int64)
        action[g] = _coords_in_basis(basis, FpMat(moved, p))
    grading = None
    if M.graded:
        grading = _degrees_of_columns(basis, M.grading)
    return GenAlgebraModule(M.algebra, action, grading, check=False)


def _degrees_of_columns(basis: FpMat, grading: Sequence[int]) -> List[int]:
    deg = np.asarray(grading)
    out = []
    for k in range(basis.cols):
        support = np.nonzero(basis.a[:, k])[0]
        degs = set(deg[support].tolist())
        if len(degs) != 1:
            raise ValueError("basis column is not homogeneous")
        out.append(degs.pop())
    return out


def homogeneous_basis(span: FpMat, grading: Sequence[int]) -> FpMat:
    """Homogeneous basis of a graded subspace given by arbitrary spanning columns."""
    p = span.p
    deg = np.asarray(grading)
    tracker = SpanTracker(span.rows, p)
    cols: List[np.ndarray] = []
    for d in sorted(set(deg.tolist())):
        mask = deg == d
        for k in range(span.cols):
            v = np.where(mask, span.a[:, k], 0) % p
            if v.any() and tracker.insert(v):
                cols.append(v)
    if len(cols) != rref(span).rank:
        raise ValueError("subspace is not graded")
    if not cols:
        return zeros(span.rows, 0, p)
    return FpMat(np.column_stack(cols), p)


def _complement_projection(sub_basis: FpMat, n: int) -> Tuple[FpMat, List[int]]:
    """Projection F_p^n -> F_p^n / span(sub_basis) in complement coordinates.

    Returns (projection, complement columns).  The complement is the set of
    non-pivot columns of the RREF of the span, which is unique, so the
    projection depends on the subspace only, not on the basis given.
    """
    p = sub_basis.p
    red = rref(FpMat(sub_basis.a.T.copy(), p))
    pivots = list(red.pivots)
    comp = sorted(set(range(n)).difference(pivots))
    # e_c maps to itself, while each echelon row says
    # e_pivot = -sum over comp columns modulo the span
    proj = np.zeros((len(comp), n), dtype=np.int64)
    proj[:, comp] = np.eye(len(comp), dtype=np.int64)
    proj[:, pivots] = (-red.matrix.a[: len(pivots)][:, comp].T) % p
    return FpMat(proj, p), comp


def quotient(M: GenAlgebraModule, sub_basis: FpMat) -> Tuple[GenAlgebraModule, FpMat]:
    """Quotient by the span of `sub_basis`; returns (module, projection matrix)."""
    p = M.algebra.p
    projm, comp = _complement_projection(sub_basis, M.dim)
    embm = FpMat(np.eye(M.dim, dtype=np.int64)[:, comp], p)
    action = {g: projm @ M.mat(g) @ embm for g in M.algebra.gens}
    grading = None
    if M.graded:
        grading = [M.grading[c] for c in comp]
    return GenAlgebraModule(M.algebra, action, grading, check=False), projm


# ---------------------------------------------------------------------------
# Hom spaces


def generating_set(M: GenAlgebraModule) -> Tuple[FpMat, List[tuple], FpMat]:
    """Greedy generating vectors with a spun basis and its derivation forest.

    Returns (basis matrix B, derivations, generator columns).  Derivations
    record how each basis column arises: ("root", j) for the j-th generator
    vector, ("mul", g, t) for generator g applied to column t.
    """
    p = M.algebra.p
    n = M.dim
    tracker = SpanTracker(n, p)
    basis_cols: List[np.ndarray] = []
    derivs: List[tuple] = []
    gen_cols: List[np.ndarray] = []
    nxt = 0
    while tracker.dim < n:
        while nxt < n:
            v = np.zeros(n, dtype=np.int64)
            v[nxt] = 1
            nxt += 1
            if not tracker.contains(v):
                break
        else:
            raise RuntimeError("standard basis exhausted before spanning")
        tracker.insert(v)
        basis_cols.append(v)
        derivs.append(("root", len(gen_cols)))
        gen_cols.append(v)
        frontier = [len(basis_cols) - 1]
        while frontier:
            t = frontier.pop(0)
            for g in M.algebra.gens:
                w = (M.mat(g).a @ basis_cols[t]) % p
                if w.any() and tracker.insert(w):
                    basis_cols.append(w)
                    derivs.append(("mul", g, t))
                    frontier.append(len(basis_cols) - 1)
    B = FpMat(np.column_stack(basis_cols) % p, p)
    G = FpMat(np.column_stack(gen_cols) % p, p)
    return B, derivs, G


def _hom_by_spinning(M: GenAlgebraModule, N: GenAlgebraModule) -> List[FpMat]:
    # a hom is determined by the images of M's generator vectors; track the
    # spun basis of M as word operators on those images and solve the
    # compatibility system in the images only.  Generator j is a unit vector
    # e_c, so a degree-0 map sends it into degree M.grading[c] of N: graded
    # pairs keep only those unknowns, and as every spun vector is homogeneous,
    # every solution has degree 0
    p = M.algebra.p
    m, n = M.dim, N.dim
    spin = M.spin
    n_gen = spin.gen_pos.size
    # unknown u is coordinate row_of[u] of the image of generator gen_of[u]
    gen_of = np.repeat(np.arange(n_gen), n)
    row_of = np.tile(np.arange(n), n_gen)
    if M.graded and N.graded:
        gen_deg = np.asarray(M.grading)[spin.gen_pos]
        keep = np.asarray(N.grading)[row_of] == gen_deg[gen_of]
        gen_of, row_of = gen_of[keep], row_of[keep]
    unknowns = gen_of.size
    if unknowns == 0:
        return []
    act = {g: N.mat(g).a.astype(np.float64) for g in M.algebra.gens}
    # W[t] @ x is the image of b_t when x holds the unknowns; one stacked
    # product per group of tree edges, each slice the size of one edge's
    W = np.zeros((m, n, unknowns), dtype=np.float64)
    W[spin.roots[gen_of], row_of, np.arange(unknowns)] = 1
    for g, parents, kids in spin.levels:
        W[kids] = _exact_matmul(act[g], W[parents], p)
    # phi(g*b_t) = g*phi(b_t), where g*b_t = sum_s coord_rows[pair, s] b_s;
    # on a spanning-tree edge g*b_t is the column built from b_t, so W
    # satisfies it already and only the other pairs give equations
    lhs = np.concatenate([_exact_matmul(act[g], W[ts], p) for g, ts in spin.pairs])
    # rhs[b] = coord_rows @ W[:, b, :], one product per coordinate b of N,
    # laid out as lhs with its first two axes swapped; one flattened product
    # would be large enough for OpenBLAS to start helper threads, which then
    # spin between calls
    rhs = _exact_matmul(spin.coord_rows, W.transpose(1, 0, 2), p)
    # pair-major: system[pair] holds the n equations of one pair
    system = (lhs - rhs.transpose(1, 0, 2)).astype(np.int64)
    del lhs, rhs  # freed before the elimination copies blocks of the system
    np.add(system, p, out=system, where=system < 0)  # lhs - rhs lies in (-p, p)
    live = np.flatnonzero(system.any(axis=(1, 2)))  # pairs with a nonzero equation
    # most Hom spaces out of a simple, or into one, are zero: feed the live
    # pairs in blocks that double, the first just tall enough to bind every
    # unknown, and stop once none is free.  A block is reduced one
    # coordinate of N at a time, as rhs is formed, for the same reason
    ech = Echelon(unknowns, p)
    start, size = 0, -(-unknowns // n)
    while start < len(live):
        ech.add(system[live[start : start + size]].transpose(1, 0, 2))
        if ech.rank == unknowns:
            return []
        start, size = start + size, 2 * size
    del system  # freed before the maps are formed
    ker = ech.kernel()
    # images[t, :, c] is the image of b_t under map c; map c is that n x m
    # matrix of images times B^-1
    images = _exact_matmul(W, ker.a, p)
    maps = _exact_matmul(np.ascontiguousarray(images.T), spin.binv, p).astype(np.int64)
    return [FpMat(phi, p) for phi in maps]


def hom_space(M: GenAlgebraModule, N: GenAlgebraModule) -> List[FpMat]:
    """Basis of Hom(M, N), solved by spinning M; degree-0 maps when both
    modules are graded, by masking the generator images by degree."""
    if M.algebra is not N.algebra:
        raise ValueError("hom_space needs modules over the same algebra")
    if M.dim == 0 or N.dim == 0:
        return []
    return _hom_by_spinning(M, N)


def end_space(M: GenAlgebraModule) -> List[FpMat]:
    return hom_space(M, M)


# ---------------------------------------------------------------------------
# Top, radical, socle


def _shift_candidates(M: GenAlgebraModule, S: GenAlgebraModule) -> List[int]:
    if not M.graded or M.dim == 0 or S.dim == 0:
        return []
    return sorted({dm - ds for dm in set(M.grading) for ds in set(S.grading)})


def _simple_targets(M: GenAlgebraModule):
    """(simple index, shift or None, simple) for each simple M is compared with.

    A graded M is compared with every degree shift of a simple that meets
    its degrees; an ungraded M with each simple once, ungraded.
    """
    for idx, S in enumerate(M.algebra.simples):
        if M.graded:
            for d in _shift_candidates(M, S):
                yield idx, d, S.shifted(d)
        else:
            yield idx, None, S.forget_grading() if S.graded else S


def _multiset_entry(idx: int, d: Optional[int], mult: int) -> tuple:
    return (idx, mult) if d is None else (idx, d, mult)


def top(M: GenAlgebraModule) -> List[tuple]:
    """Multiset of simples in M/rad(M).

    Ungraded: [(simple index, mult)].  Graded: [(simple index, shift, mult)]
    where the canonical simple shifted by `shift` occurs `mult` times.
    """
    return [_multiset_entry(idx, d, len(maps)) for idx, d, _, maps in M.maps_to_simples]


def _radical_from(M: GenAlgebraModule, targets: Sequence[tuple]) -> FpMat:
    # rad(M) is the common kernel of the maps onto simples; for a graded M
    # an ungraded such map splits into degree-0 maps onto shifted simples,
    # so the degree-0 maps already cut out rad(M), homogeneously
    mats = [phi for _, _, _, maps in targets for phi in maps]
    if not mats:
        return identity(M.dim, M.algebra.p)
    stacked = vstack(mats)
    if not M.graded:
        return kernel_basis(stacked)
    row_deg = [d for _, _, S, maps in targets for _ in maps for d in S.grading]
    return _graded_kernel(stacked, row_deg, M.grading)


def radical(M: GenAlgebraModule) -> FpMat:
    """Basis of rad(M) = intersection of kernels of all maps onto simples."""
    if M.dim == 0:
        return zeros(0, 0, M.algebra.p)
    return _radical_from(M, M.maps_to_simples)


def socle(M: GenAlgebraModule) -> Tuple[List[tuple], FpMat]:
    """Socle structure and a basis of the sum of all simple submodules."""
    p = M.algebra.p
    structure = []
    tracker = SpanTracker(M.dim, p)
    cols: List[np.ndarray] = []
    for idx, d, _, maps in M.maps_from_simples:
        structure.append(_multiset_entry(idx, d, len(maps)))
        for phi in maps:
            for c in range(phi.cols):
                v = phi.a[:, c]
                if tracker.insert(v):
                    cols.append(v % p)
    basis = (
        FpMat(np.column_stack(cols) % p, p) if cols else zeros(M.dim, 0, p)
    )
    return structure, basis


def composition_factors(M: GenAlgebraModule) -> List[Tuple[int, int]]:
    """Composition multiset [(simple index, multiplicity)] by socle peeling."""
    counts: Dict[int, int] = {}
    current = M
    while current.dim:
        struct, basis = socle(current)
        if basis.cols == 0:
            raise RuntimeError("module has no socle; not over this algebra's simples")
        for entry in struct:
            idx, mult = entry[0], entry[-1]
            counts[idx] = counts.get(idx, 0) + mult
        current, _ = quotient(current, basis)
    return sorted(counts.items())


# ---------------------------------------------------------------------------
# Projective covers and the Heller operator


def projective_cover(M: GenAlgebraModule) -> Tuple[GenAlgebraModule, FpMat, List[tuple]]:
    """Projective cover (P, surjection P -> M, block structure).

    The surjection is an (dim M) x (dim P) matrix.  Blocks list entries
    (simple index, shift or None, multiplicity) in the order the summands
    of P are laid out.
    """
    alg = M.algebra
    p = alg.p
    if M.dim == 0:
        return zero_module(alg, M.graded), zeros(0, 0, p), []
    targets = M.maps_to_simples
    proj, _ = _complement_projection(_radical_from(M, targets), M.dim)
    blocks: List[GenAlgebraModule] = []
    block_info: List[tuple] = []
    columns: List[FpMat] = []
    for idx, d, _, maps in targets:
        mult = len(maps)
        Pcan = alg.projective_of(idx)
        if M.graded:
            tops = top(Pcan)
            if len(tops) != 1 or tops[0][2] != 1:
                raise ValueError("designated projective does not have simple top")
            # align the shifted projective so its top sits at shift d
            Pblock = Pcan.shifted(d - tops[0][1])
        else:
            Pblock = Pcan.forget_grading() if Pcan.graded else Pcan
        cands = hom_space(Pblock, M)
        chosen: List[FpMat] = []
        tracker = SpanTracker(proj.rows * Pblock.dim, p)
        for phi, induced in zip(cands, _products_flat(proj, cands)):
            if tracker.insert(induced):
                chosen.append(phi)
                if len(chosen) == mult:
                    break
        if len(chosen) != mult:
            raise RuntimeError("projective cover lifting failed to reach the top")
        for phi in chosen:
            blocks.append(Pblock)
            columns.append(phi)
            block_info.append((idx, d, 1))
    P = direct_sum(blocks)
    C = hstack(columns)
    if rref(C).rank != M.dim:
        raise RuntimeError("candidate cover map is not surjective")
    return P, C, block_info


def _products_flat(A: FpMat, mats: List[FpMat]) -> np.ndarray:
    """Row i is A @ mats[i], flattened; all products in one stacked call."""
    if not mats:
        return np.zeros((0, 0), dtype=np.int64)
    stacked = np.stack([phi.a for phi in mats])
    return _exact_matmul(A.a, stacked, A.p).astype(np.int64).reshape(len(mats), -1)


def _graded_kernel(C: FpMat, row_deg: Sequence[int], col_deg: Sequence[int]) -> FpMat:
    """Homogeneous kernel basis of a degree-0 map given by matrix C.

    The basis is ordered by degree, and within a degree by free column.
    """
    row_deg = np.asarray(row_deg, dtype=np.int64)
    col_deg = np.asarray(col_deg, dtype=np.int64)
    i, j = np.nonzero(C.a)
    if not np.array_equal(row_deg[i], col_deg[j]):
        raise ValueError("map joins two different degrees")
    # C is block-diagonal by degree up to a permutation, so its RREF is the
    # union of the blocks' RREFs and each kernel vector lies in the degree of
    # its free column: one elimination, then a stable sort by that degree
    ech = Echelon(C.cols, C.p)
    ech.add(C.a)
    order = np.argsort(col_deg[ech.free], kind="stable")
    return FpMat(ech.kernel().a[:, order], C.p)


def strip_projectives(M: GenAlgebraModule, rng=None) -> GenAlgebraModule:
    """Direct sum of the non-projective indecomposable summands of M."""
    if M.dim == 0:
        return M
    factors = meataxe_split(M, rng=rng)
    keep = [F for F in factors if not is_projective(F)]
    if len(keep) == len(factors):
        return M
    if not keep:
        return zero_module(M.algebra, M.graded)
    return direct_sum(keep)


def is_projective(M: GenAlgebraModule) -> bool:
    if M.dim == 0:
        return True
    P, _, _ = projective_cover(M)
    return P.dim == M.dim


def heller(M: GenAlgebraModule, strip: bool = True, rng=None) -> GenAlgebraModule:
    """Kernel of the projective cover map, projective summands split off.

    For a module without projective summands the cover is already minimal
    and its kernel contains no projective summands; `strip` controls the
    initial removal of projective summands from M itself.
    """
    M0 = strip_projectives(M, rng=rng) if strip else M
    return _cover_kernel(M0, projective_cover(M0))


def _cover_kernel(M: GenAlgebraModule, cover: tuple) -> GenAlgebraModule:
    """Kernel of the surjection of `cover`, a projective cover of M."""
    P, C, _ = cover
    ker = _graded_kernel(C, M.grading, P.grading) if M.graded else kernel_basis(C)
    return submodule(P, ker)


def heller_power(M: GenAlgebraModule, n: int, rng=None) -> GenAlgebraModule:
    current = strip_projectives(M, rng=rng)
    if n >= 0:
        for _ in range(n):
            current = heller(current, strip=False, rng=rng)
        return current
    for _ in range(-n):
        current = dual_module(heller(dual_module(current), strip=False, rng=rng))
    return current


# ---------------------------------------------------------------------------
# Duality over the opposite algebra


def opposite_algebra(alg: GenAlgebra) -> GenAlgebra:
    """The opposite algebra; modules over it are duals of modules over alg."""
    if "op" in alg.meta:
        return alg.meta["op"]
    if alg.meta.get("op_of") is not None:
        return alg.meta["op_of"]

    base_checker = alg.relation_checker

    def op_checker(action, p):
        return base_checker({g: m.transpose() for g, m in action.items()}, p)

    op = GenAlgebra(
        alg.algebra_id + "-op",
        alg.p,
        alg.gens,
        op_checker,
        shifts=alg.shifts,
        meta={"op_of": alg},
    )
    alg.meta["op"] = op

    # dual_module finds op through alg.meta["op"], set just above
    op_simples = [dual_module(S) for S in alg.simples]
    op.designate(op_simples)
    # duals of projectives are projective again (self-injective scope); their
    # tops permute, so match each dualized cover to the simple it covers
    op_projectives: List[Optional[GenAlgebraModule]] = [None] * len(op_simples)
    for P in alg.projectives:
        if P is None:
            continue
        Q = dual_module(P)
        tops = top(Q.forget_grading() if Q.graded else Q)
        if len(tops) != 1 or tops[0][-1] != 1:
            raise RuntimeError("dualized projective lost its simple top")
        op_projectives[tops[0][0]] = Q
    op.projectives = op_projectives
    return op


def dual_module(M: GenAlgebraModule) -> GenAlgebraModule:
    op = opposite_algebra(M.algebra)
    action = {g: M.mat(g).transpose() for g in M.algebra.gens}
    grading = None if not M.graded else [-d for d in M.grading]
    return GenAlgebraModule(op, action, grading, check=False)


# ---------------------------------------------------------------------------
# MeatAxe splitting


def _fitting_split(M: GenAlgebraModule, theta: FpMat) -> Optional[Tuple[FpMat, FpMat]]:
    """Kernel/image bases of theta^(2^k >= dim), or None when trivial."""
    p = M.algebra.p
    power = theta
    k = 1
    while k < M.dim:
        power = power @ power
        k *= 2
    if M.graded:
        ker = _graded_kernel(power, M.grading, M.grading)
    else:
        ker = kernel_basis(power)
    if ker.cols == 0 or ker.cols == M.dim:
        return None
    if M.graded:
        img = homogeneous_basis(power, M.grading)
    else:
        cols = []
        tracker = SpanTracker(M.dim, p)
        for c in range(power.cols):
            v = power.a[:, c]
            if v.any() and tracker.insert(v):
                cols.append(v)
        img = FpMat(np.column_stack(cols), p) if cols else zeros(M.dim, 0, p)
    if ker.cols + img.cols != M.dim:
        return None
    both = FpMat(np.hstack([ker.a, img.a]), p)
    if rref(both).rank != M.dim:
        return None
    return ker, img


def _combination(coeffs, stacked: np.ndarray, p: int) -> FpMat:
    """sum_i coeffs[i] * stacked[i] mod p, for matrices stacked along axis 0."""
    return FpMat(np.tensordot(np.asarray(coeffs, dtype=np.int64), stacked, axes=1) % p, p)


def _all_combinations(stacked: np.ndarray, p: int):
    """Every nonzero combination of the stacked matrices, in a fixed order.

    The order is that of the codes 1 .. p^k - 1 whose little-endian base-p
    digits are the coefficients; seeded results depend on it.
    """
    digits = itertools.product(range(p), repeat=len(stacked))
    next(digits)  # the zero combination
    for big_endian in digits:
        yield _combination(big_endian[::-1], stacked, p)


def meataxe_split_with_bases(
    M: GenAlgebraModule, rng=None
) -> List[Tuple[GenAlgebraModule, FpMat]]:
    """Split M into indecomposable summands by Fitting decompositions.

    Returns (summand, basis) pairs with the basis columns in M coordinates.
    Random endomorphisms are drawn until one splits the module; a factor is
    declared indecomposable once its endomorphism algebra is proved local
    (exhaustively, when small enough) or once `_MEATAXE_ATTEMPTS` draws were
    all nilpotent-or-invertible.
    """
    if M.dim > _MEATAXE_DIM_BOUND:
        raise MeataxeBudgetError(f"dim {M.dim} exceeds the bound {_MEATAXE_DIM_BOUND}")
    rng = _rng_of(rng)
    p = M.algebra.p

    def rec(current, basis):
        if current.dim == 0:
            return []
        ends = end_space(current)
        if len(ends) == 1:
            return [(current, basis)]

        def try_split(theta):
            pair = _fitting_split(current, theta)
            if pair is None:
                return None
            ker, img = pair
            return rec(submodule(current, ker), basis @ ker) + rec(
                submodule(current, img), basis @ img
            )

        # basis elements first, then random combinations
        for theta in ends:
            result = try_split(theta)
            if result is not None:
                return result
        stacked = np.stack([e.a for e in ends])
        for _ in range(_MEATAXE_ATTEMPTS):
            result = try_split(_combination(rng.integers(0, p, size=len(ends)), stacked, p))
            if result is not None:
                return result
        if p ** len(ends) <= _ENUM_LIMIT:
            # exhaustive locality proof: every endo nilpotent or invertible
            for theta in _all_combinations(stacked, p):
                result = try_split(theta)
                if result is not None:
                    return result
            return [(current, basis)]
        # random evidence only: every draw was nilpotent or invertible
        return [(current, basis)]

    return rec(M, identity(M.dim, p))


def meataxe_split(M: GenAlgebraModule, rng=None) -> List[GenAlgebraModule]:
    return [f for f, _ in meataxe_split_with_bases(M, rng)]


# ---------------------------------------------------------------------------
# Isomorphism testing


@dataclass(frozen=True)
class IsoResult:
    status: str  # "iso", "not_iso", "inconclusive"
    witness: Optional[FpMat] = None

    def __bool__(self):
        if self.status == "inconclusive":
            raise InconclusiveError("isomorphism test was inconclusive")
        return self.status == "iso"


def _try_invertible(maps: List[FpMat], p: int, dim: int, rng) -> Optional[FpMat]:
    if not maps:
        return None
    k = len(maps)
    stacked = np.stack([m.a for m in maps])
    if p**k <= _ENUM_LIMIT:
        cands = _all_combinations(stacked, p)
    else:
        cands = (
            _combination(rng.integers(0, p, size=k), stacked, p) for _ in range(_ISO_ATTEMPTS)
        )
    return next((c for c in cands if rref(c).rank == dim), None)


def is_isomorphic(
    M: GenAlgebraModule,
    N: GenAlgebraModule,
    rng=None,
    decompose: bool = True,
) -> IsoResult:
    """Decide M ~ N with an explicit witness; graded modules need a degree-0 one."""
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebras")
    rng = _rng_of(rng)
    if M.dim != N.dim:
        return IsoResult("not_iso")
    if M.dim == 0:
        return IsoResult("iso", zeros(0, 0, M.algebra.p))
    if M.graded != N.graded:
        raise ValueError("cannot compare graded with ungraded modules")
    if M.graded and sorted(M.grading) != sorted(N.grading):
        return IsoResult("not_iso")
    if sorted(top(M)) != sorted(top(N)):
        return IsoResult("not_iso")
    if sorted(socle(M)[0]) != sorted(socle(N)[0]):
        return IsoResult("not_iso")
    maps = hom_space(M, N)
    if not maps:
        return IsoResult("not_iso")
    witness = _try_invertible(maps, M.algebra.p, M.dim, rng)
    if witness is not None:
        return IsoResult("iso", witness)
    if M.algebra.p ** len(maps) <= _ENUM_LIMIT:
        # the enumeration above was exhaustive: no invertible hom exists
        return IsoResult("not_iso")
    if decompose:
        return _iso_by_decomposition(M, N, rng)
    return IsoResult("inconclusive")


def _iso_by_decomposition(M, N, rng) -> IsoResult:
    fm = meataxe_split(M, rng=rng)
    fn = meataxe_split(N, rng=rng)
    if sorted(f.dim for f in fm) != sorted(f.dim for f in fn):
        return IsoResult("not_iso")
    remaining = list(fn)
    for f in fm:
        hit = None
        for i, g in enumerate(remaining):
            r = is_isomorphic(f, g, rng=rng, decompose=False)
            if r.status == "iso":
                hit = i
                break
            if r.status == "inconclusive":
                return IsoResult("inconclusive")
        if hit is None:
            return IsoResult("not_iso")
        remaining.pop(hit)
    # factor-wise matching succeeded but no global witness was assembled
    return IsoResult("iso")


# ---------------------------------------------------------------------------
# Stable Hom, resolution traces, complexity


def stable_hom_dim(M: GenAlgebraModule, N: GenAlgebraModule) -> int:
    """dim of Hom(M, N) modulo maps factoring through a projective."""
    return _stable_hom_dim(M, N, projective_cover(N))


def _stable_hom_dim(M: GenAlgebraModule, N: GenAlgebraModule, cover: tuple) -> int:
    # maps factoring through a projective factor through the cover P -> N
    maps = hom_space(M, N)
    if not maps:
        return 0
    P, C, _ = cover
    tracker = SpanTracker(N.dim * M.dim, M.algebra.p)
    dim_factoring = sum(tracker.insert(v) for v in _products_flat(C, hom_space(M, P)))
    return len(maps) - dim_factoring


@dataclass
class ResolutionTrace:
    module: GenAlgebraModule
    length: int
    omega_dims: List[int]
    ext_dims: Optional[List[int]] = None

    def report(self, min_len: int = 12) -> dict:
        est = estimate_complexity(self, min_len=min_len)
        return {
            "omega_dims": list(self.omega_dims),
            "ext_dims": None if self.ext_dims is None else list(self.ext_dims),
            "complexity_estimate": "inconclusive" if est is None else est,
        }


def ext_dims(M: GenAlgebraModule, length: int, rng=None, with_ext: bool = True) -> ResolutionTrace:
    """Trace of Omega^n dims and dim Ext^n(M, M) = stable Hom(Omega^n M, M)."""
    M0 = strip_projectives(M, rng=rng)
    cover = projective_cover(M0)  # shared by the first step and every stable Hom
    omega = [M0.dim]
    exts = [_stable_hom_dim(M0, M0, cover)] if with_ext else None
    current = M0
    for _ in range(length):
        step_cover = cover if current is M0 else projective_cover(current)
        current = _cover_kernel(current, step_cover)
        omega.append(current.dim)
        if with_ext:
            exts.append(_stable_hom_dim(current, M0, cover))
    return ResolutionTrace(M, length, omega, exts)


def estimate_complexity(trace, min_len: int = 12, tail: int = 8) -> Optional[int]:
    """Growth-rate estimate from a resolution trace; None when inconclusive.

    Returns 0 iff the dims hit zero.  Otherwise takes the tail (smoothed by
    adjacent-pair sums to remove parity wobble) and returns degree+1 for the
    least degree whose exact integer finite differences of order degree+1
    all vanish, i.e. the tail is exactly a polynomial of that degree.
    """
    dims = trace.omega_dims if isinstance(trace, ResolutionTrace) else list(trace)
    if any(d == 0 for d in dims):
        return 0
    if len(dims) - 1 < min_len:
        return None
    smooth = [dims[i] + dims[i + 1] for i in range(len(dims) - 1)]
    window = np.asarray(smooth[-tail:], dtype=np.int64)
    # a degree-d fit needs more than d + 1 points to mean anything
    for degree in range(min(5, len(window) - 1)):
        if not np.diff(window, degree + 1).any():
            return degree + 1
    return None


# ---------------------------------------------------------------------------
# Serialization


def module_to_json(M: GenAlgebraModule) -> dict:
    return {
        "p": M.algebra.p,
        "algebra": M.algebra.algebra_id,
        "dim": M.dim,
        "generators": list(M.algebra.gens),
        "action": {g: M.mat(g).a.tolist() for g in M.algebra.gens},
        "grading": None if not M.graded else list(M.grading),
    }


def module_from_json(data: dict, algebra: GenAlgebra) -> GenAlgebraModule:
    if data["algebra"] != algebra.algebra_id:
        raise ValueError(
            f"module file is for algebra {data['algebra']}, not {algebra.algebra_id}"
        )
    if data["p"] != algebra.p:
        raise ValueError("modulus mismatch between module file and algebra")
    if list(data["generators"]) != list(algebra.gens):
        raise ValueError("generator list mismatch")
    n = int(data["dim"])
    action = {
        g: fpmat(np.asarray(rows, dtype=np.int64).reshape(n, n), algebra.p)
        for g, rows in data["action"].items()
    }
    return GenAlgebraModule(algebra, action, data.get("grading"))


def dump_module(M: GenAlgebraModule, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(module_to_json(M), fh)


def load_module(path: str, algebra: GenAlgebra) -> GenAlgebraModule:
    with open(path) as fh:
        return module_from_json(json.load(fh), algebra)
