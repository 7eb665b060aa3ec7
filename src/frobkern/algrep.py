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
solve runs in two stages.  The local equations, where a generator sends a
generator vector into the span of the generator vectors (e*v = 0 on a
highest-weight vector), read the images alone and are eliminated first; the
word operators of the spin and the other equations are then formed only
on the images that survive.  Both kernels are canonical, so their product
is the kernel one elimination of the whole system would give.  The first
stage of a system with no degree mask is solved once per target and local
system and kept on the target, as sources with the same local pairs pose
the same equations.  Most of its
equations have one nonzero entry, each forcing its unknown to 0: one pass
pins those, and only what they leave is eliminated.  Each
off-tree pair of the spin is a relation of M.  When M is free, spun from
one vector and as large as the algebra, each is a relation of the algebra
and holds on every module, so a solve out of M forms no equation: Hom(A, N)
is N.  Every other source whose spin reaches depth 2 first forms its
shallow pairs, those whose vectors lie at depth 0 or 1 below their root, on
the words of depth 1 alone.  These carry the weight of a highest-weight
generator (e*(f*v) = c*v), which the local pairs miss when the algebra has
no Cartan generator, so most empty Homs out of a simple end there.  Only
then are the deeper words and every other pair formed.  An End solve, which
holds the identity, forms them all at once, and so does a source on which
a generator acts by a nonzero diagonal matrix, as h does on a
u(sl2)-module: its local pairs fix the weight.  The equations stream into an
incremental echelon form, which stops as soon as no image is left free; its
RREF does not depend on the order of the rows, so neither does the kernel.
A solve first yields its kernel in generator-image coordinates.  A module
map is fixed by where it sends the generators, so projective covers pick
their lifts from those images under the maps onto each simple, stable Homs
count the maps through a projective at the generator vectors of a dual, and the
MeatAxe forms one endomorphism per try: only the maps a caller keeps
become matrices, each spun from its generator images along the spanning
tree of M.  The word operators of a solve that forms equations are dropped
once it has them.  Each module keeps, once formed, the simples it is
compared with, its Hom spaces to and from them (one solve per simple, all
its shifts in it), its socle, its cover, its dual, its ungraded view, its
radical once asked for, and the first stage of every Hom solve into it
that is not masked by degree; its shifts and its ungraded copy share its
spin and those first stages.  A graded module is compared with a simple
only at the shifts that keep the weights its diagonal generators read
(`_shift_candidates`).  The maps onto the simples take one of two routes.
A graded module, or one whose spin exists already, solves them out of
itself; an ungraded module not yet spun reads them as the transposes of
the maps from the op simples into the dual it keeps.  A stable Hom
Hom(M, N) mod projectives takes one route, whatever M is: it is read as
Hom(N*, M*) over the opposite algebra, out of N* and the duals of N's
cover, which stay the same along a trace.  So no resolution or trace spins
a syzygy.  A trace of a module that is semisimple once its projective
summands are split off counts no stable Hom at all: Ext into it is read
off the tops of the syzygies, which their Heller steps read anyway.  A
direct sum, as a cover is, forms its action only when it is read.  An
ungraded module has degree 0 throughout, so each module map has
one kernel, homogeneous, from one elimination of the whole map, and
independent columns are the pivots of one RREF, stably ordered by degree.

Gradings are plain integers; a generator may carry a degree shift, and a
graded module's action matrices must shift degrees exactly.  The Heller
operator is exact linear algebra over these self-injective algebras: Omega(M)
is the kernel of M's minimal projective cover, computed once per module.
`_span_module` puts Omega(M), every submodule and every quotient on its
subspace, with one product per distinct action among M's summands, and
reads the action off rows where the basis is the identity (Omega, with no
elimination) or invertible (a submodule), or off a complement's unit
vectors (a quotient).  Omega takes no seed.  Nor does the
isomorphism test: for a module with a simple top or socle a Hom basis map
decides, and otherwise every combination of the basis is tried up to a
fixed count.  Only the MeatAxe draws at random, seeded (default 0xF0B).
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import DEFAULT_SEED, check_degree
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
    rref,
    vstack,
    zeros,
)

# the most linear combinations enumerated: by a MeatAxe locality proof, and
# by an isomorphism test whose source has neither a simple top nor a simple
# socle (beyond it the test is inconclusive)
_ENUM_LIMIT = 4096

# random draws before a MeatAxe factor gives up (above _ENUM_LIMIT), and the
# largest module the MeatAxe accepts
_MEATAXE_ATTEMPTS = 64
_MEATAXE_DIM_BOUND = 2000


class MeataxeBudgetError(RuntimeError):
    """Splitting was not achieved within the configured trial budget."""


class InconclusiveError(RuntimeError):
    pass


def _rng_of(seed_or_rng) -> np.random.Generator:
    # default_rng returns a Generator it is passed unaltered
    return np.random.default_rng(DEFAULT_SEED if seed_or_rng is None else seed_or_rng)


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
        # `direct_sum` sets the fields below itself, all but the action
        self.algebra = algebra
        # read-only, so that the spin and the structure cached below cannot go stale
        self.action = MappingProxyType(dict(action))
        self.grading = None if grading is None else tuple(int(d) for d in grading)
        # the module whose spin this one shares; set on regraded copies only
        self._spin_source: Optional[GenAlgebraModule] = None
        # stage one of the Hom solves into this module, by local system
        # (`_local_kernel`); read through the spin source, as it holds the action
        self._local_kernels: Dict[tuple, Optional[tuple]] = {}
        # the modules of `direct_sum` this one is, when it is one (`summands`)
        self._summands: Optional[Tuple[GenAlgebraModule, ...]] = None
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

    @cached_property
    def action(self) -> MappingProxyType:
        """One read-only matrix per generator.  A direct sum forms its
        block-diagonal action when it is first read, as a Heller step reads
        only the summands of its cover; a regraded copy reads its source's."""
        if self._spin_source is not None:
            return self._spin_source.action
        p = self.algebra.p
        return MappingProxyType(
            {g: block_diag([S.mat(g) for S in self.summands], p) for g in self.algebra.gens}
        )

    @property
    def graded(self) -> bool:
        return self.grading is not None

    @property
    def degrees(self) -> Tuple[int, ...]:
        """The grading, or degree 0 throughout for an ungraded module."""
        return self.grading if self.graded else (0,) * self.dim

    def mat(self, g: str) -> FpMat:
        return self.action[g]

    @property
    def summands(self) -> Tuple["GenAlgebraModule", ...]:
        """The modules this one is the direct sum of, in the order of its
        basis: those `direct_sum` was given, or this module alone."""
        return self._summands or (self,)

    @cached_property
    def spin(self) -> "Spin":
        """`build_spin` of this module, which every Hom space out of it reads;
        shared with its shifts and its ungraded copy, which have its action."""
        if self._spin_source is not None:
            return self._spin_source.spin
        return build_spin(self)

    @cached_property
    def maps_to_simples(self) -> Tuple[tuple, ...]:
        """The maps onto the simples, listed as by `_maps_with_simples` and
        solved once per module, by one of two routes; top, radical_basis and
        projective_cover read only the span of the maps onto each S (a
        count, a common kernel, the pivots of a row space), so both give the
        same answers.  An ungraded M that is not spun yet reads Hom(M, S) as
        the transpose of Hom(S*, M*) over the opposite algebra: the maps
        from the op simples into the dual M keeps (`dual`), solved out of
        the small S*, cheaper than spinning a large M, so a syzygy whose
        top alone is asked for is never spun.  Each transposed map goes
        with M's own view of S (`simple_targets`).  Every other M solves
        out of itself, once per simple: where M's spin exists (the
        designated simples and covers, any module a Hom was solved out of)
        that is the cheap solve, and a graded M solves every shift of S in
        it, keeping its grading.
        """
        if self.graded or "spin" in vars(self._spin_source or self):
            return _maps_with_simples(self, onto=True)
        views = dict(self.simple_targets)
        return tuple(
            (idx, None, views[idx], [phi.transpose() for phi in maps])
            for idx, _, _, maps in _maps_with_simples(self.dual, onto=False)
        )

    @cached_property
    def dual(self) -> "GenAlgebraModule":
        """`dual_module` of this module, formed when first read and kept:
        every stable Hom out of it or into it reads this one, and so does a
        top read through the dual (`maps_to_simples`).  A designated simple
        or cover holds the dual that its opposite algebra designates."""
        # building the opposite algebra sets it on a designated module
        opposite_algebra(self.algebra)
        return vars(self).get("dual") or dual_module(self)

    @cached_property
    def ungraded(self) -> "GenAlgebraModule":
        """`forget_grading` of this graded module, kept: every Hom solve
        against a designated simple reads one ungraded view of it, and so
        do the covers of ungraded modules (`projective_cover`) and
        `opposite_algebra`, for a designated graded projective."""
        return self.forget_grading()

    @cached_property
    def diagonals(self) -> MappingProxyType:
        """The generators that act on this module by a diagonal matrix, each
        with its diagonal as a tuple, as h acts on a module built on weight
        vectors.  Read off the action once; a regraded copy reads its
        source's."""
        if self._spin_source is not None:
            return self._spin_source.diagonals
        out = {}
        for g, m in self.action.items():
            diag = np.diagonal(m.a)
            if np.count_nonzero(m.a) == np.count_nonzero(diag):
                out[g] = tuple(diag.tolist())
        return MappingProxyType(out)

    @cached_property
    def weighted(self) -> bool:
        """Whether a generator acts on this module by a nonzero diagonal
        matrix.  The generator vectors of its spin, unit vectors, are then
        eigenvectors of it, so stage one of a Hom solve out of this module
        fixes the weight that the shallow pairs carry (`_hom_kernel`)."""
        return any(map(any, self.diagonals.values()))

    @cached_property
    def labels(self) -> Tuple[Tuple[str, ...], frozenset]:
        """(gens, labels) of a graded module: the generators of degree 0
        that act on it diagonally, in the algebra's order, and the set of
        (degree, their diagonal entries) over its basis.  A degree-0 map
        commutes with each of them, so it sends the span of a label into
        that of the same label (`_shift_candidates`)."""
        diagonals, shifts = self.diagonals, self.algebra.shifts
        gens = tuple(g for g in self.algebra.gens if g in diagonals and shifts[g] == 0)
        return gens, frozenset(zip(self.grading, *(diagonals[g] for g in gens)))

    @cached_property
    def simple_targets(self) -> Tuple[Tuple[int, "GenAlgebraModule"], ...]:
        """(simple index, the simple ungraded) for each simple this module
        is compared with: every simple when it is ungraded, and when it is
        graded those with a shift in `_shift_candidates`.  A graded simple
        gives the ungraded view it keeps (`ungraded`).  Formed once; the
        maps to and from the simples both read it."""
        return tuple(
            (idx, S.ungraded if S.graded else S)
            for idx, S in enumerate(self.algebra.simples)
            if not self.graded or _shift_candidates(self, S)
        )

    @cached_property
    def maps_from_simples(self) -> Tuple[tuple, ...]:
        """The maps from the simples (`_maps_with_simples`), solved once
        per module; socle and socle_basis read them."""
        return _maps_with_simples(self, onto=False)

    @cached_property
    def radical_basis(self) -> FpMat:
        """Basis of rad(M), M being this module: the homogeneous common
        kernel of its maps onto the simples.  Computed once, when radical
        asks for it."""
        # for a graded M an ungraded map onto a simple splits into degree-0
        # maps onto shifted simples, so the degree-0 maps cut out rad(M)
        maps = [(S, phi) for _, _, S, phis in self.maps_to_simples for phi in phis]
        if not maps:
            return identity(self.dim, self.algebra.p)
        row_deg = [d for S, _ in maps for d in S.degrees]
        return _graded_kernel(vstack([phi for _, phi in maps]), row_deg, self.degrees)

    @cached_property
    def socle_basis(self) -> FpMat:
        """Basis of soc(M), M being this module: the independent images of
        its maps from the simples.  Computed once; socle reads it."""
        maps = [(S, phi) for _, _, S, phis in self.maps_from_simples for phi in phis]
        if not maps:
            return zeros(self.dim, 0, self.algebra.p)
        images = hstack([phi for _, phi in maps])
        col_deg = [d for S, _ in maps for d in S.degrees]
        return FpMat(images.a[:, _independent_columns(images, col_deg)], images.p)

    @cached_property
    def cover(self) -> Tuple["GenAlgebraModule", FpMat, List[tuple]]:
        """`projective_cover` of this module, computed once; the Heller path reads it."""
        return projective_cover(self)

    def _regraded(self, grading: Optional[Tuple[int, ...]]) -> "GenAlgebraModule":
        # the same action with another grading, or none: the grading needs
        # no new check and the spin is shared, while the structure that
        # depends on the degrees, every other cached property, starts empty
        out = copy.copy(self)
        out.grading = grading
        out._spin_source = self if self._spin_source is None else self._spin_source
        out._summands = None  # the summands keep their own degrees
        for name in _DEGREE_DEPENDENT:
            vars(out).pop(name, None)
        return out

    def forget_grading(self) -> "GenAlgebraModule":
        """This module, ungraded; it shares the spin."""
        return self._regraded(None)

    def shifted(self, d: int) -> "GenAlgebraModule":
        """This module with every degree raised by d; it shares the spin."""
        if not self.graded:
            raise ValueError("cannot shift an ungraded module")
        return self._regraded(tuple(x + d for x in self.grading))

    def __repr__(self):
        tag = f", degrees {sorted(set(self.grading))}" if self.graded else ""
        return f"<module dim {self.dim} over {self.algebra.algebra_id}{tag}>"


# the cached properties of a module that its regraded copies compute anew
_DEGREE_DEPENDENT = tuple(
    name
    for name, attr in vars(GenAlgebraModule).items()
    if isinstance(attr, cached_property) and name not in ("action", "spin")
)


@dataclass(frozen=True)
class Spin:
    """A module's spun basis B = (b_0, ..., b_{m-1}) from `build_spin`.

    Generator j is the unit vector e_{gen_pos[j]} and spins into column
    roots[j] of B.  `levels` lists the spanning tree of the spin as
    (g, parents, kids) with b_kid = g*b_parent, grouped by the depth of the
    kids and then by generator, so each group's parents lie in earlier
    groups.  `pairs` lists, per generator g, the columns t where g*b_t is
    not itself a column of B (the pairs off the spanning tree), and
    `coord_rows` holds the coordinates of those g*b_t in B, one float64 row
    per pair in the same order.  `binv` is B^-1 in float64.

    `local` lists the local pairs: those (g, t) where b_t is a generator
    and g*b_t lies in the span of the generators.  Each entry is
    (g, js, coeffs), one per generator g of the algebra that has any: its
    pair l has b_t = generator js[l] and g*b_t = sum_j coeffs[l, j] *
    (generator j), with int64 coefficients in [0, p).  Their equations read
    the generator images alone, so a Hom solve eliminates them first.

    `shallow` is the depth-one view of the spin: the columns at depth 0 or
    1 below their root, and the off-tree pairs that read those alone.
    """

    roots: np.ndarray
    levels: Tuple[Tuple[str, np.ndarray, np.ndarray], ...]
    gen_pos: np.ndarray
    binv: np.ndarray
    pairs: Tuple[Tuple[str, np.ndarray], ...]
    coord_rows: np.ndarray
    local: Tuple[Tuple[str, np.ndarray, np.ndarray], ...]

    @cached_property
    def local_key(self) -> tuple:
        """`local` as a hashable key, formed once per spin: each Hom solve's
        stage one is kept under it (`_local_kernel`)."""
        return tuple((g, js.tobytes(), coeffs.shape, coeffs.tobytes()) for g, js, coeffs in self.local)

    @cached_property
    def shallow(self) -> Optional["ShallowPairs"]:
        """The pairs a Hom solve settles before it spins the rest, formed
        once per spin: the off-tree pairs (g, t) that are not local, where
        b_t and every column g*b_t has a coordinate at lie at depth 0 or 1
        below their root.  None when there is no such pair, or no column
        deeper than 1: a first step would then form no equation, or every
        one.

        A simple's generator v is a highest-weight vector, and a map out of
        it sends v to a primitive vector of its weight (Jantzen,
        Representations of Algebraic Groups, II.9).  With no Cartan
        generator the local pairs (e*v = 0) miss the weight; the shallow
        pairs such as e*(f*v) = c*v carry it, and most often they leave no
        image free.  `_hom_kernel` does not read this view for a source
        whose local pairs fix the weight (`GenAlgebraModule.weighted`).
        """
        is_root = np.zeros(self.binv.shape[0], dtype=bool)
        is_root[self.roots] = True
        # the levels are sorted by depth, so those of depth 1, whose parents
        # are roots, come first
        n_levels = sum(1 for _, parents, _ in self.levels if is_root[parents[0]])
        if n_levels == len(self.levels):
            return None
        near = is_root.copy()  # the columns at depth 0 or 1
        for _, _, kids in self.levels[:n_levels]:
            near[kids] = True
        # every off-tree pair at once, t of row r of coord_rows being ts[r]
        ts = np.concatenate([t for _, t in self.pairs])
        rows = np.flatnonzero(near[ts])
        read = self.coord_rows[rows] != 0  # the columns each pair reads
        local = is_root[ts[rows]] & ~read[:, ~is_root].any(axis=1)
        rows = rows[~read[:, ~near].any(axis=1) & ~local]
        if rows.size == 0:
            return None
        # the rows are pair-major, so each generator's are a run of them
        ends = np.searchsorted(rows, np.cumsum([t.size for _, t in self.pairs]))
        pairs = tuple(
            (g, ts[rows[lo:hi]]) for (g, _), lo, hi in zip(self.pairs, [0, *ends[:-1]], ends) if hi > lo
        )
        return ShallowPairs(n_levels, pairs, rows, np.flatnonzero(near))


class ShallowPairs(NamedTuple):
    """`Spin.shallow`: the first `levels` levels of the spin fill its
    columns `cols`, those at depth 0 or 1; `pairs` lists, per generator g
    that has any, the columns t of its shallow pairs, and `rows` their rows
    of `coord_rows`, in the same order."""

    levels: int
    pairs: Tuple[Tuple[str, np.ndarray], ...]
    rows: np.ndarray
    cols: np.ndarray


def zero_module(algebra: GenAlgebra, graded: bool = False) -> GenAlgebraModule:
    action = {g: zeros(0, 0, algebra.p) for g in algebra.gens}
    return GenAlgebraModule(algebra, action, [] if graded else None, check=False)


def direct_sum(mods: Sequence[GenAlgebraModule]) -> GenAlgebraModule:
    """The direct sum of `mods`, laid out in their order, with block-diagonal
    action, formed when it is read.  It keeps them as its `summands`,
    flattened, so that `_span_module` can act one summand block at a time."""
    if not mods:
        raise ValueError("direct_sum of nothing; pass zero_module explicitly")
    alg = mods[0].algebra
    for m in mods[1:]:
        if m.algebra is not alg:
            raise ValueError("summands live over different algebras")
    out = GenAlgebraModule.__new__(GenAlgebraModule)
    out.algebra, out.dim = alg, sum(m.dim for m in mods)
    graded = all(m.graded for m in mods)
    out.grading = tuple(d for m in mods for d in m.grading) if graded else None
    out._spin_source, out._local_kernels = None, {}
    out._summands = tuple(S for m in mods for S in m.summands)
    return out


# ---------------------------------------------------------------------------
# Sub/quotient structures


def submodule(M: GenAlgebraModule, basis: FpMat) -> GenAlgebraModule:
    """Module structure on the span of `basis` columns, which must be
    independent and action-stable; ValueError otherwise.  The basis is
    invertible on the pivot rows of rref(basis^T), which give the action,
    and the other rows of g*basis check it."""
    p, gens = M.algebra.p, M.algebra.gens
    rows = np.asarray(rref(FpMat(basis.a.T.copy(), p)).pivots, dtype=np.int64)
    # basis[rows] is square exactly when the columns are independent
    N = _span_module(M, basis, rows, inverse(FpMat(basis.a[rows], p)))
    other = np.ones(M.dim, dtype=bool)
    other[rows] = False
    on_basis = _exact_matmul(basis.a[other], np.stack([N.mat(g).a for g in gens]), p)
    moved = _exact_matmul(np.stack([M.mat(g).a[other] for g in gens]), basis.a, p)
    if not np.array_equal(on_basis, moved):
        raise ValueError("the span of the basis is not stable under the action")
    return N


def _span_module(
    M: GenAlgebraModule, basis: FpMat, rows: np.ndarray, left: Optional[FpMat] = None
) -> GenAlgebraModule:
    """Module structure on the span of `basis` columns, on which g acts by
    left @ (g*basis)[rows], or by (g*basis)[rows] when `left` is None: the
    caller picks them to give the coordinates of g*basis in `basis`.

    M's action is block-diagonal over `M.summands`, so g*basis is formed one
    distinct action at a time: the summands that share it, as the shifted
    and ungraded copies of one projective in a cover do, are stacked into
    one product for all generators, each slice the size of one summand's
    block, and only the rows in `rows` are kept.
    """
    if basis.cols == 0:
        return zero_module(M.algebra, M.graded)
    p, gens, k = M.algebra.p, M.algebra.gens, basis.cols
    # each distinct action, as held by the module that owns it, with the
    # first basis row of every summand that has it
    starts: Dict[GenAlgebraModule, List[int]] = {}
    offset = 0
    for S in M.summands:
        starts.setdefault(S._spin_source or S, []).append(offset)
        offset += S.dim
    # row i of g*basis is row at_row[i] of `moved`, or not kept when negative
    at_row = np.full(M.dim, -1)
    at_row[rows] = np.arange(len(rows))
    moved = np.empty((len(gens), len(rows), k), dtype=np.int64)
    for S, firsts in starts.items():
        held = (np.array(firsts)[:, None] + np.arange(S.dim)).ravel()
        act = np.stack([S.mat(g).a for g in gens])
        out = _exact_matmul(act[:, None], basis.a[held].reshape(len(firsts), S.dim, k), p)
        at = at_row[held]
        kept = at >= 0
        moved[:, at[kept]] = out.reshape(len(gens), held.size, k)[:, kept]
    if left is not None:
        moved = _exact_matmul(left.a, moved, p)
    # one array per generator, not views of the stacked product: with views,
    # `verify meataxe-regular --p 7` peaked 1-3 MB higher
    action = {g: FpMat(moved[i].copy(), p) for i, g in enumerate(gens)}
    grading = _degrees_of_columns(basis, M.grading) if M.graded else None
    return GenAlgebraModule(M.algebra, action, grading, check=False)


def _degrees_of_columns(basis: FpMat, grading: Sequence[int]) -> List[int]:
    # each column's degree is that of its first nonzero row, and every other
    # nonzero row must have it
    nonzero = basis.a != 0
    if not nonzero.any(axis=0).all():
        raise ValueError("basis column is not homogeneous")
    deg = np.asarray(grading)
    degs = deg[nonzero.argmax(axis=0)]
    if (nonzero & (deg[:, None] != degs)).any():
        raise ValueError("basis column is not homogeneous")
    return degs.tolist()


def _independent_columns(C: FpMat, col_deg: Sequence[int]) -> np.ndarray:
    """The columns of C independent of those before them, stably ordered by
    their degrees: the pivots of one RREF.

    Columns of different degrees have disjoint supports when each column is
    homogeneous, so the order within a degree is all that decides.
    """
    pivots = np.asarray(rref(C).pivots, dtype=np.int64)
    return pivots[np.argsort(np.asarray(col_deg)[pivots], kind="stable")]


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
    """Quotient by the span of `sub_basis`; returns (module, projection matrix).

    The unit vectors of the complement columns span a complement of the
    subspace, so g acts on the quotient by the projection of g times them.
    """
    projm, comp = _complement_projection(sub_basis, M.dim)
    units = np.zeros((M.dim, len(comp)), dtype=np.int64)
    units[comp, np.arange(len(comp))] = 1
    return _span_module(M, FpMat(units, M.algebra.p), np.arange(M.dim), projm), projm


# ---------------------------------------------------------------------------
# Hom spaces


def build_spin(M: GenAlgebraModule) -> Spin:
    """Spin M from greedy generating vectors into a basis B and its tree.

    The generator vectors are the unit vectors e_c, in order, that lie
    outside the span so far; each is spun breadth-first, keeping every
    g*b_t that enlarges the span as the next column of B.  A level of the
    tree is moved by all generators in one product before its images are
    tried in order, which keeps the first-in first-out order of the pass.
    The images are kept, so the coordinates of the pairs off the tree take
    one product per generator.
    """
    p, n, gens = M.algebra.p, M.dim, M.algebra.gens
    # g^T for each generator: a level's vectors as rows times it give their
    # images as rows
    act_t = np.stack([M.mat(g).a.T for g in gens]).astype(np.float64)
    tracker = SpanTracker(n, p)
    rows = np.empty((n, n), dtype=np.int64)  # b_t as row t
    images = np.empty((len(gens), n, n))  # g*b_t as row t of slice g
    size = 0  # the columns of B so far
    roots: List[int] = []
    # the spanning-tree edges b_kid = g*b_parent, grouped by the depth of
    # the kid and then by generator: every parent of a group lies one level up
    edges: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    tree = set()
    for c in range(n):
        if size == n:
            break
        v = np.zeros(n, dtype=np.int64)
        v[c] = 1
        if not tracker.insert(v):
            continue
        roots.append(size)
        rows[size] = v
        start, end, depth = size, size + 1, 0
        size = end
        # the kids of a level are the next columns, so each level is
        # rows[start:end]
        while start < end:
            moved = _exact_matmul(rows[start:end], act_t, p)
            images[:, start:end] = moved
            for t in range(start, end):
                for j, (g, w) in enumerate(zip(gens, moved[:, t - start])):
                    if w.any() and tracker.insert(w):
                        tree.add((g, t))
                        edges.setdefault((depth + 1, j), []).append((t, size))
                        rows[size] = w
                        size += 1
            start, end, depth = end, size, depth + 1
    B = rows.T
    binv = inverse(FpMat(B, p)).a.astype(np.float64)
    levels = []
    for key in sorted(edges):
        parents, kids = np.array(edges[key], dtype=np.int64).T
        levels.append((gens[key[1]], parents, kids))
    roots_arr = np.array(roots, dtype=np.int64)
    is_root = np.zeros(n, dtype=bool)
    is_root[roots_arr] = True
    pairs, coord_rows, local = [], [], []
    for j, g in enumerate(gens):
        ts = np.array([t for t in range(n) if (g, t) not in tree], dtype=np.int64)
        pairs.append((g, ts))
        # B^-1 (g*b_t) holds the coordinates of g*b_t
        coords = _exact_matmul(images[j, ts], binv.T, p)
        coord_rows.append(coords)
        # a pair is local when b_t is a root and g*b_t lies in the span of
        # the roots: its equation then reads the generator images alone
        is_local = is_root[ts] & ~coords[:, ~is_root].any(axis=1)
        if is_local.any():
            # the roots increase, so generator j is the root of rank j
            js = np.searchsorted(roots_arr, ts[is_local])
            local.append((g, js, coords[is_local][:, roots_arr]))
    gen_pos = B[:, roots].argmax(axis=0)  # the roots are unit vectors
    coord_rows = np.vstack(coord_rows).astype(np.float64)
    return Spin(roots_arr, tuple(levels), gen_pos, binv, tuple(pairs), coord_rows, tuple(local))


@dataclass(frozen=True)
class HomKernel:
    """A nonzero Hom(M, N) as the kernel of the spin system of M.

    A module map is fixed by where it sends the generator vectors of M, and
    `gen_images[j, :, c]` is the image of generator j under map c: the
    kernel in generator-image coordinates.  The local equations of the spin
    leave k free combinations of those images, and `ker` lives in those k
    coordinates.  `_hom_maps` turns maps into matrices by spinning their
    generator images through the target N.
    """

    N: GenAlgebraModule
    ker: np.ndarray
    gen_images: np.ndarray

    @property
    def dim(self) -> int:
        return self.ker.shape[1]


def _local_echelon(
    spin: Spin, N: GenAlgebraModule, gen_of: np.ndarray, row_of: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The canonical kernel of the equations of the local pairs of `spin`,
    in the unknowns (gen_of, row_of) of a Hom system into N, as
    `_pinned_kernel` gives it; None when it leaves no unknown free.
    `_local_kernel` calls it once per target and local system, or once per
    solve for a system masked by degree.

    A local pair says g*x_j = sum_j' c_j' x_j' of the generator images x
    alone: e*x = 0 on a highest-weight generator asks for x in ker e.
    """
    p, unknowns = N.algebra.p, gen_of.size
    blocks = [np.zeros((0, unknowns), dtype=np.int64)]
    for g, js, coeffs in spin.local:
        # block[l, :, u]: column row_of[u] of g on N where u belongs to
        # generator js[l], less coeffs[l, gen_of[u]] in row row_of[u]
        block = N.mat(g).a[:, row_of] * (gen_of == js[:, None])[:, None, :]
        block[:, row_of, np.arange(unknowns)] -= coeffs[:, gen_of]
        blocks.append(block.reshape(-1, unknowns))
    return _pinned_kernel(np.concatenate(blocks) % p, p)


def _pinned_kernel(rows: np.ndarray, p: int) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The canonical kernel K of `rows` (entries in [0, p)) as (free,
    pivots, K_piv): the non-pivot and pivot columns of their RREF, and
    K's pivot rows, K being the identity on the free columns; None when no
    column is free.

    A row with one nonzero entry forces its unknown to 0, and most rows of
    a stage one do.  One pass over the rows pins those unknowns and drops
    them and their rows; only the rest is eliminated, often nothing.  The
    RREF is that of all rows: its row at a pinned unknown is the unit
    vector there, and every other row of the system equals its restriction
    to the unpinned unknowns modulo those unit vectors, so its other rows
    are the RREF of the rest, zero at the pinned unknowns.
    """
    nonzero = rows != 0
    single = np.count_nonzero(nonzero, axis=1) == 1
    pinned = nonzero[single].any(axis=0)
    left = np.flatnonzero(~pinned)  # the unknowns that are not pinned
    rest = rows[~single][:, left]
    ech = Echelon(left.size, p)
    live = rest.any(axis=1)
    if live.any():
        ech.add(rest[live])
    free = left[ech.free]
    if free.size == 0:
        return None
    solved = left[ech.pivots]  # the pivots of the rest, as unknowns of rows
    is_pivot = pinned.copy()
    is_pivot[solved] = True
    pivots = np.flatnonzero(is_pivot)
    K_piv = np.zeros((pivots.size, free.size), dtype=np.int64)
    K_piv[np.searchsorted(pivots, solved)] = (-ech.rows[:, ech.free]) % p
    return free, pivots, K_piv


def _local_kernel(
    spin: Spin, N: GenAlgebraModule, gen_of: np.ndarray, row_of: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stage one of a Hom system into N: the canonical kernel K of the
    equations of the local pairs of `spin`, as (free, pivots, K_piv),
    where K is the identity on the free unknowns and K_piv holds its pivot
    rows; None when no unknown is left free.  These are the
    RREF's of all the local equations, though `_local_echelon` eliminates
    only what its pinned unknowns leave.

    A system with an unknown at every (generator, row of N) is solved once
    per target and local system.  Sources whose spins have the same local
    pairs pose the same equations (every simple's generator is a
    highest-weight vector), so the result is kept, read-only, on the module
    that holds N's action, shared by its shifts and ungraded copy, under
    the local pairs and the number of generators.  A system masked by
    degree, between two graded modules, is solved anew and not kept: its
    unknowns depend on both gradings, and when such stage ones were kept
    (8, 16 and 24 of them in `verify all` at p = 3, 5 and 7) no solve
    read one again.
    """
    n_gen = spin.gen_pos.size
    # the unknowns are a subset of the full layout, in its order, so they
    # are all of it exactly when there are as many
    if gen_of.size < n_gen * N.dim:
        return _local_echelon(spin, N, gen_of, row_of)
    owner = N._spin_source or N
    key = (spin.local_key, n_gen)
    if key not in owner._local_kernels:
        kernel = _local_echelon(spin, N, gen_of, row_of)
        for a in kernel or ():
            a.setflags(write=False)
        owner._local_kernels[key] = kernel
    return owner._local_kernels[key]


def _float_action(N: GenAlgebraModule) -> Dict[str, np.ndarray]:
    """N's action in float64, as `_spin_words` and `_pair_equations` read it."""
    return {g: N.mat(g).a.astype(np.float64) for g in N.algebra.gens}


def _spin_words(
    spin: Spin, act: Dict[str, np.ndarray], W: np.ndarray, p: int, levels: slice = slice(None)
) -> None:
    """Fill W along the spanning tree of `spin`, W[kid] = g * W[parent],
    given W at the roots: one stacked product per group of tree edges, each
    slice the size of one edge's.  `act` holds the target's action in float64.
    `levels` picks the groups, which must find their parents filled."""
    for g, parents, kids in spin.levels[levels]:
        W[kids] = _exact_matmul(act[g], W[parents], p)


def _pair_equations(
    spin: Spin,
    act: Dict[str, np.ndarray],
    W: np.ndarray,
    p: int,
    shallow: Optional[ShallowPairs] = None,
) -> np.ndarray:
    """The equations phi(g*b_t) = g*phi(b_t) of the off-tree pairs of
    `spin` on the images W of the spun basis: int64 in [0, p), pair-major,
    so that system[pair] holds the dim N equations of one pair.  On a
    spanning-tree edge g*b_t is the column built from b_t, so W satisfies it
    already and only the other pairs give equations.  Given `shallow`, the
    spin's depth-one view, only its pairs are formed, and they read W at
    its columns alone: the deeper rows of W need not be filled."""
    pairs, coords, at = spin.pairs, spin.coord_rows, W
    if shallow is not None:
        # a few rows and columns, indexed anew at each call: the spin keeps
        # no copy of its coordinates
        pairs, at = shallow.pairs, W[shallow.cols]
        coords = coords[shallow.rows][:, shallow.cols]
    # g*b_t = sum_s coord_rows[pair, s] b_s
    lhs = np.concatenate([_exact_matmul(act[g], W[ts], p) for g, ts in pairs])
    # rhs[b] = coord_rows @ W[:, b, :], one product per coordinate b of N,
    # laid out as lhs with its first two axes swapped.  _exact_matmul would
    # keep one flattened product coord_rows @ W on one BLAS thread as well,
    # but in blocks of a few wide rows, which made `verify heart --p 7` slower
    rhs = _exact_matmul(coords, at.transpose(1, 0, 2), p)
    # in place: a fourth array this size set the peak of meataxe-regular-p7
    lhs -= rhs.transpose(1, 0, 2)
    del rhs  # freed before the sign fix forms its mask
    np.add(lhs, p, out=lhs, where=lhs < 0)  # lhs - rhs lies in (-p, p)
    return lhs


def _feed_pairs(ech: Echelon, system: np.ndarray, live: np.ndarray) -> bool:
    """Feed the pairs `live` of `system`, pair-major as `_pair_equations`
    forms it, to `ech` until none of its columns is free: True then.

    Most Hom spaces out of a simple, or into one, are zero: the pairs go in
    blocks that double, the first just tall enough to bind every column
    left free.  A block goes in one coordinate of N at a time, as
    `_pair_equations` forms rhs, for the reason given there."""
    free = ech.ncols - ech.rank
    start, size = 0, -(-free // system.shape[1])
    while start < live.size:
        ech.add(system[live[start : start + size]].transpose(1, 0, 2))
        if ech.rank == ech.ncols:
            return True
        start, size = start + size, 2 * size
    return False


def _is_free(M: GenAlgebraModule) -> bool:
    """Whether M is the free module A, by its spin and its dimension.

    M is spun from one vector v, so a -> a*v maps A onto M, and dim A is the
    sum of dim S * dim P(S) over the designated simples S and covers P(S);
    when the dimensions agree the map is one-to-one.  Unknown when a cover
    is not designated, and then False.  The sum is formed at each call, as
    an algebra designates its covers after its simples.
    """
    alg = M.algebra
    if M.spin.roots.size != 1 or None in alg.projectives:
        return False
    return M.dim == sum(S.dim * P.dim for S, P in zip(alg.simples, alg.projectives))


def _hom_kernel(M: GenAlgebraModule, N: GenAlgebraModule) -> Optional[HomKernel]:
    # a hom is determined by the images of M's generator vectors; track the
    # spun basis of M as word operators on those images and solve the
    # compatibility system in the images only.  Generator j is a unit vector
    # e_c, so a degree-0 map sends it into degree M.grading[c] of N: graded
    # pairs keep only those unknowns, and as every spun vector is homogeneous,
    # every solution has degree 0.  None when Hom(M, N) is zero
    if M.algebra is not N.algebra:
        raise ValueError("hom_space needs modules over the same algebra")
    if M.dim == 0 or N.dim == 0:
        return None
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
        return None
    # stage one eliminates the local pairs, once per target and local
    # system when no degree masks it (`_local_kernel`); the rest is solved
    # in the k coordinates of their canonical kernel K.  K is the identity
    # on the k free unknowns, and each pivot unknown depends only on free
    # ones after it, so K times the canonical kernel of stage two is the
    # canonical kernel of the whole system, column for column.  Only the
    # pivot rows of K are formed: with no local pair there are none
    local = _local_kernel(spin, N, gen_of, row_of)
    if local is None:
        return None
    free, piv, K_piv = local
    k = free.size
    # stage two, in the k coordinates of K: the equations are those of the
    # off-tree pairs (`_pair_equations`).  Each pair is a relation of M;
    # when M is free it is a relation of the algebra, which holds on every
    # module, so a free source forms no equation (Hom(A, N) is N).  Any
    # other source forms every pair, on the word operators W of the spin,
    # which live only as long as the equations are formed.  The local pairs
    # hold for every y and give zero rows, dropped below.  With no equation
    # formed every y solves the system
    ech = Echelon(k, p)
    if spin.coord_rows.shape[0] and not _is_free(M):
        act = _float_action(N)
        # W[t] @ y is the image of b_t when K @ y holds the unknowns
        W = np.zeros((m, n, k), dtype=np.float64)
        W[spin.roots[gen_of[free]], row_of[free], np.arange(k)] = 1
        W[spin.roots[gen_of[piv]], row_of[piv]] = K_piv
        # the shallow pairs first (`Spin.shallow`), on W filled to depth 1:
        # they carry the weight of a simple source, so most empty Homs out
        # of one end here, before the deeper words and pairs are formed.
        # A source on which a generator acts by a nonzero diagonal matrix,
        # as h does on a u(sl2)-module, has its weight fixed by stage one
        # already, and Hom(M, M) holds the identity: both skip the step,
        # and the view is never formed for them.  The RREF does not depend
        # on the order of the rows, so full rank on these is full rank on
        # all, and the kernel is the same
        shallow, done = (None if M is N or M.weighted else spin.shallow), 0
        if shallow is not None:
            _spin_words(spin, act, W, p, slice(shallow.levels))
            first = _pair_equations(spin, act, W, p, shallow)
            if _feed_pairs(ech, first, np.flatnonzero(first.any(axis=(1, 2)))):
                return None
            done = shallow.levels
        _spin_words(spin, act, W, p, slice(done, None))
        system = _pair_equations(spin, act, W, p)
        del W
        is_live = system.any(axis=(1, 2))  # pairs with a nonzero equation
        if shallow is not None:
            is_live[shallow.rows] = False  # fed already
        if _feed_pairs(ech, system, np.flatnonzero(is_live)):
            return None
    ker = ech.kernel().a
    # generator j is b_roots[j], so its image is read off the unknowns K @ ker
    gen_images = np.zeros((n_gen, n, ker.shape[1]), dtype=np.int64)
    gen_images[gen_of[free], row_of[free]] = ker
    gen_images[gen_of[piv], row_of[piv]] = _exact_matmul(K_piv, ker, p)
    return HomKernel(N, ker, gen_images)


def _map_values(M: GenAlgebraModule, hom: HomKernel, cols=slice(None), at=None) -> np.ndarray:
    """The maps `cols` of `hom`, a kernel of Hom(M, N), as int64 matrices
    stacked on the first axis: n x m each, or n x a when `at` is an m x a
    matrix, whose columns each map is then read at.

    `cols` picks basis maps by index, or is a dim x c array of coefficient
    columns: map c is then sum_i cols[i, c] * (basis map i).  Only these
    maps are formed: their generator images are spun along M's spanning
    tree, as the map is linear in them.
    """
    p, spin = M.algebra.p, M.spin
    if np.ndim(cols) == 2:
        gen_images = _exact_matmul(hom.gen_images, cols, p)
    else:
        gen_images = hom.gen_images[..., cols]
    # images[t, :, c] is the image of b_t under map c; map c is that n x m
    # matrix of images times B^-1, read at `at` as images times B^-1 at
    images = np.zeros((M.dim,) + gen_images.shape[1:], dtype=np.float64)
    images[spin.roots] = gen_images
    _spin_words(spin, _float_action(hom.N), images, p)
    right = spin.binv if at is None else _exact_matmul(spin.binv, at, p)
    return _exact_matmul(np.ascontiguousarray(images.T), right, p)


def _hom_maps(M: GenAlgebraModule, hom: HomKernel, cols=slice(None)) -> List[FpMat]:
    """The matrices of the maps `cols` of `hom`, a kernel of Hom(M, N)
    (`_map_values`)."""
    return [FpMat(phi, M.algebra.p) for phi in _map_values(M, hom, cols)]


def hom_space(M: GenAlgebraModule, N: GenAlgebraModule) -> List[FpMat]:
    """Basis of Hom(M, N), solved by spinning M; degree-0 maps when both
    modules are graded, by masking the generator images by degree."""
    hom = _hom_kernel(M, N)
    return [] if hom is None else _hom_maps(M, hom)


def end_space(M: GenAlgebraModule) -> List[FpMat]:
    return hom_space(M, M)


# ---------------------------------------------------------------------------
# Top, radical, socle


def _shift_candidates(M: GenAlgebraModule, S: GenAlgebraModule) -> List[int]:
    """The shifts d, in order, at which a degree-0 map M -> S<d> or S<d> ->
    M can be nonzero, M graded: those that put every label of S<d>, its
    labels (`GenAlgebraModule.labels`) with the degrees raised by d, among
    the labels of M.  Only the generators diagonal on both modules are read.

    A nonzero map onto or out of a simple is onto or one-to-one, and a
    degree-0 map keeps each label, so no shift with a nonzero Hom is lost.
    Over u(sl2) with its weight grading h acts on a G_1T-module by its
    degree mod p, so a simple is kept at the shifts in pZ alone (Jantzen,
    Representations of Algebraic Groups, II.9), and a module shifted off
    pZ keeps its own tops.  With no such generator the labels are the
    degrees.
    """
    if not M.graded or M.dim == 0 or S.dim == 0:
        return []
    (m_gens, m_labels), (s_gens, s_labels) = M.labels, S.labels
    if m_gens != s_gens:
        common = [g for g in m_gens if g in s_gens]
        m_labels, s_labels = (
            {(label[0], *(label[1 + gens.index(g)] for g in common)) for label in labels}
            for gens, labels in ((m_gens, m_labels), (s_gens, s_labels))
        )
    low = min(s_labels)  # a label of the lowest degree of S
    shifts = {label[0] - low[0] for label in m_labels if label[1:] == low[1:]}
    return sorted(d for d in shifts if all((ls[0] + d, *ls[1:]) in m_labels for ls in s_labels))


def _maps_with_simples(M: GenAlgebraModule, onto: bool) -> Tuple[tuple, ...]:
    """(simple index, shift or None, simple S, maps) for each S of
    `M.simple_targets`, and each shift for a graded M, with Hom(M, S) nonzero,
    or Hom(S, M) unless `onto`.  One Hom is solved per S, with S ungraded.
    For a graded M it is the sum of the degree-0 Homs with the shifts of S,
    its system block-diagonal by shift, so each canonical basis map lies in
    one shift and a shift's maps are its own canonical basis."""
    out = []
    for idx, S in M.simple_targets:
        maps = hom_space(M, S) if onto else hom_space(S, M)
        if maps and not M.graded:
            out.append((idx, None, S, maps))
        elif maps:
            # a map's shift d, read at its first nonzero entry (r, c): there
            # deg S + d on one side is deg M on the other
            S, shifts = M.algebra.simples[idx], []
            for phi in maps:
                r, c = divmod(int(np.argmax(phi.a != 0)), phi.cols)
                shifts.append(M.grading[c] - S.grading[r] if onto else M.grading[r] - S.grading[c])
            for d in sorted(set(shifts)):
                out.append((idx, d, S.shifted(d), [phi for phi, e in zip(maps, shifts) if e == d]))
    return tuple(out)


def _multiset_entry(idx: int, d: Optional[int], mult: int) -> tuple:
    return (idx, mult) if d is None else (idx, d, mult)


def top(M: GenAlgebraModule) -> List[tuple]:
    """Multiset of simples in M/rad(M).

    Ungraded: [(simple index, mult)].  Graded: [(simple index, shift, mult)]
    where the canonical simple shifted by `shift` occurs `mult` times.
    """
    return [_multiset_entry(idx, d, len(maps)) for idx, d, _, maps in M.maps_to_simples]


def radical(M: GenAlgebraModule) -> FpMat:
    """Basis of rad(M) = intersection of kernels of all maps onto simples."""
    return M.radical_basis


def socle(M: GenAlgebraModule) -> Tuple[List[tuple], FpMat]:
    """Socle structure and a basis of the sum of all simple submodules."""
    structure = [_multiset_entry(idx, d, len(maps)) for idx, d, _, maps in M.maps_from_simples]
    return structure, M.socle_basis


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
    of P are laid out.  For each simple S in the top, with multiplicity
    mult, the lifts P(S) -> M are the first mult maps of the kernel of
    Hom(P(S), M) whose generator images modulo rad(M) are independent of
    those before them, and only those maps are formed.  rad(M) is the common
    kernel of the maps onto the simples, so the maps onto S, which the top
    solve already holds, tell the images apart: a cover forms neither rad(M)
    nor a complement of it.
    """
    alg = M.algebra
    p = alg.p
    if M.dim == 0:
        return zero_module(alg, M.graded), zeros(0, 0, p), []
    targets = M.maps_to_simples
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
            Pblock = Pcan.ungraded if Pcan.graded else Pcan
        hom = _hom_kernel(Pblock, M)
        chosen: Sequence[int] = ()
        if hom is not None:
            # P(S) maps to no simple but S, so a combination of lifts lies in
            # rad(M) exactly when the maps onto S kill its generator images
            induced = _exact_matmul(vstack(maps).a, hom.gen_images, p)
            chosen = rref(FpMat(induced.reshape(-1, hom.dim), p)).pivots[:mult]
        if len(chosen) != mult:
            raise RuntimeError("projective cover lifting failed to reach the top")
        for phi in _hom_maps(Pblock, hom, chosen):
            blocks.append(Pblock)
            columns.append(phi)
            block_info.append((idx, d, 1))
    P = direct_sum(blocks)
    C = hstack(columns)
    if rref(C).rank != M.dim:
        raise RuntimeError("candidate cover map is not surjective")
    return P, C, block_info


def _graded_kernel(C: FpMat, row_deg: Sequence[int], col_deg: Sequence[int]) -> FpMat:
    """Homogeneous kernel basis of a degree-0 map given by matrix C.

    The basis is ordered by degree, and within a degree by free column.
    """
    return _graded_kernel_and_unit_rows(C, row_deg, col_deg)[0]


def _graded_kernel_and_unit_rows(
    C: FpMat, row_deg: Sequence[int], col_deg: Sequence[int]
) -> Tuple[FpMat, np.ndarray]:
    """`_graded_kernel` of C, and the free columns of C in the order of its
    basis: the basis is the identity on those rows."""
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
    free = ech.free
    order = np.argsort(col_deg[free], kind="stable")
    # take keeps the kernel C-ordered, as fancy indexing would not: the
    # products that read it ran slower on a Fortran-ordered one
    return FpMat(ech.kernel().a.take(order, axis=1), C.p), free[order]


def strip_projectives(M: GenAlgebraModule) -> GenAlgebraModule:
    """M with its projective summands split off, up to isomorphism.

    A projective is injective here, so a block of M's cover C is a summand
    of M when C is one-to-one on its simple socle, i.e. keeps one socle
    vector v.  Every map from a projective to M factors through C, so the
    blocks with independent images C v span the projective summands.
    """
    _, C, blocks = M.cover
    if not blocks:
        return M
    p = M.algebra.p
    # a shifted or ungraded copy of the designated projective has its
    # coordinates, so v is read off the designated one's socle, kept on it
    vs = [M.algebra.projective_of(idx).socle_basis.a[:, 0] for idx, _, _ in blocks]
    ends = np.cumsum([0] + [v.size for v in vs])
    parts = [C.a[:, a:b] for a, b in zip(ends, ends[1:])]
    images = np.column_stack([_exact_matmul(part, v, p) for part, v in zip(parts, vs)])
    # the blocks whose C v is independent of those before: one RREF's pivots
    keep = [parts[k] for k in rref(FpMat(images, p)).pivots]
    return quotient(M, FpMat(np.hstack(keep), p))[0] if keep else M


def is_projective(M: GenAlgebraModule) -> bool:
    return M.cover[0].dim == M.dim


def heller(M: GenAlgebraModule) -> GenAlgebraModule:
    """Kernel of M's minimal projective cover.

    Omega(M' + Q) = Omega(M') for a projective Q, and over a self-injective
    algebra the kernel of a minimal cover has no projective summand, so
    nothing is split off first.  The kernel basis of the cover map is the
    identity on the rows of the map's free columns, so `_span_module` reads
    Omega(M)'s action off those rows of the moved basis, with no
    elimination and no matrix to apply after.  The cover is a direct sum of
    a few projectives, shifted or repeated, and the basis is moved one
    distinct projective at a time.
    """
    P, C, _ = M.cover
    return _span_module(P, *_graded_kernel_and_unit_rows(C, M.degrees, P.degrees))


def heller_power(M: GenAlgebraModule, n: int) -> GenAlgebraModule:
    """Omega^n(M); Omega^-1 is D Omega D for the duality D, and Omega^0 is M
    with its projective summands split off."""
    if n == 0:
        return strip_projectives(M)
    for _ in range(abs(n)):
        M = heller(M) if n > 0 else dual_module(heller(dual_module(M)))
    return M


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

    # dual_module finds op through alg.meta["op"], set just above; the
    # designated modules keep their duals, which stable Homs read
    op_simples = [dual_module(S) for S in alg.simples]
    for S, S_op in zip(alg.simples, op_simples):
        vars(S)["dual"] = S_op
    op.designate(op_simples)
    # duals of projectives are projective (self-injective scope) and top(P*)
    # = (soc P)*: read P's socle ungraded, one solve out of each simple
    op_projectives: List[Optional[GenAlgebraModule]] = [None] * len(op_simples)
    for P in alg.projectives:
        if P is None:
            continue
        soc, _ = socle(P.ungraded if P.graded else P)
        if len(soc) != 1 or soc[0][-1] != 1:
            raise RuntimeError("designated projective has no simple socle")
        op_projectives[soc[0][0]] = vars(P)["dual"] = dual_module(P)
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
    power = theta.power(1 << (M.dim - 1).bit_length())
    ker = _graded_kernel(power, M.degrees, M.degrees)
    if ker.cols == 0 or ker.cols == M.dim:
        return None
    # theta has degree 0, so each column of its power is homogeneous
    img = FpMat(power.a[:, _independent_columns(power, M.degrees)], p)
    if ker.cols + img.cols != M.dim:
        return None
    both = FpMat(np.hstack([ker.a, img.a]), p)
    if rref(both).rank != M.dim:
        return None
    return ker, img


def _combination(coeffs, stacked: np.ndarray, p: int) -> FpMat:
    """sum_i coeffs[i] * stacked[i] mod p, for matrices stacked along axis 0."""
    flat = stacked.reshape(len(stacked), -1)
    return FpMat(_exact_matmul(np.asarray(coeffs), flat, p).reshape(stacked.shape[1:]), p)


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
    The basis maps of End(M) are tried first, then random combinations of
    them are drawn until one splits the module; a factor is declared
    indecomposable once its endomorphism algebra is proved local
    (exhaustively, when small enough) or once `_MEATAXE_ATTEMPTS` draws were
    all nilpotent-or-invertible.  The kernel of End(M) is solved once and
    each try forms its one map from it; only the exhaustive proof forms the
    whole basis.
    """
    if M.dim > _MEATAXE_DIM_BOUND:
        raise MeataxeBudgetError(f"dim {M.dim} exceeds the bound {_MEATAXE_DIM_BOUND}")
    rng = _rng_of(rng)
    p = M.algebra.p

    def rec(current, basis):
        if current.dim == 0:
            return []
        hom = _hom_kernel(current, current)
        if hom.dim == 1:
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
        for i in range(hom.dim):
            result = try_split(_hom_maps(current, hom, [i])[0])
            if result is not None:
                return result
        for _ in range(_MEATAXE_ATTEMPTS):
            coeffs = rng.integers(0, p, size=(hom.dim, 1))
            result = try_split(_hom_maps(current, hom, coeffs)[0])
            if result is not None:
                return result
        if p ** hom.dim <= _ENUM_LIMIT:
            # exhaustive locality proof: every endo nilpotent or invertible
            stacked = np.stack([e.a for e in _hom_maps(current, hom)])
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


def _is_simple(multiset: List[tuple]) -> bool:
    # a top or socle structure with one simple, once
    return len(multiset) == 1 and multiset[0][-1] == 1


def is_isomorphic(M: GenAlgebraModule, N: GenAlgebraModule) -> IsoResult:
    """Decide M ~ N with an invertible witness; graded modules need a degree-0 one.

    Dimension, degrees, top, socle and an empty Hom(M, N) tell most pairs
    apart.  A module with a simple top or a simple socle is indecomposable,
    so End(M) is local: if some phi: M -> N is invertible, the maps that are
    not form the proper subspace phi . rad End(M), which holds no basis of
    Hom(M, N).  So the first invertible basis map is a witness, and when
    there is none no map is invertible.  Any other M tries every combination
    of the basis while there are at most `_ENUM_LIMIT`, and is inconclusive
    beyond.  Nothing is drawn at random.
    """
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebras")
    if M.dim != N.dim:
        return IsoResult("not_iso")
    if M.dim == 0:
        return IsoResult("iso", zeros(0, 0, M.algebra.p))
    if M.graded != N.graded:
        raise ValueError("cannot compare graded with ungraded modules")
    if sorted(M.degrees) != sorted(N.degrees):
        return IsoResult("not_iso")
    m_top = top(M)
    if sorted(m_top) != sorted(top(N)):
        return IsoResult("not_iso")
    m_socle = socle(M)[0]
    if sorted(m_socle) != sorted(socle(N)[0]):
        return IsoResult("not_iso")
    maps = hom_space(M, N)
    if not maps:
        return IsoResult("not_iso")
    p = M.algebra.p
    if _is_simple(m_top) or _is_simple(m_socle):
        cands = maps
    elif p ** len(maps) <= _ENUM_LIMIT:
        cands = _all_combinations(np.stack([phi.a for phi in maps]), p)
    else:
        return IsoResult("inconclusive")
    witness = next((c for c in cands if rref(c).rank == M.dim), None)
    return IsoResult("not_iso") if witness is None else IsoResult("iso", witness)


# ---------------------------------------------------------------------------
# Stable Hom, resolution traces, complexity


def stable_hom_dim(M: GenAlgebraModule, N: GenAlgebraModule) -> int:
    """dim of Hom(M, N) modulo maps factoring through a projective.

    Those maps are the C . psi for N's cover C: P -> N and psi in Hom(M, P),
    and no map is formed in full.  They are counted through the duals:
    transposing is a linear isomorphism of Hom(M, N) onto Hom(N*, M*) that
    sends C . psi to psi* . C^T, psi* in Hom(P*, M*), so dimension and rank
    agree.  The psi* . C^T are read at the generator vectors of N*, with one
    Hom solve per distinct summand of P*.  Those summands are the duals of
    P's: the designated op covers for an ungraded N, the duals of shifted
    covers for a graded one.  Each dual is kept on its module, so a trace
    spins N* and the summands of P* once each, and never spins M.
    """
    p = M.algebra.p
    M_dual, N_dual = M.dual, N.dual
    hom = _hom_kernel(N_dual, M_dual)
    if hom is None:
        return 0
    P, C, _ = N.cover
    # C^T at the generator vectors e_c of N*, one slice of rows per summand
    # of P, in the order of P's summands
    at = C.a[N_dual.spin.gen_pos].T
    covers = [Q.dual for Q in P.summands]
    starts = np.cumsum([0] + [Q.dim for Q in covers])
    rows = []
    for Q in {id(Q): Q for Q in covers}.values():
        through = _hom_kernel(Q, M_dual)
        if through is None:
            continue
        # every summand that is a copy of Q, read in one pass: the values of
        # the basis map c of Hom(Q, M*) through summand b are one row
        mine = [s for s, R in zip(starts, covers) if R is Q]
        values = _map_values(Q, through, at=np.hstack([at[s : s + Q.dim] for s in mine]))
        values = values.reshape(through.dim, M.dim, len(mine), -1).transpose(2, 0, 1, 3)
        rows.append(values.reshape(len(mine) * through.dim, -1))
    return hom.dim - (rref(FpMat(np.vstack(rows), p)).rank if rows else 0)


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


def _module_key(M: GenAlgebraModule) -> tuple:
    # the dimension, the grading and the bytes of every generator's action,
    # each entry in the smallest unsigned type that holds p - 1: a dict
    # compares keys in full, so equal keys mean equal modules
    dtype = np.min_scalar_type(M.algebra.p - 1)
    return (M.dim, M.grading, *(M.mat(g).a.astype(dtype).tobytes() for g in M.algebra.gens))


def ext_dims(M: GenAlgebraModule, length: int, with_ext: bool = True) -> ResolutionTrace:
    """Trace of Omega^n dims and dim Ext^n(M, M) = stable Hom(Omega^n M, M).

    M0 = M with its projectives split off, and each syzygy after it, is
    keyed by `_module_key`: its dimension, grading and action matrices.
    Once Omega^n has the key of an earlier Omega^m, the rest of the trace
    repeats with period n - m, and no further Heller step, top or stable
    Hom is formed.  The stop is exact: over a fixed algebra `heller`, `top`
    and `stable_hom_dim(., M0)` read only a module's action and grading
    (the designated covers, canonical Hom kernels, no random draw; both
    routes of a top read alike), so equal modules have equal syzygies, tops
    and stable Homs.  A syzygy larger than every one before it equals none
    of them, and its key is not kept.

    When M0 is semisimple, that is when the simples of top(M0) fill its
    dimension, Ext^n is read off the top of Omega^n, which its Heller step
    reads anyway: the sum over S of [top Omega^n : S] * [M0 : S], S a
    simple, or a shifted one when graded.  No map from a module without
    projective summands, as M0 and every syzygy are, into a semisimple one
    factors through a projective, so the stable Hom is Hom(Omega^n, M0)
    (Benson, *Representations and Cohomology I*, CUP 1991).  Any other M0
    counts `stable_hom_dim`: then a syzygy's stable Hom and its top share
    the dual it keeps, and every stable Hom reads M0's.
    """
    check_degree(length)
    M0 = strip_projectives(M)
    # [top M0 : S] for each simple S, keyed as `top` lists it: [M0 : S]
    # when these simples fill M0
    mults = {entry[:-1]: entry[-1] for entry in top(M0)} if with_ext else {}
    simples = M0.algebra.simples
    semisimple = with_ext and M0.dim == sum(simples[key[0]].dim * m for key, m in mults.items())
    omega: List[int] = []
    exts: Optional[List[int]] = [] if with_ext else None
    keys: Dict[tuple, int] = {}
    current, period = M0, 0
    for n in range(length + 1):
        if n:
            current = heller(current)
        if n == 0 or current.dim <= max(omega):
            period = n - keys.setdefault(_module_key(current), n)
            if period:
                break
        omega.append(current.dim)
        if semisimple:
            exts.append(sum(entry[-1] * mults.get(entry[:-1], 0) for entry in top(current)))
        elif with_ext:
            exts.append(stable_hom_dim(current, M0))
    # Omega^n is Omega^(n - period), and so is every step after it
    for seq in (omega, exts) if with_ext else (omega,):
        while len(seq) <= length:
            seq.append(seq[-period])
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
