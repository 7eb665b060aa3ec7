"""Additive-kernel cohomology: three routes to the same dimensions."""

import math

import numpy as np
import pytest

from frobkern import power_exceeds
from frobkern.algrep import GenAlgebraModule, is_projective, socle, top
from frobkern.fplinalg import fpmat
from frobkern.gacohom import (
    cohom_dim,
    cohom_dim_by_enumeration,
    cohom_ring_generators,
    minimal_resolution_dims,
    regular_module,
    repfinite_criterion,
    trivial_module,
    truncated_poly_algebra,
    weight_of_generator,
)


def test_algebra_shape():
    alg = truncated_poly_algebra(3, 2)
    assert alg.algebra_id == "ga-p3-r2"
    assert alg.gens == ("u0", "u1")
    assert trivial_module(3, 2).dim == 1
    assert regular_module(3, 2).dim == 9
    assert regular_module(5, 1).dim == 5


def test_relations_enforced():
    alg = truncated_poly_algebra(3, 1)
    # identity action violates u^p = 0
    with pytest.raises(ValueError):
        GenAlgebraModule(alg, {"u0": fpmat(np.eye(2, dtype=np.int64), 3)})


def test_regular_module_is_local_projective():
    reg = regular_module(3, 2)
    assert top(reg) == [(0, 1)]
    assert socle(reg)[0] == [(0, 1)]
    assert is_projective(reg)


def test_closed_form_spot_values():
    assert cohom_dim(3, 2, 6) == 7  # 2p+1 at p=3
    assert cohom_dim(5, 2, 10) == 11  # 2p+1 at p=5
    assert cohom_dim(3, 2, 5) == 6
    assert cohom_dim(3, 2, 0) == 1
    assert cohom_dim(7, 3, 0) == 1
    assert [cohom_dim(3, 1, n) for n in range(8)] == [1] * 8
    with pytest.raises(ValueError):
        cohom_dim(3, 2, -1)


@pytest.mark.parametrize("r", [0, -1])
def test_both_cohomology_routes_refuse_a_height_below_one(r):
    for route in (cohom_dim, cohom_dim_by_enumeration):
        with pytest.raises(ValueError, match="height r must be >= 1"):
            route(3, r, 0)
    # the ring's generators too: at r = 0 they were [] and an index error
    with pytest.raises(ValueError, match="height r must be >= 1"):
        cohom_ring_generators(3, r)
    for gen in ("x_1", "y_0"):
        with pytest.raises(ValueError, match="height r must be >= 1"):
            weight_of_generator(3, r, gen, 1)


def test_power_bound_guard_is_the_power_compared():
    for base in (2, 3, 4, 7):
        for exp in range(40):
            for bound in (0, 1, 2**20 - 1, 2**20, 2**20 + 1, 2**19):
                assert power_exceeds(base, exp, bound) == (base**exp > bound)
    assert power_exceeds(3, 10**12, 2**20)


def test_dimension_is_p_free():
    for n in range(11):
        assert cohom_dim(3, 2, n) == cohom_dim(5, 2, n)


def test_enumeration_matches_closed_form():
    for r in (1, 2, 3):
        for n in range(13):
            assert cohom_dim_by_enumeration(3, r, n) == cohom_dim(3, r, n)


def test_poincare_functional_equation():
    # (1-t)^r * sum dim t^n = 1, coefficient by coefficient
    for r in (1, 2, 3):
        for n in range(12):
            acc = sum(
                (-1) ** k * math.comb(r, k) * cohom_dim(3, r, n - k)
                for k in range(min(r, n) + 1)
            )
            assert acc == (1 if n == 0 else 0)


def test_resolution_height_one():
    trace = minimal_resolution_dims(3, 1, 6)
    assert trace.ext_dims == [1] * 7
    assert trace.omega_dims[:4] == [1, 2, 1, 2]


def test_resolution_height_two():
    trace = minimal_resolution_dims(3, 2, 6)
    assert trace.ext_dims == [1, 2, 3, 4, 5, 6, 7]
    assert trace.omega_dims == [1, 8, 10, 17, 19, 26, 28, 35]
    for n, rank in enumerate(trace.ext_dims):
        assert rank == cohom_dim(3, 2, n) == cohom_dim_by_enumeration(3, 2, n)


def test_resolution_height_two_at_p5():
    # Hom(regular module, syzygy) solves up to 25 x 99 here
    trace = minimal_resolution_dims(5, 2, 6)
    assert trace.omega_dims == [1, 24, 26, 49, 51, 74, 76, 99]
    assert trace.ext_dims == [cohom_dim(5, 2, n) for n in range(7)]


def test_resolution_height_two_at_p7():
    # the answer of `cohom --p 7 --r 2 --n 8`.  Its nine covers solve Hom
    # out of the regular module into syzygies up to 197-dim, and every
    # equation of those solves is a relation of the algebra, so none is formed
    trace = minimal_resolution_dims(7, 2, 8)
    assert trace.omega_dims == [1, 48, 50, 97, 99, 146, 148, 195, 197, 244]
    assert trace.ext_dims == list(range(1, 10))


def test_generator_weights():
    assert weight_of_generator(3, 2, "x_1", 2) == -6
    assert weight_of_generator(3, 2, "y_0", 2) == -2
    assert weight_of_generator(3, 2, "x_2", 2) == -18
    assert weight_of_generator(3, 2, "y_1", (2,)) == (-6,)
    for bad in ("x_0", "x_3", "y_2", "z_1", "x"):
        with pytest.raises(ValueError):
            weight_of_generator(3, 2, bad, 2)


def test_generator_table():
    table = cohom_ring_generators(5, 3)
    assert len(table) == 6
    for name, deg, w in table:
        assert deg in (1, 2)
        assert w < 0  # every weight a negative multiple of alpha
    assert ("x_3", 2, -125) in table
    assert ("y_0", 1, -1) in table
    assert ("y_2", 1, -25) in table


def test_repfinite_criterion():
    assert repfinite_criterion(3, 2, 1, 0) == "diagonalizable"
    assert repfinite_criterion(3, 1, 1, cohom_dim(3, 1, 2)) == "representation-finite"
    assert repfinite_criterion(3, 2, 1, cohom_dim(3, 2, 6)) == "neither"
    with pytest.raises(ValueError):
        repfinite_criterion(3, 1, 0, 1)
