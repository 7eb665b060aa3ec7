"""Pinned digests of the constructed sl2 modules.

Each family of modules built by `sl2dist` is reduced to one blake2b digest
over the algebra id, the dimension, the grading and the bytes of every
action matrix, in generator order.  A refactor of the constructors must
leave every digest as it is: the modules are exact, and the oracle's
answers and dump files depend on their bases.  A change that alters a basis
on purpose updates the digest here and says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from frobkern.sl2dist import (
    distribution_sl2,
    graded_restricted_sl2,
    graded_verma_module,
    restricted_sl2,
    verma_module,
)


def _digest(modules) -> str:
    h = hashlib.blake2b(digest_size=16)
    for M in modules:
        if M is None:
            h.update(b"none;")
            continue
        grading = None if M.grading is None else list(M.grading)
        h.update(f"{M.algebra.algebra_id};{M.dim};{grading};".encode())
        for g in M.algebra.gens:
            h.update(np.ascontiguousarray(M.mat(g).a, dtype="<i8").tobytes())
    return h.hexdigest()


def _designated(alg):
    return list(alg.simples) + list(alg.projectives)


FAMILIES = {
    **{f"restricted-p{p}": (lambda p=p: _designated(restricted_sl2(p))) for p in (3, 5, 7)},
    **{
        f"graded-restricted-p{p}": (lambda p=p: _designated(graded_restricted_sl2(p)))
        for p in (3, 5, 7)
    },
    **{
        f"dist-p{p}-r{r}": (lambda p=p, r=r: _designated(distribution_sl2(p, r)))
        for p, r in ((3, 2), (5, 2), (3, 3))
    },
    **{
        f"verma-p{p}-r{r}": (
            lambda p=p, r=r: [verma_module(p, r, lam) for lam in range(p**r)]
        )
        for p, r in ((3, 1), (5, 1), (3, 2), (5, 2))
    },
    **{
        f"graded-verma-p{p}": (
            lambda p=p: [graded_verma_module(p, lam) for lam in range(-p, 2 * p)]
        )
        for p in (3, 5)
    },
}

PINNED = {
    "dist-p3-r2": "389fc795f566920d76f14e2f08379749",
    "dist-p3-r3": "d0c485695823f7b3dfdacac2c60c2913",
    "dist-p5-r2": "c83080ae9151123c00240353fad0155b",
    "graded-restricted-p3": "d0667858d8632c2b95876205fc6dbdae",
    "graded-restricted-p5": "275d991c4faefb1769e14ac25e03d552",
    "graded-restricted-p7": "6b120b731190f87fab27e7591a9f1e13",
    "graded-verma-p3": "08b856854328c7f00379d6bbf5947cdf",
    "graded-verma-p5": "4f2b914f1037d89e6bedd02fefc1827a",
    "restricted-p3": "5fa46b967858acfe6161f9715a4140ca",
    "restricted-p5": "711693211ceb32b61439ae44da9ac047",
    "restricted-p7": "c3fc8d2292c498251286af55b9aed164",
    "verma-p3-r1": "cf9d157a88a566571a92f61d98e274c1",
    "verma-p3-r2": "c710ce652730b1b1c81e3143a2948b33",
    "verma-p5-r1": "52ed1846bbf041394040922da416f326",
    "verma-p5-r2": "fbbcec60933a62a317e9bf594bccb6ab",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_constructed_modules_match_pinned_digest(family):
    assert _digest(FAMILIES[family]()) == PINNED[family]
