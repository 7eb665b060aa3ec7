"""Pinned digests of the constructed sl2 modules and of one verify report.

Each family of modules built by `sl2dist` is reduced to one blake2b digest
over the algebra id, the dimension, the grading and the bytes of every
action matrix, in generator order.  A refactor of the constructors must
leave every digest as it is: the modules are exact, and the oracle's
answers and dump files depend on their bases.  A change that alters a basis
on purpose updates the digest here and says so in CHANGES.md.

The output of `verify all --p 3 --seed 7` is pinned the same way: one
digest of its JSON line with `wall_ms` removed, and one per file it writes
to `--dump-dir`; so is the JSON line of `verify meataxe-regular --p 5
--seed 7`, which splits the 125-dimensional regular module.  The JSON
contract says this output is byte-identical for a fixed seed apart from
`wall_ms`, and a refactor of the oracle must keep it so.
"""

import hashlib
import re

import numpy as np
import pytest

import frobkern.cli as cli
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


def _blake2b(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


VERIFY_ALL_P3 = {
    "report": "5610d7796d581e9883ebb9e64762efcf",
    "graded-orbit-p3-l0.json": "e82e635becad0886450be6f21c6a1ac1",
    "graded-orbit-p3-l1.json": "4b118559dfce07c3ce5023e713f71acf",
    "heart-p3-l6.json": "2575ff82baa3e5c6da94d29962c38fac",
    "heart-p3-l7.json": "269fd6eef00c9b3848aae8b87a816dc2",
    "regular-p3-factor0.json": "2469eaf9fec69666ddd654f519b1c2d3",
    "regular-p3-factor1.json": "cb668c64af3c652ebffaacf3cde7959b",
    "regular-p3-factor2.json": "02a8f9b0d97b2914a7a0e594f4fc8613",
    "regular-p3-factor3.json": "dadcf64c0df7918b6775485b2aa47aa7",
    "regular-p3-factor4.json": "6d24a520775938bbede40bea2a9d518f",
    "regular-p3-factor5.json": "02a8f9b0d97b2914a7a0e594f4fc8613",
    "regular-p3.json": "c88135cd94e1cba3524355b8effad068",
}


def test_verify_all_output_matches_pinned_digests(capsys, tmp_path):
    argv = ["verify", "all", "--p", "3", "--seed", "7", "--dump-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    report = re.sub(r', "wall_ms": \d+', "", capsys.readouterr().out)
    digests = {"report": _blake2b(report.encode())}
    for name in sorted(tmp_path.iterdir()):
        digests[name.name] = _blake2b(name.read_bytes())
    assert digests == VERIFY_ALL_P3


def test_verify_meataxe_regular_p5_output_matches_pinned_digest(capsys):
    argv = ["verify", "meataxe-regular", "--p", "5", "--seed", "7"]
    assert cli.main(argv) == 0
    report = re.sub(r', "wall_ms": \d+', "", capsys.readouterr().out)
    assert _blake2b(report.encode()) == "763793ea38c827909f952944527a7b88"
