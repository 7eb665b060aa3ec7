"""Pinned digests of the constructed sl2 modules and of one verify report.

Each family of modules built by `sl2dist` is reduced to one blake2b digest
over the algebra id, the dimension, the grading and the bytes of every
action matrix, in generator order.  A refactor of the constructors must
leave every digest as it is: the modules are exact, and the oracle's
answers and dump files depend on their bases.  A change that alters a basis
on purpose updates the digest here and says so in CHANGES.md.

The output of `verify all --p 3 --seed 7` is pinned the same way: one
digest of its JSON line with `wall_ms` removed, and one per file it writes
to `--dump-dir`; so are the JSON line and the dump files of `verify
meataxe-regular --p 5 --seed 7`, which splits the 125-dimensional regular
module, and the JSON lines of `verify heart --p 7 --seed 7` (without
`wall_ms`) and `cohom --p 7 --r 2 --n 8 --method all --seed 7`.  The JSON
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
    heart_module,
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
    # rad P / soc P of the four height-two covers at p = 5: a submodule,
    # then a quotient of it, at a size the p = 3 dumps do not reach
    "heart-p5-r2": lambda: [heart_module(5, 2, lam) for lam in range(20, 24)],
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
    "heart-p5-r2": "305a3ccf6759e64c120fe0ade25f5d5b",
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


MEATAXE_REGULAR_P5 = {
    "report": "763793ea38c827909f952944527a7b88",
    "regular-p5.json": "90ad3c6fdb8ecc75bba3e9c7b38a80d8",
    "regular-p5-factor0.json": "2b94613805a2e951c1bbb6c7f7e13ee9",
    "regular-p5-factor1.json": "1220743cdad297b6dd762f7ed07501d6",
    "regular-p5-factor2.json": "e0b5fe72bc4d96f1f46518b6bb69bee8",
    "regular-p5-factor3.json": "8ac98a6db1ec9f4601de3e75ca1093fb",
    "regular-p5-factor4.json": "fd31285e950e920080bf930ccfa1ca17",
    "regular-p5-factor5.json": "d050bb0531da8aa66d41c38ae2196ae1",
    "regular-p5-factor6.json": "ad9826a4b4bc861fc2e2e4709d3b1d0f",
    "regular-p5-factor7.json": "ef0101085335179a97e11618720d6040",
    "regular-p5-factor8.json": "057d354d9f1c450861d34d174e97d97b",
    "regular-p5-factor9.json": "df821d20e873c64bd85164f69d8e6258",
    "regular-p5-factor10.json": "cd076fc86f4a71554292241180d17940",
    "regular-p5-factor11.json": "b9362b4a7fb9bbb11770f4b2011a98f0",
    "regular-p5-factor12.json": "b05f685b8964a7f9659b7a92b6b3ceb3",
    "regular-p5-factor13.json": "4b664e9956b5f081542f8d2c75be1151",
    "regular-p5-factor14.json": "2fd6cc4661db0eb8092db3f3f4bed18b",
}


def test_verify_meataxe_regular_p5_output_matches_pinned_digest(capsys, tmp_path):
    argv = ["verify", "meataxe-regular", "--p", "5", "--seed", "7", "--dump-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    report = re.sub(r', "wall_ms": \d+', "", capsys.readouterr().out)
    digests = {"report": _blake2b(report.encode())}
    for name in tmp_path.iterdir():
        digests[name.name] = _blake2b(name.read_bytes())
    assert digests == MEATAXE_REGULAR_P5


def test_verify_heart_p7_output_matches_pinned_digest(capsys):
    # the socles and composition factors of the hearts at p = 7, where most
    # Hom solves out of a simple end on the pairs of depth one
    assert cli.main(["verify", "heart", "--p", "7", "--seed", "7"]) == 0
    report = re.sub(r', "wall_ms": \d+', "", capsys.readouterr().out)
    assert _blake2b(report.encode()) == "759afa660adae5826d168123f2b90a3d"


def test_cohom_resolution_output_matches_pinned_digest(capsys):
    # the Hom solves out of the free module of F_7[u0, u1]/(u0^7, u1^7) that
    # resolve k to Omega^8 k; the cohom JSON carries no wall time
    argv = ["cohom", "--p", "7", "--r", "2", "--n", "8", "--method", "all", "--seed", "7"]
    assert cli.main(argv) == 0
    assert _blake2b(capsys.readouterr().out.encode()) == "645acf2b5f68b467e941353c66b87bb7"
