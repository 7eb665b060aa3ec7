"""frobkern: representation theory of Frobenius kernels at desk scale.

Two layers.  The combinatorial layer (weightcomb, gacohom) evaluates
closed-form results: blocks, complexity, depth, projective height, Heller
orbits, periods, cohomology dimensions.  The oracle layer (fplinalg,
algrep, sl2dist) computes the same quantities from explicit modules over
finite-dimensional algebras in exact F_p arithmetic, so every formula can
be checked against an independent machine computation.
"""

import math

DEFAULT_SEED = 0xF0B

__version__ = "0.1.0"


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime, the standing hypothesis."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p}")


def check_height(r: int) -> None:
    """Raise ValueError unless r is a kernel height, r >= 1."""
    if r < 1:
        raise ValueError("height r must be >= 1")


def power_exceeds(base: int, exp: int, bound: int) -> bool:
    """True when base**exp > bound, for base >= 2 and exp >= 0, without
    forming base**exp for a huge exp."""
    # base >= 2, so base**exp >= 2**exp > bound once exp is past the bit
    # length of bound: the shortcut is exact, and the power is formed only
    # for a small exp
    return exp > bound.bit_length() or base**exp > bound


def check_degree(n: int) -> None:
    """Raise ValueError unless n is a cohomological degree, n >= 0."""
    if n < 0:
        raise ValueError("cohomological degree must be >= 0")


def base_p_digits(lam: int, p: int, r: int) -> list[int]:
    """The r little-endian base-p digits of a weight 0 <= lam < p^r."""
    check_odd_prime(p)
    check_height(r)
    if not 0 <= lam < p**r:
        raise ValueError(f"weight {lam} outside [0, p^{r})")
    return [(lam // p**i) % p for i in range(r)]
