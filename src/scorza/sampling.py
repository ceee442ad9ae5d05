"""Deterministic seed derivation and exact random generators.

Every sampling routine in the package derives its RNG through derive_seed,
a counter-based sha256 scheme, so trial k of any run is reproducible in
isolation and results never depend on Python hash randomization.
"""

from __future__ import annotations

import hashlib
import random

from .scalars import QI


def derive_seed(*parts) -> int:
    data = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def make_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def random_ratio(rng: random.Random, height: int) -> tuple[int, int]:
    """(rng.randint(-height, height), rng.randint(1, height)) with randint's
    exact draws and end state, as `Random._randbelow_with_getrandbits` makes
    them: getrandbits(width.bit_length()), redrawn while not below width."""
    if height < 1:
        raise ValueError(f"height must be at least 1, got {height}")
    getrandbits = rng.getrandbits
    width = 2 * height + 1
    k = width.bit_length()
    p = getrandbits(k)
    while p >= width:
        p = getrandbits(k)
    k = height.bit_length()
    q = getrandbits(k)
    while q >= height:
        q = getrandbits(k)
    return p - height, q + 1


def random_fraction(rng: random.Random, height: int = 10, nonzero: bool = False) -> QI:
    """A random rational p/q from one `random_ratio` draw, as a real QI."""
    while True:
        p, q = random_ratio(rng, height)
        if p or not nonzero:
            return QI.from_ints(p, 0, q)


def random_qi(
    rng: random.Random, height: int = 10, real: bool = False, nonzero: bool = False
) -> QI:
    """(p/q) + (r/s) i from two `random_ratio` draws, the real part first;
    a real value makes no second draw."""
    while True:
        p, q = random_ratio(rng, height)
        r, s = (0, 1) if real else random_ratio(rng, height)
        if p or r or not nonzero:
            return QI.from_ints(p * s, r * q, q * s)


def random_qi_vector(
    rng: random.Random, n: int, height: int = 10, real: bool = False
) -> list:
    return [random_qi(rng, height, real=real) for _ in range(n)]


def random_square(n: int, diag, off, mirror) -> list:
    """An n x n matrix drawn row by row: m[i][i] = diag(), and for j > i
    m[i][j] = off() and m[j][i] = mirror(m[i][j])."""
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = diag()
        for j in range(i + 1, n):
            m[i][j] = x = off()
            m[j][i] = mirror(x)
    return m


def random_qi_matrix(
    rng: random.Random, rows: int, cols: int, height: int = 10, real: bool = False
) -> list:
    return [random_qi_vector(rng, cols, height, real=real) for _ in range(rows)]
