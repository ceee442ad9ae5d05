"""Deterministic seed derivation and exact random generators.

Every sampling routine in the package derives its RNG through derive_seed,
a counter-based sha256 scheme, so trial k of any run is reproducible in
isolation and results never depend on Python hash randomization. Every
exact draw is made by `random_ratios`: `random_qi_vector` builds QI values
from one call, `random_plane` one integer plane of `scalars`.
"""

from __future__ import annotations

import hashlib
import random
from math import gcd, lcm

from .scalars import QI, _reduced


def derive_seed(*parts) -> int:
    data = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def make_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def random_ratios(rng: random.Random, count: int, height: int) -> tuple[list, list]:
    """(numerators, denominators) of count ratios, drawn as count rounds of
    (rng.randint(-height, height), rng.randint(1, height)) with randint's
    exact draws and end state, as `Random._randbelow_with_getrandbits` makes
    them: getrandbits(width.bit_length()), redrawn while not below width."""
    if height < 1:
        raise ValueError(f"height must be at least 1, got {height}")
    getrandbits = rng.getrandbits
    width = 2 * height + 1
    kp, kq = width.bit_length(), height.bit_length()
    nums, dens = [], []
    for _ in range(count):
        p = getrandbits(kp)
        while p >= width:
            p = getrandbits(kp)
        q = getrandbits(kq)
        while q >= height:
            q = getrandbits(kq)
        nums.append(p - height)
        dens.append(q + 1)
    return nums, dens


def random_fraction(rng: random.Random, height: int = 10, nonzero: bool = False) -> QI:
    """A random rational p/q from one ratio draw, as a real QI."""
    return random_qi(rng, height, real=True, nonzero=nonzero)


def random_qi(
    rng: random.Random, height: int = 10, real: bool = False, nonzero: bool = False
) -> QI:
    """(p/q) + (r/s) i from two ratio draws of one `random_ratios` call, the
    real part first; a real value makes no second draw. A nonzero value
    redraws a zero."""
    while True:
        nums, dens = random_ratios(rng, 1 if real else 2, height)
        if real:
            x = _reduced(nums[0], 0, dens[0])
        else:
            (p, r), (q, s) = nums, dens
            x = _reduced(p * s, r * q, q * s)
        if x or not nonzero:
            return x


def random_qi_vector(
    rng: random.Random, n: int, height: int = 10, real: bool = False
) -> list:
    """n values drawn as n `random_qi` calls draw them, from one
    `random_ratios` call."""
    nums, dens = random_ratios(rng, n if real else 2 * n, height)
    if real:
        return [_reduced(p, 0, q) for p, q in zip(nums, dens)]
    ps, qs = iter(nums), iter(dens)
    return [_reduced(p * s, r * q, q * s) for p, r, q, s in zip(ps, ps, qs, qs)]


def random_plane(rng: random.Random, n: int, height: int = 10, real: bool = False) -> tuple:
    """(den, flat): the n values `random_qi_vector` draws, with its draws and
    end state, as one integer plane in lowest terms."""
    nums, dens = random_ratios(rng, n if real else 2 * n, height)
    den = lcm(*dens)
    flat = [p * (den // q) for p, q in zip(nums, dens)]
    if real:  # the imaginary parts stay 0
        parts, flat = flat, [0] * (2 * n)
        flat[::2] = parts
    g = gcd(den, *flat)
    return (den, flat) if g == 1 else (den // g, [v // g for v in flat])


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
