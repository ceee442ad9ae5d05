"""Cayley-Dickson composition algebras with exact scalars.

Levels 0..3 over field tag "Q" give the real, complex, quaternion, and
octonion algebras with rational coordinates; the same structure constants
over tag "Qi" (Gaussian-rational scalars) give their complexifications.
The doubling convention is fixed once as

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

and a basis product table per level is generated from it at import time;
the recursion is kept as the reference path for cross-checking.

An element is stored as an integer plane: one positive denominator and the
interleaved integer real/imaginary parts of its 2^level coefficients, in
lowest terms (the denominator shares no factor with every part), so equal
values have equal planes. All arithmetic, comparison and hashing runs on
plane integers. QI coefficients are built only at the boundary: the public
constructor takes them, and the cached `coeffs` tuple (used by `to_json`,
the exc27 coordinate vector and callers of the public API) is built from
the plane on first use. `norm`, `trace` and `scalar_part` return QI.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from random import Random

from .errors import InputError
from .scalars import QI, QI_ONE, QI_ZERO

FIELD_Q = "Q"
FIELD_QI = "Qi"
FIELDS = (FIELD_Q, FIELD_QI)

MAX_LEVEL = 3  # octonions; sedenions are out of scope

LEVEL_NAMES = {0: "R", 1: "C", 2: "H", 3: "O"}


class CDElement:
    """Immutable element; `CDElement(level, field, coeffs)` takes QI coefficients."""

    def __init__(self, level: int, field: str, coeffs):
        coeffs = tuple(coeffs)
        if not 0 <= level <= MAX_LEVEL:
            raise InputError(f"level {level} outside 0..{MAX_LEVEL}")
        if field not in FIELDS:
            raise InputError(f"unknown field tag {field!r}")
        if len(coeffs) != 1 << level:
            raise InputError(
                f"level {level} needs {1 << level} coefficients, got {len(coeffs)}"
            )
        if field == FIELD_Q and any(not c.is_real() for c in coeffs):
            raise InputError("field tag Q requires real rational coefficients")
        self.__dict__.update(level=level, field=field, _intform=_plane(coeffs), _coeffs=coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"CDElement is immutable; cannot set {name!r}")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as QI values, built from the plane on first use."""
        cached = self.__dict__.get("_coeffs")
        if cached is None:
            den, flat = self._intform
            cached = tuple([
                QI._mk(Fraction(flat[k], den), Fraction(flat[k + 1], den))
                for k in range(0, len(flat), 2)
            ])
            self.__dict__["_coeffs"] = cached
        return cached

    def int_form(self) -> tuple:
        """(den, flat): the denominator and the interleaved integer re/im pairs."""
        return self._intform

    def __eq__(self, other):
        if other.__class__ is not CDElement:
            return NotImplemented
        return (
            self._intform == other._intform
            and self.level == other.level
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.level, self.field, self._intform))

    def __repr__(self):
        return f"CDElement(level={self.level!r}, field={self.field!r}, coeffs={self.coeffs!r})"

    def _require_match(self, other: "CDElement"):
        if self.level != other.level or self.field != other.field:
            raise InputError(
                f"algebra mismatch: level {self.level}/{self.field} vs "
                f"level {other.level}/{other.field}"
            )

    def __add__(self, other: "CDElement") -> "CDElement":
        self._require_match(other)
        den, a, b = _aligned(self._intform, other._intform)
        return _element(self.level, self.field, den, [p + q for p, q in zip(a, b)])

    def __sub__(self, other: "CDElement") -> "CDElement":
        self._require_match(other)
        den, a, b = _aligned(self._intform, other._intform)
        return _element(self.level, self.field, den, [p - q for p, q in zip(a, b)])

    def __neg__(self) -> "CDElement":
        den, flat = self._intform
        return _element(self.level, self.field, den, [-v for v in flat])

    def __mul__(self, other: "CDElement") -> "CDElement":
        self._require_match(other)
        da, a = self.int_form()
        db, b = other.int_form()
        out = _mul_int(_TABLES[self.level], a, b, [0] * (2 << self.level))
        return _element(self.level, self.field, da * db, out)

    def scale(self, s) -> "CDElement":
        s = s if isinstance(s, QI) else QI(s)
        if self.field == FIELD_Q and not s.is_real():
            raise InputError("cannot scale a Q-tagged element by a complex scalar")
        ds, (sr, si) = _plane((s,))
        den, flat = self._intform
        out = []
        for k in range(0, len(flat), 2):
            r, i = flat[k], flat[k + 1]
            out.append(r * sr - i * si)
            out.append(r * si + i * sr)
        return _element(self.level, self.field, den * ds, out)

    def conjugate(self) -> "CDElement":
        # scalar part fixed, imaginary basis part negated; the complex
        # scalars of a Qi-tagged element are untouched (C-linear involution)
        den, flat = self._intform
        return _element(self.level, self.field, den, [flat[0], flat[1]] + [-v for v in flat[2:]])

    def norm(self) -> QI:
        """Sum of the squared coefficients, c_k * c_k (no complex conjugation)."""
        den, flat = self._intform
        re = im = 0
        for k in range(0, len(flat), 2):
            r, i = flat[k], flat[k + 1]
            re += r * r - i * i
            im += r * i
        d2 = den * den
        return QI._mk(Fraction(re, d2), Fraction(2 * im, d2))

    def trace(self) -> QI:
        den, flat = self._intform
        return QI._mk(Fraction(2 * flat[0], den), Fraction(2 * flat[1], den))

    def scalar_part(self) -> QI:
        den, flat = self._intform
        return QI._mk(Fraction(flat[0], den), Fraction(flat[1], den))

    def is_zero(self) -> bool:
        return not any(self._intform[1])

    def is_scalar(self) -> bool:
        return not any(self._intform[1][2:])

    def embed(self, level: int) -> "CDElement":
        """Embed into a higher level by zero-padding (subalgebra inclusion)."""
        if level < self.level or level > MAX_LEVEL:
            raise InputError(f"cannot embed level {self.level} into level {level}")
        den, flat = self._intform
        return _element(level, self.field, den, flat + (0,) * ((2 << level) - len(flat)))

    def to_json(self) -> dict:
        return {"level": self.level, "coeffs": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict, field: str | None = None) -> "CDElement":
        coeffs = tuple(QI.from_json(c) for c in data["coeffs"])
        if field is None:
            field = FIELD_Q if all(c.is_real() for c in coeffs) else FIELD_QI
        return CDElement(int(data["level"]), field, coeffs)


def _plane(coeffs: tuple) -> tuple:
    """(den, flat) of QI values: the lcm of their denominators and the
    interleaved integer parts over it, which are then in lowest terms."""
    den = lcm(*[f.denominator for c in coeffs for f in (c.re, c.im)])
    return den, tuple([f.numerator * (den // f.denominator) for c in coeffs for f in (c.re, c.im)])


def _element(level: int, field: str, den: int, flat) -> CDElement:
    """The element with plane flat/den, reduced to lowest terms.

    Plane tuples are built from lists, whose length is known: a tuple built
    from a generator is allocated at a guessed size and resized, which
    drains CPython's per-size tuple free lists at one size and fills them
    at another, so they grow to their cap and hold memory.
    """
    g = gcd(den, *flat)
    if g > 1:
        den //= g
        flat = tuple([v // g for v in flat])
    else:
        flat = tuple(flat)
    x = object.__new__(CDElement)
    x.__dict__.update(level=level, field=field, _intform=(den, flat))
    return x


def _aligned(pa: tuple, pb: tuple) -> tuple:
    """(den, a, b): two planes rescaled to their common denominator."""
    da, a = pa
    db, b = pb
    if da == db:
        return da, a, b
    den = lcm(da, db)
    sa, sb = den // da, den // db
    return den, [v * sa for v in a], [v * sb for v in b]


# --- named operation aliases -------------------------------------------------

def cd_multiply(x: CDElement, y: CDElement) -> CDElement:
    return x * y


def conjugate(x: CDElement) -> CDElement:
    return x.conjugate()


def norm_form(x: CDElement) -> QI:
    return x.norm()


def real_trace(x: CDElement) -> QI:
    return x.trace()


# --- constructors -----------------------------------------------------------

def cd_zero(level: int, field: str = FIELD_Q) -> CDElement:
    return CDElement(level, field, (QI_ZERO,) * (1 << level))


def cd_one(level: int, field: str = FIELD_Q) -> CDElement:
    return cd_basis(level, 0, field)


def cd_basis(level: int, k: int, field: str = FIELD_Q) -> CDElement:
    n = 1 << level
    if not 0 <= k < n:
        raise InputError(f"basis index {k} outside 0..{n - 1}")
    return CDElement(level, field, tuple(QI_ONE if i == k else QI_ZERO for i in range(n)))


def cd_scalar(s, level: int, field: str = FIELD_Q) -> CDElement:
    s = s if isinstance(s, QI) else QI(s)
    if field == FIELD_Q and not s.is_real():
        raise InputError("Q-tagged scalar must be real")
    pad = (1 << level) - 1
    return CDElement(level, field, (s,) + (QI_ZERO,) * pad)


def random_cd(rng: Random, level: int, field: str = FIELD_Q, height: int = 10) -> CDElement:
    """Coefficients drawn as `sampling.random_qi` draws them, straight into a plane.

    Per coefficient: real numerator, real denominator, then (tag Qi only)
    imaginary numerator and denominator, so seeded outputs match random_qi.
    """
    real = field == FIELD_Q
    parts = []  # (numerator, denominator) in plane order
    for _ in range(1 << level):
        parts.append((rng.randint(-height, height), rng.randint(1, height)))
        parts.append((0, 1) if real else (rng.randint(-height, height), rng.randint(1, height)))
    den = lcm(*[q for _, q in parts])
    return _element(level, field, den, [p * (den // q) for p, q in parts])


# --- integer product kernel --------------------------------------------------

def _mul_int(table, a, b, out: list) -> list:
    """Table-driven product of interleaved integer planes, added into out."""
    b_re, b_im = b[0::2], b[1::2]
    for row, ar, ai in zip(table, a[0::2], a[1::2]):
        if not ar and not ai:
            continue
        for (k, sign), br, bi in zip(row, b_re, b_im):
            pr = ar * br - ai * bi
            pi = ar * bi + ai * br
            k *= 2
            if sign > 0:
                out[k] += pr
                out[k + 1] += pi
            else:
                out[k] -= pr
                out[k + 1] -= pi
    return out


# --- reference recursion and generated product tables -----------------------
# The recursion runs on tuples of Gaussian-integer pairs (re, im), apart
# from the table kernel it cross-checks.

def _pairs_conj(t: tuple) -> tuple:
    if len(t) == 1:
        return t
    h = len(t) // 2
    return _pairs_conj(t[:h]) + tuple([(-r, -i) for r, i in t[h:]])


def _pairs_mul(x: tuple, y: tuple) -> tuple:
    if len(x) == 1:
        (ar, ai), (br, bi) = x[0], y[0]
        return ((ar * br - ai * bi, ar * bi + ai * br),)
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    left = tuple([
        (p[0] - q[0], p[1] - q[1])
        for p, q in zip(_pairs_mul(a, c), _pairs_mul(_pairs_conj(d), b))
    ])
    right = tuple([
        (p[0] + q[0], p[1] + q[1])
        for p, q in zip(_pairs_mul(d, a), _pairs_mul(b, _pairs_conj(c)))
    ])
    return left + right


def reference_multiply(x: CDElement, y: CDElement) -> CDElement:
    """Product via the doubling recursion itself; table cross-check path."""
    x._require_match(y)
    da, a = x._intform
    db, b = y._intform
    x_pairs, y_pairs = (tuple([(f[k], f[k + 1]) for k in range(0, len(f), 2)]) for f in (a, b))
    prod = _pairs_mul(x_pairs, y_pairs)
    return _element(x.level, x.field, da * db, [v for pair in prod for v in pair])


def _build_tables():
    tables = []
    for level in range(MAX_LEVEL + 1):
        n = 1 << level
        basis = [tuple((int(i == k), 0) for i in range(n)) for k in range(n)]
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                prod = _pairs_mul(basis[i], basis[j])
                entries = [(k, c) for k, c in enumerate(prod) if c != (0, 0)]
                if len(entries) != 1 or entries[0][1] not in ((1, 0), (-1, 0)):
                    raise RuntimeError("basis product is not a signed basis element")
                k, (c, _) = entries[0]
                row.append((k, c))
            table.append(row)
        tables.append(table)
    return tables


_TABLES = _build_tables()


def associativity_counterexample(field: str = FIELD_Q):
    """A basis triple of the octonions with (ab)c != a(bc), found by search."""
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                a, b, c = (cd_basis(3, t, field) for t in (i, j, k))
                lhs = (a * b) * c
                rhs = a * (b * c)
                if lhs != rhs:
                    return (i, j, k), lhs, rhs
    raise RuntimeError("octonions unexpectedly associative")
