"""Cayley-Dickson composition algebras with exact scalars.

Levels 0..3 over field tag "Q" give the real, complex, quaternion, and
octonion algebras with rational coordinates; the same structure constants
over tag "Qi" (Gaussian-rational scalars) give their complexifications.
The doubling convention is fixed once as

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

and a basis product table per level is generated from it at import time.
Every product runs through one kernel per level and field tag, compiled
at import from that table into straight-line code on integer planes (the
tag-Q kernel multiplies real parts only); the recursion is kept as the
reference path the tests cross-check both against. Its base is level 1,
where the rule is spelled out on four Gaussian scalars, whose conjugation
is trivial; it reads neither the tables nor the kernels. The same compiler
builds a second kernel per level and tag that adds only the scalar part
of a product, for the Jordan diagonals and trace form of `jordan`.

An element is stored as the integer plane of `scalars` of its 2^level
coefficients: one positive denominator and the interleaved integer
real/imaginary parts, in lowest terms, so equal values have equal planes.
All arithmetic, comparison and hashing runs on plane integers, and so does
the reference recursion, which splits a plane into its two halves. QI
coefficients are built only at the boundary, through `scalars.from_plane`:
the public constructor takes them, and the `coeffs` tuple (read by
`to_json`, `repr` and callers of the public API) is built from the plane on
each read, so an element keeps its plane and nothing else. `norm`, `trace`
and `scalar_part` return QI.
"""

from __future__ import annotations

from math import gcd
from random import Random

from .errors import InputError, quoted
from .sampling import random_plane
from .scalars import QI, QI_ONE, QI_ZERO, common_plane, from_plane, json_int, to_plane

FIELD_Q = "Q"
FIELD_QI = "Qi"
FIELDS = (FIELD_Q, FIELD_QI)

MAX_LEVEL = 3  # octonions; sedenions are out of scope


class CDElement:
    """Immutable element; `CDElement(level, field, coeffs)` takes QI coefficients."""

    def __init__(self, level: int, field: str, coeffs):
        coeffs = tuple(coeffs)
        if not 0 <= level <= MAX_LEVEL:
            raise InputError(f"level {level} outside 0..{MAX_LEVEL}")
        if field not in FIELDS:
            raise InputError(f"unknown field tag {quoted(field)}")
        if len(coeffs) != 1 << level:
            raise InputError(
                f"level {level} needs {1 << level} coefficients, got {len(coeffs)}"
            )
        if field == FIELD_Q and any(not c.is_real() for c in coeffs):
            raise InputError("field tag Q requires real rational coefficients")
        den, flat = to_plane(coeffs)
        self.__dict__.update(level=level, field=field, _intform=(den, tuple(flat)))

    def __setattr__(self, name, value):
        raise AttributeError(f"CDElement is immutable; cannot set {name!r}")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as QI values, built from the plane on each read."""
        return tuple(from_plane(*self._intform))

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
        den, (a, b) = common_plane((self._intform, other._intform))
        return _element(self.level, self.field, den, [p + q for p, q in zip(a, b)])

    def __sub__(self, other: "CDElement") -> "CDElement":
        self._require_match(other)
        den, (a, b) = common_plane((self._intform, other._intform))
        return _element(self.level, self.field, den, [p - q for p, q in zip(a, b)])

    def __neg__(self) -> "CDElement":
        den, flat = self._intform
        return _wrap(self.level, self.field, den, [-v for v in flat])

    def __mul__(self, other: "CDElement") -> "CDElement":
        self._require_match(other)
        da, a = self.int_form()
        db, b = other.int_form()
        out = _kernel(self.level, self.field)(a, b, [0] * (2 << self.level))
        return _element(self.level, self.field, da * db, out)

    def scale(self, s) -> "CDElement":
        s = s if isinstance(s, QI) else QI(s)
        if self.field == FIELD_Q and not s.is_real():
            raise InputError("cannot scale a Q-tagged element by a complex scalar")
        ds, pair = to_plane((s,))
        den, flat = self._intform
        return _element(self.level, self.field, den * ds, _scale(pair, flat))

    def conjugate(self) -> "CDElement":
        # scalar part fixed, imaginary basis part negated; the complex
        # scalars of a Qi-tagged element are untouched (C-linear involution)
        den, flat = self._intform
        return _wrap(self.level, self.field, den, [flat[0], flat[1]] + [-v for v in flat[2:]])

    def norm(self) -> QI:
        """Sum of the squared coefficients, c_k * c_k (no complex conjugation)."""
        den, flat = self._intform
        re = im = 0
        for k in range(0, len(flat), 2):
            r, i = flat[k], flat[k + 1]
            re += r * r - i * i
            im += r * i
        return from_plane(den * den, (re, 2 * im))[0]

    def trace(self) -> QI:
        den, flat = self._intform
        return from_plane(den, (2 * flat[0], 2 * flat[1]))[0]

    def scalar_part(self) -> QI:
        den, flat = self._intform
        return from_plane(den, flat[:2])[0]

    def is_zero(self) -> bool:
        return not any(self._intform[1])

    def is_scalar(self) -> bool:
        return not any(self._intform[1][2:])

    def embed(self, level: int) -> "CDElement":
        """Embed into a higher level by zero-padding (subalgebra inclusion)."""
        if level < self.level or level > MAX_LEVEL:
            raise InputError(f"cannot embed level {self.level} into level {level}")
        if level == self.level:
            return self
        den, flat = self._intform
        return _wrap(level, self.field, den, flat + (0,) * ((2 << level) - len(flat)))

    def to_json(self) -> dict:
        return {"level": self.level, "coeffs": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict, field: str | None = None) -> "CDElement":
        coeffs = tuple(QI.from_json(c) for c in data["coeffs"])
        if field is None:
            field = FIELD_Q if all(c.is_real() for c in coeffs) else FIELD_QI
        return CDElement(json_int(data["level"], "level"), field, coeffs)


def _element(level: int, field: str, den: int, flat) -> CDElement:
    """The element with plane flat/den, reduced to lowest terms."""
    g = gcd(den, *flat)
    if g > 1:
        den //= g
        flat = [v // g for v in flat]
    return _wrap(level, field, den, flat)


def _wrap(level: int, field: str, den: int, flat) -> CDElement:
    """The element with plane flat/den, which must be in lowest terms:
    a drawn plane, or a reduced one negated, conjugated or zero-padded.

    Plane tuples are built from lists, whose length is known: a tuple built
    from a generator is allocated at a guessed size and resized, which
    drains CPython's per-size tuple free lists at one size and fills them
    at another, so they grow to their cap and hold memory.
    """
    x = object.__new__(CDElement)
    x.__dict__.update(level=level, field=field, _intform=(den, tuple(flat)))
    return x


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
    """Coefficients drawn as `sampling.random_qi` draws them, straight into a
    plane by `sampling.random_plane`, so seeded outputs match random_qi."""
    return _wrap(level, field, *random_plane(rng, 1 << level, height, field == FIELD_Q))


# --- reference recursion and generated product tables -----------------------
# The recursion runs on integer planes too: the first and second halves of
# a plane are the two coordinates of the doubling, and it shares no code
# with the compiled kernels it cross-checks.

def _doubling_conj(t: tuple) -> tuple:
    """(a, b)* = (a*, -b), unrolled: the scalar pair kept, the rest negated."""
    return t[:2] + tuple([-v for v in t[2:]])


def _doubling_mul(x: tuple, y: tuple) -> tuple:
    if len(x) == 2:
        (ar, ai), (br, bi) = x, y
        return (ar * br - ai * bi, ar * bi + ai * br)
    if len(x) == 4:
        # (a, b)(c, d) = (ac - db, da + bc) on Gaussian scalars a, b, c, d
        ar, ai, br, bi = x
        cr, ci, dr, di = y
        return (ar * cr - ai * ci - dr * br + di * bi, ar * ci + ai * cr - dr * bi - di * br,
                dr * ar - di * ai + br * cr - bi * ci, dr * ai + di * ar + br * ci + bi * cr)
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    left = [p - q for p, q in zip(_doubling_mul(a, c), _doubling_mul(_doubling_conj(d), b))]
    right = [p + q for p, q in zip(_doubling_mul(d, a), _doubling_mul(b, _doubling_conj(c)))]
    return tuple(left + right)


def reference_multiply(x: CDElement, y: CDElement) -> CDElement:
    """Product via the doubling recursion itself; table cross-check path."""
    x._require_match(y)
    da, a = x._intform
    db, b = y._intform
    return _element(x.level, x.field, da * db, _doubling_mul(a, b))


def _build_tables():
    tables = []
    for level in range(MAX_LEVEL + 1):
        n = 1 << level
        basis = [tuple(int(i == 2 * k) for i in range(2 * n)) for k in range(n)]
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                prod = _doubling_mul(basis[i], basis[j])
                entries = [(k, c) for k, c in enumerate(prod) if c]
                if len(entries) != 1 or entries[0][0] % 2 or entries[0][1] not in (1, -1):
                    raise RuntimeError("basis product is not a signed basis element")
                k, c = entries[0]
                row.append((k // 2, c))
            table.append(row)
        tables.append(table)
    return tables


_TABLES = _build_tables()


def _compile_kernel(level: int, real: bool, scalar_part: bool = False):
    """The level's product of interleaved integer planes, added into out:
    straight-line code, built from the table's integers only, in which
    e_i e_j = sign e_k adds sign (a_i b_j), parts multiplied out, to out k.
    The real kernel serves tag Q, whose imaginary parts are all 0: it forms
    the products of real parts only and leaves out's imaginary slots alone.
    A scalar-part kernel adds only out[0] and out[1], the e_0 coefficient
    of the product, from the terms e_i e_i = sign e_0."""
    n = 1 << level
    terms = [[] for _ in range(2 * n)]  # signed products summed into out[t]
    for i, row in enumerate(_TABLES[level]):
        for j, (k, sign) in enumerate(row):
            p, m = ("+", "-") if sign > 0 else ("-", "+")
            ar, ai, br, bi = f"a{2 * i}", f"a{2 * i + 1}", f"b{2 * j}", f"b{2 * j + 1}"
            terms[2 * k].append(f"{p} {ar}*{br}")
            if not real:
                terms[2 * k].append(f"{m} {ai}*{bi}")
                terms[2 * k + 1] += [f"{p} {ar}*{bi}", f"{p} {ai}*{br}"]
    if scalar_part:
        terms = terms[:2]
    a = ", ".join(f"a{t}" for t in range(2 * n))
    lines = ["def kernel(a, b, out):", f"    {a}, = a", f"    {a.replace('a', 'b')}, = b"]
    lines += [f"    out[{t}] += {' '.join(ts).lstrip('+ ')}" for t, ts in enumerate(terms) if ts]
    lines.append("    return out")
    namespace = {}
    name = f"<cayley_dickson level {level}{' real' if real else ''}{' scalar' if scalar_part else ''}>"
    exec(compile("\n".join(lines), name, "exec"), namespace)
    return namespace["kernel"]


_KERNELS = [_compile_kernel(level, False) for level in range(MAX_LEVEL + 1)]
_REAL_KERNELS = [_compile_kernel(level, True) for level in range(MAX_LEVEL + 1)]
_SCALAR_KERNELS = [_compile_kernel(level, False, True) for level in range(MAX_LEVEL + 1)]
_REAL_SCALAR_KERNELS = [_compile_kernel(level, True, True) for level in range(MAX_LEVEL + 1)]


def _kernel(level: int, field: str):
    """The compiled product for planes of this level and field tag."""
    return (_REAL_KERNELS if field == FIELD_Q else _KERNELS)[level]


def _scalar_kernel(level: int, field: str):
    """The compiled scalar part of the product, for this level and field tag."""
    return (_REAL_SCALAR_KERNELS if field == FIELD_Q else _SCALAR_KERNELS)[level]


def _scale(s: tuple, a) -> list:
    """s a on an interleaved plane, for a Gaussian-integer pair s: the one
    scaling of a plane by a scalar, for elements and Jordan planes alike."""
    sr, si = s
    out = []
    for k in range(0, len(a), 2):
        ar, ai = a[k], a[k + 1]
        out += (sr * ar - si * ai, sr * ai + si * ar)
    return out


def associativity_counterexample():
    """A basis triple of the octonions over Q with (ab)c != a(bc), found by search."""
    e = [cd_basis(3, t) for t in range(8)]
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                a, b, c = e[i], e[j], e[k]
                lhs = (a * b) * c
                rhs = a * (b * c)
                if lhs != rhs:
                    return (i, j, k), lhs, rhs
    raise RuntimeError("octonions unexpectedly associative")
