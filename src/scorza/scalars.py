"""Exact base scalars: Gaussian rationals with zero rounding anywhere.

A QI value is stored as three ints (a, b, d), meaning (a + b i) / d, with
d > 0 and gcd(a, b, d) = 1, so every value has exactly one representation:
a plane of length one. Arithmetic runs on the ints and reduces once with
one three-argument gcd; negation, conjugation and multiplication by a unit
only copy or negate ints. The JSON form {"re": "p/q", "im": "r/s"} is
written from the ints (`part_strings`) and read into them (`parse_ratio`)
without a `Fraction`; the real and imaginary parts are `Fraction`
properties (`re`, `im`) for `str` and for callers. Values with
b == 0 double as plain rationals; consumers that insist on the rational
field (tag "Q") check is_real() at their boundaries.

The integer work of the package (matrix products and Bareiss elimination
in `linalg`, the Cayley-Dickson product in `cayley_dickson`, the Jordan
product in `jordan`) runs on one encoding of a sequence of QI values, the
integer plane (den, flat): one positive integer denominator and the
interleaved integer real and imaginary parts over it,

    values[k] = (flat[2k] + i flat[2k+1]) / den.

`to_plane` writes values in lowest terms over the lcm of their d (den
shares no factor with every part), `from_plane` builds QI from plane
integers with one gcd per value, and `common_plane` rescales several
planes to one denominator.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, quoted


def _ratio(x) -> tuple:
    """(numerator, denominator) in lowest terms of an int, Fraction or "p/q"
    string."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, str):
        return parse_ratio(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise InputError(f"cannot interpret {quoted(x)} as an exact rational")


class QI:
    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        if q == s:
            self.a, self.b, self.d = p, r, q
        else:  # parts in lowest terms over their lcm: gcd(a, b, d) = 1
            d = lcm(q, s)
            self.a, self.b, self.d = p * (d // q), r * (d // s), d

    @staticmethod
    def from_ints(a: int, b: int, d: int) -> "QI":
        """(a + b i) / d for ints with d > 0, reduced to lowest terms."""
        if d <= 0:
            raise ValueError(f"denominator must be positive, got {d}")
        return _reduced(a, b, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if other.__class__ is not QI:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not QI:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _mk(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if other.__class__ is not QI:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        if not b and not e:
            return _reduced(a * c, 0, self.d * other.d)
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # x / y = x conj(y) e / |e y|^2 for y = (c + e i) / f: one reduction
        if other.__class__ is not QI:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        if not c and not e:
            raise ZeroDivisionError("division by zero QI")
        f = other.d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * (c * c + e * e))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InputError("QI powers take non-negative integer exponents")
        out = QI_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        # one representation per value, so equal values have equal ints
        if other.__class__ is not QI:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a) if self.d == 1 else hash(self.re)

    def __bool__(self):
        return bool(self.a or self.b)

    def conjugate(self) -> "QI":
        return _mk(self.a, -self.b, self.d)

    def times_unit(self, k: int) -> "QI":
        """i**k * self for k in 0..3, by negating or swapping the parts."""
        if k == 0:
            return self
        a, b, d = self.a, self.b, self.d
        return _mk(-b, a, d) if k == 1 else _mk(-a, -b, d) if k == 2 else _mk(b, -a, d)

    def is_real(self) -> bool:
        return not self.b

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; raises if the imaginary part is nonzero."""
        if self.b:
            raise InputError(f"{self} is not a real rational")
        return self.re

    def __repr__(self):
        return f"QI({self.re}, {self.im})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def part_strings(self) -> tuple:
        """(re, im) as strings "p/q", each part in lowest terms on its own:
        the one statement of the JSON form, read by `to_json` and by
        `cli.render_json`. A part too long to write raises InputError."""
        a, b, d = self.a, self.b, self.d
        g, h = gcd(a, d), gcd(b, d)
        try:
            return f"{a // g}/{d // g}", f"{b // h}/{d // h}"
        except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
            raise InputError(f"a value has a part of {_past_digit_limit()}") from None

    def to_json(self) -> dict:
        re, im = self.part_strings()
        return {"re": re, "im": im}

    @staticmethod
    def from_json(data: dict) -> "QI":
        """Inverse of to_json, read as ints by `parse_ratio`: p/q + (r/s) i
        is (p s + r q i) / (q s), put in lowest terms with one gcd."""
        if not isinstance(data, dict) or "re" not in data or "im" not in data:
            raise InputError(f'expected {{"re": "p/q", "im": "p/q"}}, got {quoted(data)}')
        p, q = parse_ratio(data["re"])
        r, s = parse_ratio(data["im"])
        return _reduced(p * s, r * q, q * s)


_new = object.__new__


def _mk(a: int, b: int, d: int) -> QI:
    """The QI with these ints, which must already be in canonical form."""
    q = _new(QI)
    q.a = a
    q.b = b
    q.d = d
    return q


def _reduced(a: int, b: int, d: int) -> QI:
    """(a + b i) / d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    q = _new(QI)
    q.a = a
    q.b = b
    q.d = d
    return q


def _coerce(x):
    if isinstance(x, QI):
        return x
    if isinstance(x, int):
        return _mk(x, 0, 1)
    if isinstance(x, Fraction):
        return _mk(x.numerator, 0, x.denominator)
    return NotImplemented


QI_ZERO = QI(0)
QI_ONE = QI(1)
HALF = _mk(1, 0, 2)


def to_plane(values) -> tuple:
    """(den, flat) of QI values: den is the lcm of their d and flat the
    interleaved integer parts over it, which are then in lowest terms."""
    den = lcm(*[x.d for x in values])
    if den == 1:
        return den, [p for x in values for p in (x.a, x.b)]
    flat = []
    for x in values:
        m = den // x.d
        flat += (x.a * m, x.b * m)
    return den, flat


def from_plane(den: int, flat) -> list:
    """The QI values (flat[2k] + i flat[2k+1]) / den, for den > 0."""
    parts = iter(flat)
    out = []
    for a, b in zip(parts, parts):
        g = gcd(a, b, den)
        q = _new(QI)
        if g == 1:
            q.a, q.b, q.d = a, b, den
        else:
            q.a, q.b, q.d = a // g, b // g, den // g
        out.append(q)
    return out


def common_plane(planes) -> tuple:
    """(den, flats): the planes (d, flat) rescaled to the lcm den of their
    denominators; a flat already over den is passed through unchanged."""
    planes = list(planes)
    den = lcm(*[d for d, _ in planes])
    return den, [flat if d == den else [v * (den // d) for v in flat] for d, flat in planes]


def _past_digit_limit() -> str:
    limit = sys.get_int_max_str_digits()
    return f"more than {limit} digits, the interpreter's limit for an int as text"


def json_int(value, what: str) -> int:
    """A JSON integer field: an int and not a bool, else InputError."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {quoted(value)}")
    return value


def _malformed(s: str) -> InputError:
    """The error for a rejected rational string; a long one may have a part
    past the int-string limit."""
    if len(s) <= 40:
        return InputError(f"malformed rational string {s!r}")
    return InputError(f"rational string {quoted(s)} is malformed "
                      f"or has a part of {_past_digit_limit()}")


def parse_ratio(s: str) -> tuple:
    """(num, den) in lowest terms with den > 0 of a string "p" or "p/q",
    each part as int() reads it (surrounding whitespace, a sign and digit
    underscores allowed). A non-str, a zero denominator or any other form
    raises InputError."""
    if not isinstance(s, str):
        raise InputError(f"expected a rational string like \"p/q\", got {quoted(s)}")
    num, slash, den = s.partition("/")
    try:  # a second "/" is left in den, which int() then rejects
        p, q = int(num), int(den) if slash else 1
    except ValueError as exc:
        raise _malformed(s) from exc
    if q < 0:
        p, q = -p, -q
    elif not q:
        raise _malformed(s)
    g = gcd(p, q)
    return p // g, q // g
