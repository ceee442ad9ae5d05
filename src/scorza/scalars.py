"""Exact base scalars: Gaussian rationals with zero rounding anywhere.

A QI value is a complex number with Fraction real and imaginary parts.
Values with im == 0 double as plain rationals; consumers that insist on
the rational field (tag "Q") check is_real() at their boundaries.

The integer work of the package (matrix products and Bareiss elimination
in `linalg`, the Cayley-Dickson product in `cayley_dickson`, the Jordan
product in `jordan`) runs on one encoding of a sequence of QI values, the
integer plane (den, flat): one positive integer denominator and the
interleaved integer real and imaginary parts over it,

    values[k] = (flat[2k] + i flat[2k+1]) / den.

`to_plane` writes values in lowest terms (den shares no factor with every
part), `from_plane` is the one place that builds QI from plane integers,
and `common_plane` rescales several planes to one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_fraction(x)
    raise InputError(f"cannot interpret {x!r} as an exact rational")


class QI:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    # fast construction path for internal arithmetic (skips coercion)
    @staticmethod
    def _mk(re: Fraction, im: Fraction) -> "QI":
        q = QI.__new__(QI)
        q.re = re
        q.im = im
        return q

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QI._mk(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QI._mk(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QI._mk(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return QI._mk(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return QI._mk(a * c, _ZERO)
        return QI._mk(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero QI")
            return QI._mk(a / c, b / c)
        n = c * c + d * d
        return QI._mk((a * c + b * d) / n, (b * c - a * d) / n)

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "QI":
        return QI._mk(self.re, -self.im)

    def is_real(self) -> bool:
        return not self.im

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; raises if the imaginary part is nonzero."""
        if self.im:
            raise InputError(f"{self} is not a real rational")
        return self.re

    def __repr__(self):
        return f"QI({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_json(self) -> dict:
        return {"re": fraction_str(self.re), "im": fraction_str(self.im)}

    @staticmethod
    def from_json(data: dict) -> "QI":
        if not isinstance(data, dict) or not {"re", "im"} <= data.keys():
            raise InputError(f'expected {{"re": "p/q", "im": "p/q"}}, got {data!r}')
        return QI(parse_fraction(data["re"]), parse_fraction(data["im"]))


def _coerce(x):
    if isinstance(x, QI):
        return x
    if isinstance(x, (int, Fraction)):
        return QI._mk(Fraction(x), _ZERO)
    return NotImplemented


QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)
HALF = Fraction(1, 2)


def to_plane(values) -> tuple:
    """(den, flat) of QI values: den is the lcm of their denominators and
    flat the interleaved integer parts over it, which are then in lowest
    terms."""
    parts = [f for x in values for f in (x.re, x.im)]
    den = lcm(*[f.denominator for f in parts])
    if den == 1:
        return den, [f.numerator for f in parts]
    return den, [f.numerator * (den // f.denominator) for f in parts]


def from_plane(den: int, flat) -> list:
    """The QI values (flat[2k] + i flat[2k+1]) / den."""
    parts = iter(flat)
    return [QI._mk(Fraction(re, den), Fraction(im, den)) for re, im in zip(parts, parts)]


def common_plane(planes) -> tuple:
    """(den, flats): the planes (d, flat) rescaled to the lcm den of their
    denominators; a flat already over den is passed through unchanged."""
    planes = list(planes)
    den = lcm(*[d for d, _ in planes])
    return den, [flat if d == den else [v * (den // d) for v in flat] for d, flat in planes]


def qi(re=0, im=0) -> QI:
    return QI(re, im)


def fraction_str(f: Fraction) -> str:
    """Canonical "p/q" form with an explicit positive denominator."""
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(s: str) -> Fraction:
    if not isinstance(s, str):
        raise InputError(f"expected a rational string like \"p/q\", got {s!r}")
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational string {s!r}") from exc
