"""Hermitian-matrix Jordan algebras over the composition algebras.

H_n(K) carries the product x o y = (xy + yx)/2. The degree-3 adjoint
(sharp), generic determinant, and Jordan rank are defined purely from the
product and trace, which sidesteps any sign convention in closed octonion
formulas; the classical cubic expansion is kept as a cross-check. The
generic determinant comes from Newton's identities on Jordan power traces,
for any n over associative entry algebras and for n <= 3 over octonions.

The product, the trace form and so the rest run on the Peirce structure
of H_n(K) under the diagonal idempotents E_ii: diagonal entries are central
scalars, so they scale, and a diagonal entry of a product or a trace needs
only scalar parts of entry products (the scalar-part kernels of
`cayley_dickson`). Full octonion products remain only for the terms
x_ik y_kj with k != i, j.

An element is one integer plane: a denominator and the n x n entry planes
of `cayley_dickson` over it, in lowest terms, so equal values have equal
planes. Sums, scalings, traces, products and sharps run on that plane
alone; CDElement entries are built from it only at the boundary (`entries`,
`entry`, `to_json`).

The rank characterization (x# = 0 iff rank <= 1, det = 0 iff rank <= 2) is
field-agnostic and is used unchanged over the complexified algebras.
Sharp and rank are degree-3 only.
"""

from __future__ import annotations

from math import gcd, lcm
from random import Random

from .cayley_dickson import (
    _element,
    _kernel,
    _scalar_kernel,
    _scale,
    CDElement,
    FIELD_Q,
    FIELD_QI,
    cd_scalar,
)
from .errors import InputError, UnsupportedError, quoted
from .scalars import QI, QI_ONE, QI_ZERO, common_plane, from_plane, json_int, to_plane
from .sampling import random_plane

# algebra tag -> (Cayley-Dickson level, scalar field tag)
ALGEBRAS = {
    "R": (0, FIELD_Q),
    "C": (1, FIELD_Q),
    "H": (2, FIELD_Q),
    "O": (3, FIELD_Q),
    "R_C": (0, FIELD_QI),
    "C_C": (1, FIELD_QI),
    "H_C": (2, FIELD_QI),
    "O_C": (3, FIELD_QI),
}


def algebra_field(algebra: str) -> str:
    return ALGEBRAS[algebra][1]


def _entry_algebra(algebra: str, n: int) -> tuple:
    """(level, field) of a known entry algebra for n x n matrices; octonionic
    ones need n <= 3."""
    level, field = ALGEBRAS.get(algebra, (None, None))
    if level is None:
        raise InputError(f"unknown entry algebra {quoted(algebra)}")
    if level == 3 and n > 3:
        raise UnsupportedError("octonionic hermitian matrices need n <= 3")
    return level, field


class JordanElement:
    """An element of H_n(K), stored as one integer plane: a positive `den`
    and `rows`, the n x n entry planes (the interleaved parts of
    `cayley_dickson`) over it, with gcd(den, every part) = 1, so equal
    values have equal planes. `JordanElement(algebra, entries)` takes and
    checks a square tuple of CDElement rows; `entries` and `entry` build
    them back from the plane."""

    def __init__(self, algebra: str, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise InputError("entries must form a square matrix")
        level, field = _entry_algebra(algebra, n)
        for row in entries:
            for e in row:
                if e.level != level or e.field != field:
                    raise InputError("entry algebra mismatch")
        for i in range(n):
            if not entries[i][i].is_scalar():
                raise InputError("diagonal entries must be scalars")
            for j in range(i + 1, n):
                if entries[j][i] != entries[i][j].conjugate():
                    raise InputError("matrix is not hermitian")
        self.__dict__.update(vars(_from_entries(algebra, entries)))

    def __setattr__(self, name, value):
        raise AttributeError(f"JordanElement is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not JordanElement:
            return NotImplemented
        return self.den == other.den and self.rows == other.rows and self.algebra == other.algebra

    def __hash__(self):
        return hash((self.algebra, self.den, self.rows))

    def __repr__(self):
        return f"JordanElement(algebra={self.algebra!r}, entries={self.entries!r})"

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple:
        """The entries as CDElement rows, built from the plane."""
        return tuple([tuple([self.entry(i, j) for j in range(self.n)]) for i in range(self.n)])

    def entry(self, i: int, j: int) -> CDElement:
        level, field = ALGEBRAS[self.algebra]
        return _element(level, field, self.den, self.rows[i][j])

    def _require_match(self, other: "JordanElement"):
        if self.algebra != other.algebra or self.n != other.n:
            raise InputError(
                f"shape/algebra mismatch: {self.n}x{self.n} {self.algebra} vs "
                f"{other.n}x{other.n} {other.algebra}"
            )

    def _combine(self, other: "JordanElement", sign: int) -> "JordanElement":
        """self + sign other, over the lcm of the two dens."""
        self._require_match(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return _jordan(self.algebra, den, [
            [[s * p + t * q for p, q in zip(a, b)] for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ])

    def __add__(self, other: "JordanElement") -> "JordanElement":
        return self._combine(other, 1)

    def __sub__(self, other: "JordanElement") -> "JordanElement":
        return self._combine(other, -1)

    def __neg__(self) -> "JordanElement":
        return _jordan(self.algebra, self.den, [[[-v for v in e] for e in row] for row in self.rows])

    def scale(self, s) -> "JordanElement":
        s = s if isinstance(s, QI) else QI(s)
        if algebra_field(self.algebra) == FIELD_Q and not s.is_real():
            raise InputError("cannot scale a Q-tagged element by a complex scalar")
        ds, pair = to_plane((s,))
        return _jordan(self.algebra, self.den * ds,
                       [[_scale(pair, e) for e in row] for row in self.rows])

    def is_zero(self) -> bool:
        return not any(v for row in self.rows for e in row for v in e)

    def to_json(self) -> dict:
        upper = [[self.entry(i, j).to_json() for j in range(i, self.n)] for i in range(self.n)]
        return {"n": self.n, "algebra": self.algebra, "entries": upper}

    @staticmethod
    def from_json(data: dict) -> "JordanElement":
        n = json_int(data["n"], "n")
        algebra = data["algebra"]
        field = _entry_algebra(algebra, n)[1]
        upper = data["entries"]
        if not isinstance(upper, list) or len(upper) != n:
            raise InputError(f"expected {n} rows of upper-triangle entries")
        return from_upper(
            algebra, [[CDElement.from_json(e, field=field) for e in row] for row in upper]
        )


def _jordan(algebra: str, den: int, rows) -> JordanElement:
    """The element with entry planes rows[i][j] over den, reduced to lowest
    terms, built without the constructor's checks: for results hermitian by
    construction, such as sums, scalings, Jordan products and sharps."""
    g = gcd(den, *[v for row in rows for e in row for v in e])
    if g > 1:
        den //= g
        rows = [[[v // g for v in e] for e in row] for row in rows]
    x = object.__new__(JordanElement)
    x.__dict__.update(algebra=algebra, den=den,
                      rows=tuple([tuple([tuple(e) for e in row]) for row in rows]))
    return x


def _from_entries(algebra: str, entries) -> JordanElement:
    """The element with these CDElement entries, built without the
    constructor's checks, on the lcm plane of the entries' own planes."""
    n = len(entries)
    den, flats = common_plane([e.int_form() for row in entries for e in row])
    return _jordan(algebra, den, [flats[i * n:(i + 1) * n] for i in range(n)])


# --- constructors -----------------------------------------------------------

def jordan_zero(algebra: str, n: int) -> JordanElement:
    return jordan_diag(algebra, [QI_ZERO] * n)


def jordan_identity(algebra: str, n: int) -> JordanElement:
    return jordan_diag(algebra, [QI_ONE] * n)


def jordan_diag(algebra: str, scalars) -> JordanElement:
    """The diagonal element with these scalars."""
    level, field = ALGEBRAS[algebra]
    diag = [cd_scalar(s, level, field) for s in scalars]
    zero = cd_scalar(QI_ZERO, level, field)
    n = len(diag)
    return JordanElement(algebra, [[diag[i] if i == j else zero for j in range(n)] for i in range(n)])


def from_upper(algebra: str, upper) -> JordanElement:
    """Build from diagonal-and-above entries; the lower triangle is conjugated."""
    n = len(upper)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        if len(upper[i]) != n - i:
            raise InputError("ragged upper triangle")
        for j in range(i, n):
            e = upper[i][j - i]
            rows[i][j] = e
            if j > i:
                rows[j][i] = e.conjugate()
    return JordanElement(algebra, tuple(tuple(r) for r in rows))


def rank_one_from_vector(algebra: str, v) -> JordanElement:
    """The hermitian outer square v v* with entries v_i * conj(v_j).

    Genuine Jordan rank 1 needs the v_i to generate an associative
    subalgebra (e.g. quaternionic entries, or at most two independent
    octonions plus scalars); callers verify sharp = 0 when it matters.
    """
    level, field = _entry_algebra(algebra, len(v))
    vv = [x if x.level == level else x.embed(level) for x in v]
    if any(x.field != field for x in vv):
        raise InputError("vector entries must match the algebra's field tag")
    den, flats = common_plane([x.int_form() for x in vv])
    return _jordan(algebra, den * den, outer_square_planes(level, field, flats))


def outer_square_planes(level: int, field: str, vs) -> list:
    """The entry planes, over den^2, of v v* for entry planes vs over one den:
    the norm form n(v_i) = sp(v_i conj(v_i)) on the diagonal; above it
    v_i conj(v_j), a scaling when v_j is a scalar and one kernel product
    otherwise; below it the conjugates, so it is hermitian."""
    mul, sp = _kernel(level, field), _scalar_kernel(level, field)
    width, n = 2 << level, len(vs)
    bars = [[a[0], a[1], *[-v for v in a[2:]]] for a in vs]
    rows = [[None] * n for _ in range(n)]
    for i, a in enumerate(vs):
        rows[i][i] = sp(a, bars[i], [0, 0]) + [0] * (width - 2)
        for j in range(i + 1, n):
            b = bars[j]
            e = _scale(b[:2], a) if not any(b[2:]) else mul(a, b, [0] * width)
            rows[i][j], rows[j][i] = e, e[:2] + [-v for v in e[2:]]
    return rows


def random_hermitian(rng: Random, algebra: str, n: int, height: int = 10) -> JordanElement:
    """A random element of H_n(K), entries of height at most height, drawn
    row by row: diagonal entry i as one `sampling.random_qi` scalar, then
    each entry above it as a `random_cd` draw. One `random_plane` call
    draws all of them, with the per-entry draws and rng end state, and its
    plane is mirrored into the element's: the lower entries are the
    conjugates, so it is hermitian by construction and skips the
    constructor's checks."""
    level, field = _entry_algebra(algebra, n)
    width = 2 << level
    den, flat = random_plane(rng, n + n * (n - 1) // 2 * (1 << level), height, field == FIELD_Q)
    rows = [[None] * n for _ in range(n)]
    at = 0
    for i in range(n):
        rows[i][i] = flat[at:at + 2] + [0] * (width - 2)
        at += 2
        for j in range(i + 1, n):
            e = flat[at:at + width]
            at += width
            rows[i][j], rows[j][i] = e, e[:2] + [-v for v in e[2:]]
    return _jordan(algebra, den, rows)


# --- operations --------------------------------------------------------------

def _scale_add(s: tuple, a, t: tuple, b) -> list:
    """s a + t b on interleaved planes, for Gaussian-integer pairs s and t."""
    sr, si = s
    tr, ti = t
    out = []
    for k in range(0, len(a), 2):
        ar, ai, br, bi = a[k], a[k + 1], b[k], b[k + 1]
        out += (sr * ar - si * ai + tr * br - ti * bi, sr * ai + si * ar + tr * bi + ti * br)
    return out


def _product_planes(x: JordanElement, y: JordanElement) -> tuple:
    """(den, rows): the planes of x o y over one den, as `jordan_product` says."""
    x._require_match(y)
    level, field = ALGEBRAS[x.algebra]
    mul = _kernel(level, field)
    sp = _scalar_kernel(level, field)
    width = 2 << level
    n = x.n
    dx, X = x.den, x.rows
    dy, Y = y.den, y.rows
    square = x is y
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        acc = [0] * width
        for k in range(n):
            sp(X[i][k], Y[k][i], acc)
        if not square:
            acc[0] *= 2
            acc[1] *= 2
        rows[i][i] = acc
    for i in range(n):
        for j in range(i + 1, n):
            Xi, Yi, Xj, Yj = X[i], Y[i], X[j], Y[j]
            if square:
                acc = _scale((Xi[i][0] + Xj[j][0], Xi[i][1] + Xj[j][1]), Xi[j])
                for k in range(n):
                    if k != i and k != j:
                        mul(Xi[k], X[k][j], acc)
            else:
                acc = _scale_add(
                    (Xi[i][0] + Xj[j][0], Xi[i][1] + Xj[j][1]), Yi[j],
                    (Yi[i][0] + Yj[j][0], Yi[i][1] + Yj[j][1]), Xi[j],
                )
                for k in range(n):
                    if k != i and k != j:
                        mul(Xi[k], Y[k][j], acc)
                        mul(Yi[k], X[k][j], acc)
            rows[i][j] = acc
            rows[j][i] = acc[:2] + [-v for v in acc[2:]]
    return (dx * dx if square else 2 * dx * dy), rows


def jordan_product(x: JordanElement, y: JordanElement) -> JordanElement:
    """x o y = (xy + yx)/2, computed on and above the diagonal by the Peirce
    structure of hermitian matrices under the idempotents E_ii.

    Both factors are hermitian and conjugation is C-linear and reverses
    products, so y_ik x_ki = conj(x_ik y_ki): diagonal entry i is
    sum_k sp(x_ik y_ki), n runs of the scalar-part kernel, doubled over
    the den 2 dx dy of the other entries. Every diagonal entry is a
    central scalar, so for i < j

        2 (x o y)_ij = (x_ii + x_jj) y_ij + (y_ii + y_jj) x_ij
                       + sum over k != i, j of (x_ik y_kj + y_ik x_kj),

    two Gaussian scale-adds and full kernels only for k != i, j. Entry
    (j, i) is the conjugate of entry (i, j), its scalar pair kept and the
    rest negated, as in `CDElement.conjugate`.

    A square, `jordan_product(x, x)` with the same object twice, has its
    two cross terms x_ik x_kj equal: it forms each once, so
    (x o x)_ij = (x_ii + x_jj) x_ij + sum over k != i, j of x_ik x_kj and
    (x o x)_ii = sum_k sp(x_ik x_ki), all over dx^2 with nothing doubled.
    """
    return _jordan(x.algebra, *_product_planes(x, y))


def jtrace(x: JordanElement) -> QI:
    diagonal = [x.rows[i][i] for i in range(x.n)]
    return from_plane(x.den, (sum(e[0] for e in diagonal), sum(e[1] for e in diagonal)))[0]


def _trace_pair(algebra: str, A: list, B: list) -> list:
    """sum_ik sp(A_ik B_ki) of two plane matrices, by the scalar-part kernel."""
    sp = _scalar_kernel(*ALGEBRAS[algebra])
    acc = [0, 0]
    for i, row in enumerate(A):
        for k, a in enumerate(row):
            sp(a, B[k][i], acc)
    return acc


def trace_form(x: JordanElement, y: JordanElement) -> QI:
    """T(x, y) = tr(x o y) = sum_ik sp(x_ik y_ki), without forming x o y:
    the scalar-part kernel summed on the integer planes."""
    x._require_match(y)
    return from_plane(x.den * y.den, _trace_pair(x.algebra, x.rows, y.rows))[0]


def _sharp_planes(x: JordanElement) -> tuple:
    """(den, rows): the planes of x# = x^2 - t x + s I, t = tr(x) and
    s = (t^2 - tr(x^2))/2, from the one square x o x = S / d^2 (the square
    path of `jordan_product`, nothing doubled). With tr(x) = t/d and
    tr(x^2) = p/d^2, x# = (2S - 2t X + (t^2 - p) I) / 2d^2."""
    d2, S = _product_planes(x, x)
    X = x.rows
    tr = sum(X[i][i][0] for i in range(3))
    ti = sum(X[i][i][1] for i in range(3))
    pr = sum(S[i][i][0] for i in range(3))
    pi = sum(S[i][i][1] for i in range(3))
    rows = [[_scale_add((2, 0), S[i][j], (-2 * tr, -2 * ti), X[i][j]) for j in range(3)]
            for i in range(3)]
    for i in range(3):
        rows[i][i][0] += tr * tr - ti * ti - pr
        rows[i][i][1] += 2 * tr * ti - pi
    return 2 * d2, rows


def sharp(x: JordanElement) -> JordanElement:
    """Degree-3 adjoint: x# = x^2 - tr(x) x + s(x) I with x# o x = det(x) I,
    formed on the integer planes from one square x o x."""
    if x.n != 3:
        raise UnsupportedError("sharp is defined for 3x3 elements only")
    return _jordan(x.algebra, *_sharp_planes(x))


def generic_det(x: JordanElement) -> QI:
    """Generic determinant via Newton's identities on Jordan power traces.

    Valid for any n over associative entries and for n <= 3 (all the
    constructor admits) over the octonionic algebras; restricts to the
    ordinary matrix determinant on commutative entries and is homogeneous
    of degree n. The power sums are p_k = tr(x^k) with p_1 = tr(x); the
    last one is `trace_form`(x^(n-1), x), so x^n is never formed.
    """
    n = x.n
    power_sums = [jtrace(x)]
    xk = x
    for _ in range(2, n):
        xk = jordan_product(xk, x)
        power_sums.append(jtrace(xk))
    if n > 1:
        power_sums.append(trace_form(xk, x))
    elem = [QI_ONE]
    for k in range(1, n + 1):
        acc = QI_ZERO
        sign = 1
        for i in range(1, k + 1):
            term = elem[k - i] * power_sums[i - 1]
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        elem.append(acc * QI.from_ints(1, 0, k))
    return elem[n]


def jordan_rank3(x: JordanElement) -> int:
    """Jordan rank of a 3x3 element: 0, 1, 2, or 3.

    x o x is formed once, on the square path that forms each cross
    product once, for the planes of x#; then x# o x = N(x) I gives
    T(x#, x) = 3 N(x), so det = 0 is decided by the trace form alone.
    """
    if x.n != 3:
        raise UnsupportedError("jordan_rank3 needs a 3x3 element")
    if x.is_zero():
        return 0
    _, adj = _sharp_planes(x)
    if not any(v for row in adj for e in row for v in e):
        return 1
    if not any(_trace_pair(x.algebra, adj, x.rows)):
        return 2
    return 3


def freudenthal_det3(x: JordanElement) -> QI:
    """Classical cubic expansion of the 3x3 determinant; cross-check path.

    With diagonal (p, q, r) and off-diagonal entries a = x[1][2],
    b = x[2][0], c = x[0][1]:  pqr - pN(a) - qN(b) - rN(c) + t((a b) c).
    """
    if x.n != 3:
        raise UnsupportedError("freudenthal_det3 needs a 3x3 element")
    p, q, r = (x.entry(i, i).scalar_part() for i in range(3))
    a, b, c = x.entry(1, 2), x.entry(2, 0), x.entry(0, 1)
    cross = ((a * b) * c).trace()
    return p * q * r - p * a.norm() - q * b.norm() - r * c.norm() + cross


def to_complex_matrix(x: JordanElement):
    """Flatten entries into a QI matrix when they live in a commutative field.

    Level-0 entries of either field tag map to their scalar; level-1
    entries over Q map a + b e1 to the Gaussian rational a + b i. Anything
    else has no faithful single-complex-coordinate image.
    """
    level, field = ALGEBRAS[x.algebra]
    out = []
    for row in x.rows:
        line = []
        for e in row:
            if not any(e[2:]):  # a scalar entry, every entry at level 0
                line += from_plane(x.den, e[:2])
            elif level == 1 and field == FIELD_Q:  # plane (a, 0, b, 0) over den
                line += from_plane(x.den, e[::2])
            else:
                raise UnsupportedError(
                    "entries do not lie in a commutative subfield"
                )
        out.append(line)
    return out
