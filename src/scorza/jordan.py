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

An element is one flat integer plane: a denominator and the n x n entry
planes of `cayley_dickson` over it in row order, in lowest terms, so equal
values have equal planes. That is the layout of an exc27 point of `strata`,
which shares its tuple with its element. Sums, negation, scalings, `is_zero`,
traces and the sharp are passes over the flat, a product reads each
operand's grid of entry slices once, and `_hermitian` writes every lower
triangle from the entries on and above the diagonal. CDElement entries are
built only at the boundary (`entries`, `entry`); the JSON form is written
from the plane and read into it as `scalars` leaves, with no QI.

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
    MAX_LEVEL,
    cd_scalar,
)
from .errors import InputError, UnsupportedError, quoted
from .scalars import (QI, QI_ONE, QI_ZERO, Leaves, common_plane, from_plane, json_int,
                      leaves_plane, plain_json, to_plane)
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
    """An element of H_n(K), stored as one integer plane: `n`, a positive
    `den` and `flat`, the n x n entry planes (the interleaved parts of
    `cayley_dickson`) over it in row order, with gcd(den, every part) = 1, so
    equal values have equal planes. An exc27 point holds the same plane.
    `JordanElement(algebra, entries)` takes and checks a square tuple of
    CDElement rows; `rows`, `entries` and `entry` are read views of `flat`."""

    def __init__(self, algebra: str, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise InputError("entries must form a square matrix")
        x = from_upper(algebra, [row[i:] for i, row in enumerate(entries)])
        if _from_entries(algebra, entries) != x:  # a lower entry is not the mirror's
            raise InputError("matrix is not hermitian")
        self.__dict__.update(vars(x))

    def __setattr__(self, name, value):
        raise AttributeError(f"JordanElement is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not JordanElement:
            return NotImplemented
        return self.den == other.den and self.flat == other.flat and self.algebra == other.algebra

    def __hash__(self):
        return hash((self.algebra, self.den, self.flat))

    def __repr__(self):
        return f"JordanElement(algebra={self.algebra!r}, entries={self.entries!r})"

    @property
    def rows(self) -> tuple:
        """The entry planes as n rows of n tuples, sliced from `flat`."""
        return tuple([tuple(row) for row in _grid(self)])

    @property
    def entries(self) -> tuple:
        """The entries as CDElement rows, built from the plane."""
        return tuple([tuple([self.entry(i, j) for j in range(self.n)]) for i in range(self.n)])

    def entry(self, i: int, j: int) -> CDElement:
        level, field = ALGEBRAS[self.algebra]
        width = 2 << level
        at = (i * self.n + j) * width
        return _element(level, field, self.den, self.flat[at:at + width])

    def _require_match(self, other: "JordanElement"):
        if self.algebra != other.algebra or self.n != other.n:
            raise InputError(f"shape/algebra mismatch: {self.n}x{self.n} {self.algebra} vs "
                             f"{other.n}x{other.n} {other.algebra}")

    def _combine(self, other: "JordanElement", sign: int) -> "JordanElement":
        """self + sign other, over the lcm of the two dens."""
        self._require_match(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return _jordan(self.algebra, self.n, den,
                       [s * p + t * q for p, q in zip(self.flat, other.flat)])

    def __add__(self, other: "JordanElement") -> "JordanElement":
        return self._combine(other, 1)

    def __sub__(self, other: "JordanElement") -> "JordanElement":
        return self._combine(other, -1)

    def __neg__(self) -> "JordanElement":
        return _wrap(self.algebra, self.n, self.den, [-v for v in self.flat])

    def scale(self, s) -> "JordanElement":
        s = s if isinstance(s, QI) else QI(s)
        if algebra_field(self.algebra) == FIELD_Q and not s.is_real():
            raise InputError("cannot scale a Q-tagged element by a complex scalar")
        ds, pair = to_plane((s,))
        return _jordan(self.algebra, self.n, self.den * ds, _scale(pair, self.flat))

    def is_zero(self) -> bool:
        return not any(self.flat)

    def json_tree(self) -> dict:
        """The element as JSON: its upper triangle, row by row, each entry
        {"level", "coeffs"} with its coefficients a `scalars.Leaves` of its
        entry plane, which `cli.render_json` writes with no QI."""
        level, rows = ALGEBRAS[self.algebra][0], _grid(self)
        upper = [[{"level": level, "coeffs": Leaves(self.den, e)} for e in row[i:]]
                 for i, row in enumerate(rows)]
        return {"n": self.n, "algebra": self.algebra, "entries": upper}

    def to_json(self) -> dict:
        return plain_json(self.json_tree())

    @staticmethod
    def from_json(data: dict) -> "JordanElement":
        """Inverse of to_json, read into the element's plane with one lcm
        (`scalars.leaves_plane`, in lowest terms) and no QI: each entry is
        checked as `CDElement` checks it and must be at the algebra's level,
        the diagonal must be scalar, and `_hermitian` writes the lower
        triangle as the conjugate of the upper one."""
        n, algebra = json_int(data["n"], "n"), data["algebra"]
        level, field = _entry_algebra(algebra, n)
        upper = data["entries"]
        if not isinstance(upper, list) or len(upper) != n:
            raise InputError(f"expected {n} rows of upper-triangle entries")
        leaves = []
        for row in upper:
            for e in row:
                coeffs = e["coeffs"]
                leaves += coeffs
                got = json_int(e["level"], "level")
                if not 0 <= got <= MAX_LEVEL:
                    raise InputError(f"level {got} outside 0..{MAX_LEVEL}")
                if len(coeffs) != 1 << got:
                    raise InputError(
                        f"level {got} needs {1 << got} coefficients, got {len(coeffs)}")
                if got != level:
                    raise InputError("entry algebra mismatch")
        den, flat = leaves_plane(leaves)
        if field == FIELD_Q and any(flat[1::2]):
            raise InputError("field tag Q requires real rational coefficients")
        if any(len(row) != n - i for i, row in enumerate(upper)):
            raise InputError("ragged upper triangle")
        width = 2 << level
        entries = [flat[k:k + width] for k in range(0, len(flat), width)]
        if any(any(entries[i * n - i * (i - 1) // 2][2:]) for i in range(n)):
            raise InputError("diagonal entries must be scalars")
        return _wrap(algebra, n, den, _hermitian(n, entries))


def _wrap(algebra: str, n: int, den: int, flat) -> JordanElement:
    """The element with plane flat/den, which must be in lowest terms: a
    read or drawn plane, a reduced one negated, or an exc27 point's own
    tuple, which it keeps (tuple() of a tuple is that tuple)."""
    x = object.__new__(JordanElement)
    x.__dict__.update(algebra=algebra, n=n, den=den, flat=tuple(flat))
    return x


def _jordan(algebra: str, n: int, den: int, flat) -> JordanElement:
    """The element with plane flat/den, reduced to lowest terms, built
    without the constructor's checks: for results hermitian by
    construction, such as sums, scalings, Jordan products and sharps."""
    g = gcd(den, *flat)
    if g > 1:
        den //= g
        flat = [v // g for v in flat]
    return _wrap(algebra, n, den, flat)


def _grid(x: JordanElement) -> list:
    """x's entry planes as n rows of n slices of its flat."""
    flat, width = x.flat, 2 << ALGEBRAS[x.algebra][0]
    step = x.n * width
    return [[flat[k:k + width] for k in range(r, r + step, width)]
            for r in range(0, len(flat), step)]


def _hermitian(n: int, upper) -> list:
    """The flat plane, in row order, of the hermitian n x n matrix whose
    entries on and above the diagonal are the planes `upper`, row by row:
    entry (j, i) is the conjugate of entry (i, j), its scalar pair kept and
    the rest negated, as in `CDElement.conjugate`. Every lower triangle of
    this module is written here."""
    grid, entries = [None] * (n * n), iter(upper)
    for i in range(n):
        for j in range(i, n):
            grid[i * n + j] = e = next(entries)
            if j > i:
                grid[j * n + i] = [e[0], e[1], *[-v for v in e[2:]]]
    return [v for e in grid for v in e]


def _from_entries(algebra: str, entries) -> JordanElement:
    """The element with these CDElement entries, built without the
    constructor's checks, on the lcm plane of the entries' own planes."""
    den, flats = common_plane([e.int_form() for row in entries for e in row])
    return _jordan(algebra, len(entries), den, [v for f in flats for v in f])


# --- constructors -----------------------------------------------------------

def jordan_zero(algebra: str, n: int) -> JordanElement:
    return jordan_diag(algebra, [QI_ZERO] * n)


def jordan_identity(algebra: str, n: int) -> JordanElement:
    return jordan_diag(algebra, [QI_ONE] * n)


def jordan_diag(algebra: str, scalars) -> JordanElement:
    """The diagonal element with these scalars."""
    level, field = ALGEBRAS[algebra]
    zero, n = cd_scalar(QI_ZERO, level, field), len(scalars)
    return from_upper(algebra, [[cd_scalar(s, level, field)] + [zero] * (n - 1 - i)
                                for i, s in enumerate(scalars)])


def from_upper(algebra: str, upper) -> JordanElement:
    """Build from diagonal-and-above entries, each in the algebra and the
    diagonal ones scalars; `_hermitian` writes the conjugates below."""
    n = len(upper)
    if any(len(row) != n - i for i, row in enumerate(upper)):
        raise InputError("ragged upper triangle")
    level, field = _entry_algebra(algebra, n)
    entries = [e for row in upper for e in row]
    if any(e.level != level or e.field != field for e in entries):
        raise InputError("entry algebra mismatch")
    if not all(row[0].is_scalar() for row in upper):
        raise InputError("diagonal entries must be scalars")
    den, flats = common_plane([e.int_form() for e in entries])
    return _jordan(algebra, n, den, _hermitian(n, flats))


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
    return _jordan(algebra, len(vv), den * den, outer_square_planes(level, field, flats))


def outer_square_planes(level: int, field: str, vs) -> list:
    """The flat plane, over den^2, of v v* for entry planes vs over one den:
    the norm form n(v_i) = sp(v_i conj(v_i)) on the diagonal; above it
    v_i conj(v_j), a scaling when v_j is a scalar and one kernel product
    otherwise; below it the conjugates (`_hermitian`)."""
    mul, sp = _kernel(level, field), _scalar_kernel(level, field)
    width = 2 << level
    bars = [[a[0], a[1], *[-v for v in a[2:]]] for a in vs]
    upper = []
    for i, a in enumerate(vs):
        upper.append(sp(a, bars[i], [0, 0]) + [0] * (width - 2))
        for b in bars[i + 1:]:
            upper.append(_scale(b[:2], a) if not any(b[2:]) else mul(a, b, [0] * width))
    return _hermitian(len(vs), upper)


def random_hermitian(rng: Random, algebra: str, n: int, height: int = 10) -> JordanElement:
    """A random element of H_n(K), entries of height at most height, drawn
    row by row: diagonal entry i as one `sampling.random_qi` scalar, then
    each entry above it as a `random_cd` draw. One `random_plane` call
    draws all of them, with the per-entry draws and rng end state, in lowest
    terms; `_hermitian` mirrors it into the element's plane, hermitian by
    construction, so neither the constructor's checks nor a gcd runs."""
    level, field = _entry_algebra(algebra, n)
    width = 2 << level
    den, flat = random_plane(rng, n + n * (n - 1) // 2 * (1 << level), height, field == FIELD_Q)
    upper, at = [], 0
    for i in range(n):
        for j in range(i, n):
            step = 2 if j == i else width  # a scalar on the diagonal
            upper.append(flat[at:at + step] + [0] * (width - step))
            at += step
    return _wrap(algebra, n, den, _hermitian(n, upper))


# --- operations --------------------------------------------------------------

def _scale_add(s: tuple, a, t: tuple, b) -> list:
    """s a + t b on interleaved planes, for Gaussian-integer pairs s and t."""
    (sr, si), (tr, ti) = s, t
    out = []
    for k in range(0, len(a), 2):
        ar, ai, br, bi = a[k], a[k + 1], b[k], b[k + 1]
        out += (sr * ar - si * ai + tr * br - ti * bi, sr * ai + si * ar + tr * bi + ti * br)
    return out


def _product_planes(x: JordanElement, y: JordanElement) -> tuple:
    """(den, flat): the plane of x o y over one den, as `jordan_product` says."""
    x._require_match(y)
    level, field = ALGEBRAS[x.algebra]
    mul, sp = _kernel(level, field), _scalar_kernel(level, field)
    width, n, square = 2 << level, x.n, x is y
    X = _grid(x)
    Y = X if square else _grid(y)
    upper = []
    for i in range(n):
        Xi, Yi = X[i], Y[i]
        acc = [0] * width
        for k in range(n):
            sp(Xi[k], Y[k][i], acc)
        if not square:
            acc[:2] = 2 * acc[0], 2 * acc[1]
        upper.append(acc)
        for j in range(i + 1, n):
            Xj, Yj = X[j], Y[j]
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
            upper.append(acc)
    return (x.den * x.den if square else 2 * x.den * y.den), _hermitian(n, upper)


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

    two Gaussian scale-adds and full kernels only for k != i, j. The lower
    triangle is the conjugate of the upper one (`_hermitian`).

    A square, `jordan_product(x, x)` with the same object twice, has its
    two cross terms x_ik x_kj equal: it forms each once, so
    (x o x)_ij = (x_ii + x_jj) x_ij + sum over k != i, j of x_ik x_kj and
    (x o x)_ii = sum_k sp(x_ik x_ki), all over dx^2 with nothing doubled.
    """
    return _jordan(x.algebra, x.n, *_product_planes(x, y))


def _diagonal_step(x: JordanElement) -> int:
    """The stride of the diagonal entries in a flat of x's shape: n + 1 entries."""
    return (x.n + 1) * (2 << ALGEBRAS[x.algebra][0])


def jtrace(x: JordanElement) -> QI:
    step = _diagonal_step(x)
    return QI.from_ints(sum(x.flat[0::step]), sum(x.flat[1::step]), x.den)


def _trace_pair(x: JordanElement, A, B) -> list:
    """sum_ik sp(A_ik B_ki) of two planes of x's shape, by the scalar-part kernel."""
    level, field = ALGEBRAS[x.algebra]
    sp, width, n = _scalar_kernel(level, field), 2 << level, x.n
    acc = [0, 0]
    for i in range(n):
        for k in range(n):
            a, b = (i * n + k) * width, (k * n + i) * width
            sp(A[a:a + width], B[b:b + width], acc)
    return acc


def trace_form(x: JordanElement, y: JordanElement) -> QI:
    """T(x, y) = tr(x o y) = sum_ik sp(x_ik y_ki), without forming x o y:
    the scalar-part kernel summed on the integer planes."""
    x._require_match(y)
    return QI.from_ints(*_trace_pair(x, x.flat, y.flat), x.den * y.den)


def _sharp_planes(x: JordanElement) -> tuple:
    """(den, flat): the plane of x# = x^2 - t x + s I, t = tr(x) and
    s = (t^2 - tr(x^2))/2, from the one square x o x = S / d^2 (the square
    path of `jordan_product`, nothing doubled). With tr(x) = t/d and
    tr(x^2) = p/d^2, x# = (2S - 2t X + (t^2 - p) I) / 2d^2."""
    d2, S = _product_planes(x, x)
    X, step = x.flat, _diagonal_step(x)
    tr, ti, pr, pi = sum(X[0::step]), sum(X[1::step]), sum(S[0::step]), sum(S[1::step])
    flat = _scale_add((2, 0), S, (-2 * tr, -2 * ti), X)
    for k in range(0, len(flat), step):
        flat[k] += tr * tr - ti * ti - pr
        flat[k + 1] += 2 * tr * ti - pi
    return 2 * d2, flat


def sharp(x: JordanElement) -> JordanElement:
    """Degree-3 adjoint: x# = x^2 - tr(x) x + s(x) I with x# o x = det(x) I,
    formed on the integer planes from one square x o x."""
    if x.n != 3:
        raise UnsupportedError("sharp is defined for 3x3 elements only")
    return _jordan(x.algebra, 3, *_sharp_planes(x))


def generic_det(x: JordanElement) -> QI:
    """Generic determinant via Newton's identities on Jordan power traces.

    Valid for any n over associative entries and for n <= 3 (all the
    constructor admits) over the octonionic algebras; restricts to the
    ordinary matrix determinant on commutative entries and is homogeneous
    of degree n. The power sums are p_k = tr(x^k) with p_1 = tr(x); the
    last one is `trace_form`(x^(n-1), x), so x^n is never formed.
    """
    n, xk = x.n, x
    power_sums = [jtrace(x)]
    for _ in range(2, n):
        xk = jordan_product(xk, x)
        power_sums.append(jtrace(xk))
    if n > 1:
        power_sums.append(trace_form(xk, x))
    elem = [QI_ONE]
    for k in range(1, n + 1):
        acc, sign = QI_ZERO, 1
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
    if not any(adj):
        return 1
    if not any(_trace_pair(x, adj, x.flat)):
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
    for row in _grid(x):
        line = []
        for e in row:
            if not any(e[2:]):  # a scalar entry, every entry at level 0
                line += from_plane(x.den, e[:2])
            elif level == 1 and field == FIELD_Q:  # plane (a, 0, b, 0) over den
                line += from_plane(x.den, e[::2])
            else:
                raise UnsupportedError("entries do not lie in a commutative subfield")
        out.append(line)
    return out
