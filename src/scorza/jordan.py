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

The rank characterization (x# = 0 iff rank <= 1, det = 0 iff rank <= 2) is
field-agnostic and is used unchanged over the complexified algebras.
Sharp and rank are degree-3 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .cayley_dickson import (
    _element,
    _kernel,
    _scalar_kernel,
    CDElement,
    FIELD_Q,
    FIELD_QI,
    cd_scalar,
    random_cd,
)
from .errors import InputError, UnsupportedError
from .scalars import QI, QI_ONE, QI_ZERO, common_plane, from_plane
from .sampling import random_qi, random_square

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
        raise InputError(f"unknown entry algebra {algebra!r}")
    if level == 3 and n > 3:
        raise UnsupportedError("octonionic hermitian matrices need n <= 3")
    return level, field


@dataclass(frozen=True)
class JordanElement:
    algebra: str
    entries: tuple  # tuple of row tuples of CDElement

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise InputError("entries must form a square matrix")
        level, field = _entry_algebra(self.algebra, n)
        for i in range(n):
            for j in range(n):
                e = self.entries[i][j]
                if e.level != level or e.field != field:
                    raise InputError("entry algebra mismatch")
        for i in range(n):
            if not self.entries[i][i].is_scalar():
                raise InputError("diagonal entries must be scalars")
            for j in range(i + 1, n):
                if self.entries[j][i] != self.entries[i][j].conjugate():
                    raise InputError("matrix is not hermitian")

    @staticmethod
    def _trusted(algebra: str, entries: tuple) -> "JordanElement":
        """The element with these entries, built without `__post_init__`'s
        checks: for results hermitian by construction, whose entries already
        lie in the algebra, such as sums, scalings and Jordan products."""
        x = object.__new__(JordanElement)
        x.__dict__.update(algebra=algebra, entries=entries)
        return x

    @property
    def n(self) -> int:
        return len(self.entries)

    def _require_match(self, other: "JordanElement"):
        if self.algebra != other.algebra or self.n != other.n:
            raise InputError(
                f"shape/algebra mismatch: {self.n}x{self.n} {self.algebra} vs "
                f"{other.n}x{other.n} {other.algebra}"
            )

    def __add__(self, other: "JordanElement") -> "JordanElement":
        self._require_match(other)
        return JordanElement._trusted(
            self.algebra,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "JordanElement") -> "JordanElement":
        self._require_match(other)
        return JordanElement._trusted(
            self.algebra,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self) -> "JordanElement":
        return JordanElement._trusted(
            self.algebra, tuple(tuple(-a for a in row) for row in self.entries)
        )

    def scale(self, s) -> "JordanElement":
        s = s if isinstance(s, QI) else QI(s)
        return JordanElement._trusted(
            self.algebra, tuple(tuple(a.scale(s) for a in row) for row in self.entries)
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def entry(self, i: int, j: int) -> CDElement:
        return self.entries[i][j]

    def to_json(self) -> dict:
        upper = [
            [self.entries[i][j].to_json() for j in range(i, self.n)]
            for i in range(self.n)
        ]
        return {"n": self.n, "algebra": self.algebra, "entries": upper}

    @staticmethod
    def from_json(data: dict) -> "JordanElement":
        n = int(data["n"])
        algebra = data["algebra"]
        field = algebra_field(algebra)
        upper = data["entries"]
        if not isinstance(upper, list) or len(upper) != n:
            raise InputError(f"expected {n} rows of upper-triangle entries")
        return from_upper(
            algebra, [[CDElement.from_json(e, field=field) for e in row] for row in upper]
        )


# --- constructors -----------------------------------------------------------

def jordan_zero(algebra: str, n: int) -> JordanElement:
    return jordan_diag(algebra, [QI_ZERO] * n)


def jordan_identity(algebra: str, n: int) -> JordanElement:
    return jordan_diag(algebra, [QI_ONE] * n)


def jordan_diag(algebra: str, scalars) -> JordanElement:
    """The diagonal element with these scalars. Each scalar object, and the
    zero off the diagonal, is built into one entry: the identity builds two."""
    level, field = ALGEBRAS[algebra]
    entry = {id(s): s for s in (QI_ZERO, *scalars)}
    entry = {key: cd_scalar(s, level, field) for key, s in entry.items()}
    n = len(scalars)
    rows = [[entry[id(scalars[i] if i == j else QI_ZERO)] for j in range(n)] for i in range(n)]
    return JordanElement(algebra, tuple(map(tuple, rows)))


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
    level, field = ALGEBRAS[algebra]
    vv = [x if x.level == level else x.embed(level) for x in v]
    if any(x.field != field for x in vv):
        raise InputError("vector entries must match the algebra's field tag")
    n = len(vv)
    upper = [[vv[i] * vv[j].conjugate() for j in range(i, n)] for i in range(n)]
    return from_upper(algebra, upper)


def random_hermitian(rng: Random, algebra: str, n: int, height: int = 10) -> JordanElement:
    """A random element of H_n(K), entries of height at most height. It is
    hermitian by construction (`random_square` conjugates the lower
    triangle), so it skips the constructor's checks."""
    level, field = _entry_algebra(algebra, n)
    rows = random_square(
        n,
        lambda: cd_scalar(random_qi(rng, height, real=field == FIELD_Q), level, field),
        lambda: random_cd(rng, level, field, height),
        CDElement.conjugate,
    )
    return JordanElement._trusted(algebra, tuple(tuple(r) for r in rows))


# --- operations --------------------------------------------------------------

def _int_form(x: JordanElement) -> tuple:
    """Cached (den, rows): every entry's integer plane over one common den.

    Built from the entries' own planes (see `cayley_dickson`) by
    `scalars.common_plane`; no QI is touched.
    """
    cached = getattr(x, "_intform", None)
    if cached is not None:
        return cached
    n = x.n
    den, flats = common_plane([e.int_form() for row in x.entries for e in row])
    value = (den, [flats[i * n:(i + 1) * n] for i in range(n)])
    object.__setattr__(x, "_intform", value)
    return value


def _from_int_form(algebra: str, den: int, rows: list) -> JordanElement:
    """The element whose entries are the planes rows[i][j] over den."""
    level, field = ALGEBRAS[algebra]
    return JordanElement._trusted(
        algebra,
        tuple([tuple([_element(level, field, den, flat) for flat in line]) for line in rows]),
    )


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
    dx, X = _int_form(x)
    dy, Y = _int_form(y)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        acc = [0] * width
        for k in range(n):
            sp(X[i][k], Y[k][i], acc)
        acc[0] *= 2
        acc[1] *= 2
        rows[i][i] = acc
    for i in range(n):
        for j in range(i + 1, n):
            Xi, Yi, Xj, Yj = X[i], Y[i], X[j], Y[j]
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
    return 2 * dx * dy, rows


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
    """
    return _from_int_form(x.algebra, *_product_planes(x, y))


def jtrace(x: JordanElement) -> QI:
    acc = QI_ZERO
    for i in range(x.n):
        acc = acc + x.entries[i][i].scalar_part()
    return acc


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
    the scalar-part kernel summed on the cached integer planes."""
    x._require_match(y)
    dx, X = _int_form(x)
    dy, Y = _int_form(y)
    return from_plane(dx * dy, _trace_pair(x.algebra, X, Y))[0]


def _sharp_planes(x: JordanElement) -> tuple:
    """(den, rows): the planes of x# = x^2 - t x + s I, t = tr(x) and
    s = (t^2 - tr(x^2))/2, from the one square x o x = S / 2d^2. With
    tr(x) = t/d and tr(x^2) = p/2d^2, x# = (2S - 4t X + (2t^2 - p) I) / 4d^2."""
    d2, S = _product_planes(x, x)
    d, X = _int_form(x)
    tr = sum(X[i][i][0] for i in range(3))
    ti = sum(X[i][i][1] for i in range(3))
    pr = sum(S[i][i][0] for i in range(3))
    pi = sum(S[i][i][1] for i in range(3))
    rows = [[_scale_add((2, 0), S[i][j], (-4 * tr, -4 * ti), X[i][j]) for j in range(3)]
            for i in range(3)]
    for i in range(3):
        rows[i][i][0] += 2 * (tr * tr - ti * ti) - pr
        rows[i][i][1] += 4 * tr * ti - pi
    return 2 * d2, rows


def sharp(x: JordanElement) -> JordanElement:
    """Degree-3 adjoint: x# = x^2 - tr(x) x + s(x) I with x# o x = det(x) I,
    formed on the integer planes from one square x o x."""
    if x.n != 3:
        raise UnsupportedError("sharp is defined for 3x3 elements only")
    return _from_int_form(x.algebra, *_sharp_planes(x))


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

    x o x is formed once, for the planes of x#; then x# o x = N(x) I gives
    T(x#, x) = 3 N(x), so det = 0 is decided by the trace form alone.
    """
    if x.n != 3:
        raise UnsupportedError("jordan_rank3 needs a 3x3 element")
    if x.is_zero():
        return 0
    _, adj = _sharp_planes(x)
    if not any(v for row in adj for e in row for v in e):
        return 1
    if not any(_trace_pair(x.algebra, adj, _int_form(x)[1])):
        return 2
    return 3


def freudenthal_det3(x: JordanElement) -> QI:
    """Classical cubic expansion of the 3x3 determinant; cross-check path.

    With diagonal (p, q, r) and off-diagonal entries a = x[1][2],
    b = x[2][0], c = x[0][1]:  pqr - pN(a) - qN(b) - rN(c) + t((a b) c).
    """
    if x.n != 3:
        raise UnsupportedError("freudenthal_det3 needs a 3x3 element")
    p = x.entries[0][0].scalar_part()
    q = x.entries[1][1].scalar_part()
    r = x.entries[2][2].scalar_part()
    a = x.entries[1][2]
    b = x.entries[2][0]
    c = x.entries[0][1]
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
    for row in x.entries:
        line = []
        for e in row:
            if level == 0 or e.is_scalar():
                line.append(e.scalar_part())
            elif level == 1 and field == FIELD_Q:  # plane (a, 0, b, 0) over den
                den, (a, _, b, _) = e.int_form()
                line.extend(from_plane(den, (a, b)))
            else:
                raise UnsupportedError(
                    "entries do not lie in a commutative subfield"
                )
        out.append(line)
    return out
