"""Hermitian-matrix Jordan algebras over the composition algebras.

H_n(K) carries the product x o y = (xy + yx)/2. The degree-3 adjoint
(sharp), generic determinant, and Jordan rank are defined purely from the
product and trace, which sidesteps any sign convention in closed octonion
formulas; the classical cubic expansion is kept as a cross-check. For
associative entry algebras the generic determinant extends to any n via
Newton's identities on Jordan power traces.

The rank characterization (x# = 0 iff rank <= 1, det = 0 iff rank <= 2) is
field-agnostic and is used unchanged over the complexified algebras.

The 2x2 octonionic algebra is isomorphic to the spin factor of a rank-2
Lorentz form; that realization (and Peirce decompositions generally) is
out of scope here, so sharp, determinant, and rank stay degree-3 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .cayley_dickson import (
    _element,
    _kernel,
    CDElement,
    FIELD_Q,
    FIELD_QI,
    cd_scalar,
    random_cd,
)
from .errors import InputError, UnsupportedError
from .scalars import HALF, QI, QI_ONE, QI_ZERO, common_plane, from_plane
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


def algebra_level(algebra: str) -> int:
    try:
        return ALGEBRAS[algebra][0]
    except KeyError:
        raise InputError(f"unknown entry algebra {algebra!r}") from None


def algebra_field(algebra: str) -> str:
    return ALGEBRAS[algebra][1]


@dataclass(frozen=True)
class JordanElement:
    algebra: str
    entries: tuple  # tuple of row tuples of CDElement

    def __post_init__(self):
        level, field = ALGEBRAS.get(self.algebra, (None, None))
        if level is None:
            raise InputError(f"unknown entry algebra {self.algebra!r}")
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise InputError("entries must form a square matrix")
        if level == 3 and n > 3:
            raise UnsupportedError("octonionic hermitian matrices need n <= 3")
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
    level, field = ALGEBRAS[algebra]
    rows = random_square(
        n,
        lambda: cd_scalar(random_qi(rng, height, real=field == FIELD_Q), level, field),
        lambda: random_cd(rng, level, field, height),
        CDElement.conjugate,
    )
    return JordanElement(algebra, tuple(tuple(r) for r in rows))


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


def jordan_product(x: JordanElement, y: JordanElement) -> JordanElement:
    """x o y = (xy + yx)/2, computed on and above the diagonal.

    Both factors are hermitian and conjugation reverses products, so
    (x o y)^H = x o y: entry (j, i) is the conjugate of entry (i, j), its
    scalar pair kept and the rest negated, as in `CDElement.conjugate`.
    """
    x._require_match(y)
    level, field = ALGEBRAS[x.algebra]
    mul = _kernel(level, field)
    width = 2 << level
    n = x.n
    dx, X = _int_form(x)
    dy, Y = _int_form(y)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = [0] * width
            for k in range(n):
                # x_ik y_kj + y_ik x_kj, the symmetrized matrix product
                mul(X[i][k], Y[k][j], acc)
                mul(Y[i][k], X[k][j], acc)
            rows[i][j] = acc
            if j > i:
                rows[j][i] = acc[:2] + [-v for v in acc[2:]]
    return _from_int_form(x.algebra, 2 * dx * dy, rows)


def jtrace(x: JordanElement) -> QI:
    acc = QI_ZERO
    for i in range(x.n):
        acc = acc + x.entries[i][i].scalar_part()
    return acc


def trace_form(x: JordanElement, y: JordanElement) -> QI:
    x._require_match(y)
    # trace of x o y, computed without forming the full product
    acc = QI_ZERO
    for i in range(x.n):
        for k in range(x.n):
            p = x.entries[i][k] * y.entries[k][i]
            acc = acc + p.scalar_part()
    return acc


def sharp(x: JordanElement) -> JordanElement:
    """Degree-3 adjoint: x# = x^2 - tr(x) x + s(x) I with x# o x = det(x) I."""
    if x.n != 3:
        raise UnsupportedError("sharp is defined for 3x3 elements only")
    x2 = jordan_product(x, x)
    t = jtrace(x)
    s = (t * t - jtrace(x2)) * HALF
    ident = jordan_identity(x.algebra, 3)
    return x2 - x.scale(t) + ident.scale(s)


def generic_det(x: JordanElement) -> QI:
    """Generic determinant via Newton's identities on Jordan power traces.

    Valid for any n over associative entries and for n <= 3 over the
    octonionic algebras; restricts to the ordinary matrix determinant on
    commutative entries and is homogeneous of degree n.
    """
    n = x.n
    if algebra_level(x.algebra) == 3 and n != 3:
        raise UnsupportedError("octonionic generic_det needs n = 3")
    power_sums = []
    xk = x
    for k in range(1, n + 1):
        power_sums.append(jtrace(xk))
        if k < n:
            xk = jordan_product(xk, x)
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
    """Jordan rank of a 3x3 element: 0, 1, 2, or 3."""
    if x.n != 3:
        raise UnsupportedError("jordan_rank3 needs a 3x3 element")
    if x.is_zero():
        return 0
    if sharp(x).is_zero():
        return 1
    if not generic_det(x):
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
