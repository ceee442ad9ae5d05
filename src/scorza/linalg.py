"""Exact linear algebra over Gaussian rationals.

Matrices are plain lists of lists of QI. Products, rank, det and inverse
share one integer-plane helper, _cleared, which writes a row or column as
one integer denominator and integer real and imaginary parts. Products sum
each entry as plain ints. rank, det and inverse share one fraction-free
Bareiss elimination over the Gaussian integers, _eliminate, which keeps
entry growth polynomial and divisions exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul

from .errors import InputError
from .scalars import QI, QI_ONE, QI_ZERO

Matrix = list  # list[list[QI]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[QI_ZERO for _ in range(cols)] for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[QI_ONE if i == j else QI_ZERO for j in range(n)] for i in range(n)]


def shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    _require_same_shape(a, b)
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    _require_same_shape(a, b)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_scale(a: Matrix, s) -> Matrix:
    return [[x * s for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    (ra, ca), (rb, cb) = shape(a), shape(b)
    if ca != rb:
        raise InputError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    return _product(a, list(zip(*b)))


def mat_vec(a: Matrix, v: list) -> list:
    return [row[0] for row in _product(a, [v])]


def _cleared(vec):
    """One denominator d and integer lists re, im with vec[k] = (re[k] + i im[k]) / d."""
    d = lcm(*[x.re.denominator for x in vec], *[x.im.denominator for x in vec])
    re = [x.re.numerator * (d // x.re.denominator) for x in vec]
    return d, re, [x.im.numerator * (d // x.im.denominator) for x in vec]


def _product(a: Matrix, bt: list) -> Matrix:
    """Rows of a times the columns bt, accumulated on the integer plane."""
    cols = [_cleared(col) for col in bt]
    out = []
    for row in a:
        da, ar, ai = _cleared(row)
        out_row = []
        for db, br, bi in cols:
            re = sum(map(mul, ar, br)) - sum(map(mul, ai, bi))
            im = sum(map(mul, ar, bi)) + sum(map(mul, ai, br))
            out_row.append(QI._mk(Fraction(re, da * db), Fraction(im, da * db)))
        out.append(out_row)
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def conj_transpose(a: Matrix) -> Matrix:
    return [[x.conjugate() for x in row] for row in zip(*a)]


def mat_conj(a: Matrix) -> Matrix:
    return [[x.conjugate() for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def is_real_matrix(a: Matrix) -> bool:
    return all(x.is_real() for row in a for x in row)


# --- elimination: rank, determinant, inverse ---------------------------------

def _eliminate(work: list, ncols: int, full: bool) -> tuple:
    """Fraction-free (Bareiss 1968) elimination in place on rows of Gaussian-
    integer pairs, pivoting in the first ncols columns; returns (rank, swap
    sign, last pivot). Each update (pivot * x - f * y) / previous pivot is
    exact, since after step k every entry is a k x k minor, and on a full-rank
    square block sign * last pivot is the determinant. full=True also clears
    above each pivot (Gauss-Jordan), leaving pivot block = last pivot * I.
    """
    rows, width = len(work), len(work[0]) if work else 0
    prev, sign, r = (1, 0), 1, 0
    for c in range(ncols):
        pivot_row = best = None
        for i in range(r, rows):
            a, b = work[i][c]
            if a or b:
                size = a * a + b * b
                if best is None or size < best:
                    best, pivot_row = size, i
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        rowr = work[r]
        pv = rowr[c]
        lo = 0 if full else c + 1  # rows above the pivot need rescaling left of c
        for rowi in work[:r] + work[r + 1:] if full else work[r + 1:]:
            fi = rowi[c]
            if fi == (0, 0):
                for j in range(lo, width):
                    rowi[j] = _zdiv(_zmul(pv, rowi[j]), prev)
            else:
                for j in range(lo, width):
                    rowi[j] = _zdiv(
                        _zsub(_zmul(pv, rowi[j]), _zmul(fi, rowr[j])), prev
                    )
            rowi[c] = (0, 0)
        prev = pv
        r += 1
    return r, sign, prev


def _integer_rows(m: Matrix) -> tuple[list, list]:
    """Row denominators d and Gaussian-integer rows z with m[i] = z[i] / d[i]."""
    cleared = [_cleared(row) for row in m]
    return [c[0] for c in cleared], [list(zip(re, im)) for _, re, im in cleared]


def rank(m: Matrix) -> int:
    """Exact rank over Q(i) by fraction-free elimination on Gaussian integers."""
    return _eliminate(_integer_rows(m)[1], shape(m)[1], False)[0]


def det(m: Matrix) -> QI:
    """sign * last Bareiss pivot / product of the row denominators."""
    n, c = shape(m)
    if n != c:
        raise InputError("determinant needs a square matrix")
    dens, work = _integer_rows(m)
    r, sign, (a, b) = _eliminate(work, n, False)
    if r < n:
        return QI_ZERO
    den = prod(dens)
    return QI._mk(Fraction(sign * a, den), Fraction(sign * b, den))


def inverse(m: Matrix) -> Matrix:
    """Fraction-free Gauss-Jordan on [A_int | I]: the left block ends as p * I
    for the last pivot p, so A^-1 = (right block / p) * diag(row denominators)."""
    n, c = shape(m)
    if n != c:
        raise InputError("inverse needs a square matrix")
    dens, work = _integer_rows(m)
    work = [row + [(int(i == j), 0) for j in range(n)] for i, row in enumerate(work)]
    r, _, (pa, pb) = _eliminate(work, n, True)
    if r < n:
        raise InputError("matrix is singular")
    norm = pa * pa + pb * pb
    return [[QI._mk(Fraction((a * pa + b * pb) * d, norm),
                    Fraction((b * pa - a * pb) * d, norm))
             for (a, b), d in zip(row[n:], dens)] for row in work]


def _zmul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _zsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _zdiv(x, y):
    # exact division in Z[i]; Bareiss guarantees divisibility
    a, b = x
    c, d = y
    n = c * c + d * d
    re, r1 = divmod(a * c + b * d, n)
    im, r2 = divmod(b * c - a * d, n)
    if r1 or r2:
        raise RuntimeError("inexact Gaussian-integer division in Bareiss step")
    return (re, im)


# --- Pfaffian ----------------------------------------------------------------

def is_skew(m: Matrix) -> bool:
    n, c = shape(m)
    if n != c:
        return False
    return all(m[i][j] == -m[j][i] for i in range(n) for j in range(i, n))


def pfaffian(m: Matrix) -> QI:
    """Pfaffian of an even skew-symmetric matrix by memoized expansion."""
    n, c = shape(m)
    if n != c or not is_skew(m):
        raise InputError("pfaffian needs a square skew-symmetric matrix")
    if n % 2:
        raise InputError("pfaffian is defined for even-sized matrices")
    memo: dict = {}

    def pf(idx: tuple) -> QI:
        if not idx:
            return QI_ONE
        hit = memo.get(idx)
        if hit is not None:
            return hit
        i0 = idx[0]
        total = QI_ZERO
        sign = 1
        for pos in range(1, len(idx)):
            j = idx[pos]
            a = m[i0][j]
            if a:
                rest = idx[1:pos] + idx[pos + 1 :]
                term = a * pf(rest)
                total = total + term if sign > 0 else total - term
            sign = -sign
        memo[idx] = total
        return total

    return pf(tuple(range(n)))


def _require_same_shape(a: Matrix, b: Matrix):
    if shape(a) != shape(b):
        raise InputError(f"shape mismatch: {shape(a)} vs {shape(b)}")


def matrix_to_json(m: Matrix) -> list:
    return [[x.to_json() for x in row] for row in m]


def matrix_from_json(rows: list) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError("a matrix must be a JSON list of rows")
    return [[QI.from_json(x) for x in row] for row in rows]
