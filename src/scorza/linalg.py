"""Exact linear algebra over Gaussian rationals.

Matrices are plain lists of lists of QI. Products, rank, det and inverse
run on the integer plane of `scalars` (one denominator, interleaved integer
real and imaginary parts): a product sums each entry of a row plane times
the column planes as plain ints, and rank, det and inverse share one
fraction-free Bareiss elimination over the Gaussian integers, _eliminate,
which runs in place on interleaved row planes, keeps entry growth
polynomial and divides exactly. Results return to QI through from_plane.
"""

from __future__ import annotations

from math import prod
from operator import mul

from .errors import InputError
from .scalars import QI, QI_ONE, QI_ZERO, common_plane, from_plane, to_plane

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


def _product(a: Matrix, bt: list) -> Matrix:
    """Rows of a times the columns bt, accumulated on the integer plane."""
    db, cols = common_plane(map(to_plane, bt))
    cols = [(col[0::2], col[1::2]) for col in cols]
    out = []
    for row in a:
        da, flat = to_plane(row)
        ar, ai = flat[0::2], flat[1::2]
        acc = []
        for br, bi in cols:
            acc.append(sum(map(mul, ar, br)) - sum(map(mul, ai, bi)))
            acc.append(sum(map(mul, ar, bi)) + sum(map(mul, ai, br)))
        out.append(from_plane(da * db, acc))
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
    """Fraction-free (Bareiss 1968) elimination in place on interleaved
    Gaussian-integer row planes, pivoting in the first ncols columns; returns
    (rank, swap sign, last pivot as (re, im)). Each update
    (pivot * x - f * y) / previous pivot is exact, since after step k every
    entry is a k x k minor, and on a full-rank square block sign * last pivot
    is the determinant. full=True also clears above each pivot (Gauss-Jordan),
    leaving pivot block = last pivot * I.
    """
    rows, width = len(work), len(work[0]) if work else 0
    qr, qi, sign, r = 1, 0, 1, 0
    for c in range(0, 2 * ncols, 2):
        pivot_row = best = None
        for i in range(r, rows):
            a, b = work[i][c], work[i][c + 1]
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
        pr, pi = rowr[c], rowr[c + 1]
        norm = qr * qr + qi * qi
        lo = 0 if full else c + 2  # rows above the pivot need rescaling left of c
        for rowi in work[:r] + work[r + 1:] if full else work[r + 1:]:
            fr, fi = rowi[c], rowi[c + 1]
            for j in range(lo, width, 2):
                xr, xi, yr, yi = rowi[j], rowi[j + 1], rowr[j], rowr[j + 1]
                if not (xr or xi or yr or yi):
                    continue  # stays 0; chart Jacobians are mostly zeros
                ur = pr * xr - pi * xi - fr * yr + fi * yi
                ui = pr * xi + pi * xr - fr * yi - fi * yr
                # exact division by the previous pivot q: u * conj(q) / |q|^2
                rowi[j], r1 = divmod(ur * qr + ui * qi, norm)
                rowi[j + 1], r2 = divmod(ui * qr - ur * qi, norm)
                if r1 or r2:
                    raise RuntimeError("inexact Gaussian-integer division in Bareiss step")
            rowi[c] = rowi[c + 1] = 0
        qr, qi = pr, pi
        r += 1
    return r, sign, (qr, qi)


def _integer_rows(m: Matrix) -> tuple[list, list]:
    """Row denominators d and row planes z with m[i] = from_plane(d[i], z[i])."""
    planes = [to_plane(row) for row in m]
    return [d for d, _ in planes], [z for _, z in planes]


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
    return from_plane(prod(dens), (sign * a, sign * b))[0]


def inverse(m: Matrix) -> Matrix:
    """Fraction-free Gauss-Jordan on [A_int | I]: the left block ends as p * I
    for the last pivot p, so A^-1 = (right block / p) * diag(row denominators)."""
    n, c = shape(m)
    if n != c:
        raise InputError("inverse needs a square matrix")
    dens, work = _integer_rows(m)
    for i, row in enumerate(work):
        row += [0] * (2 * n)
        row[2 * (n + i)] = 1
    r, _, (pa, pb) = _eliminate(work, n, True)
    if r < n:
        raise InputError("matrix is singular")
    # (a + ib) / (pa + i pb) * d = ((a pa + b pb) + i (b pa - a pb)) d / |p|^2
    out = []
    for row in work:
        flat = []
        for a, b, d in zip(row[2 * n::2], row[2 * n + 1::2], dens):
            flat += ((a * pa + b * pb) * d, (b * pa - a * pb) * d)
        out.append(from_plane(pa * pa + pb * pb, flat))
    return out


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
