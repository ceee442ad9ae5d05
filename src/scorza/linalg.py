"""Exact linear algebra over Gaussian rationals, and the rank of integer
matrices.

Matrices are plain lists of lists of QI. Products, rank and det run on
the integer plane of `scalars` (one denominator, interleaved integer real
and imaginary parts). Every product is a chain, mat_chain, formed right to
left: each factor goes to the plane once, the running product stays column
planes over one denominator summed as plain ints, and QI is built only for
the result; mat_mul is its two-factor case.

There are three eliminations. Rank and det of QI matrices share
_eliminate, a fraction-free (Bareiss 1968) elimination over Z[i] in place on
interleaved row planes, which also ranks the plane of a stratum point
(strata.rank_of); det returns to QI through from_plane. int_ranks is
the same elimination over Z on a matrix of plain ints, such as the frame
Jacobian of the dimension oracle, column by column, so that one pass gives
the rank of every leading run of columns. Both divide exactly and keep entry
growth polynomial. The Pfaffian eliminates on QI itself with 2 x 2 skew
pivots (Bunch 1982), in O(n^3) QI operations; its oracle, the memoized
cofactor expansion, is in tests/test_linalg.py. The inverse is the adjugate
over the determinant, one det per cofactor: no caller in the package
inverts.
"""

from __future__ import annotations

from math import prod
from operator import mul

from .errors import InputError
from .scalars import QI, QI_ONE, QI_ZERO, common_plane, from_plane, to_plane

Matrix = list  # list[list[QI]]


def identity(n: int) -> Matrix:
    return [[QI_ONE if i == j else QI_ZERO for j in range(n)] for i in range(n)]


def shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise InputError(f"shape mismatch: {shape(a)} vs {shape(b)}")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_scale(a: Matrix, s) -> Matrix:
    return [[x * s for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return mat_chain(a, b)


def mat_chain(*factors: Matrix) -> Matrix:
    """The product factors[0] @ ... @ factors[-1], formed right to left on
    the integer plane: each factor is cleared once, the running product stays
    a list of (re, im) column planes over one denominator, and QI is built
    only for the result, each of whose rows keeps its own denominator."""
    for a, b in zip(factors, factors[1:]):
        (ra, ca), (rb, cb) = shape(a), shape(b)
        if ca != rb:
            raise InputError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    *left, last = factors
    den, flats = common_plane(map(to_plane, zip(*last)))
    cols = [(flat[0::2], flat[1::2]) for flat in flats]
    dens = [1] * len(last)
    for n, a in enumerate(reversed(left), 1):
        planes = [to_plane(row) for row in a]
        if n < len(left):  # an inner factor: one denominator for all rows
            da, flats = common_plane(planes)
            den *= da
        else:  # the first factor: each result row keeps its own denominator
            dens, flats = [d for d, _ in planes], [flat for _, flat in planes]
        rows = [(flat[0::2], flat[1::2]) for flat in flats]
        cols = [([sum(map(mul, ar, br)) - sum(map(mul, ai, bi)) for ar, ai in rows],
                 [sum(map(mul, ar, bi)) + sum(map(mul, ai, br)) for ar, ai in rows])
                for br, bi in cols]
    parts = [part for col in cols for part in col]
    flats = zip(*parts) if parts else [()] * len(dens)
    return [from_plane(d * den, flat) for d, flat in zip(dens, flats)]


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

def _eliminate(work: list) -> tuple:
    """Fraction-free (Bareiss 1968) elimination in place on interleaved
    Gaussian-integer row planes, pivoting in every column; returns
    (rank, swap sign, last pivot as (re, im)). Each update
    (pivot * x - f * y) / previous pivot is exact, since after step k every
    entry is a k x k minor, and on a full-rank square block sign * last pivot
    is the determinant.
    """
    rows, width = len(work), len(work[0]) if work else 0
    qr, qi, sign, r = 1, 0, 1, 0
    for c in range(0, width, 2):
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
        for rowi in work[r + 1:]:
            fr, fi = rowi[c], rowi[c + 1]
            for j in range(c + 2, width, 2):
                xr, xi, yr, yi = rowi[j], rowi[j + 1], rowr[j], rowr[j + 1]
                if not (xr or xi or yr or yi):
                    continue  # 0 stays 0; sparse rows skip the update
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


def int_ranks(rows: list) -> list:
    """[r_0, ..., r_width]: r_j is the exact rank of the first j columns of a
    matrix of plain ints, by one fraction-free (Bareiss 1968) elimination
    column by column in place on `rows`, one int per entry; a column adds
    one to the rank exactly when it holds a pivot. It pivots on the smallest
    |a|, made positive by negating its row, and updates
    x -> (p * x - f * y) // q for pivot p, previous pivot q and f the entry
    under p, which is exact since after step k every entry is a k x k minor
    up to sign; it raises RuntimeError otherwise. On a full-rank square
    matrix the last pivot is |det|. A row with f = 0 is left as it is when
    p = q, which is nearly every row of a frame Jacobian."""
    nrows, width = len(rows), len(rows[0]) if rows else 0
    q, r, ranks = 1, 0, [0]
    for c in range(width):
        pivot_row = best = None
        for i in range(r, nrows):
            a = rows[i][c]
            if a and (best is None or abs(a) < best):
                best, pivot_row = abs(a), i
        if pivot_row is None:
            ranks.append(r)
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        rowr = rows[r]
        if rowr[c] < 0:  # negating a row keeps every entry a minor, up to sign
            rowr[c:] = [-x for x in rowr[c:]]
        p = rowr[c]
        for rowi in rows[r + 1:]:
            f = rowi[c]
            if not f and p == q:
                continue  # (p * x - 0 * y) // q = x: the row stays as it is
            for j in range(c + 1, width):
                x, y = rowi[j], rowr[j]
                if x or y:  # 0 stays 0; frame Jacobians are mostly zeros
                    rowi[j], rem = divmod(p * x - f * y, q)
                    if rem:
                        raise RuntimeError("inexact integer division in Bareiss step")
            rowi[c] = 0
        q = p
        r += 1
        ranks.append(r)
    return ranks


def _integer_rows(m: Matrix) -> tuple[list, list]:
    """Row denominators d and row planes z with m[i] = from_plane(d[i], z[i])."""
    planes = [to_plane(row) for row in m]
    return [d for d, _ in planes], [z for _, z in planes]


def rank(m: Matrix) -> int:
    """Exact rank over Q(i) by fraction-free elimination on Gaussian integers."""
    return _eliminate(_integer_rows(m)[1])[0]


def det(m: Matrix) -> QI:
    """sign * last Bareiss pivot / product of the row denominators."""
    n, c = shape(m)
    if n != c:
        raise InputError("determinant needs a square matrix")
    dens, work = _integer_rows(m)
    r, sign, (a, b) = _eliminate(work)
    if r < n:
        return QI_ZERO
    return from_plane(prod(dens), (sign * a, sign * b))[0]


def inverse(m: Matrix) -> Matrix:
    """A^-1 = adj(A) / det(A), entry (i, j) the cofactor of a_ji: n^2 + 1
    determinants, a cost that no caller in the package pays."""
    n, c = shape(m)
    if n != c:
        raise InputError("inverse needs a square matrix")
    d = det(m)
    if not d:
        raise InputError("matrix is singular")
    inv_d = 1 / d

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
        return det(minor) * (inv_d if (i + j) % 2 == 0 else -inv_d)

    return [[cofactor(j, i) for j in range(n)] for i in range(n)]


# --- Pfaffian ----------------------------------------------------------------

def is_skew(m: Matrix) -> bool:
    # m[j][i] == -m[i][j] on the canonical QI ints, building no negation
    n, c = shape(m)
    return n == c and all(x.a == -y.a and x.b == -y.b and x.d == y.d
                          for row, col in zip(m, zip(*m)) for x, y in zip(row, col))


def pfaffian(m: Matrix) -> QI:
    """Pfaffian of an even skew-symmetric matrix by skew elimination: step k
    swaps a nonzero a_kj into column k + 1 (Pf changes sign; none: Pf = 0),
    multiplies Pf by the pivot p = a_k,k+1 and replaces the block past k + 1
    by its Schur complement a_il + (a_ik a_k+1,l - a_i,k+1 a_kl) / p, again
    skew. About n^3 / 3 QI multiplications."""
    n, c = shape(m)
    if n != c or not is_skew(m):
        raise InputError("pfaffian needs a square skew-symmetric matrix")
    if n % 2:
        raise InputError("pfaffian is defined for even-sized matrices")
    a, pf = [list(row) for row in m], QI_ONE
    for k in range(0, n, 2):
        j = next((j for j in range(k + 1, n) if a[k][j]), None)
        if j is None:
            return QI_ZERO
        if j != k + 1:
            a[j], a[k + 1] = a[k + 1], a[j]
            for row in a[k:]:
                row[j], row[k + 1] = row[k + 1], row[j]
            pf = -pf
        rk, rk1, p = a[k], a[k + 1], a[k][k + 1]
        pf *= p
        for i, ri in enumerate(a[k + 2:], k + 2):
            f0, f1 = ri[k] / p, ri[k + 1] / p
            for l in range(i + 1, n):
                ri[l] = x = ri[l] + f0 * rk1[l] - f1 * rk[l]
                a[l][i] = -x
    return pf


def matrix_to_json(m: Matrix) -> list:
    return [[x.to_json() for x in row] for row in m]


def matrix_from_json(rows: list) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError("a matrix must be a JSON list of rows")
    return [[QI.from_json(x) for x in row] for row in rows]
