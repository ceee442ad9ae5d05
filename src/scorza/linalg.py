"""Exact linear algebra over Gaussian rationals, and the rank of integer
matrices.

Matrices are plain lists of lists of QI. Products, rank and det run on
the integer plane of `scalars` (one denominator, interleaved integer real
and imaginary parts). mat_mul multiplies two QI matrices: each goes to the
plane once, the sums are plain ints from `products`, and QI is built only
for the result. `products` is also the kernel of every product in
`dual_pairs`, which holds its matrices as split rows: per row the int lists
of its real and imaginary parts over one denominator (`split_rows`,
`split_transpose`, `split_matrix`, and `split_leaves` for the JSON
writer); no caller in the package multiplies more than two QI matrices.

There are three eliminations, all fraction-free: each division is exact and
entry growth stays polynomial. _eliminate (Bareiss 1968) runs over Z[i] in
place on interleaved row planes, for rank and det; _skew_eliminate is its
skew form with 2 x 2 pivots (Bunch 1982), for the Pfaffian, whose oracle,
the memoized cofactor expansion, is in tests/test_linalg.py. Each returns
the rank (halved for skew) and sign * last pivot, so strata reads a point's
rank and relative invariant off one elimination of its own plane. int_ranks
is Bareiss over Z on a matrix of plain ints, such as the frame Jacobian of
the dimension oracle, column by column, so that one pass gives the rank of
every leading run of columns. The inverse is the adjugate over the
determinant, one det per cofactor: no caller in the package inverts.
"""

from __future__ import annotations

from itertools import chain
from math import prod
from operator import mul

from .errors import InputError
from .scalars import QI, QI_ZERO, Leaves, common_plane, from_plane, to_plane

Matrix = list  # list[list[QI]]


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
    """The product a @ b on the integer plane: the columns of b are cleared
    to one denominator, each row of a keeps its own, the sums are plain ints
    from `products`, and QI is built only for the result."""
    (ra, ca), (rb, cb) = shape(a), shape(b)
    if ca != rb:
        raise InputError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    den, flats = common_plane(map(to_plane, zip(*b)))
    planes = [to_plane(row) for row in a]
    rows = products([(flat[0::2], flat[1::2]) for flat in flats],
                    [(flat[0::2], flat[1::2]) for _, flat in planes])
    return [from_plane(d * den, chain.from_iterable(zip(re, im)))
            for (d, _), (re, im) in zip(planes, rows)]


def products(rows: list, cols: list) -> list:
    """Per column (re, im) of int parts in cols, the (re, im) of its sums
    sum(row * column) with every row (re, im) in rows: the columns of R @ C
    for the split rows of R and the split columns of C. Gaussian products
    commute, so products(C's columns, R's rows) are the rows of R @ C."""
    return [([sum(map(mul, ar, br)) - sum(map(mul, ai, bi)) for ar, ai in rows],
             [sum(map(mul, ar, bi)) + sum(map(mul, ai, br)) for ar, ai in rows])
            for br, bi in cols]


def split_rows(flat, cols: int) -> list:
    """The split rows of a row-major interleaved plane with cols columns."""
    w = 2 * cols
    return [(flat[k:k + w:2], flat[k + 1:k + w:2]) for k in range(0, len(flat), w)]


def split_transpose(rows: list) -> list:
    """The split columns of a matrix given by its split rows, and back."""
    return list(zip(zip(*[re for re, _ in rows]), zip(*[im for _, im in rows])))


def split_matrix(den: int, rows: list) -> list:
    """The QI matrix of split rows over den."""
    return [from_plane(den, chain.from_iterable(zip(re, im))) for re, im in rows]


def split_leaves(den: int, rows: list) -> list:
    """The JSON rows of split rows over den, each a `scalars.Leaves`."""
    return [Leaves(den, list(chain.from_iterable(zip(re, im)))) for re, im in rows]


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
    (rank, swap sign * last pivot as (re, im)). Each update
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
    return r, (sign * qr, sign * qi)


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
    r, pivot = _eliminate(work)
    return from_plane(prod(dens), pivot)[0] if r == n else QI_ZERO


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


def _skew_eliminate(rows: list) -> tuple:
    """Fraction-free skew elimination with 2 x 2 pivots (Bunch 1982) in place
    on the interleaved Gaussian-integer rows of a skew matrix; returns
    (rank // 2, sign * last pivot as (re, im)), the Pfaffian at full rank.
    Step k moves a nonzero of the rest to (k, k + 1) by symmetric swaps, each
    flipping the sign, and maps each later row a_i to (p a_i + a_ik a_k+1 -
    a_i,k+1 a_k) / q, p = a_k,k+1 and q the previous pivot: exact, as every
    entry is then a bordered principal Pfaffian, and skew, so no mirror writes."""
    n, qr, qi, sign, k = len(rows), 1, 0, 1, 0
    while hit := next(((i, j) for i in range(k, n) for j in range(2 * i + 2, 2 * n, 2)
                       if rows[i][j] or rows[i][j + 1]), None):
        for s, d in zip((2 * hit[0], hit[1]), (2 * k, 2 * k + 2)):
            if s != d:  # swap rows and columns s // 2 and d // 2
                rows[s // 2], rows[d // 2] = rows[d // 2], rows[s // 2]
                for row in rows[k:]:
                    row[s:s + 2], row[d:d + 2] = row[d:d + 2], row[s:s + 2]
                sign = -sign
        rk, rk1 = rows[k], rows[k + 1]
        pr, pi = rk[2 * k + 2], rk[2 * k + 3]
        norm = qr * qr + qi * qi
        for row in rows[k + 2:]:
            ar, ai, br, bi = row[2 * k:2 * k + 4]
            for j in range(2 * k + 4, 2 * n, 2):
                xr, xi, yr, yi, zr, zi = row[j], row[j + 1], rk[j], rk[j + 1], rk1[j], rk1[j + 1]
                ur = pr * xr - pi * xi + ar * zr - ai * zi - br * yr + bi * yi
                ui = pr * xi + pi * xr + ar * zi + ai * zr - br * yi - bi * yr
                # exact division by the previous pivot q: u * conj(q) / |q|^2
                row[j], r1 = divmod(ur * qr + ui * qi, norm)
                row[j + 1], r2 = divmod(ui * qr - ur * qi, norm)
                if r1 or r2:
                    raise RuntimeError("inexact Gaussian-integer division in skew elimination step")
        qr, qi, k = pr, pi, k + 2
    return k // 2, (sign * qr, sign * qi)


def pfaffian(m: Matrix) -> QI:
    """Pfaffian of an even skew-symmetric matrix: sign * last pivot of
    _skew_eliminate on its one integer plane, over den^(n / 2)."""
    n, c = shape(m)
    if n != c or not is_skew(m):
        raise InputError("pfaffian needs a square skew-symmetric matrix")
    if n % 2:
        raise InputError("pfaffian is defined for even-sized matrices")
    den, flat = to_plane([x for row in m for x in row])
    half, pf = _skew_eliminate([flat[2 * n * i:2 * n * (i + 1)] for i in range(n)])
    return from_plane(den ** half, pf)[0] if 2 * half == n else QI_ZERO

