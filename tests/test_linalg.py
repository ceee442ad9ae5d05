from fractions import Fraction

import pytest
import sympy

from scorza import linalg
from scorza.errors import InputError
from scorza.linalg import is_skew, shape
from scorza.sampling import make_rng, random_qi_matrix, random_qi_vector
from scorza.scalars import QI, QI_ONE, QI_ZERO
from scorza.strata import (StratumPoint, random_point, rank_of, relative_invariant,
                           sample_secant, skew_model)


def identity(n: int) -> list:
    return [[QI_ONE if i == j else QI_ZERO for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> list:
    return [[QI_ZERO] * cols for _ in range(rows)]


def test_rank_known_cases():
    assert linalg.rank([[QI(1), QI(2)], [QI(2), QI(4)]]) == 1
    assert linalg.rank(identity(4)) == 4
    assert linalg.rank(zeros(3, 5)) == 0
    m = [[QI(0, 1), QI(1)], [QI(-1), QI(0, 1)]]  # second row = i * first
    assert linalg.rank(m) == 1


def rank_gauss(m) -> int:
    """Plain division-based Gaussian rank; independent cross-check for rank()."""
    if not m or not m[0]:
        return 0
    work = [row[:] for row in m]
    rows, cols = linalg.shape(work)
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        for i in range(r + 1, rows):
            if work[i][c]:
                f = work[i][c] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == rows:
            break
    return r


def test_rank_matches_plain_gauss_on_random_matrices():
    rng = make_rng("linalg", "rank-cross")
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_qi_matrix(rng, rows, cols, height=6)
        assert linalg.rank(m) == rank_gauss(m)
    # rank shares _cleared with the product: cover its extreme inputs too,
    # including low-rank products a*b with a thin inner dimension
    for kind in KINDS:
        for rows, inner, cols in SHAPES:
            a = _oracle_matrix(rng, rows, inner, kind)
            b = _oracle_matrix(rng, inner, cols, kind)
            for m in (a, linalg.mat_mul(a, b)):
                assert linalg.rank(m) == rank_gauss(m)


def test_rank_of_outer_product_sums():
    rng = make_rng("linalg", "outer")
    for k in range(4):
        m = zeros(5, 7)
        for _ in range(k):
            u = random_qi_vector(rng, 5, 5)
            v = random_qi_vector(rng, 7, 5)
            m = linalg.mat_add(m, [[a * b for b in v] for a in u])
        assert linalg.rank(m) == k


def test_det_multiplicative_and_alternating():
    rng = make_rng("linalg", "det")
    for _ in range(25):
        a = random_qi_matrix(rng, 4, 4, height=5)
        b = random_qi_matrix(rng, 4, 4, height=5)
        assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)
    swapped = [a[1], a[0], a[2], a[3]]
    assert linalg.det(swapped) == -linalg.det(a)
    with pytest.raises(InputError):
        linalg.det([[QI(1), QI(2)]])


def test_inverse():
    rng = make_rng("linalg", "inv")
    for _ in range(20):
        m = random_qi_matrix(rng, 4, 4, height=5)
        if not linalg.det(m):
            continue
        assert linalg.mat_eq(linalg.mat_mul(m, linalg.inverse(m)), identity(4))
    with pytest.raises(InputError):
        linalg.inverse(zeros(2, 2))


def test_pfaffian_small_cases():
    a = QI(Fraction(7, 3))
    assert linalg.pfaffian([[QI(0), a], [-a, QI(0)]]) == a
    assert linalg.pfaffian([]) == QI(1)
    # 4x4: pf = a12 a34 - a13 a24 + a14 a23
    rng = make_rng("linalg", "pf4")
    vals = random_qi_vector(rng, 6, 5)
    a12, a13, a14, a23, a24, a34 = vals
    z = QI(0)
    m = [
        [z, a12, a13, a14],
        [-a12, z, a23, a24],
        [-a13, -a23, z, a34],
        [-a14, -a24, -a34, z],
    ]
    assert linalg.pfaffian(m) == a12 * a34 - a13 * a24 + a14 * a23


def test_pfaffian_square_is_determinant():
    rng = make_rng("linalg", "pfsq")
    for n in (4, 6, 8):
        for _ in range(10):
            m = zeros(n, n)
            for i in range(n):
                for j in range(i + 1, n):
                    x = random_qi_vector(rng, 1, 5)[0]
                    m[i][j] = x
                    m[j][i] = -x
            pf = linalg.pfaffian(m)
            assert pf * pf == linalg.det(m)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(InputError):
        linalg.pfaffian([[QI(1)]])
    with pytest.raises(InputError):
        linalg.pfaffian([[QI(0), QI(1)], [QI(1), QI(0)]])


def test_conj_transpose_and_shapes():
    m = [[QI(1, 2), QI(3)], [QI(0, -1), QI(5, 5)]]
    ct = linalg.conj_transpose(m)
    assert ct[0][1] == QI(0, 1)
    assert ct[1][0] == QI(3)
    with pytest.raises(InputError):
        linalg.mat_mul(m, zeros(3, 2))
    with pytest.raises(InputError):
        linalg.mat_add(m, zeros(3, 2))


# --- sympy oracle for the integer-plane product ----------------------------

KINDS = ("mixed", "real", "imag", "zero", "bigden")
BIG_DENS = (1, 3**20, 2**61 - 1, 10**12 + 39, 997 * 1009)
# (rows, inner, cols); a shape with cols = 1 is a matrix-vector product
SHAPES = ((1, 1, 1), (1, 4, 1), (1, 3, 5), (4, 1, 3), (5, 3, 1), (3, 4, 2), (4, 4, 4))


def _part(rng, kind):
    if kind == "bigden":
        return Fraction(rng.randint(-10**9, 10**9), rng.choice(BIG_DENS) * rng.randint(1, 40))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _oracle_matrix(rng, rows, cols, kind):
    """Random matrix of one kind; kind "zero" empties row 0 and the last column."""
    re0, im0 = kind == "imag", kind == "real"
    m = [[QI(0 if re0 else _part(rng, kind), 0 if im0 else _part(rng, kind))
          for _ in range(cols)] for _ in range(rows)]
    if kind == "zero":
        m[0] = [QI(0)] * cols
        for row in m:
            row[-1] = QI(0)
    return m


def _to_sympy(m):
    return sympy.Matrix([
        [sympy.Rational(x.re.numerator, x.re.denominator)
         + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator) for x in row]
        for row in m
    ])


def _from_sympy(e) -> QI:
    e = sympy.expand(e)
    re, im = sympy.re(e), sympy.im(e)
    return QI(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


@pytest.mark.parametrize("kind", KINDS)
def test_mat_mul_and_mat_vec_match_sympy(kind):
    rng = make_rng("linalg", "sympy-oracle", kind)
    for rows, inner, cols in SHAPES:
        for _ in range(2):
            a = _oracle_matrix(rng, rows, inner, kind)
            b = _oracle_matrix(rng, inner, cols, kind)
            expected = _to_sympy(a) * _to_sympy(b)
            got = linalg.mat_mul(a, b)
            assert linalg.shape(got) == (rows, cols)
            assert all(got[i][j] == _from_sympy(expected[i, j])
                       for i in range(rows) for j in range(cols))


# chains as (dims): factor t is dims[t] x dims[t+1]; 1 x n and n x 1 ends,
# inner dimension 1, a single factor and a long chain like sample_zero_level's
CHAIN_DIMS = ((1, 4, 1), (4, 1, 3), (1, 5, 5, 1), (3, 1, 4, 1), (4, 3),
              (2, 3, 3, 3, 3, 3, 3, 2, 2), (5, 5, 5, 2))


@pytest.mark.parametrize("kind", KINDS + ("per-factor",))
def test_mat_chain_matches_nested_mat_mul_and_sympy(kind):
    # "per-factor" draws each factor's kind, so one chain mixes zero,
    # real-only, imaginary and big-denominator factors
    rng = make_rng("linalg", "chain-oracle", kind)
    for dims in CHAIN_DIMS:
        for _ in range(2):
            factors = [_oracle_matrix(rng, r, c, rng.choice(KINDS) if kind == "per-factor"
                                      else kind) for r, c in zip(dims, dims[1:])]
            got = linalg.mat_chain(*factors)
            nested = factors[0]
            for f in factors[1:]:
                nested = linalg.mat_mul(nested, f)
            assert got == nested
            expected = _sympy_dm(factors[0])
            for f in factors[1:]:
                expected = expected * _sympy_dm(f)
            assert got == [[_from_sympy(expected.domain.to_sympy(x)) for x in row]
                           for row in expected.to_list()]
    zero = zeros(3, 3)
    a = _oracle_matrix(rng, 2, 3, "bigden")
    assert linalg.mat_chain(a, zero, zero) == zeros(2, 3)
    assert linalg.mat_chain(a, zero, [[]] * 3) == [[], []]  # 2 x 0
    with pytest.raises(InputError):
        linalg.mat_chain(a, zero, a)


def _sympy_dm(m):
    # the exact matrix over sympy's Gaussian-rational domain QQ_I
    return _to_sympy(m).to_DM(domain=sympy.QQ_I)


def _sympy_det(m) -> QI:
    dm = _sympy_dm(m)
    return _from_sympy(dm.domain.to_sympy(dm.det()))


def _elimination_inputs(rng, kind):
    """Random n x n matrices of one kind plus the elimination's edge cases: a
    zero top-left entry (forces a swap and a sign), a rank n-1 product with no
    zero row (for kinds other than "zero"), and rows over very different big
    denominators (exercises the column rescale of the inverse)."""
    for n in (1, 2, 3, 4, 5):
        for _ in range(2):
            yield _oracle_matrix(rng, n, n, kind)
    for n in (2, 4):
        m = _oracle_matrix(rng, n, n, kind)
        m[0][0] = QI(0)
        m[1][0] = QI(1)
        yield m
        yield linalg.mat_mul(_oracle_matrix(rng, n + 1, n, kind),
                             _oracle_matrix(rng, n, n + 1, kind))
        yield [[x * QI(Fraction(1, BIG_DENS[i + 1])) for x in row]
               for i, row in enumerate(_oracle_matrix(rng, n, n, kind))]


@pytest.mark.parametrize("kind", KINDS)
def test_det_matches_sympy(kind):
    # det, rank and inverse share one elimination: check all three
    assert (linalg.det([]), linalg.rank([]), linalg.inverse([])) == (QI(1), 0, [])
    rng = make_rng("linalg", "sympy-det", kind)
    for m in _elimination_inputs(rng, kind):
        dm = _sympy_dm(m)
        det = linalg.det(m)
        assert det == _sympy_det(m)
        assert linalg.rank(m) == dm.rank()
        if not det:
            with pytest.raises(InputError):
                linalg.inverse(m)
            continue
        expected = dm.inv()
        assert linalg.inverse(m) == [
            [_from_sympy(dm.domain.to_sympy(x)) for x in row]
            for row in expected.to_list()
        ]


def _skew_from_upper(m):
    n = len(m)
    return [[m[i][j] if i < j else -m[j][i] if i > j else QI(0) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("kind", KINDS)
def test_pfaffian_matches_sympy(kind):
    rng = make_rng("linalg", "sympy-pfaffian", kind)
    for half in (1, 2, 3):
        n = 2 * half
        # Pf(A)^2 = det(A) fixes the Pfaffian up to sign ...
        a = _skew_from_upper(_oracle_matrix(rng, n, n, kind))
        pf = linalg.pfaffian(a)
        assert pf * pf == _sympy_det(a)
        # ... and Pf [[0, M], [-M^T, 0]] = (-1)^(h(h-1)/2) det(M) fixes the sign
        m = _oracle_matrix(rng, half, half, kind)
        block = [[QI(0)] * half + list(row) for row in m]
        block += [[-m[j][i] for j in range(half)] + [QI(0)] * half for i in range(half)]
        sign = -1 if half * (half - 1) // 2 % 2 else 1
        assert linalg.pfaffian(block) == _sympy_det(m) * sign


# --- cofactor-expansion oracle for the skew elimination ----------------------

def _pfaffian_by_expansion(m):
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


def _permuted(m, perm):
    """P m P^T for the permutation matrix P with P[i][perm[i]] = 1, and det(P)."""
    inversions = sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])
    return [[m[i][j] for j in perm] for i in perm], -1 if inversions % 2 else 1


def _sparse(rng, m):
    """m with about two thirds of its upper-triangle entries zeroed, kept skew."""
    upper = [[x if i < j and rng.random() < 1 / 3 else QI(0) for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    return _skew_from_upper(upper)


@pytest.mark.parametrize("n", range(0, 14, 2))
def test_pfaffian_matches_the_cofactor_expansion(n):
    rng = make_rng("linalg", "pfaffian-expansion", n)
    inputs = [_skew_from_upper(_oracle_matrix(rng, n, n, kind))
              for kind in ("real", "imag", "bigden")]
    if n:
        model = skew_model(n)
        inputs += [random_point(model, seed).coords for seed in range(3)]
        for k in range(n // 2):  # rank min(k + 1, n / 2): Pf = 0 below the top
            point = sample_secant(model, k, seed=k + n)
            assert bool(linalg.pfaffian(point.coords)) == (k + 1 == n // 2)
            inputs.append(point.coords)
        # zero pivots a_k,k+1 before and during the elimination
        inputs += [_sparse(rng, random_point(model, seed).coords) for seed in range(3)]
    for m in inputs:
        pf = linalg.pfaffian(m)
        assert pf == _pfaffian_by_expansion(m)
        # Pf(P A P^T) = det(P) Pf(A), over both parities of P
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            pm, sign = _permuted(m, perm)
            assert linalg.pfaffian(pm) == _pfaffian_by_expansion(pm) == pf * sign
        if n >= 2:
            swap = [1, 0, *range(2, n)]
            assert linalg.pfaffian(_permuted(m, swap)[0]) == -pf


@pytest.mark.parametrize("n", range(2, 13))
def test_skew_elimination_of_a_point_matches_the_oracles(n):
    # rank_of of a skew point is half the Bareiss rank of its matrix, and on
    # even n <= 10 its relative invariant is the cofactor-expansion Pfaffian;
    # sparse and permuted inputs force zero pivots and swaps
    rng = make_rng("linalg", "skew-elimination", n)
    model = skew_model(n)
    inputs = [sample_secant(model, k, seed=k + n).coords for k in range(model.max_rank)]
    inputs += [_sparse(rng, random_point(model, seed).coords) for seed in range(3)]
    inputs += [_permuted(m, rng.sample(range(n), n))[0] for m in inputs]
    for m in inputs:
        p = StratumPoint(model, m)
        assert rank_of(p) == linalg.rank(m) // 2
        if n % 2 == 0 and n <= 10:
            assert relative_invariant(p) == _pfaffian_by_expansion(m)


# --- sympy oracle for the integer elimination --------------------------------

def _int_inputs(rng):
    """Integer matrices for int_ranks: small and above-2^64 entries, rank-deficient
    products of thin factors, zero rows and columns, 1 x n, n x 1 and empty."""
    def draw(rows, cols, bound):
        return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]

    yield from ([], [[]], [[], []], [[0]], [[5]], [[0, 0, 0]], [[0], [0]])
    for bound in (2, 9, 2**70):
        for rows, cols in ((1, 1), (1, 5), (5, 1), (3, 3), (4, 6), (6, 4), (6, 6)):
            yield draw(rows, cols, bound)
        for rows, inner, cols in ((4, 1, 4), (5, 2, 6), (6, 3, 5), (7, 4, 7)):
            a, b = draw(rows, inner, bound), draw(inner, cols, bound)
            yield [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        m = draw(5, 6, bound)
        m[2] = [0] * 6
        for row in m:
            row[0] = row[4] = 0
        yield m


def test_int_rank_matches_gaussian_rank_and_sympy():
    rng = make_rng("linalg", "int-rank")
    for m in _int_inputs(rng):
        want = sympy.Matrix(len(m), len(m[0]) if m else 0, sum(m, [])).rank()
        assert linalg.rank([[QI(x) for x in row] for row in m]) == want
        work = [list(row) for row in m]
        assert linalg.int_ranks(work)[-1] == want
        n = len(m)
        if want == n and m and len(m[0]) == n:
            # every entry left is a minor up to sign, and the last pivot is |det|
            assert work[-1][-1] == abs(sympy.Matrix(m).det())


def test_int_ranks_give_the_rank_of_every_leading_column_run():
    rng = make_rng("linalg", "int-rank")
    for m in _int_inputs(rng):
        width = len(m[0]) if m else 0
        want = [sympy.Matrix(len(m), j, [x for row in m for x in row[:j]]).rank()
                for j in range(width + 1)]
        assert linalg.int_ranks([list(row) for row in m]) == want
