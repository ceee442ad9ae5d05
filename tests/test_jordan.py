from fractions import Fraction
from math import gcd

import pytest

from scorza import linalg
from scorza.cayley_dickson import (
    CDElement, cd_basis, cd_scalar, cd_zero, random_cd, reference_multiply,
)
from scorza.errors import InputError, UnsupportedError
from scorza.jordan import (
    ALGEBRAS,
    JordanElement,
    _from_entries,
    from_upper,
    generic_det,
    jordan_diag,
    jordan_identity,
    jordan_product,
    jordan_rank3,
    jordan_zero,
    jtrace,
    random_hermitian,
    rank_one_from_vector,
    sharp,
    to_complex_matrix,
    trace_form,
)
from scorza.sampling import make_rng, random_fraction, random_qi, random_square
from scorza.scalars import QI, from_plane


def test_product_with_identity_and_diagonals():
    rng = make_rng("jd", "ident")
    ident = jordan_identity("O_C", 3)
    x = random_hermitian(rng, "O_C", 3, 5)
    assert jordan_product(x, ident) == x
    a = jordan_diag("O_C", [QI(1), QI(2), QI(3)])
    b = jordan_diag("O_C", [QI(-1), QI(5), QI(Fraction(1, 2))])
    assert jordan_product(a, b) == jordan_diag("O_C", [QI(-1), QI(10), QI(Fraction(3, 2))])


def test_product_commutative_and_bilinear():
    rng = make_rng("jd", "comm")
    for _ in range(20):
        x = random_hermitian(rng, "O_C", 3, 5)
        y = random_hermitian(rng, "O_C", 3, 5)
        assert jordan_product(x, y) == jordan_product(y, x)
        lam = random_fraction(rng, 5)
        lhs = jordan_product(x.scale(lam), y)
        assert lhs == jordan_product(x, y).scale(lam)


@pytest.mark.parametrize("algebra", list(ALGEBRAS))
def test_product_entries_match_cd_oracle(algebra):
    # every entry, lower triangle included, against (x_ik y_kj + y_ik x_kj)/2
    rng = make_rng("jd", "entries", algebra)
    level, field = ALGEBRAS[algebra]
    for n in range(1, 4 if level == 3 else 5):
        for _ in range(3):
            x = random_hermitian(rng, algebra, n, 6)
            for y in (random_hermitian(rng, algebra, n, 6), x):  # y = x takes the square path
                p = jordan_product(x, y)
                for i in range(n):
                    for j in range(n):
                        acc = cd_zero(level, field)
                        for k in range(n):
                            acc = acc + reference_multiply(x.entry(i, k), y.entry(k, j))
                            acc = acc + reference_multiply(y.entry(i, k), x.entry(k, j))
                        assert p.entry(i, j) == acc.scale(QI(Fraction(1, 2)))


def test_trace_and_trace_form():
    rng = make_rng("jd", "trace")
    assert jtrace(jordan_identity("O_C", 3)) == QI(3)
    for _ in range(10):
        x = random_hermitian(rng, "O_C", 3, 5)
        y = random_hermitian(rng, "O_C", 3, 5)
        assert trace_form(x, y) == jtrace(jordan_product(x, y))


@pytest.mark.parametrize("algebra", list(ALGEBRAS))
def test_trace_form_matches_entry_oracle(algebra):
    # T(x, y) = sum_ik sp(x_ik y_ki) by the recursion, and tr(x o y)
    rng = make_rng("jd", "traceform", algebra)
    level, _ = ALGEBRAS[algebra]
    for n in range(1, 4 if level == 3 else 5):
        for _ in range(3):
            x = random_hermitian(rng, algebra, n, 6)
            y = random_hermitian(rng, algebra, n, 6)
            acc = QI(0)
            for i in range(n):
                for k in range(n):
                    acc = acc + reference_multiply(x.entry(i, k), y.entry(k, i)).scalar_part()
            assert trace_form(x, y) == acc == jtrace(jordan_product(x, y))


def test_sharp_on_diagonals_and_identity():
    a, b, c = QI(2), QI(-3), QI(Fraction(5, 7))
    d = jordan_diag("O_C", [a, b, c])
    assert sharp(d) == jordan_diag("O_C", [b * c, a * c, a * b])
    ident = jordan_identity("O_C", 3)
    assert sharp(ident) == ident
    assert sharp(jordan_zero("O_C", 3)).is_zero()


def test_freudenthal_sharp_of_sharp():
    # (x#)# = N(x) x on the 27-dimensional exceptional algebra
    rng = make_rng("jd", "freudenthal")
    for _ in range(25):
        x = random_hermitian(rng, "O_C", 3, 5)
        assert sharp(sharp(x)) == x.scale(generic_det(x))


def test_generic_det_values_and_oracles():
    assert generic_det(jordan_diag("O_C", [QI(2), QI(3), QI(5)])) == QI(30)


def test_generic_det_higher_rank_associative():
    # 2x2 quaternionic: det [[p, a],[conj(a), q]] = pq - N(a)
    rng = make_rng("jd", "h2")
    for _ in range(20):
        x = random_hermitian(rng, "H", 2, 6)
        p = x.entry(0, 0).scalar_part()
        q = x.entry(1, 1).scalar_part()
        a = x.entry(0, 1)
        assert generic_det(x) == p * q - a.norm()
    # 4x4 and 5x5 elements with commutative entries agree with the
    # ordinary determinant
    for _ in range(10):
        x = random_hermitian(rng, "C", 4, 5)
        assert generic_det(x) == linalg.det(to_complex_matrix(x))
    for algebra in ("C", "R_C"):
        for _ in range(4):
            x = random_hermitian(rng, algebra, 5, 5)
            assert generic_det(x) == linalg.det(to_complex_matrix(x))


@pytest.mark.parametrize("algebra", list(ALGEBRAS))
def test_generic_det_at_n_1_and_2(algebra):
    # n = 1 has the single power sum p_1 = tr(x); n = 2 has no product at
    # all, only p_2 = T(x, x), and the 2x2 determinant is pq - N(a)
    rng = make_rng("jd", "detsmall", algebra)
    for _ in range(10):
        x = random_hermitian(rng, algebra, 1, 6)
        assert generic_det(x) == x.entry(0, 0).scalar_part()
        x = random_hermitian(rng, algebra, 2, 6)
        p = x.entry(0, 0).scalar_part()
        q = x.entry(1, 1).scalar_part()
        assert generic_det(x) == p * q - x.entry(0, 1).norm()


def test_full_octonion_kernel_calls_pinned(count_calls):
    # full level-3 products on one 3x3 O_C input: only the terms x_ik y_kj
    # with k != i, j need one; diagonals scale and traces take scalar parts
    def calls(fn, code_name: str) -> int:
        """The number of calls into code compiled under code_name while fn() runs."""
        return count_calls(fn, lambda frame: frame.f_code.co_filename == code_name)[1]

    full, scalar = "<cayley_dickson level 3>", "<cayley_dickson level 3 scalar>"
    rng = make_rng("jd", "kernelcalls")
    x = random_hermitian(rng, "O_C", 3, 6)
    y = random_hermitian(rng, "O_C", 3, 6)
    assert calls(lambda: x.entry(0, 1) * y.entry(1, 2), full) == 1  # the counter sees a product
    assert jordan_rank3(x) == 3
    assert calls(lambda: jordan_product(x, y), full) == 6
    # a square forms each cross product x_ik x_kj once
    assert calls(lambda: jordan_product(x, x), full) == 3
    assert calls(lambda: trace_form(x, y), full) == 0
    assert calls(lambda: trace_form(x, y), scalar) == 9
    assert calls(lambda: generic_det(x), full) == 3
    assert calls(lambda: jordan_rank3(x), full) == 3
    assert calls(lambda: sharp(x), full) == 3


def test_rank_characterization():
    assert jordan_rank3(jordan_zero("O_C", 3)) == 0
    assert jordan_rank3(jordan_identity("O_C", 3)) == 3
    assert jordan_rank3(jordan_diag("O_C", [QI(1), QI(1), QI(0)])) == 2


def test_rank_matches_matrix_rank_on_complex_field_entries():
    # entries in the level-1 algebra over Q form a genuine subfield
    rng = make_rng("jd", "rankfield")
    for k in range(4):
        for _ in range(30):
            x = jordan_zero("C", 3)
            for _ in range(k):
                v = [random_cd(rng, 1, "Q", 5) for _ in range(3)]
                x = x + rank_one_from_vector("C", v)
            assert jordan_rank3(x) == linalg.rank(to_complex_matrix(x))


def test_rank_one_from_vector_equals_entrywise_products():
    # the plane v v* rule against v_i conj(v_j) by the doubling recursion, the
    # lower triangle conjugated by the checked constructor; scalar, zero and
    # lower-level entries take the scaling and embedding paths
    rng = make_rng("jd", "outer-square")
    for algebra, (level, field) in ALGEBRAS.items():
        for n in (1, 2, 3):
            for t in range(6):
                v = [random_cd(rng, (level, 0, max(level - 1, 0))[(t + i) % 3], field, 5)
                     for i in range(n)]
                if t == 5:
                    v[0] = cd_zero(level, field)
                vv = [x.embed(level) for x in v]
                upper = [[reference_multiply(vv[i], vv[j].conjugate()) for j in range(i, n)]
                         for i in range(n)]
                assert rank_one_from_vector(algebra, v) == from_upper(algebra, upper)
    with pytest.raises(InputError):
        rank_one_from_vector("O_C", [random_cd(rng, 3, "Q")])
    with pytest.raises(UnsupportedError):
        rank_one_from_vector("O_C", [cd_zero(3, "Qi")] * 4)


def test_random_hermitian_passes_the_checked_constructor():
    # random_hermitian skips the constructor's checks; its outputs pass them
    rng = make_rng("jd", "trusted")
    for algebra in ALGEBRAS:
        for n in (1, 2, 3):
            x = random_hermitian(rng, algebra, n, 5)
            assert JordanElement(algebra, x.entries) == x
    with pytest.raises(InputError):
        random_hermitian(rng, "Z", 2)


def test_shape_and_algebra_errors():
    rng = make_rng("jd", "err")
    x = random_hermitian(rng, "O_C", 3, 3)
    y = random_hermitian(rng, "H_C", 3, 3)
    with pytest.raises(InputError):
        jordan_product(x, y)
    with pytest.raises(UnsupportedError):
        sharp(random_hermitian(rng, "C", 4, 3))
    with pytest.raises(UnsupportedError):
        jordan_rank3(random_hermitian(rng, "C", 4, 3))
    with pytest.raises(UnsupportedError):
        random_hermitian(rng, "O", 4, 3)
    with pytest.raises(InputError):
        # non-hermitian entries
        e = cd_basis(3, 1, "Qi")
        JordanElement("O_C", ((e, e), (e, e)))


@pytest.mark.parametrize("algebra", list(ALGEBRAS))
def test_trusted_results_pass_the_public_checks(algebra):
    # products, sums, negations, scalings and sharps are built from planes
    # without the constructor's checks, which each result must still pass;
    # each is in lowest terms, so equal values have equal planes and hashes
    rng = make_rng("jd", "trusted", algebra)
    level, field = ALGEBRAS[algebra]
    lam = QI(Fraction(-2, 3), 0 if field == "Q" else Fraction(5, 7))
    for n in range(1, 4):
        x = random_hermitian(rng, algebra, n, 6)
        y = random_hermitian(rng, algebra, n, 6)
        zero = jordan_zero(algebra, n)
        assert x + (-x) == zero and hash(x + (-x)) == hash(zero)
        assert (x + y) - y == x and hash((x + y) - y) == hash(x)
        results = [jordan_product(x, y), x + y, x - y, -x, x.scale(lam), x.scale(0)]
        if n == 3:
            results.append(sharp(x))
        for r in results:
            checked = JordanElement(r.algebra, r.entries)
            assert checked == r and hash(checked) == hash(r)
            assert gcd(r.den, *[v for row in r.rows for e in row for v in e]) == 1
            for i in range(n):
                for j in range(n):
                    # the entry equals its plane reduced on its own
                    e = r.entry(i, j)
                    assert e == CDElement(level, field, from_plane(r.den, r.rows[i][j]))
                    assert gcd(*e.int_form()[1], e.int_form()[0]) == 1


def test_hermitian_validation_and_upper_triangle():
    rng = make_rng("jd", "upper")
    x = random_hermitian(rng, "O_C", 3, 5)
    upper = [[x.entry(i, j) for j in range(i, 3)] for i in range(3)]
    assert from_upper("O_C", upper) == x


def test_json_round_trip():
    rng = make_rng("jd", "json")
    for algebra in ("C", "H_C", "O_C"):
        x = random_hermitian(rng, algebra, 3, 6)
        data = x.to_json()
        assert data["n"] == 3 and data["algebra"] == algebra
        assert JordanElement.from_json(data) == x


def _scalar_diagonal_hermitian(rng, algebra, n, height):
    """random_hermitian as it drew each diagonal entry: one random_qi scalar,
    made an element by cd_scalar."""
    level, field = ALGEBRAS[algebra]
    rows = random_square(
        n,
        lambda: cd_scalar(random_qi(rng, height, real=field == "Q"), level, field),
        lambda: random_cd(rng, level, field, height),
        CDElement.conjugate,
    )
    return JordanElement(algebra, tuple(tuple(row) for row in rows))


def _per_entry_hermitian(rng, algebra, n, height):
    """random_hermitian as it drew entry by entry: a level-0 random_cd
    embedded on the diagonal, a random_cd above it, its conjugate below,
    and the entries' planes put on their lcm plane."""
    level, field = ALGEBRAS[algebra]
    rows = random_square(
        n,
        lambda: random_cd(rng, 0, field, height).embed(level),
        lambda: random_cd(rng, level, field, height),
        CDElement.conjugate,
    )
    return _from_entries(algebra, rows)


@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
def test_random_hermitian_draws_its_diagonal_as_scalars(algebra):
    for n in (1, 2, 3):
        for seed in range(5):
            ours, ref = (make_rng("herm-diag", algebra, n, seed) for _ in range(2))
            x = random_hermitian(ours, algebra, n, 7)
            y = _scalar_diagonal_hermitian(ref, algebra, n, 7)
            assert x == y  # entries compare by their integer planes
            assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
def test_random_hermitian_is_one_draw_of_the_per_entry_stream(algebra):
    # one random_plane call draws what the per-entry random_cd calls drew,
    # to the same plane and the same rng end state
    level, _ = ALGEBRAS[algebra]
    for n in range(1, 4 if level == 3 else 5):
        for height in (1, 5, 10):
            for seed in range(8):
                ours, ref = (make_rng("herm-plane", algebra, n, height, seed) for _ in range(2))
                x = random_hermitian(ours, algebra, n, height)
                y = _per_entry_hermitian(ref, algebra, n, height)
                assert (x.den, x.rows) == (y.den, y.rows)
                assert ours.getstate() == ref.getstate()
