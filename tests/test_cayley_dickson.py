import random
from fractions import Fraction

import pytest

from scorza.cayley_dickson import (
    _KERNELS,
    _REAL_KERNELS,
    CDElement,
    _doubling_conj,
    _doubling_mul,
    _kernel,
    _scalar_kernel,
    associativity_counterexample,
    cd_basis,
    cd_multiply,
    cd_one,
    cd_scalar,
    cd_zero,
    conjugate,
    norm_form,
    random_cd,
    real_trace,
    reference_multiply,
)
from scorza.errors import InputError
from scorza.sampling import make_rng, random_qi, random_ratios
from scorza.scalars import QI, from_plane


def test_unit_is_identity():
    rng = make_rng("cd", "unit")
    for level in range(4):
        one = cd_one(level)
        x = random_cd(rng, level)
        assert cd_multiply(one, x) == x
        assert cd_multiply(x, one) == x


@pytest.mark.parametrize("level", [1, 2, 3])
def test_imaginary_units_square_to_minus_one(level):
    one = cd_one(level)
    for k in range(1, 1 << level):
        e = cd_basis(level, k)
        assert cd_multiply(e, e) == -one


def test_quaternion_table_frozen():
    # hand evaluation of the doubling recursion: e1 e2 = +e3 at level 2
    e1, e2, e3 = (cd_basis(2, k) for k in (1, 2, 3))
    assert e1 * e2 == e3
    assert e2 * e1 == -e3


def test_octonion_table_frozen_rows():
    # products derived once by hand from the fixed recursion
    e = [cd_basis(3, k) for k in range(8)]
    assert e[1] * e[2] == e[3]
    assert e[1] * e[4] == e[5]
    assert e[2] * e[4] == e[6]
    assert e[3] * e[4] == e[7]
    # the same triple that witnesses non-associativity
    assert (e[1] * e[2]) * e[4] == e[7]
    assert e[1] * (e[2] * e[4]) == -e[7]


def test_associativity_counterexample_exposed():
    (i, j, k), lhs, rhs = associativity_counterexample()
    a, b, c = (cd_basis(3, t) for t in (i, j, k))
    assert (a * b) * c == lhs
    assert a * (b * c) == rhs
    assert lhs != rhs


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_norm_multiplicative_all_levels(field):
    rng = make_rng("cd", "norm", field)
    for level in range(4):
        for _ in range(40):
            x = random_cd(rng, level, field)
            y = random_cd(rng, level, field)
            assert norm_form(x * y) == norm_form(x) * norm_form(y)


def test_norm_values():
    assert norm_form(cd_zero(3)) == QI(0)
    assert norm_form(cd_basis(3, 1) + cd_basis(3, 2)) == QI(2)
    rng = make_rng("cd", "norm-conj")
    for _ in range(30):
        x = random_cd(rng, 3, "Qi")
        assert x * conjugate(x) == cd_scalar(norm_form(x), 3, "Qi")


def test_conjugation_properties():
    assert conjugate(cd_one(3)) == cd_one(3)
    assert conjugate(cd_basis(3, 5)) == -cd_basis(3, 5)


def test_trace_properties():
    assert real_trace(cd_one(3)) == QI(2)
    assert real_trace(cd_basis(3, 7)) == QI(0)


def test_table_path_matches_recursion():
    rng = make_rng("cd", "table")
    for field in ("Q", "Qi"):
        for level in range(4):
            for _ in range(20):
                x = random_cd(rng, level, field)
                y = random_cd(rng, level, field)
                assert x * y == reference_multiply(x, y)


def test_level_and_field_mismatch_rejected():
    with pytest.raises(InputError):
        cd_one(2) * cd_one(3)
    with pytest.raises(InputError):
        CDElement(1, "Q", (QI(1), QI(0, 1)))
    with pytest.raises(InputError):
        cd_one(3, "Q") + cd_one(3, "Qi")
    with pytest.raises(InputError):
        cd_basis(2, 4)
    with pytest.raises(InputError):
        CDElement(4, "Q", (QI(0),) * 16)


def test_embedding_is_homomorphism():
    rng = make_rng("cd", "embed")
    for _ in range(30):
        x = random_cd(rng, 2, "Qi")
        y = random_cd(rng, 2, "Qi")
        assert (x * y).embed(3) == x.embed(3) * y.embed(3)
        assert conjugate(x).embed(3) == conjugate(x.embed(3))


def test_json_round_trip():
    rng = make_rng("cd", "json")
    for field in ("Q", "Qi"):
        x = random_cd(rng, 3, field)
        data = x.to_json()
        assert set(data) == {"level", "coeffs"}
        assert CDElement.from_json(data, field=field) == x
    # field inference: real coefficients decode to tag Q
    x = random_cd(rng, 2, "Q")
    assert CDElement.from_json(x.to_json()) == x


# --- integer-plane kernels against coefficient-wise QI arithmetic -------------

def _level0_conj(t: tuple) -> tuple:
    if len(t) == 2:
        return t
    h = len(t) // 2
    return _level0_conj(t[:h]) + tuple([-v for v in t[h:]])


def _level0_doubling_mul(x: tuple, y: tuple) -> tuple:
    """The doubling recursion on integer planes down to level 0, one
    Gaussian product per pair of scalars: the recursion with its level-1
    base case unrolled is checked against it."""
    if len(x) == 2:
        (ar, ai), (br, bi) = x, y
        return (ar * br - ai * bi, ar * bi + ai * br)
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    left = [p - q for p, q in zip(_level0_doubling_mul(a, c), _level0_doubling_mul(_level0_conj(d), b))]
    right = [p + q for p, q in zip(_level0_doubling_mul(d, a), _level0_doubling_mul(b, _level0_conj(c)))]
    return tuple(left + right)


def _qi_conj(t: tuple) -> tuple:
    if len(t) == 1:
        return t
    h = len(t) // 2
    return _qi_conj(t[:h]) + tuple(-c for c in t[h:])


def _qi_mul(x: tuple, y: tuple) -> tuple:
    """The doubling recursion (a, b)(c, d) = (ac - d*b, da + bc*) on QI tuples."""
    if len(x) == 1:
        return (x[0] * y[0],)
    h = len(x) // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    left = tuple(p - q for p, q in zip(_qi_mul(a, c), _qi_mul(_qi_conj(d), b)))
    right = tuple(p + q for p, q in zip(_qi_mul(d, a), _qi_mul(b, _qi_conj(c))))
    return left + right


_BIG_DENS = (2**61 - 1, 3**40, 10**18 + 9, 2**64, 7 * 11 * 13 * 10**9)


def _oracle_samples(level: int, field: str) -> list:
    """Zero, basis, random, pure-imaginary and large-mixed-denominator elements."""
    n = 1 << level
    rng = make_rng("cd", "oracle", level, field)
    real = field == "Q"
    out = [cd_zero(level, field), cd_one(level, field), cd_basis(level, n - 1, field)]
    out += [random_cd(rng, level, field) for _ in range(6)]
    big = []
    for k in range(n):
        re = Fraction(rng.randint(-10**20, 10**20), rng.choice(_BIG_DENS))
        im = 0 if real else Fraction(rng.randint(-10**20, 10**20), rng.choice(_BIG_DENS))
        big.append(QI(re, im))
    out.append(CDElement(level, field, big))
    if not real:
        out.append(CDElement(level, field, [QI(0, Fraction(k + 1, 3 * k + 2)) for k in range(n)]))
    # a fraction in the last slot beside an integer scalar part
    mixed = [QI(0)] * n
    mixed[0] = QI(5)
    mixed[-1] = QI(Fraction(-7, 12))
    out.append(CDElement(level, field, mixed))
    return out


def _same(x: CDElement, coeffs: tuple):
    expected = CDElement(x.level, x.field, coeffs)
    assert x.coeffs == tuple(coeffs)
    assert x == expected and hash(x) == hash(expected)


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_integer_plane_kernels_match_qi_oracle(level, field):
    samples = _oracle_samples(level, field)
    scalars = [QI(0), QI(1), QI(Fraction(-3, 7)), QI(Fraction(2**70, 3**30))]
    if field == "Qi":
        scalars += [QI(0, Fraction(5, 6)), QI(Fraction(1, 2**40), Fraction(-9, 10**15))]
    pre = [(-1) ** t * (t + 3) * 10 ** (t % 5) for t in range(2 << level)]
    for x in samples:
        cx = x.coeffs
        assert x.is_zero() == all(not c for c in cx)
        assert x.is_scalar() == all(not c for c in cx[1:])
        assert x.scalar_part() == cx[0]
        assert x.trace() == cx[0] + cx[0]
        acc = QI(0)
        for c in cx:
            acc = acc + c * c
        assert x.norm() == acc
        _same(-x, tuple(-c for c in cx))
        _same(x.conjugate(), (cx[0],) + tuple(-c for c in cx[1:]))
        for s in scalars:
            _same(x.scale(s), tuple(c * s for c in cx))
        for high in range(level, 4):
            _same(x.embed(high), cx + (QI(0),) * ((1 << high) - len(cx)))
        for y in samples:
            cy = y.coeffs
            _same(x + y, tuple(a + b for a, b in zip(cx, cy)))
            _same(x - y, tuple(a - b for a, b in zip(cx, cy)))
            _same(x * y, _qi_mul(cx, cy))
            _same(reference_multiply(x, y), _qi_mul(cx, cy))
            # the kernel adds into out, as jordan_product's accumulator needs
            (da, a), (db, b) = x.int_form(), y.int_form()
            out = _KERNELS[level](a, b, list(pre))
            expected = [QI(Fraction(pre[2 * k], da * db), Fraction(pre[2 * k + 1], da * db)) + c
                        for k, c in enumerate(_qi_mul(cx, cy))]
            assert from_plane(da * db, out) == expected


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_recursion_matches_its_level0_base_oracle(level, field):
    samples = [x.int_form()[1] for x in _oracle_samples(level, field)]
    for a in samples:
        assert _doubling_conj(a) == _level0_conj(a)
        for b in samples:
            assert _doubling_mul(a, b) == _level0_doubling_mul(a, b)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_real_kernels_match_the_recursion(level):
    # tag Q planes have every imaginary part 0: the real kernel adds the
    # recursion's real parts into out and leaves its imaginary slots alone
    samples = [x.int_form()[1] for x in _oracle_samples(level, "Q")]
    pre = [(-1) ** t * (t + 3) * 10 ** (t % 5) for t in range(2 << level)]
    for a in samples:
        for b in samples:
            expected = [p + v for p, v in zip(pre, _doubling_mul(a, b))]
            assert _REAL_KERNELS[level](a, b, list(pre)) == expected
            assert _KERNELS[level](a, b, list(pre)) == expected


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_scalar_part_kernels_add_only_the_first_two_slots(level, field):
    # out[0:2] gains exactly what the full kernel adds there, and the
    # recursion's scalar part; every other slot keeps its pre-filled value
    samples = [x.int_form()[1] for x in _oracle_samples(level, field)]
    pre = [(-1) ** t * (t + 3) * 10 ** (t % 5) for t in range(2 << level)]
    full, scalar = _kernel(level, field), _scalar_kernel(level, field)
    assert scalar is not full
    for a in samples:
        for b in samples:
            got = scalar(a, b, list(pre))
            assert got == full(a, b, list(pre))[:2] + pre[2:]
            r0, r1 = _doubling_mul(a, b)[:2]
            assert got[:2] == [pre[0] + r0, pre[1] + r1]


def test_planes_are_canonical():
    # Fraction(6, 4) and Fraction(-10, 15) reduce on entry; the same value
    # reached by arithmetic must land on the same plane
    built = CDElement(2, "Qi", [QI(Fraction(6, 4)), QI(0, Fraction(-10, 15)), QI(0), QI(Fraction(4, 2))])
    a = CDElement(2, "Qi", [QI(Fraction(1, 4)), QI(0, Fraction(1, 3)), QI(0), QI(Fraction(1, 3))])
    b = CDElement(2, "Qi", [QI(Fraction(5, 4)), QI(0, -1), QI(0), QI(Fraction(5, 3))])
    reached = a + b
    assert reached == built and hash(reached) == hash(built)
    assert reached.int_form() == built.int_form() == (6, (9, 0, 0, -4, 0, 0, 12, 0))
    # a cancelling sum collapses to the canonical zero plane
    x = random_cd(make_rng("cd", "canon"), 3, "Qi")
    zero = x - x
    assert zero == cd_zero(3, "Qi") and hash(zero) == hash(cd_zero(3, "Qi"))
    assert zero.int_form() == (1, (0,) * 16)
    # a product whose denominators cancel
    half = cd_scalar(QI(Fraction(1, 2)), 3)
    two = cd_scalar(QI(2), 3)
    assert (half * two).int_form() == (1, (1,) + (0,) * 15) == cd_one(3).int_form()


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_random_cd_draws_like_random_qi(field):
    for level in range(4):
        a = random_cd(make_rng("cd", "draws", level), level, field, 7)
        rng = make_rng("cd", "draws", level)
        coeffs = [random_qi(rng, 7, real=field == "Q") for _ in range(1 << level)]
        assert a == CDElement(level, field, coeffs)
        assert a.coeffs == tuple(coeffs)


@pytest.mark.parametrize("height", [1, 2, 7, 10, 16, 1000, 2**40])
def test_random_ratio_matches_randint(height):
    """random_ratios(rng, count, height) draws as count rounds of randint."""
    for seed in range(200):
        for count in range(6):
            ours, stdlib = random.Random(seed), random.Random(seed)
            nums, dens = random_ratios(ours, count, height)
            assert list(zip(nums, dens)) == [
                (stdlib.randint(-height, height), stdlib.randint(1, height))
                for _ in range(count)
            ]
            assert ours.getstate() == stdlib.getstate()
    with pytest.raises(ValueError):
        random_ratios(random.Random(0), 1, 0)
    with pytest.raises(ValueError):
        random_qi(random.Random(0), 0)
