from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorza.errors import InputError
from scorza import strata
from scorza.sampling import (
    make_rng, random_plane, random_qi, random_qi_vector, random_ratios,
)
from scorza.scalars import QI, QI_I, QI_ONE, common_plane, from_plane, parse_ratio, to_plane

fractions = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**24)
) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 12))
qi_lists = st.lists(st.builds(QI, fractions, fractions), max_size=8)


def fraction_str(f: Fraction) -> str:
    """Canonical "p/q" form with an explicit positive denominator."""
    return f"{f.numerator}/{f.denominator}"


def test_basic_arithmetic():
    a = QI(Fraction(1, 2), Fraction(-3, 4))
    b = QI(2, 1)
    assert a + b == QI(Fraction(5, 2), Fraction(1, 4))
    assert a - b == QI(Fraction(-3, 2), Fraction(-7, 4))
    assert -a == QI(Fraction(-1, 2), Fraction(3, 4))
    assert a * 2 == QI(1, Fraction(-3, 2))
    assert 1 + a == QI(Fraction(3, 2), Fraction(-3, 4))


def test_complex_multiplication_and_division():
    assert QI_I * QI_I == QI(-1)
    a = QI(3, 4)
    assert a * a.conjugate() == QI(25)
    assert a / a == QI_ONE
    b = QI(Fraction(1, 3), Fraction(-2, 7))
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / QI(0)


def test_powers():
    assert QI_I ** 4 == QI_ONE
    assert QI(2, 1) ** 3 == QI(2, 1) * QI(2, 1) * QI(2, 1)
    with pytest.raises(InputError):
        QI(2) ** -1


def test_reality_predicates():
    assert QI(5).is_real()
    assert not QI(0, 1).is_real()
    assert QI(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    with pytest.raises(InputError):
        QI(1, 1).as_fraction()


def test_fraction_strings_round_trip():
    f = Fraction(-14, 21)
    assert fraction_str(f) == "-2/3"
    assert Fraction(*parse_ratio("-2/3")) == f
    assert parse_ratio("-14/21") == parse_ratio("4/-6") == (-2, 3)
    assert parse_ratio("5") == (5, 1)
    with pytest.raises(InputError):
        parse_ratio("nonsense")
    with pytest.raises(InputError):
        parse_ratio("1/0")


def test_json_round_trip():
    a = QI(Fraction(22, 7), Fraction(-1, 3))
    assert QI.from_json(a.to_json()) == a
    assert a.to_json() == {"re": "22/7", "im": "-1/3"}


def test_hash_consistency():
    assert hash(QI(1, 0)) == hash(QI(Fraction(2, 2), Fraction(0)))
    assert len({QI(1), QI(1, 0), QI(2)}) == 2


@settings(max_examples=200, deadline=None)
@given(qi_lists)
def test_plane_round_trip_in_lowest_terms(values):
    den, flat = to_plane(values)
    assert den > 0 and len(flat) == 2 * len(values)
    assert from_plane(den, flat) == values
    assert gcd(den, *flat) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(qi_lists, max_size=5))
def test_common_plane_preserves_every_value(groups):
    planes = [to_plane(values) for values in groups]
    den, flats = common_plane(planes)
    assert all(den % d == 0 for d, _ in planes)
    assert [from_plane(den, flat) for flat in flats] == groups


# --- the int triple against pairs of Fractions ----------------------------------

pairs = st.tuples(fractions, fractions)


def _agrees(x: QI, ref: tuple):
    """x is in canonical form and equals the Fraction pair ref, down to its JSON."""
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == ref
    assert x.to_json() == {"re": fraction_str(ref[0]), "im": fraction_str(ref[1])}


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_triple_arithmetic_matches_fraction_pairs(p, q):
    (a, b), (c, d) = p, q
    x, y = QI(a, b), QI(c, d)
    _agrees(x, p)
    _agrees(x + y, (a + c, b + d))
    _agrees(x - y, (a - c, b - d))
    _agrees(x * y, (a * c - b * d, a * d + b * c))
    _agrees(-x, (-a, -b))
    _agrees(x.conjugate(), (a, -b))
    for k, ref in enumerate([(a, b), (-b, a), (-a, -b), (b, -a)]):
        _agrees(x.times_unit(k), ref)
    if c or d:
        n = c * c + d * d
        _agrees(x / y, ((a * c + b * d) / n, (b * c - a * d) / n))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    # mixed operands: an int or a Fraction on either side
    _agrees(x + c, (a + c, b))
    _agrees(c - x, (c - a, -b))
    _agrees(x * c, (a * c, b * c))
    _agrees(3 * x, (3 * a, 3 * b))


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_equality_and_hash_across_int_fraction_and_qi(p, q):
    x, y = QI(*p), QI(*q)
    assert (x == y) == (p == q)
    # the same value reached by arithmetic: equal ints, equal hash
    z = ((x * 7 + y) - y) / 7
    assert z == x and hash(z) == hash(x)
    a, b = p
    if b:
        assert x != a and a != x
    else:
        assert x == a and a == x and hash(x) == hash(a)
        if a.denominator == 1:
            n = a.numerator
            assert x == n and n == x and hash(x) == hash(n)
    assert QI(a) == a and hash(QI(a)) == hash(a)


def _one_ratio(rng, height):
    (p,), (q,) = random_ratios(rng, 1, height)
    return Fraction(p, q)


def _fraction_draw(rng, height, real, nonzero):
    """random_qi as it drew its parts as Fractions, one ratio at a time: real
    numerator and denominator, then (unless real) imaginary numerator and
    denominator."""
    while True:
        re = _one_ratio(rng, height)
        im = Fraction(0) if real else _one_ratio(rng, height)
        if re or im or not nonzero:
            return re, im


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_random_qi_draws_as_fraction_pairs(seed):
    for height in (1, 3, 10):
        for real in (False, True):
            for nonzero in (False, True):
                ours, ref = (make_rng("qi-draw", seed, height) for _ in range(2))
                for _ in range(40):
                    x = random_qi(ours, height, real=real, nonzero=nonzero)
                    _agrees(x, _fraction_draw(ref, height, real, nonzero))
                    f = random_qi(ours, height, real=True, nonzero=nonzero)
                    _agrees(f, _fraction_draw(ref, height, True, nonzero))
                for x in random_qi_vector(ours, 5, height, real=real):
                    _agrees(x, _fraction_draw(ref, height, real, False))
                assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("height", [1, 2, 7, 10, 16, 1000])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_random_plane_draws_like_random_qi_vector(height, real):
    # the same draws and end state, the same values, one plane in lowest terms
    for seed in range(25):
        for n in (0, 1, 5, 17):
            ours, ref = (make_rng("plane-draw", seed, height, n) for _ in range(2))
            den, flat = random_plane(ours, n, height, real)
            values = random_qi_vector(ref, n, height, real)
            assert ours.getstate() == ref.getstate()
            assert from_plane(den, flat) == values
            assert (den, flat) == to_plane(values)
            assert gcd(den, *flat) == 1


def test_from_ints_reduces_and_rejects_bad_denominators():
    assert QI.from_ints(6, -4, 10) == QI(Fraction(3, 5), Fraction(-2, 5))
    assert (QI.from_ints(0, 0, 9).a, QI.from_ints(0, 0, 9).d) == (0, 1)
    for d in (0, -3):
        with pytest.raises(ValueError):
            QI.from_ints(1, 0, d)
    assert QI("-6/4", 2) == QI.from_ints(-3, 4, 2)
    with pytest.raises(InputError):
        QI(0.5)


def _fraction_ratio(s):
    """The string reader as it was, on Fraction: the oracle for parse_ratio."""
    if not isinstance(s, str):
        raise InputError(f"expected a rational string like \"p/q\", got {s!r}")
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational string {s!r}") from exc


def _fraction_from_json(data):
    """(a, b, d) of QI.from_json(data) as the Fraction reader built it."""
    if not isinstance(data, dict) or not {"re", "im"} <= data.keys():
        raise InputError(f'expected {{"re": "p/q", "im": "p/q"}}, got {data!r}')
    re, im = _fraction_ratio(data["re"]), _fraction_ratio(data["im"])
    d = lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


# "p/q" strings and near misses: signs, whitespace, "+", "_", zero and
# negative denominators, extra "/", empty parts; and values that are no str
RATIO_TEXT = st.lists(
    st.sampled_from(["", " ", "\t", "+", "-", "_", "/", "0", "1", "2", "4", "6", "12", "x"]),
    max_size=8,
).map("".join) | st.builds("{}/{}".format, st.integers(-99, 99), st.integers(-99, 99))
RATIO_VALUES = RATIO_TEXT | st.integers(-5, 5) | st.none() | st.floats(allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(RATIO_VALUES, RATIO_VALUES)
def test_from_json_matches_the_fraction_reader(re, im):
    data = {"re": re, "im": im}
    try:
        expected = _fraction_from_json(data)
    except InputError as exc:
        with pytest.raises(InputError) as raised:
            QI.from_json(data)
        assert str(raised.value) == str(exc)
        return
    x = QI.from_json(data)
    assert (x.a, x.b, x.d) == expected
    assert (x.re, x.im) == (_fraction_ratio(re), _fraction_ratio(im))
    assert Fraction(*parse_ratio(re)) == _fraction_ratio(re)


def test_from_json_accepts_and_rejects_as_before():
    for text, value in [(" 3 ", (3, 1)), ("+2/3", (2, 3)), ("1_0/4", (5, 2)),
                        ("4/-6", (-2, 3)), ("2/4", (1, 2))]:
        assert parse_ratio(text) == value
        x = QI.from_json({"re": text, "im": "0"})
        assert (x.a, x.b, x.d) == (value[0], 0, value[1])
    for text in ("1/0", "1/2/3", "", "1/"):
        with pytest.raises(InputError, match=f"^malformed rational string {text!r}$"):
            QI.from_json({"re": "0", "im": text})
    with pytest.raises(InputError, match="^expected a rational string"):
        QI.from_json({"re": 1, "im": "0"})


def test_point_from_json_builds_no_fraction(count_calls):
    point = strata.sample_secant(strata.parse_model("skew:7"), 2, 11)
    data = point.to_json()
    back, calls = count_calls(
        lambda: strata.StratumPoint.from_json(data),
        lambda frame: frame.f_code is Fraction.__new__.__code__,
    )
    assert back == point
    assert calls == 0
