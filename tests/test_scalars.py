from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorza.errors import InputError
from scorza.scalars import (
    QI, QI_I, QI_ONE, common_plane, fraction_str, from_plane, parse_fraction, to_plane,
)

fractions = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**24)
) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 12))
qi_lists = st.lists(st.builds(QI, fractions, fractions), max_size=8)


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
    assert parse_fraction("-2/3") == f
    assert parse_fraction("5") == Fraction(5)
    with pytest.raises(InputError):
        parse_fraction("nonsense")
    with pytest.raises(InputError):
        parse_fraction("1/0")


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
