"""Property tests: JSON round trips of QI, CDElement, JordanElement and
StratumPoint.

from_json(to_json(x)) must give back a value equal to x, and equal values
must hash equal (the integer planes of CDElement and JordanElement are
canonical).
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorza.cayley_dickson import CDElement, cd_scalar
from scorza.jordan import ALGEBRAS, JordanElement, from_upper
from scorza.scalars import QI
from scorza.strata import EXC27, StratumPoint, mat_model, rank_of, skew_model, sym_model

SETTINGS = settings(max_examples=60, deadline=None)

fractions = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**24)
) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


def qis(real: bool = False):
    return st.builds(QI, fractions, st.just(0) if real else fractions)


@st.composite
def cd_elements(draw, level=None, field=None):
    level = draw(st.integers(0, 3)) if level is None else level
    field = draw(st.sampled_from(("Q", "Qi"))) if field is None else field
    coeffs = draw(st.lists(qis(field == "Q"), min_size=1 << level, max_size=1 << level))
    return CDElement(level, field, coeffs)


@st.composite
def jordan_elements(draw, algebra=None, n=None):
    algebra = draw(st.sampled_from(sorted(ALGEBRAS))) if algebra is None else algebra
    level, field = ALGEBRAS[algebra]
    n = draw(st.integers(1, 3)) if n is None else n
    upper = []
    for i in range(n):
        row = [cd_scalar(draw(qis(field == "Q")), level, field)]
        row += [draw(cd_elements(level, field)) for _ in range(i + 1, n)]
        upper.append(row)
    return from_upper(algebra, upper)


@SETTINGS
@given(qis())
def test_qi_json_round_trip(q):
    back = QI.from_json(q.to_json())
    assert back == q and hash(back) == hash(q)


@SETTINGS
@given(cd_elements())
def test_cd_element_json_round_trip(x):
    back = CDElement.from_json(x.to_json(), field=x.field)
    assert back == x and hash(back) == hash(x)
    # the plane reached through QI coefficients built from it is the same
    assert back.int_form() == x.int_form()
    again = CDElement(x.level, x.field, x.coeffs)
    assert again == x and hash(again) == hash(x)


@SETTINGS
@given(jordan_elements())
def test_jordan_element_json_round_trip(x):
    back = JordanElement.from_json(x.to_json())
    assert back == x and hash(back) == hash(x)
    # one plane per value, in lowest terms, whichever way it was built
    assert (back.den, back.rows) == (x.den, x.rows)
    assert gcd(x.den, *[v for row in x.rows for e in row for v in e]) == 1
    twice = x + x
    assert JordanElement.from_json(twice.to_json()) == twice and twice - x == x


@st.composite
def stratum_points(draw, kind):
    if kind == "exc27":
        return StratumPoint(EXC27, draw(jordan_elements("O_C", 3)))
    # zero entries half the time, so every rank up to the full one occurs
    entry = st.just(QI(0)) | qis()
    size = st.integers(1, 4)
    if kind == "mat":
        q, p = draw(size), draw(size)
        coords = [[draw(entry) for _ in range(p)] for _ in range(q)]
        return StratumPoint(mat_model(q, p), coords)
    n = draw(st.integers(2 if kind == "skew" else 1, 4))
    coords = [[QI(0)] * n for _ in range(n)]
    for i in range(n):
        if kind == "sym":
            coords[i][i] = draw(entry)
        for j in range(i + 1, n):
            x = draw(entry)
            coords[i][j], coords[j][i] = x, x if kind == "sym" else -x
    return StratumPoint(sym_model(n) if kind == "sym" else skew_model(n), coords)


def _json_round_trip(point: StratumPoint) -> StratumPoint:
    return StratumPoint.from_json(json.loads(json.dumps(point.to_json())))


@pytest.mark.parametrize("kind", ["sym", "mat", "skew", "exc27"])
@SETTINGS
@given(data=st.data())
def test_stratum_point_json_round_trip(kind, data):
    x = data.draw(stratum_points(kind))
    back = _json_round_trip(x)
    assert back == x and back.model == x.model
    rank = rank_of(x)
    assert rank_of(back) == rank
    # `sample` writes the rank next to the point; from_json only range-checks it
    again = StratumPoint.from_json(json.loads(json.dumps({**x.to_json(), "rank": rank})))
    assert again == x and rank_of(again) == rank
