"""Property tests: JSON round trips of QI, CDElement and JordanElement.

from_json(to_json(x)) must give back a value equal to x, and equal values
must hash equal (the integer planes of CDElement are canonical).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from scorza.cayley_dickson import CDElement, cd_scalar
from scorza.jordan import ALGEBRAS, JordanElement, from_upper
from scorza.scalars import QI

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
def jordan_elements(draw):
    algebra = draw(st.sampled_from(sorted(ALGEBRAS)))
    level, field = ALGEBRAS[algebra]
    n = draw(st.integers(1, 3))
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
    # the plane reached through lazily built QI coefficients is the same
    assert back.int_form() == x.int_form()
    again = CDElement(x.level, x.field, x.coeffs)
    assert again == x and hash(again) == hash(x)


@SETTINGS
@given(jordan_elements())
def test_jordan_element_json_round_trip(x):
    back = JordanElement.from_json(x.to_json())
    assert back == x and hash(back) == hash(x)
