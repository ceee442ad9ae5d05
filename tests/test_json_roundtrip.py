"""Property tests: JSON round trips of QI, CDElement, JordanElement and
StratumPoint, and the JSON of points and W elements written from their
integer planes.

from_json(to_json(x)) must give back a value equal to x, and equal values
must hash equal (the integer planes of CDElement and JordanElement are
canonical). A point or W element written from its plane must read byte for
byte as the JSON built from its QI values, and read back into the same plane.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorza import cli, dual_pairs, strata
from scorza.cayley_dickson import CDElement, cd_scalar
from scorza.jordan import ALGEBRAS, JordanElement, from_upper
from scorza.scalars import QI, leaves_plane, to_plane
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


# --- points and W elements written from and read into their integer planes ------

# parts from zero and small signed values up to 4,299 digits, just inside the
# interpreter's 4,300-digit limit on an int as text; a large value is drawn
# as m 10^k, so it shares factors with a large denominator
BIG = 10**4299 - 1
PARTS = (st.integers(-3, 3) | st.integers(-(10**30), 10**30) | st.sampled_from([BIG, -BIG])
         | st.builds(lambda m, k: m * 10**k, st.integers(-(10**6), 10**6), st.integers(0, 4292)))
DENS = (st.integers(1, 4) | st.integers(1, 10**30) | st.just(BIG)
        | st.builds(lambda m, k: m * 10**k, st.integers(1, 10**6), st.integers(0, 4292)))


@st.composite
def planes(draw, model):
    """(den, flat) of a random plane of the model: its independent
    coordinates drawn, the rest mirrored (exc27: hermitian entry planes)."""
    den = draw(DENS)
    if model.kind == "exc27":
        rows = [[None] * 3 for _ in range(3)]
        for i in range(3):
            rows[i][i] = [draw(PARTS), draw(PARTS)] + [0] * 14
            for j in range(i + 1, 3):
                e = draw(st.lists(PARTS, min_size=16, max_size=16))
                rows[i][j], rows[j][i] = e, e[:2] + [-v for v in e[2:]]
        return den, [v for row in rows for e in row for v in e]
    rows, cols = strata._coords_shape(model)
    flat = [0] * (2 * rows * cols)
    for i in strata._coordinate_index(model):
        flat[2 * i:2 * i + 2] = draw(PARTS), draw(PARTS)
    for where, parts in strata._mirror(model, flat):
        flat[where] = parts
    return den, flat


def _qi_json(point: StratumPoint) -> dict:
    """The point's JSON built from its QI values, as `to_json` built it when
    every leaf went through a QI: `QI.to_json` per coordinate, or per
    octonion coefficient of each upper-triangle `CDElement` of exc27."""
    kind, coords = point.model.kind, point.coords
    if kind == "exc27":
        coords = {"n": 3, "algebra": "O_C", "entries": [
            [coords.entry(i, j).to_json() for j in range(i, 3)] for i in range(3)]}
    else:
        coords = [[x.to_json() for x in row] for row in coords]
    params = dict(zip(strata._PARAMS[kind], point.model.params))
    return {"model": {"kind": kind, **params}, "coords": coords}


MODELS = [sym_model(1), sym_model(3), mat_model(2, 3), mat_model(3, 1), skew_model(2),
          skew_model(5), EXC27]


@pytest.mark.parametrize("model", MODELS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_points_are_written_and_read_on_their_planes(model, data):
    point = strata._point(model, *data.draw(planes(model)))
    expected = _qi_json(point)
    text = cli.render_json(point.json_tree())
    assert text == json.dumps(expected, indent=2) + "\n"
    assert point.to_json() == expected
    back = StratumPoint.from_json(json.loads(text))
    assert (back.model, back.den, back.flat) == (point.model, point.den, point.flat)


@pytest.mark.parametrize("sel,s", [("sp:2", 1), ("sp:3", 3), ("u:2,1", 2), ("u:3,3", 3),
                                   ("ostar:2", 1), ("ostar:5", 2)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_w_elements_are_written_on_their_planes(sel, s, data):
    case = dual_pairs.parse_case(sel, s)
    size = 2 * case.v_size * case.s
    flat = data.draw(st.lists(PARTS, min_size=size, max_size=size))
    if case.real_entries:
        flat[1::2] = [0] * (size // 2)
    w = dual_pairs._element(case, data.draw(DENS), flat)
    alpha = w.alpha
    expected = {"case": sel, "s": s, "alpha": [[x.to_json() for x in row] for row in alpha]}
    text = cli.render_json(w.json_tree())
    assert text == json.dumps(expected, indent=2) + "\n"
    assert w.to_json() == expected
    # the leaves read back into the plane of all of alpha, over the lcm
    leaves = [leaf for row in json.loads(text)["alpha"] for leaf in row]
    assert leaves_plane(leaves) == tuple(to_plane([x for row in alpha for x in row]))
