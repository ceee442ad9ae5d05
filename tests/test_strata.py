import hashlib
import json
import sys
import time

import pytest

from scorza import linalg, scalars, verify
from scorza import strata as st
from scorza.catalog import catalog_scorza
from scorza.errors import InputError, UnsupportedError
from scorza.jordan import generic_det, jordan_rank3, sharp
from scorza.sampling import derive_seed, make_rng, random_qi_vector
from scorza.scalars import HALF, QI
from scorza.strata import (
    EXC27,
    MAX_JACOBIAN_CELLS,
    StratumPoint,
    chart_param_count,
    chart_point,
    closure_membership,
    defects,
    mat_model,
    parse_model,
    peel_rank_one,
    random_point,
    rank_of,
    relative_invariant,
    sample_rank_one,
    sample_secant,
    skew_model,
    stratum_dimension,
    sym_model,
    zero_point,
)
from scorza.strata import _chart_jacobian_columns, _frame_blocks

ALL_MODELS = [sym_model(3), mat_model(3, 3), mat_model(3, 5), skew_model(6),
              skew_model(7), EXC27]


def test_model_parsing_and_properties():
    assert parse_model("sym:3") == sym_model(3)
    assert parse_model("mat:3,5") == mat_model(3, 5)
    assert parse_model("skew:6") == skew_model(6)
    assert parse_model("exc27") == EXC27
    assert sym_model(3).max_rank == 3
    assert mat_model(3, 5).max_rank == 3
    assert skew_model(7).max_rank == 3
    assert EXC27.max_rank == 3
    assert sym_model(3).ambient_dim == 6
    assert skew_model(6).ambient_dim == 15
    assert EXC27.ambient_dim == 27
    assert mat_model(3, 3).regular and not mat_model(3, 5).regular
    assert skew_model(6).regular and not skew_model(7).regular
    for bad in ("sym", "mat:3", "frob:2", "sym:0", "skew:1", "mat:3,4,5"):
        with pytest.raises(InputError):
            parse_model(bad)


def test_rank_of_basic_points():
    for model in ALL_MODELS:
        assert rank_of(zero_point(model)) == 0
    # e1 wedge e2 + e3 wedge e4 inside skew(6): matrix rank 4, Jordan rank 2
    m = linalg.zeros(6, 6)
    for i, j in ((0, 1), (2, 3)):
        m[i][j] = QI(1)
        m[j][i] = QI(-1)
    assert rank_of(StratumPoint(skew_model(6), m)) == 2
    e11 = linalg.zeros(3, 3)
    e11[0][0] = QI(1)
    assert rank_of(StratumPoint(sym_model(3), e11)) == 1


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.selector())
def test_rank_one_samples(model):
    for t in range(25):
        p = sample_rank_one(model, seed=derive_seed("t-r1", t))
        assert rank_of(p) == 1
        if model.kind == "exc27":
            assert sharp(p.coords).is_zero()
            assert not generic_det(p.coords)
            assert not p.coords.is_zero()


def test_rank_one_row_computes_each_rank(monkeypatch):
    # a sampler whose points have rank 2 fails the row: the rank it reads is
    # computed from the coordinates, never written by the sampler
    chart = st.chart_point

    def rank_two(model, params):
        return chart(model, params) + chart(model, params[1:] + params[:1])

    monkeypatch.setattr(st, "chart_point", rank_two)
    row = next(row for row in verify.CHECKS["strata"] if row.name == "rank_one_samples")
    assert not row.run(12, 0).ok


@pytest.mark.parametrize("seed", range(5))
def test_exc27_samples_leave_the_quaternions(seed):
    # the chart reaches the whole Cayley-plane cone, not only H_3(H_C):
    # octonion slots 4-7 of some off-diagonal entry are nonzero, and three
    # summands reach the top rank
    x = sample_rank_one(EXC27, seed).coords
    assert any(any(x.entry(i, j).coeffs[4:]) for i, j in ((0, 1), (0, 2), (1, 2)))
    assert jordan_rank3(sample_secant(EXC27, 2, seed).coords) == 3


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.selector())
def test_secant_samples_rank_bound_and_genericity(model):
    # oversampling caps at max rank
    p = sample_secant(model, model.max_rank + 1, seed=3)
    assert rank_of(p) <= model.max_rank


def test_secant_validation():
    with pytest.raises(InputError):
        sample_secant(sym_model(3), -1, seed=0)


def test_relative_invariant_vanishing_and_degree():
    for model in [sym_model(3), mat_model(3, 3), skew_model(6), EXC27]:
        for t in range(10):
            full = random_point(model, seed=derive_seed("t-invf", t))
            lam = QI(3)
            if model.kind == "exc27":
                scaled = StratumPoint(model, full.coords.scale(lam))
            else:
                scaled = StratumPoint(model, linalg.mat_scale(full.coords, lam))
            assert relative_invariant(scaled) == lam ** model.max_rank * relative_invariant(full)


def test_relative_invariant_unsupported_models():
    with pytest.raises(UnsupportedError):
        relative_invariant(random_point(mat_model(3, 5), seed=1))
    with pytest.raises(UnsupportedError):
        relative_invariant(random_point(skew_model(7), seed=1))


def test_closure_membership():
    for model in ALL_MODELS:
        assert closure_membership(zero_point(model), 0)
        p1 = sample_rank_one(model, seed=11)
        assert not closure_membership(p1, 0)
        assert closure_membership(p1, 1)
        for k in range(model.max_rank):
            p = sample_secant(model, k, seed=derive_seed("t-cm", k))
            r = rank_of(p)
            for s in range(model.max_rank + 1):
                assert closure_membership(p, s) == (s >= r)


SEVERI_TABLE = {
    "sym:3": [2, 4, 5],
    "mat:3,3": [4, 7, 8],
    "skew:6": [8, 13, 14],
    "exc27": [16, 25, 26],
}


@pytest.mark.parametrize("sel,proj_dims", SEVERI_TABLE.items())
def test_stratum_dimension_severi_rows(sel, proj_dims):
    model = parse_model(sel)
    for s, expected in enumerate(proj_dims, start=1):
        cone, proj = stratum_dimension(model, s)
        assert proj == expected
        assert cone == expected + 1


def test_stratum_dimension_nonregular_and_quadric():
    assert [stratum_dimension(mat_model(3, 5), s)[1] for s in (1, 2, 3)] == [6, 11, 14]
    assert [stratum_dimension(skew_model(7), s)[1] for s in (1, 2, 3)] == [10, 17, 20]
    # the regular rank-2 quadric case: Pluecker of skew(5) in P^9
    assert stratum_dimension(skew_model(5), 1)[1] == 6
    assert skew_model(5).ambient_proj_dim == 9
    with pytest.raises(InputError):
        stratum_dimension(sym_model(3), 0)
    with pytest.raises(InputError):
        stratum_dimension(sym_model(3), 4)


# every stratum of sym:1..8, mat:q,p (q <= 6, p <= 7), skew:2..11 and exc27
CLOSED_FORM_GRID = (
    [sym_model(r) for r in range(1, 9)]
    + [mat_model(q, p) for q in range(1, 7) for p in range(1, 8)]
    + [skew_model(n) for n in range(2, 12)]
    + [EXC27]
)


def _closed_form_cone_dim(model, s):
    if model.kind == "sym":
        r = model.params[0]
        return s * r - s * (s - 1) // 2
    if model.kind == "mat":
        q, p = model.params
        return s * (q + p - s)
    if model.kind == "skew":
        n = model.params[0]
        return s * (2 * n - 2 * s - 1)
    return (17, 26, 27)[s - 1]


def test_stratum_dimension_matches_closed_forms():
    assert len(CLOSED_FORM_GRID) == 61
    got, want = {}, {}
    for model in CLOSED_FORM_GRID:
        for s in range(1, model.max_rank + 1):
            got[model.selector(), s] = stratum_dimension(model, s)
            cone = _closed_form_cone_dim(model, s)
            want[model.selector(), s] = (cone, cone - 1)
    assert got == want


def test_frame_jacobian_int_columns_equal_qi_columns():
    # the oracle ranks int columns; at the same blocks as QI they are equal
    for model in CLOSED_FORM_GRID:
        for s in range(1, model.max_rank + 1):
            for block in _frame_blocks(model, s):
                got = _chart_jacobian_columns(model, block)
                assert all(type(x) is int for col in got for x in col)
                assert got == _chart_jacobian_columns(model, [QI(x) for x in block])


def test_stratum_dimension_ranks_without_gaussian_planes():
    # cost pin: no Z[i] elimination and no plane encoding on the oracle's path
    watched = {linalg._eliminate.__code__, scalars.to_plane.__code__}
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            seen.add(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for sel in ("sym:4", "mat:3,5", "skew:7", "exc27"):
            model = parse_model(sel)
            for s in range(1, model.max_rank + 1):
                stratum_dimension(model, s)
    finally:
        sys.setprofile(previous)
    assert not seen


def coords_vector(point: StratumPoint) -> list:
    """Flatten model coordinates into ambient_dim independent QI entries, in
    the order of the chart's Jacobian columns."""
    model = point.model
    if model.kind == "sym":
        r = model.params[0]
        return [point.coords[i][j] for i in range(r) for j in range(i, r)]
    if model.kind == "mat":
        return [x for row in point.coords for x in row]
    if model.kind == "skew":
        n = model.params[0]
        return [point.coords[i][j] for i in range(n) for j in range(i + 1, n)]
    x = point.coords
    out = [x.entry(i, i).scalar_part() for i in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        out.extend(x.entry(i, j).coeffs)
    return out


def _symmetric_difference_columns(model, block):
    # (F(p + e_t) - F(p - e_t)) / 2 is exactly DF(p)e_t for a quadratic chart
    cols = []
    for t in range(len(block)):
        plus, minus = list(block), list(block)
        plus[t] = block[t] + 1
        minus[t] = block[t] - 1
        fp = coords_vector(chart_point(model, plus))
        fm = coords_vector(chart_point(model, minus))
        cols.append([(a - b) * HALF for a, b in zip(fp, fm)])
    return cols


@pytest.mark.parametrize("sel", ["sym:1", "sym:4", "mat:1,4", "mat:4,1", "mat:3,5",
                                 "mat:4,4", "skew:2", "skew:6", "skew:7", "exc27"])
def test_closed_form_jacobian_matches_symmetric_difference(sel):
    model = parse_model(sel)
    for t in range(12):
        rng = make_rng("t-jacobian", sel, t)
        block = random_qi_vector(rng, chart_param_count(model), 5)
        got = _chart_jacobian_columns(model, block)
        assert got == _symmetric_difference_columns(model, block)


def test_stratum_dimension_cost_limit():
    # every Scorza family up to k = 6 fits; the largest is skew:15 at s = 7
    cells = {}
    for k in range(2, 7):
        for e in catalog_scorza(k):
            model = parse_model(e.p_model)
            cells[e.p_model] = (model.max_rank * chart_param_count(model)
                                * model.ambient_dim)
    assert max(cells.values()) == cells["skew:15"] == 210 * 105 <= MAX_JACOBIAN_CELLS
    # rejected before any column is built, so at once
    start = time.perf_counter()
    for model, s in ((mat_model(40, 40), 40), (mat_model(40, 40), 1), (skew_model(16), 8)):
        with pytest.raises(InputError, match="Jacobian"):
            stratum_dimension(model, s)
    with pytest.raises(InputError, match="Jacobian"):
        defects(skew_model(16))
    assert time.perf_counter() - start < 1.0


def test_chart_quadratic_consistency():
    # chart evaluations must satisfy the model symmetries and rank bound
    for model in ALL_MODELS:
        n = chart_param_count(model)
        rng = make_rng("t-chart", model.selector())
        params = random_qi_vector(rng, n, 5)
        p = chart_point(model, params)
        assert rank_of(p) <= 1
        assert len(coords_vector(p)) == model.ambient_dim
    with pytest.raises(InputError):
        chart_point(sym_model(3), [QI(1)])


def test_defects_scorza_conditions():
    d = defects(sym_model(3))
    assert (d.deltas, d.k0, d.scorza_ok) == ((1, 2), 2, True)
    d = defects(mat_model(3, 5))
    assert (d.deltas, d.k0, d.scorza_ok) == ((2, 4), 2, False)
    assert d.k0 + (5 - 3) // 2 == d.dim_x // d.deltas[0] == 3
    d = defects(mat_model(3, 4))
    assert d.scorza_ok
    d = defects(mat_model(3, 6))
    assert not d.scorza_ok
    assert d.k0 + (6 - 3) // 2 == d.dim_x // d.deltas[0]
    d = defects(EXC27)
    assert (d.deltas, d.k0, d.scorza_ok) == ((8, 16), 2, True)
    with pytest.raises(InputError):
        defects(sym_model(1))


# points that random draws do not reach, each with the sha256 of its pieces'
# JSON, ranks included: a zero diagonal (the e_i + e_j pivot), a first
# nonzero entry below row 0, a single row, and the smallest skew model
PEEL_POINTS = {
    "sym:3": ([[0, 1, 2], [1, 0, 3], [2, 3, 0]],
              "0db7fcb79c3628166a8cabce01e5f0dc3dde568f00d3b4f392cb44b1962c011e"),
    "mat:4,1": ([[0], [0], [2], [5]],
                "d5b77bcf1c6a3fa0ede4bdbec7a92bcbd2943c53750ed087fd1d77852c3badf7"),
    "mat:1,4": ([[0, 3, 0, -1]],
                "58ad8510a58f775233398519edd1bae5e5598cfcee4fb031a924b8349f4af3c0"),
    "skew:2": ([[0, 4], [-4, 0]],
               "05324b27ef9e71c55f78f27e2671035c554dcc86c15efc24b93d3c263ac9d1e4"),
}


def _peel_exactly(p: StratumPoint) -> list:
    pieces = peel_rank_one(p)
    assert len(pieces) == rank_of(p)
    total = zero_point(p.model)
    for piece in pieces:
        assert rank_of(piece) == 1
        total = total + piece
    assert total == p
    return pieces


@pytest.mark.parametrize("sel", ["sym:4", "mat:3,5", "skew:6", *PEEL_POINTS])
def test_peeling_reconstructs_exactly(sel):
    model = parse_model(sel)
    for k in range(model.max_rank):
        for t in range(8):
            _peel_exactly(sample_secant(model, k, seed=derive_seed("t-peel", sel, k, t)))
    if sel in PEEL_POINTS:
        rows, digest = PEEL_POINTS[sel]
        pieces = _peel_exactly(StratumPoint(model, [[QI(x) for x in row] for row in rows]))
        pieces_json = json.dumps([piece.to_json() for piece in pieces])
        assert hashlib.sha256(pieces_json.encode()).hexdigest() == digest


def test_peeling_unsupported_for_exc27():
    with pytest.raises(UnsupportedError):
        peel_rank_one(sample_rank_one(EXC27, seed=5))


def test_point_validation():
    with pytest.raises(InputError):
        StratumPoint(sym_model(2), [[QI(0), QI(1)], [QI(2), QI(0)]])
    with pytest.raises(InputError):
        StratumPoint(skew_model(2), [[QI(0), QI(1)], [QI(1), QI(0)]])
    with pytest.raises(InputError):
        StratumPoint(mat_model(2, 3), linalg.zeros(3, 2))
    with pytest.raises(TypeError):  # only rank_of writes a rank
        StratumPoint(sym_model(2), linalg.zeros(2, 2), cached_rank=0)


def test_json_round_trip():
    for model in ALL_MODELS:
        p = sample_secant(model, 1, seed=42)
        rank_of(p)
        data = p.to_json()
        q = StratumPoint.from_json(data)
        assert q == p
        assert q.cached_rank is None and rank_of(q) == p.cached_rank
        assert data["model"]["kind"] == model.kind


def test_from_json_computes_the_rank():
    data = StratumPoint(sym_model(2), [[QI(1), QI(0)], [QI(0), QI(1)]]).to_json()
    assert rank_of(StratumPoint.from_json({**data, "rank": 0})) == 2
