import hashlib
import json
import time
from fractions import Fraction
from itertools import combinations

import pytest

from scorza import linalg, scalars, verify
from scorza import strata as st
from scorza.catalog import catalog_scorza
from scorza.errors import InputError, UnsupportedError
from scorza.cayley_dickson import CDElement, cd_scalar, reference_multiply
from scorza.jordan import from_upper, generic_det, jordan_rank3, sharp, trace_form
from scorza.sampling import derive_seed, make_rng, random_qi_vector
from scorza.scalars import HALF, QI, QI_ZERO
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
from scorza.strata import _chart_plane, _frame_blocks, _frame_jacobian

ALL_MODELS = [sym_model(3), mat_model(3, 3), mat_model(3, 5), skew_model(6),
              skew_model(7), EXC27]


def zeros(rows: int, cols: int) -> list:
    return [[QI_ZERO] * cols for _ in range(rows)]


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
    m = zeros(6, 6)
    for i, j in ((0, 1), (2, 3)):
        m[i][j] = QI(1)
        m[j][i] = QI(-1)
    assert rank_of(StratumPoint(skew_model(6), m)) == 2
    e11 = zeros(3, 3)
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
    chart = st._chart_plane

    def rank_two(model, den, flat):
        d, a = chart(model, den, flat)
        _, b = chart(model, den, flat[2:] + flat[:2])
        return d, [p + q for p, q in zip(a, b)]

    monkeypatch.setattr(st, "_chart_plane", rank_two)
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


# sha256 of the JSON list of random_point(model, seed) for seeds 0..5
RANDOM_POINT_DIGESTS = {
    "sym:1": "f1151b29ee5a0de41776e63bff80fb5b9553e7329e79aa2f6fe6bccbfee1789e",
    "sym:4": "04adcd852fc5a07463438adda658b9976f0e453b44a2fe10d122b1f399451c41",
    "mat:1,4": "335d839d32768c078d6268c4e6bd2799891971f9b4e76354d88b6415640b6a7f",
    "mat:3,5": "771c8a61e767b6957f8b686ac5b75adfc440124621ae4c7c12604847973dd75e",
    "skew:2": "1c5dc8a9a5cc282d6561d3ab8b2ebae50dc90e15349865bc8c17a96975594858",
    "skew:7": "3bb9ebdd55a7d6d3b7770477a8a9c9226dd2b0e03ba25d398435b21f6887dc32",
    "exc27": "a1e7862fb9ec6d1147f22174dcb66b29ef71de04a7cfe844200df8e30c2637ca",
}


@pytest.mark.parametrize("sel", RANDOM_POINT_DIGESTS)
def test_random_points_pinned(sel):
    points = [random_point(parse_model(sel), seed).to_json() for seed in range(6)]
    assert hashlib.sha256(json.dumps(points).encode()).hexdigest() == RANDOM_POINT_DIGESTS[sel]


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


@pytest.mark.parametrize("model", CLOSED_FORM_GRID, ids=str)
def test_packed_frame_jacobian_matches_symmetric_difference(model):
    # each block's columns of the one-evaluation-per-block Jacobian are the
    # chart's symmetric differences at that block, on every frame of the grid
    m = chart_param_count(model)
    blocks = _frame_blocks(model, model.max_rank)
    columns = [list(col) for col in zip(*_frame_jacobian(model, blocks))]
    assert all(type(x) is int for col in columns for x in col)
    for k, block in enumerate(blocks):
        want = _symmetric_difference_columns(model, [QI(x) for x in block])
        assert columns[k * m:(k + 1) * m] == want


def test_defects_dims_equal_stratum_dimensions():
    # the one elimination of defects reads the same dims as every stratum's own
    for model in CLOSED_FORM_GRID:
        if model.max_rank >= 2:
            assert defects(model).secant_proj_dims == tuple(
                stratum_dimension(model, s)[1] for s in range(1, model.max_rank + 1))


def test_defects_charts_each_block_once_and_eliminates_once(count_calls):
    # cost pin: one chart evaluation per frame block and one int elimination
    for sel in ("sym:4", "mat:3,5", "skew:7", "skew:15", "exc27"):
        model = parse_model(sel)
        for code, want in ((_chart_plane.__code__, model.max_rank),
                           (linalg.int_ranks.__code__, 1)):
            _, calls = count_calls(lambda: defects(model), lambda frame: frame.f_code is code)
            assert calls == want, (sel, code.co_name)


def test_stratum_dimension_ranks_without_gaussian_planes(count_calls):
    # cost pin: no Z[i] elimination and no plane encoding on the oracle's path
    watched = {linalg._eliminate.__code__, scalars.to_plane.__code__}

    def oracle_runs():
        for sel in ("sym:4", "mat:3,5", "skew:7", "exc27"):
            model = parse_model(sel)
            for s in range(1, model.max_rank + 1):
                stratum_dimension(model, s)

    _, calls = count_calls(oracle_runs, lambda frame: frame.f_code in watched)
    assert calls == 0


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


# --- the plane chart and the plane sum against a QI oracle ----------------------

CHART_MODELS = ["sym:1", "sym:4", "mat:1,4", "mat:4,1", "mat:3,5", "skew:2", "skew:7", "exc27"]


def _oracle_outer(u: list, v: list) -> list:
    return [[x * y for y in v] for x in u]


def _oracle_chart(model, params) -> StratumPoint:
    """The rank-one chart built term by term: QI outer products on the
    matrix models, and on exc27 v v* from CDElement entries with each
    v_i conj(v_j) by the doubling recursion and the lower triangle
    conjugated by `from_upper`."""
    if model.kind == "exc27":
        vec = [CDElement(3, "Qi", params[0:8]), CDElement(3, "Qi", params[8:16]),
               cd_scalar(params[16], 3, "Qi")]
        upper = [[reference_multiply(vec[i], vec[j].conjugate()) for j in range(i, 3)]
                 for i in range(3)]
        return StratumPoint(model, from_upper("O_C", upper))
    if model.kind == "sym":
        return StratumPoint(model, _oracle_outer(params, params))
    n = model.params[0]
    v, w = params[:n], params[n:]
    if model.kind == "mat":
        return StratumPoint(model, _oracle_outer(v, w))
    return StratumPoint(model, linalg.mat_add(_oracle_outer(v, w),
                                          linalg.mat_neg(_oracle_outer(w, v))))


def _entries(point: StratumPoint) -> list:
    if point.model.kind == "exc27":
        return [e for row in point.coords.entries for e in row]
    return [x for row in point.coords for x in row]


def _chart_parameter_sets(model, t: int) -> dict:
    m = chart_param_count(model)
    rng = make_rng("t-oracle", model.selector(), t)
    big = [2**61 - 1, 3**40, 10**30 + 7, 97]  # mixed, mostly coprime denominators
    return {
        "random": random_qi_vector(rng, m, 5),
        "zero": [QI_ZERO] * m,
        "real": random_qi_vector(rng, m, 9, real=True),
        "imaginary": [QI(0, x.re) for x in random_qi_vector(rng, m, 9, real=True)],
        "large": [QI(Fraction((-1) ** k * (2**70 + 11 * k + t), big[k % 4]),
                     Fraction(3**k - 5 * t, big[(k + t + 1) % 4]))
                  for k in range(m)],
    }


@pytest.mark.parametrize("sel", CHART_MODELS)
def test_chart_point_equals_the_qi_oracle(sel):
    model = parse_model(sel)
    for t in range(4):
        for name, params in _chart_parameter_sets(model, t).items():
            got, want = chart_point(model, params), _oracle_chart(model, params)
            assert _entries(got) == _entries(want), (name, t)


def _oracle_secant(model, k: int, seed: int, height: int) -> StratumPoint:
    """The sum, one summand at a time, of k + 1 oracle charts at the samplers'
    draws; a zero chart is redrawn from the same rng."""
    total = zero_point(model)
    for i in range(k + 1):
        rng = make_rng(derive_seed(seed, "secant", i), "rank1", model.selector(), height)
        point = zero_point(model)
        while point.is_zero():
            point = _oracle_chart(model, random_qi_vector(rng, chart_param_count(model), height))
        total = total + point
    return total


@pytest.mark.parametrize("sel, height", [*((sel, 10) for sel in CHART_MODELS),
                                         ("sym:1", 1), ("skew:2", 1), ("mat:1,4", 1)])
def test_secant_samples_equal_the_qi_sum_of_oracle_charts(sel, height):
    # height 1 draws zero charts often, so the redraw rule is exercised too
    model = parse_model(sel)
    for k in range(4):
        for seed in range(20):
            got = sample_secant(model, k, seed, height)
            want = _oracle_secant(model, k, seed, height)
            assert got == want and got.to_json() == want.to_json(), (k, seed)


@pytest.mark.parametrize("sel", ["sym:3", "mat:3,5", "skew:7", "exc27"])
def test_secant_samples_are_ranked_on_their_plane(sel, count_calls):
    # cost pin: the sampler hands its plane to the point and rank_of
    # eliminates that plane, with no QI round trip
    watched = {scalars.from_plane.__code__, scalars.to_plane.__code__}
    model = parse_model(sel)
    rank, calls = count_calls(lambda: rank_of(sample_secant(model, 2, 5)),
                              lambda frame: frame.f_code in watched)
    assert calls == 0 and rank == 3


@pytest.mark.parametrize("sel", ["sym:3", "mat:3,5", "skew:7", "exc27"])
def test_secant_samples_do_no_qi_arithmetic(sel, count_calls):
    # the draw, the chart and the sum run on ints; QI is only built at the end
    watched = {getattr(QI, name).__code__ for name in ("__add__", "__sub__", "__mul__", "__neg__")}
    model = parse_model(sel)
    point, calls = count_calls(lambda: sample_secant(model, 2, 5),
                               lambda frame: frame.f_code in watched)
    assert calls == 0 and rank_of(point) == 3


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
# JSON, each with its "rank" added: a zero diagonal (the e_i + e_j pivot), a first
# nonzero entry below row 0, a single row, the smallest skew model, and an exc27
# point (its upper triangle, each entry by its 8 octonion coefficients) with a
# zero diagonal and x_01 = e_1, to which every candidate E_ii or
# (e_i + e_j)(e_i + e_j)* pairs to zero: the pivot is a candidate with a unit
# octonion off the diagonal
_O, _E1 = [0] * 8, [0, 1, 0, 0, 0, 0, 0, 0]
PEEL_POINTS = {
    "sym:3": ([[0, 1, 2], [1, 0, 3], [2, 3, 0]],
              "0db7fcb79c3628166a8cabce01e5f0dc3dde568f00d3b4f392cb44b1962c011e"),
    "mat:4,1": ([[0], [0], [2], [5]],
                "d5b77bcf1c6a3fa0ede4bdbec7a92bcbd2943c53750ed087fd1d77852c3badf7"),
    "mat:1,4": ([[0, 3, 0, -1]],
                "58ad8510a58f775233398519edd1bae5e5598cfcee4fb031a924b8349f4af3c0"),
    "skew:2": ([[0, 4], [-4, 0]],
               "05324b27ef9e71c55f78f27e2671035c554dcc86c15efc24b93d3c263ac9d1e4"),
    "exc27": ([[_O, _E1, _O], [_O, _O], [_O]],
              "4680c96e3015c4aebd62b028833cede0cfab40d01ff10ff820dea83323baa178"),
}


def _peel_point(model, rows) -> StratumPoint:
    if model.kind == "exc27":
        upper = [[CDElement(3, "Qi", [QI(v) for v in e]) for e in row] for row in rows]
        return StratumPoint(model, from_upper("O_C", upper))
    return StratumPoint(model, [[QI(x) for x in row] for row in rows])


def _peel_exactly(p: StratumPoint) -> list:
    pieces = peel_rank_one(p)
    assert len(pieces) == rank_of(p)
    total = zero_point(p.model)
    for piece in pieces:
        assert rank_of(piece) == 1
        total = total + piece
    assert total == p
    return pieces


def _oracle_pairing(x: StratumPoint, c: StratumPoint) -> QI:
    """<x, c> on QI: tr(c^t x), halved for skew; the trace form on exc27."""
    if x.model.kind == "exc27":
        return trace_form(x.coords, c.coords)
    t = sum((u * v for cr, xr in zip(c.coords, x.coords) for u, v in zip(cr, xr)), QI_ZERO)
    return t / 2 if x.model.kind == "skew" else t


@pytest.mark.parametrize("sel", CHART_MODELS)
def test_plane_pairing_equals_the_qi_pairing(sel):
    # every candidate of the peeling scan, paired on the plane with random
    # points and secant samples, against the pairing on QI
    model = parse_model(sel)
    m = chart_param_count(model)
    xs = [random_point(model, seed) for seed in range(3)]
    xs += [sample_secant(model, k, seed=k) for k in range(model.max_rank)]
    for ones in [*zip(range(m), range(m)), *combinations(range(m), 2)]:
        c = chart_point(model, [QI(int(t in ones)) for t in range(m)])
        assert c.den == 1 and not any(c.flat[1::2])  # real ints at 0/1 parameters
        nonzero = [(k, v) for k, v in enumerate(c.flat) if v]
        for x in xs:
            assert (st._pairing(x, nonzero) or QI_ZERO) == _oracle_pairing(x, c), (ones, x)


@pytest.mark.parametrize("sel", ["sym:4", "mat:3,5", "skew:6", *PEEL_POINTS])
def test_peeling_builds_no_candidate_point(sel, count_calls):
    # cost pin: candidates stay ints, and a piece builds two points on a
    # matrix model: the piece and the remainder; exc27 also builds the chosen
    # candidate, for U_x(c) on Jordan planes
    model = parse_model(sel)
    points = [sample_secant(model, model.max_rank - 1, seed=1)]
    if sel in PEEL_POINTS:
        points.append(_peel_point(model, PEEL_POINTS[sel][0]))
    built = 3 if model.kind == "exc27" else 2
    for p in points:
        for code, per_piece in ((chart_point.__code__, 0), (st._validate_coords.__code__, built)):
            pieces, calls = count_calls(lambda: peel_rank_one(p),
                                        lambda frame: frame.f_code is code)
            assert pieces and calls == per_piece * len(pieces), code.co_name


@pytest.mark.parametrize("sel", ["sym:4", "mat:3,5", "mat:4,4", "skew:6", "skew:7"])
def test_matrix_points_are_ranked_evaluated_and_peeled_on_their_plane(sel, count_calls):
    # cost pin: rank, invariant and peeling of a matrix point read its plane
    # and build no QI matrix
    watched = {StratumPoint.coords.fget.__code__,
               *(getattr(linalg, name).__code__ for name in ("mat_chain", "det", "pfaffian"))}
    model = parse_model(sel)
    ops = [rank_of, peel_rank_one, *([relative_invariant] if model.regular else [])]
    for k in range(model.max_rank):
        p = sample_secant(model, k, seed=k)
        for op in ops:
            _, calls = count_calls(lambda: op(p), lambda frame: frame.f_code in watched)
            assert calls == 0, (op.__name__, k)


@pytest.mark.parametrize("sel", ["sym:4", "mat:3,5", "skew:6", *PEEL_POINTS])
def test_peeling_reconstructs_exactly(sel):
    model = parse_model(sel)
    for k in range(model.max_rank):
        for t in range(8):
            _peel_exactly(sample_secant(model, k, seed=derive_seed("t-peel", sel, k, t)))
    if sel in PEEL_POINTS:
        rows, digest = PEEL_POINTS[sel]
        pieces = _peel_exactly(_peel_point(model, rows))
        pieces_json = json.dumps([{**piece.to_json(), "rank": rank_of(piece)} for piece in pieces])
        assert hashlib.sha256(pieces_json.encode()).hexdigest() == digest


def test_peeling_stops_at_max_rank_pieces(monkeypatch):
    # a wrong step that lowers no rank (here: every piece is zero) trips the guard
    steps = []

    def no_progress(x, c, s):
        steps.append(c)
        return zero_point(x.model)

    monkeypatch.setattr(st, "_quadratic_map", no_progress)
    with pytest.raises(RuntimeError, match="failed to terminate"):
        peel_rank_one(sample_secant(sym_model(3), 2, seed=7))
    assert len(steps) == 3


@pytest.mark.parametrize("row, sels", [
    ("ascending_closure_chain", ("sym:3", "mat:3,3", "mat:3,5", "skew:6", "skew:7", "exc27")),
    ("rank_one_peeling_reconstructs", ("sym:4", "mat:3,5", "skew:6", "exc27")),
])
def test_secant_rows_draw_every_model_at_every_secant_index(monkeypatch, row, sels):
    drawn = set()

    def recorded(model, k, seed, height=10):
        drawn.add((model.selector(), k))
        return sample_secant(model, k, seed, height)

    monkeypatch.setattr(st, "sample_secant", recorded)
    check = next(c for c in verify.CHECKS["strata"] if c.name == row)
    assert check.run(100, 20_260_810).ok
    assert drawn == {(sel, k) for sel in sels for k in range(parse_model(sel).max_rank)}


def test_point_validation():
    with pytest.raises(InputError):
        StratumPoint(sym_model(2), [[QI(0), QI(1)], [QI(2), QI(0)]])
    with pytest.raises(InputError):
        StratumPoint(skew_model(2), [[QI(0), QI(1)], [QI(1), QI(0)]])
    with pytest.raises(InputError, match="not symmetric"):  # the imaginary parts differ
        StratumPoint(sym_model(2), [[QI(0), QI(1, 1)], [QI(1, -1), QI(0)]])
    with pytest.raises(InputError, match="not skew-symmetric"):  # a nonzero diagonal
        StratumPoint(skew_model(2), [[QI(0), QI(1)], [QI(-1), QI(0, 1)]])
    with pytest.raises(InputError):
        StratumPoint(mat_model(2, 3), zeros(3, 2))
    with pytest.raises(TypeError):  # a point keeps no rank
        StratumPoint(sym_model(2), zeros(2, 2), cached_rank=0)
    with pytest.raises(AttributeError):  # nor new coordinates or a new plane
        zero_point(sym_model(2)).coords = zeros(2, 2)
    with pytest.raises(AttributeError):
        zero_point(sym_model(2)).flat = (1,) * 8


def test_points_add_and_subtract_within_one_model():
    for model in ALL_MODELS:
        p, q = sample_secant(model, 1, seed=3), sample_secant(model, 0, seed=4)
        assert (p + q) - q == p and p - p == zero_point(model)
    other = zero_point(mat_model(3, 3))
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(InputError):
            op(zero_point(sym_model(3)), other)


def test_json_round_trip():
    for model in ALL_MODELS:
        p = sample_secant(model, 1, seed=42)
        data = p.to_json()
        q = StratumPoint.from_json(data)
        assert q == p and rank_of(q) == rank_of(p)
        assert data["model"]["kind"] == model.kind


def test_to_json_is_the_same_before_and_after_rank_of():
    for model in ALL_MODELS:
        p = sample_secant(model, 1, seed=7)
        before = p.to_json()
        assert rank_of(p) >= 1 and "rank" not in before
        assert p.to_json() == before


def test_from_json_computes_the_rank():
    data = StratumPoint(sym_model(2), [[QI(1), QI(0)], [QI(0), QI(1)]]).to_json()
    assert rank_of(StratumPoint.from_json({**data, "rank": 0})) == 2
