"""The four p-space models and their Jordan-rank stratification.

Models: complex symmetric r x r matrices, rectangular q x p matrices,
skew n x n matrices, and the 27-dimensional hermitian 3 x 3 model over the
complexified octonions. Rank is exact matrix rank (halved for skew), the
relative invariant is the determinant / Pfaffian / cubic norm, and a
stratum's dimension is the exact Jacobian rank of the s-fold rank-one chart
sum at parameters summing to the frame point, where it equals the rank-s
orbit's tangent space. Every rank-one chart is quadratic, F(p) = B(p, p),
so its Jacobian is written in closed form, DF(p)e = B(e, p) + B(p, e),
without evaluating the chart. The frame parameters are 0s and 1s, so that
Jacobian is an integer matrix (entries 0, +-1, +-2), built as ints and
ranked by linalg.int_rank; QI matrices (rank_of, the relative invariant)
go through linalg's Gaussian-integer elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import linalg
from .cayley_dickson import _TABLES, CDElement, cd_scalar
from .errors import InputError, UnsupportedError
from .jordan import (
    JordanElement,
    generic_det,
    jordan_rank3,
    jordan_zero,
    random_hermitian,
    rank_one_from_vector,
)
from .sampling import derive_seed, make_rng, random_qi, random_qi_vector, random_square
from .scalars import QI, QI_ZERO, json_int

# model kind -> the names of its parameters, in selector and JSON order
_PARAMS = {"sym": ("r",), "mat": ("q", "p"), "skew": ("n",), "exc27": ()}
MODEL_GRAMMAR = "sym:R | mat:Q,P | skew:N | exc27"

_RANK1_RETRIES = 32

# Largest Jacobian the dimension oracle will rank, in cells: s chart
# blocks of chart_param_count rows by ambient_dim columns. It admits every
# Scorza family of catalog_scorza(k) for k <= 6 (the largest is skew:15 at
# s = 7, 210 x 105 = 22,050 cells, built and ranked as ints at the frame
# point in 4-5 ms on one Xeon vCPU under Python 3.11); skew:16 at s = 8
# (k = 7) already needs 30,720. The same budget bounds a model's ambient_dim
# and a dual-pair case's matrix size; every other step on a point (rank,
# det, the skew-elimination Pfaffian, the cubic norm) is polynomial in its
# size, so that no command starts work whose cost has no bound.
MAX_JACOBIAN_CELLS = 25_000


def check_cells(what: str, cells: int):
    """Raise InputError when `what` has more than MAX_JACOBIAN_CELLS cells."""
    if cells > MAX_JACOBIAN_CELLS:
        raise InputError(f"{what} has {cells} cells; the limit is {MAX_JACOBIAN_CELLS}")


@dataclass(frozen=True)
class PSpaceModel:
    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _PARAMS:
            raise InputError(f"unknown model kind {self.kind!r}; expected {MODEL_GRAMMAR}")
        expected = len(_PARAMS[self.kind])
        if len(self.params) != expected:
            raise InputError(f"model {self.kind} takes {expected} parameter(s)")
        if any(p < 1 for p in self.params):
            raise InputError("model parameters must be positive")
        if self.kind == "skew" and self.params[0] < 2:
            raise InputError("skew model needs n >= 2")
        check_cells(f"the coordinate vector of {self}", self.ambient_dim)

    @property
    def max_rank(self) -> int:
        if self.kind == "sym":
            return self.params[0]
        if self.kind == "mat":
            return min(self.params)
        if self.kind == "skew":
            return self.params[0] // 2
        return 3

    @property
    def ambient_dim(self) -> int:
        """Complex dimension of the model as a vector space."""
        if self.kind == "sym":
            r = self.params[0]
            return r * (r + 1) // 2
        if self.kind == "mat":
            q, p = self.params
            return q * p
        if self.kind == "skew":
            n = self.params[0]
            return n * (n - 1) // 2
        return 27

    @property
    def ambient_proj_dim(self) -> int:
        return self.ambient_dim - 1

    @property
    def regular(self) -> bool:
        """Whether the model carries a relative invariant of degree max_rank."""
        if self.kind == "mat":
            return self.params[0] == self.params[1]
        if self.kind == "skew":
            return self.params[0] % 2 == 0
        return True

    def selector(self) -> str:
        if self.kind == "exc27":
            return "exc27"
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"

    def __str__(self):
        return self.selector()


def sym_model(r: int) -> PSpaceModel:
    return PSpaceModel("sym", (r,))


def mat_model(q: int, p: int) -> PSpaceModel:
    return PSpaceModel("mat", (q, p))


def skew_model(n: int) -> PSpaceModel:
    return PSpaceModel("skew", (n,))


EXC27 = PSpaceModel("exc27", ())


def split_selector(selector: str, what: str, grammar: str) -> tuple[str, tuple]:
    """"kind:a,b" -> ("kind", (a, b)); a parameter that is not an integer
    raises InputError("bad <what> selector ...; expected <grammar>")."""
    kind, _, args = selector.strip().lower().partition(":")
    try:
        return kind, tuple(int(a) for a in args.split(",")) if args else ()
    except ValueError as exc:
        raise InputError(f"bad {what} selector {selector!r}; expected {grammar}") from exc


def parse_model(selector: str) -> PSpaceModel:
    """Parse sym:R | mat:Q,P | skew:N | exc27."""
    return PSpaceModel(*split_selector(selector, "model", MODEL_GRAMMAR))


@dataclass
class StratumPoint:
    model: PSpaceModel
    coords: object  # QI matrix, or JordanElement for exc27
    cached_rank: int | None = field(default=None, init=False)  # written by rank_of alone

    def __post_init__(self):
        _validate_coords(self.model, self.coords)

    def is_zero(self) -> bool:
        if self.model.kind == "exc27":
            return self.coords.is_zero()
        return linalg.is_zero_matrix(self.coords)

    def __add__(self, other: "StratumPoint") -> "StratumPoint":
        if self.model != other.model:
            raise InputError("cannot add points of different models")
        if self.model.kind == "exc27":
            return StratumPoint(self.model, self.coords + other.coords)
        return StratumPoint(self.model, linalg.mat_add(self.coords, other.coords))

    def __eq__(self, other):
        if not isinstance(other, StratumPoint) or self.model != other.model:
            return False
        if self.model.kind == "exc27":
            return self.coords == other.coords
        return linalg.mat_eq(self.coords, other.coords)

    def to_json(self) -> dict:
        kind = self.model.kind
        model_obj = {"kind": kind, **dict(zip(_PARAMS[kind], self.model.params))}
        if kind == "exc27":
            coords = self.coords.to_json()
        else:
            coords = linalg.matrix_to_json(self.coords)
        out = {"model": model_obj, "coords": coords}
        if self.cached_rank is not None:
            out["rank"] = self.cached_rank
        return out

    @staticmethod
    def from_json(data: dict) -> "StratumPoint":
        """Inverse of to_json; a missing or ill-typed field (an integer field
        must be a JSON integer, not a float, bool or string), or a "rank"
        outside 0..max_rank, raises InputError. The rank is not trusted:
        `rank_of` computes it from the coordinates."""
        try:
            mobj = data["model"]
            kind = mobj["kind"]
            model = PSpaceModel(kind, tuple(json_int(mobj[name], name)
                                            for name in _PARAMS.get(kind, ())))
            if kind == "exc27":
                coords = JordanElement.from_json(data["coords"])
            else:
                coords = linalg.matrix_from_json(data["coords"])
            if "rank" in data and not 0 <= json_int(data["rank"], "rank") <= model.max_rank:
                raise InputError(f"rank must be in 0..{model.max_rank}, got {data['rank']!r}")
        except InputError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise InputError(
                f"malformed stratum point JSON ({type(exc).__name__}: {exc})"
            ) from exc
        return StratumPoint(model, coords)


def _validate_coords(model: PSpaceModel, coords):
    if model.kind == "exc27":
        if not isinstance(coords, JordanElement) or coords.algebra != "O_C" or coords.n != 3:
            raise InputError("exc27 coordinates must be a 3x3 hermitian O_C element")
        return
    shape = linalg.shape(coords)
    if any(len(row) != shape[1] for row in coords):
        raise InputError("coordinate rows have different lengths")
    rows, cols = _coords_shape(model)
    if shape != (rows, cols):
        raise InputError(f"expected {rows}x{cols} coordinates")
    if model.kind == "sym" and any(
        coords[i][j] != coords[j][i] for i in range(rows) for j in range(i + 1, cols)
    ):
        raise InputError("coordinates are not symmetric")
    if model.kind == "skew" and not linalg.is_skew(coords):
        raise InputError("coordinates are not skew-symmetric")


def _coords_shape(model: PSpaceModel) -> tuple[int, int]:
    """(rows, cols) of a matrix model's coordinates: r x r, q x p or n x n."""
    return model.params[0], model.params[-1]


def zero_point(model: PSpaceModel) -> StratumPoint:
    if model.kind == "exc27":
        return StratumPoint(model, jordan_zero("O_C", 3))
    return StratumPoint(model, linalg.zeros(*_coords_shape(model)))


# --- rank and membership ------------------------------------------------------

def rank_of(point: StratumPoint) -> int:
    """Jordan rank: matrix rank for sym/mat, half of it for skew, degree-3
    rank for the exceptional model."""
    if point.cached_rank is not None:
        return point.cached_rank
    if point.model.kind == "exc27":
        r = jordan_rank3(point.coords)
    else:
        mr = linalg.rank(point.coords)
        if point.model.kind == "skew":
            if mr % 2:
                raise RuntimeError("skew matrix with odd rank; input not exact")
            r = mr // 2
        else:
            r = mr
    point.cached_rank = r
    return r


def closure_membership(point: StratumPoint, s: int) -> bool:
    """Whether the point lies in the closure of the rank-s stratum."""
    return rank_of(point) <= s


# --- sampling -------------------------------------------------------------------

def sample_rank_one(model: PSpaceModel, seed: int, height: int = 10) -> StratumPoint:
    """A random rank-1 point of the model: chart_point at a random parameter
    vector, for every model. The chart's image lies in the rank-1 cone and
    is dense in it, exc27 included; only a zero draw is redrawn, up to
    _RANK1_RETRIES times."""
    rng = make_rng(seed, "rank1", model.selector(), height)
    for _ in range(_RANK1_RETRIES):
        point = chart_point(model, random_qi_vector(rng, chart_param_count(model), height))
        if not point.is_zero():
            return point
    raise RuntimeError(f"could not sample a rank-1 point of {model} (construction bug?)")


def sample_secant(model: PSpaceModel, k: int, seed: int, height: int = 10) -> StratumPoint:
    """Sum of k+1 independent rank-1 samples; Jordan rank <= min(k+1, max).
    A summand costs the cells of its coordinate matrix (r^2, q p, n^2 or 27);
    over MAX_JACOBIAN_CELLS in all is rejected with InputError up front."""
    if k < 0:
        raise InputError("secant index k must be >= 0")
    cells = 27 if model.kind == "exc27" else math.prod(_coords_shape(model))
    check_cells(f"a sum of {k + 1} rank-1 samples of {model.selector()}", (k + 1) * cells)
    total = None
    for i in range(k + 1):
        point = sample_rank_one(model, derive_seed(seed, "secant", i), height)
        total = point if total is None else total + point
    return total


def random_point(model: PSpaceModel, seed: int, height: int = 10) -> StratumPoint:
    """A random point of the full model (no rank structure imposed)."""
    rng = make_rng(seed, "full", model.selector(), height)

    def draw():
        return random_qi(rng, height)

    if model.kind == "sym":
        return StratumPoint(model, random_square(model.params[0], draw, draw, lambda x: x))
    if model.kind == "mat":
        q, p = model.params
        return StratumPoint(model, [random_qi_vector(rng, p, height) for _ in range(q)])
    if model.kind == "skew":
        m = random_square(model.params[0], lambda: QI_ZERO, draw, lambda x: -x)  # skew
        return StratumPoint(model, m)
    return StratumPoint(model, random_hermitian(rng, "O_C", 3, height))


# --- relative invariant --------------------------------------------------------

def relative_invariant(point: StratumPoint) -> QI:
    """Determinant, Pfaffian, or cubic norm; degree = max rank and vanishing
    exactly below it. Defined on the regular models only."""
    model = point.model
    if not model.regular:
        raise UnsupportedError(
            f"model {model} is not regular; no relative invariant of degree max rank"
        )
    if model.kind in ("sym", "mat"):
        return linalg.det(point.coords)
    if model.kind == "skew":
        return linalg.pfaffian(point.coords)
    return generic_det(point.coords)


# --- dimension oracle ------------------------------------------------------------

def chart_param_count(model: PSpaceModel) -> int:
    if model.kind == "sym":
        return model.params[0]
    if model.kind == "mat":
        return model.params[0] + model.params[1]
    if model.kind == "skew":
        return 2 * model.params[0]
    return 17


def _outer(u: list, v: list) -> list:
    return [[x * y for y in v] for x in u]


def chart_point(model: PSpaceModel, params: list) -> StratumPoint:
    """The quadratic rank-one chart: the one definition of a model's rank-one
    point. The dimension oracle differentiates it at the frame point, the
    sampler evaluates it at a random vector, and peeling evaluates it at a
    pivot.

    sym: v -> v v^t; mat: (v, w) -> v w^t; skew: (v, w) -> v w^t - w v^t.
    exc27: (x, y, w) -> v v* with v = (x, y, w 1), x and y full octonion
    coefficient blocks and w a scalar. Any two octonions generate an
    associative subalgebra (Artin), so the image is rank <= 1, and it is
    dense in the 17-dimensional rank-1 cone.
    """
    if len(params) != chart_param_count(model):
        raise InputError("wrong chart parameter count")
    if model.kind == "sym":
        return StratumPoint(model, _outer(params, params))
    if model.kind == "mat":
        q = model.params[0]
        return StratumPoint(model, _outer(params[:q], params[q:]))
    if model.kind == "skew":
        n = model.params[0]
        v, w = params[:n], params[n:]
        return StratumPoint(model, linalg.mat_sub(_outer(v, w), _outer(w, v)))
    x = CDElement(3, "Qi", tuple(params[0:8]))
    y = CDElement(3, "Qi", tuple(params[8:16]))
    w = cd_scalar(params[16], 3, "Qi")
    return StratumPoint(model, rank_one_from_vector("O_C", [x, y, w]))


def _chart_jacobian_columns(model: PSpaceModel, block: list) -> list:
    """Columns DF(p)e_t = B(e_t, p) + B(p, e_t) of the quadratic chart at p,
    one per parameter, each listing the model's independent coordinates:
    the upper triangle (diagonal included) for sym, all entries for mat,
    the strict upper triangle for skew, in row order; for exc27 the three
    diagonal scalars, then the octonion entries (0, 1), (0, 2) and (1, 2).
    Any number type works: ints at the frame point, QI at the random points
    of the tests; an entry that is always zero is the int 0."""
    if model.kind == "sym":
        r = model.params[0]
        cols = []
        for t in range(r):
            col = []
            for i in range(r):
                for j in range(i, r):
                    if i == t:
                        col.append(block[j] + block[j] if j == t else block[j])
                    else:
                        col.append(block[i] if j == t else 0)
            cols.append(col)
        return cols
    if model.kind == "mat":
        q, p = model.params
        v, w = block[:q], block[q:]
        zero_row = [0] * p
        cols = [zero_row * t + w + zero_row * (q - 1 - t) for t in range(q)]
        for t in range(p):
            col = [0] * (q * p)
            col[t::p] = v
            cols.append(col)
        return cols
    if model.kind == "skew":
        n = model.params[0]
        v, w = block[:n], block[n:]
        return [_skew_column(w, t) for t in range(n)] + [
            [-x for x in _skew_column(v, t)] for t in range(n)
        ]
    return _exc27_columns(block)


def _skew_column(u: list, t: int) -> list:
    # entries (i, j), i < j, of e_t u^T - u e_t^T
    n = len(u)
    col = []
    for i in range(n):
        for j in range(i + 1, n):
            if i == t:
                col.append(u[j])
            elif j == t:
                col.append(-u[i])
            else:
                col.append(0)
    return col


def _exc27_columns(block: list) -> list:
    # v = (x, y, w 1) and M_ij = v_i conj(v_j); the coordinate order is
    # M00, M11, M22 (scalar parts), then the octonion blocks M01, M02, M12
    x, y, w = block[0:8], block[8:16], block[16]
    ybar = [y[0]] + [-c for c in y[1:]]
    table = _TABLES[3]
    zero8 = [0] * 8
    cols = []
    for t in range(8):
        # d/dx_t: M00 -> 2 x_t, M01 = x ybar -> e_t ybar, M02 = x w -> w e_t
        m01 = [0] * 8
        for j, (k, sign) in enumerate(table[t]):
            m01[k] = ybar[j] if sign > 0 else -ybar[j]
        m02 = list(zero8)
        m02[t] = w
        cols.append([x[t] + x[t], 0, 0] + m01 + m02 + zero8)
    for t in range(8):
        # d/dy_t: M11 -> 2 y_t, M01 -> x conj(e_t), M12 = y w -> w e_t
        m01 = [0] * 8
        for i in range(8):
            k, sign = table[i][t]
            m01[k] = x[i] if (sign > 0) == (t == 0) else -x[i]
        m12 = list(zero8)
        m12[t] = w
        cols.append([0, y[t] + y[t], 0] + m01 + zero8 + m12)
    # d/dw: M22 = w^2 -> 2 w, M02 -> x, M12 -> y
    cols.append([0, 0, w + w] + zero8 + list(x) + list(y))
    return cols


def _check_jacobian_cells(model: PSpaceModel, s: int):
    rows, cols = s * chart_param_count(model), model.ambient_dim
    check_cells(f"the {rows} x {cols} Jacobian of stratum {s} of {model}", rows * cols)


def _frame_blocks(model: PSpaceModel, s: int) -> list:
    """s chart parameter blocks, as 0/1 ints, whose charts sum to the frame
    point c_s: sym e_k; mat (e_k, e_k); skew (e_2k, e_2k+1); exc27 the unit
    w, then y_0, then x_0 (parameters 16, 8, 0), whose charts are E_33, E_22
    and E_11. Not x_0 first: the exc27 chart at x = 1 has rank 10, not 17.
    Int blocks make every Jacobian column a list of ints."""
    n = model.params[0] if model.params else 0
    ones = {"sym": [(k,) for k in range(s)], "mat": [(k, n + k) for k in range(s)],
            "skew": [(2 * k, n + 2 * k + 1) for k in range(s)],
            "exc27": [(16,), (8,), (0,)][:s]}[model.kind]
    ppc = chart_param_count(model)
    return [[1 if t in unit else 0 for t in range(ppc)] for unit in ones]


def stratum_dimension(model: PSpaceModel, s: int) -> tuple[int, int]:
    """(cone_dim, proj_dim) of the rank-s stratum closure, exactly.

    The cone is the image of the s-fold sum of rank-one charts. All rank-s
    points form one orbit of the structure group, and the chart sum is
    equivariant under it, so at parameters summing to the frame point c_s
    the Jacobian's column space is the orbit's tangent space there (for sym,
    sum_k w_k e_k^t + e_k w_k^t = {X c + c X^t}; mat and skew alike). Its rank
    is the stratum dimension, with no random draw. For exc27 a rank at any
    point is at most the generic rank, so the tests that pin 17, 26 and 27
    show the frame exact there too. Each block contributes its closed-form columns
    B(e_t, p) + B(p, e_t), as ints, and linalg.int_rank ranks them by
    integer Bareiss elimination, with no QI and no Gaussian plane. A
    Jacobian of more than MAX_JACOBIAN_CELLS cells is rejected with
    InputError before any column is built.
    """
    if not 1 <= s <= model.max_rank:
        raise InputError(f"stratum index {s} outside 1..{model.max_rank}")
    _check_jacobian_cells(model, s)
    blocks = _frame_blocks(model, s)
    dim = linalg.int_rank([c for block in blocks for c in _chart_jacobian_columns(model, block)])
    return dim, dim - 1


@dataclass(frozen=True)
class DefectData:
    model: PSpaceModel
    dim_x: int
    secant_proj_dims: tuple  # proj dim of S^i(X) for i = 0..max_rank-1
    ambient_proj_dim: int
    deltas: tuple
    k0: int
    scorza_ok: bool


def defects(model: PSpaceModel) -> DefectData:
    """Secant defects, k0, and the two Scorza conditions, all from the exact
    stratum dimensions of stratum_dimension."""
    if model.max_rank < 2:
        raise InputError("defect analysis needs max rank >= 2")
    _check_jacobian_cells(model, model.max_rank)  # the largest of the strata
    dims = [stratum_dimension(model, s)[1] for s in range(1, model.max_rank + 1)]
    ambient = model.ambient_proj_dim
    dim_x = dims[0]
    k0 = next(i for i in range(1, model.max_rank) if dims[i] == ambient)
    deltas = tuple(
        dim_x + dims[i - 1] + 1 - dims[i] for i in range(1, k0 + 1)
    )
    delta = deltas[0]
    cond_k0 = k0 == dim_x // delta
    cond_linear = all(deltas[i - 1] == i * delta for i in range(1, k0 + 1))
    return DefectData(
        model=model,
        dim_x=dim_x,
        secant_proj_dims=tuple(dims),
        ambient_proj_dim=ambient,
        deltas=deltas,
        k0=k0,
        scorza_ok=cond_k0 and cond_linear,
    )


# --- rank-one peeling -------------------------------------------------------------

def peel_rank_one(point: StratumPoint) -> list:
    """Decompose an exact sym/mat/skew point into rank_of-many rank-1
    summands that re-sum to it exactly (Wedderburn elimination).

    Each summand is chart_point at a pivot of the remainder A, scaled by
    1/pivot. With (i, j) the first nonzero entry of A: mat takes (column j,
    row i) and skew (column i, column j), both with pivot a_ij; sym takes
    column i with pivot a_ii at its first nonzero diagonal entry, or, when
    the diagonal is zero, column i + column j with pivot 2 a_ij = v^t A v.
    """
    model = point.model
    if model.kind == "exc27":
        raise UnsupportedError("peeling is implemented for the matrix models only")
    a, out = point.coords, []
    while not linalg.is_zero_matrix(a):
        if len(out) > model.ambient_dim + 1:
            raise RuntimeError("peeling failed to terminate")
        i = next((t for t in range(len(a)) if a[t][t]), None) if model.kind == "sym" else None
        if i is not None:
            params, pivot = [row[i] for row in a], a[i][i]
        else:
            i, j = _first_nonzero(a)
            col_j = [row[j] for row in a]
            if model.kind == "mat":
                params, pivot = col_j + a[i], a[i][j]
            elif model.kind == "skew":
                params, pivot = [row[i] for row in a] + col_j, a[i][j]
            else:  # sym with a zero diagonal
                params = [row[i] + x for row, x in zip(a, col_j)]
                pivot = params[i] + params[j]
        piece = chart_point(model, params)
        piece.coords = linalg.mat_scale(piece.coords, 1 / pivot)  # still sym/skew
        out.append(piece)
        a = linalg.mat_sub(a, piece.coords)
    return out


def _first_nonzero(a: list) -> tuple[int, int]:
    """(i, j) of the first nonzero entry of a nonzero matrix, in row order."""
    return next((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
