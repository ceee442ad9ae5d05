"""The four p-space models and their Jordan-rank stratification.

Models: complex symmetric r x r matrices, rectangular q x p matrices,
skew n x n matrices, and the 27-dimensional hermitian 3 x 3 model over the
complexified octonions. Rank is exact matrix rank (halved for skew), the
relative invariant is the determinant / Pfaffian / cubic norm, and a
stratum's dimension is the exact Jacobian rank of the s-fold rank-one chart
sum at parameters summing to the frame point, where it equals the rank-s
orbit's tangent space. Every rank-one chart is stated once, as
`_chart_plane`, an int evaluation on the integer plane of `scalars`:
sampling and peeling evaluate it, and the dimension oracle differentiates
it, reading each frame Jacobian off one complex chart evaluation per block.
The frame parameters are 0s and 1s, so that Jacobian is an integer matrix
(entries 0, +-1, +-2), ranked by linalg.int_ranks, which gives every
stratum of a model from one elimination. A point is one integer plane in
`_chart_plane`'s layout: samplers hand it their chart sums, and sums,
comparison, peeling and the one elimination that gives a matrix point's rank
and relative invariant run on its ints; its QI form is only read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from operator import add, sub

from . import linalg
from .errors import InputError, UnsupportedError
from .jordan import (JordanElement, _jordan, generic_det, jordan_product, jordan_rank3,
                     outer_square_planes, random_hermitian)
from .sampling import derive_seed, make_rng, random_plane
from .scalars import QI, QI_ZERO, common_plane, from_plane, json_int, to_plane

# model kind -> the names of its parameters, in selector and JSON order
_PARAMS = {"sym": ("r",), "mat": ("q", "p"), "skew": ("n",), "exc27": ()}
MODEL_GRAMMAR = "sym:R | mat:Q,P | skew:N | exc27"

_RANK1_RETRIES = 32
_HEIGHT = 10  # the height of the ratios of random points and rank-one samples

# Largest Jacobian the dimension oracle will rank, in cells: ambient_dim
# coordinate rows by s blocks of chart_param_count columns. It admits every
# Scorza family of catalog_scorza(k) for k <= 6 (the largest is skew:15 at
# s = 7, 105 x 210 = 22,050 cells, built from 7 chart evaluations and ranked
# as ints in 1.5-1.7 ms on one Xeon vCPU under Python 3.11); skew:16 at s = 8
# (k = 7) already needs 30,720. The same budget bounds a model's ambient_dim
# and a dual-pair case's matrix size; every other step on a point (rank and
# det or Pfaffian by one elimination of its plane, the cubic norm) is
# polynomial in its size, so that no command starts work whose cost has no bound.
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


@dataclass(frozen=True, init=False)
class StratumPoint:
    """A model and one integer plane, `den` and `flat` in lowest terms: the
    coordinate matrix in row order (exc27: its JordanElement's entry
    planes). `StratumPoint(model, coords)` takes and checks a QI matrix or a
    JordanElement, which `coords` builds back on each read. A point keeps
    no rank: `rank_of` computes it, and `to_json` writes none."""

    model: PSpaceModel
    den: int
    flat: tuple

    def __init__(self, model: PSpaceModel, coords):
        if model.kind == "exc27":
            if not isinstance(coords, JordanElement) or coords.algebra != "O_C" or coords.n != 3:
                raise InputError("exc27 coordinates must be a 3x3 hermitian O_C element")
            den, flat = coords.den, [v for row in coords.rows for e in row for v in e]
        else:
            shape = linalg.shape(coords)
            if any(len(row) != shape[1] for row in coords):
                raise InputError("coordinate rows have different lengths")
            rows, cols = _coords_shape(model)
            if shape != (rows, cols):
                raise InputError(f"expected {rows}x{cols} coordinates")
            den, flat = to_plane([x for row in coords for x in row])
        self.__dict__.update(vars(_point(model, den, flat)))

    @property
    def coords(self):
        den, flat = self.den, self.flat
        if self.model.kind == "exc27":
            return _jordan("O_C", den, [[flat[k:k + 16] for k in range(i, i + 48, 16)]
                                        for i in range(0, 144, 48)])
        values, cols = from_plane(den, flat), _coords_shape(self.model)[1]
        return [values[k:k + cols] for k in range(0, len(values), cols)]

    def is_zero(self) -> bool:
        return not any(self.flat)

    def _combine(self, other: "StratumPoint", op, verb: str) -> "StratumPoint":
        if self.model != other.model:
            raise InputError(f"cannot {verb} points of different models")
        den, (a, b) = common_plane(((self.den, self.flat), (other.den, other.flat)))
        return _point(self.model, den, list(map(op, a, b)))

    def __add__(self, other: "StratumPoint") -> "StratumPoint":
        return self._combine(other, add, "add")

    def __sub__(self, other: "StratumPoint") -> "StratumPoint":
        return self._combine(other, sub, "subtract")

    def to_json(self, qi_leaves: bool = False) -> dict:
        """The point as JSON; with qi_leaves a matrix model's coords stay a
        QI matrix, whose leaves `cli.render_json` writes as their to_json."""
        kind, coords = self.model.kind, self.coords
        if kind == "exc27":
            coords = coords.to_json()
        elif not qi_leaves:
            coords = linalg.matrix_to_json(coords)
        return {"model": {"kind": kind, **dict(zip(_PARAMS[kind], self.model.params))},
                "coords": coords}

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


def _point(model: PSpaceModel, den: int, flat: list) -> StratumPoint:
    """The point flat / den, in lowest terms by one gcd, checked."""
    g = math.gcd(den, *flat)
    if g > 1:
        den, flat = den // g, [v // g for v in flat]
    _validate_coords(model, flat)
    point = object.__new__(StratumPoint)
    point.__dict__.update(model=model, den=den, flat=tuple(flat))
    return point


def _validate_coords(model: PSpaceModel, flat: list):
    """The check every new point passes: its plane has the model's symmetry."""
    if any(flat[where] != values for where, values in _mirror(model, flat)):
        raise InputError(f"coordinates are not {'' if model.kind == 'sym' else 'skew-'}symmetric")


def _mirror(model: PSpaceModel, flat: list):
    """The model's symmetry as (slice of flat, the parts it must hold), one per
    part of each column a from the diagonal down: sym copies row a from the
    diagonal on, skew negates it (so its diagonal is 0); mat and exc27 yield none."""
    if model.kind in ("sym", "skew"):
        n = model.params[0]
        for a in range(n):
            for s in (2 * (a * n + a), 2 * (a * n + a) + 1):
                row = flat[s:2 * (a * n + n):2]
                yield slice(s, None, 2 * n), row if model.kind == "sym" else [-v for v in row]


def _coords_shape(model: PSpaceModel) -> tuple[int, int]:
    """(rows, cols) of a matrix model's coordinates: r x r, q x p or n x n."""
    return model.params[0], model.params[-1]


def zero_point(model: PSpaceModel) -> StratumPoint:
    size = 144 if model.kind == "exc27" else 2 * math.prod(_coords_shape(model))
    return _point(model, 1, [0] * size)


# --- rank and membership ------------------------------------------------------

def rank_of(point: StratumPoint) -> int:
    """Jordan rank: matrix rank (Bareiss on the plane's rows) for sym/mat,
    half of it (skew elimination) for skew, degree-3 rank for exc27."""
    if point.model.kind == "exc27":
        return jordan_rank3(point.coords)
    return _eliminated(point)[0]


def _eliminated(point: StratumPoint) -> tuple:
    """(Jordan rank, sign * last pivot) of a matrix point by one elimination
    of its plane's rows, skew (linalg._skew_eliminate) on the skew model; at
    full rank the pivot over den^max_rank is the relative invariant."""
    flat, width = point.flat, 2 * _coords_shape(point.model)[1]
    rows = [list(flat[k:k + width]) for k in range(0, len(flat), width)]
    return (linalg._skew_eliminate if point.model.kind == "skew" else linalg._eliminate)(rows)


def closure_membership(point: StratumPoint, s: int) -> bool:
    """Whether the point lies in the closure of the rank-s stratum."""
    return rank_of(point) <= s


# --- sampling -------------------------------------------------------------------

def sample_rank_one(model: PSpaceModel, seed: int) -> StratumPoint:
    """A random rank-1 point of the model: the chart at a random parameter vector."""
    return _point(model, *_rank_one_plane(model, seed, _HEIGHT))


def _rank_one_plane(model: PSpaceModel, seed: int, height: int) -> tuple:
    """(den, flat): `_chart_plane` at a `random_plane` draw, dense in the rank-1
    cone (exc27 included); all-zero planes are redrawn, up to _RANK1_RETRIES."""
    rng = make_rng(seed, "rank1", model.selector(), height)
    for _ in range(_RANK1_RETRIES):
        den, flat = _chart_plane(model, *random_plane(rng, chart_param_count(model), height))
        if any(flat):
            return den, flat
    raise RuntimeError(f"could not sample a rank-1 point of {model} (construction bug?)")


def sample_secant(model: PSpaceModel, k: int, seed: int, height: int = 10) -> StratumPoint:
    """Sum of k+1 independent rank-1 samples; Jordan rank <= min(k+1, max),
    their planes added as ints over their common denominator. A summand costs
    the cells of its coordinate matrix (r^2, q p, n^2 or 27); over
    MAX_JACOBIAN_CELLS in all is rejected with InputError up front."""
    if k < 0:
        raise InputError("secant index k must be >= 0")
    cells = 27 if model.kind == "exc27" else math.prod(_coords_shape(model))
    check_cells(f"a sum of {k + 1} rank-1 samples of {model.selector()}", (k + 1) * cells)
    den, flats = common_plane(_rank_one_plane(model, derive_seed(seed, "secant", i), height)
                              for i in range(k + 1))
    return _point(model, den, reduce(lambda a, b: list(map(add, a, b)), flats))


def random_point(model: PSpaceModel, seed: int) -> StratumPoint:
    """A random point of the full model (no rank structure imposed): a
    `random_plane` of the independent coordinates, mirrored, or for exc27 a
    `random_hermitian` element."""
    rng = make_rng(seed, "full", model.selector(), 10)
    if model.kind == "exc27":
        return StratumPoint(model, random_hermitian(rng, "O_C", 3, _HEIGHT))
    den, values = random_plane(rng, model.ambient_dim, _HEIGHT)
    flat = [0] * (2 * math.prod(_coords_shape(model)))
    for k, i in enumerate(_coordinate_index(model)):
        flat[2 * i:2 * i + 2] = values[2 * k:2 * k + 2]
    for where, parts in _mirror(model, flat):
        flat[where] = parts
    return _point(model, den, flat)


# --- relative invariant --------------------------------------------------------

def relative_invariant(point: StratumPoint) -> QI:
    """Determinant, Pfaffian, or cubic norm; degree = max rank and vanishing
    exactly below it. Defined on the regular models only."""
    model = point.model
    if not model.regular:
        raise UnsupportedError(
            f"model {model} is not regular; no relative invariant of degree max rank"
        )
    if model.kind == "exc27":
        return generic_det(point.coords)
    rank, pivot = _eliminated(point)
    return from_plane(point.den ** model.max_rank, pivot)[0] if rank == model.max_rank else QI_ZERO


# --- dimension oracle ------------------------------------------------------------

def chart_param_count(model: PSpaceModel) -> int:
    if model.kind == "sym":
        return model.params[0]
    if model.kind == "mat":
        return model.params[0] + model.params[1]
    if model.kind == "skew":
        return 2 * model.params[0]
    return 17


def chart_point(model: PSpaceModel, params: list) -> StratumPoint:
    """The quadratic rank-one chart, `_chart_plane` on the plane of QI params:
    the one definition of a model's rank-one point. Sampling and peeling
    evaluate `_chart_plane`; the dimension oracle differentiates it at the
    frame point (`_frame_jacobian`).

    sym: v -> v v^t; mat: (v, w) -> v w^t; skew: (v, w) -> v w^t - w v^t.
    exc27: (x, y, w) -> v v* with v = (x, y, w 1), x and y full octonion
    coefficient blocks and w a scalar. Any two octonions generate an
    associative subalgebra (Artin), so the image is rank <= 1, and it is
    dense in the 17-dimensional rank-1 cone.
    """
    if len(params) != chart_param_count(model):
        raise InputError("wrong chart parameter count")
    return _point(model, *_chart_plane(model, *to_plane(params)))


def _chart_plane(model: PSpaceModel, den: int, flat: list) -> tuple:
    """(den^2, coords): the chart at the parameter plane (den, flat), the
    coordinates (exc27: entry planes) in row order, each over den^2. sym:
    v_a v_b for a <= b, mirrored; mat: v_a w_b; skew: v_a w_b - v_b w_a for
    a < b, negated in the mirror; exc27: `jordan.outer_square_planes`."""
    if model.kind == "exc27":
        rows = outer_square_planes(3, "Qi", [flat[:16], flat[16:32], flat[32:] + [0] * 14])
        return den * den, [v for row in rows for e in row for v in e]
    v = list(zip(flat[0::2], flat[1::2]))
    if model.kind == "mat":
        q = model.params[0]
        return den * den, [c for ar, ai in v[:q] for br, bi in v[q:]
                           for c in (ar * br - ai * bi, ar * bi + ai * br)]
    n, sym = model.params[0], model.kind == "sym"
    w = v if sym else v[n:]
    out = [0] * (2 * n * n)
    for a in range(n):
        ar, ai = v[a]
        for b in range(a if sym else a + 1, n):
            br, bi = w[b]
            re, im = ar * br - ai * bi, ar * bi + ai * br
            if not sym:  # minus v_b w_a
                (cr, ci), (dr, di) = v[b], w[a]
                re, im = re - cr * dr + ci * di, im - cr * di - ci * dr
            s, t = 2 * (a * n + b), 2 * (b * n + a)
            out[s:s + 2], out[t:t + 2] = (re, im), (re, im) if sym else (-re, -im)
    return den * den, out


def _frame_blocks(model: PSpaceModel, s: int) -> list:
    """s chart parameter blocks, as 0/1 ints, whose charts sum to the frame
    point c_s: sym e_k; mat (e_k, e_k); skew (e_2k, e_2k+1); exc27 the unit
    w, then y_0, then x_0 (parameters 16, 8, 0), whose charts are E_33, E_22
    and E_11. Not x_0 first: the exc27 chart at x = 1 has rank 10, not 17.
    The blocks of stratum s are the first s of every larger stratum's."""
    n = model.params[0] if model.params else 0
    ones = {"sym": [(k,) for k in range(s)], "mat": [(k, n + k) for k in range(s)],
            "skew": [(2 * k, n + 2 * k + 1) for k in range(s)],
            "exc27": [(16,), (8,), (0,)][:s]}[model.kind]
    ppc = chart_param_count(model)
    return [[1 if t in unit else 0 for t in range(ppc)] for unit in ones]


def _coordinate_index(model: PSpaceModel) -> list:
    """Where a `_chart_plane` holds the model's independent coordinates, as
    (re, im) pair indices: the upper triangle (diagonal included) for sym,
    every entry for mat, the strict upper triangle for skew, in row order;
    for exc27 the three diagonal scalars, then the octonion coefficients of
    the entries (0, 1), (0, 2) and (1, 2), 8 pairs per entry."""
    if model.kind == "exc27":
        return [0, 32, 64, *range(8, 24), *range(40, 48)]
    if model.kind == "mat":
        return list(range(model.ambient_dim))
    n, lo = model.params[0], model.kind == "skew"
    return [a * n + b for a in range(n) for b in range(a + lo, n)]


def _frame_jacobian(model: PSpaceModel, blocks: list) -> list:
    """The Jacobian J of the chart sum at the 0/1 parameter blocks, one int
    row per independent coordinate and one column per parameter, block by
    block, from one `_chart_plane` evaluation per block (Kronecker
    substitution). Every chart F is quadratic and C-bilinear (exc27's
    octonion conjugation is C-linear), so for real p and u,
    Im F(p + i u) = DF(p) u. Each block is evaluated at u_t = 256^t, t < m =
    chart_param_count, and block k's imaginary parts are scaled by 256^(k m)
    and added as ints, so that a coordinate's sum is sum 256^(k m + t) J_(k,t),
    a base-256 number whose digits are that coordinate's row. At 0/1
    parameters every entry lies in -2..2, inside the -128..127 that reads
    back exactly: adding 128 to every digit leaves no carry, and xor-ing it
    off again leaves each digit's two's-complement byte."""
    m = chart_param_count(model)
    width = len(blocks) * m
    u = [1 << 8 * t for t in range(m)]
    ims = [_chart_plane(model, 1, [v for pair in zip(block, u) for v in pair])[1][1::2]
           for block in blocks]
    offset = int.from_bytes(b"\x80" * width, "little")
    return [memoryview(((sum(im[i] << 8 * k * m for k, im in enumerate(ims)) + offset)
                        ^ offset).to_bytes(width, "little")).cast("b").tolist()
            for i in _coordinate_index(model)]


def _check_jacobian_cells(model: PSpaceModel, s: int):
    rows, cols = s * chart_param_count(model), model.ambient_dim
    check_cells(f"the {rows} x {cols} Jacobian of stratum {s} of {model}", rows * cols)


def stratum_dimension(model: PSpaceModel, s: int) -> tuple[int, int]:
    """(cone_dim, proj_dim) of the rank-s stratum closure, exactly.

    The cone is the image of the s-fold sum of rank-one charts. All rank-s
    points form one orbit of the structure group, and the chart sum is
    equivariant under it, so at parameters summing to the frame point c_s
    the Jacobian's column space is the orbit's tangent space there (for sym,
    sum_k w_k e_k^t + e_k w_k^t = {X c + c X^t}; mat and skew alike). Its rank
    is the stratum dimension, with no random draw. For exc27 a rank at any
    point is at most the generic rank, so the tests that pin 17, 26 and 27
    show the frame exact there too. `_frame_jacobian` differentiates the
    chart, as ints, and linalg.int_ranks ranks it by integer Bareiss
    elimination, with no QI and no Gaussian plane. A Jacobian of more than
    MAX_JACOBIAN_CELLS cells is rejected with InputError before any chart
    is evaluated.
    """
    if not 1 <= s <= model.max_rank:
        raise InputError(f"stratum index {s} outside 1..{model.max_rank}")
    _check_jacobian_cells(model, s)
    dim = linalg.int_ranks(_frame_jacobian(model, _frame_blocks(model, s)))[-1]
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
    stratum dimensions: one elimination of the frame Jacobian of the top
    stratum, whose first s blocks of columns are stratum s's Jacobian."""
    if model.max_rank < 2:
        raise InputError("defect analysis needs max rank >= 2")
    _check_jacobian_cells(model, model.max_rank)  # the largest of the strata
    m = chart_param_count(model)
    ranks = linalg.int_ranks(_frame_jacobian(model, _frame_blocks(model, model.max_rank)))
    dims = [ranks[s * m] - 1 for s in range(1, model.max_rank + 1)]
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
    """Decompose an exact point into rank_of-many rank-1 summands that
    re-sum to it exactly: Wedderburn's rank-one reduction in its Jordan
    form. Each summand is P_x(c) / <x, c> for the remainder x (x c^t x, and
    U_x(c) = 2 x o (x o c) - x^2 o c on exc27) and lowers its rank by one.
    c is the first candidate with <x, c> != 0: the chart's nonzero ints at
    the unit parameters e_a, then e_a + e_b for a < b, which span the model;
    c becomes a point only on exc27. <x, c> is the C-bilinear dot product of the two
    planes: tr(c^t x), halved for skew, and on exc27 the trace form
    T(x, c) = sum_ik sp(x_ik c_ki), as c is hermitian and sp(a conj(b)) is
    the coefficient dot product of a and b.
    """
    model, x, out = point.model, point, []
    m = chart_param_count(model)
    units = [*zip(range(m), range(m)), *combinations(range(m), 2)]

    @cache  # each candidate charted once a scan reaches it, kept for the rescans
    def candidate(ones: tuple) -> tuple:
        flat = _chart_plane(model, 1, [v for t in range(m) for v in (int(t in ones), 0)])[1]
        return flat, [(k, v) for k, v in enumerate(flat) if v]  # real parts only

    while not x.is_zero():
        if len(out) == model.max_rank:
            raise RuntimeError("peeling failed to terminate")
        c, pivot = next((c, t) for c in map(candidate, units) if (t := _pairing(x, c[1])))
        out.append(_quadratic_map(x, c, 1 / pivot))
        x = x - out[-1]
    return out


def _pairing(x: StratumPoint, nonzero: list):
    """<x, c> for c's nonzero (index, real part) entries, or None if it is 0."""
    xs = x.flat
    re, im = sum([xs[k] * v for k, v in nonzero]), sum([xs[k + 1] * v for k, v in nonzero])
    if re or im:
        return from_plane(x.den * (2 if x.model.kind == "skew" else 1), (re, im))[0]


def _quadratic_map(x: StratumPoint, c: tuple, s: QI) -> StratumPoint:
    """The point s * P_x(c) for a candidate c = (flat, nonzero): on a matrix
    model x c^t x = sum of c_ba (column a of x) (row b of x) over c's nonzero
    real entries c_ba, on x's ints over den^2; U_x(c) on exc27's Jordan planes."""
    model, (flat, nonzero) = x.model, c
    if model.kind == "exc27":
        a, b = x.coords, _point(model, 1, flat).coords
        return StratumPoint(model, (jordan_product(a, jordan_product(a, b)).scale(2)
                                    - jordan_product(jordan_product(a, a), b)).scale(s))
    d, (sr, si) = to_plane([s])
    width = 2 * _coords_shape(model)[1]
    xs = [x.flat[k:k + width] for k in range(0, len(x.flat), width)]
    out = [0] * len(x.flat)
    for k, v in nonzero:
        b, a = divmod(k, width)  # c_ba; a is the offset of column a in a row
        rowb = xs[b]
        for i, row in enumerate(xs):  # s c_ba x_ia times row b
            ur, ui = v * (row[a] * sr - row[a + 1] * si), v * (row[a] * si + row[a + 1] * sr)
            for j in range(0, width, 2):
                yr, yi = rowb[j], rowb[j + 1]
                out[i * width + j] += ur * yr - ui * yi
                out[i * width + j + 1] += ur * yi + ui * yr
    return _point(model, x.den * x.den * d, out)
