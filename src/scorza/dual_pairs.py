"""Dual pairs acting on W = Hom_K(K^s, V) and their momentum maps.

Three cases, by the base division algebra of V:

  sp:L    K = R, V = R^{2L} symplectic,          H = O(s),  G = Sp(L,R)
  u:P,Q   K = C, V = C^{P+Q} signature (P,Q),    H = U(s),  G = U(P,Q)
  ostar:D K = H, V = H^D skew-hermitian,         H = Sp(s), G = O*(2D)

Matrices are complex; the quaternionic case carries an antilinear structure
map and all quaternion-linear maps commute with it. The frozen bases fix the
p to matrix-model identification up to a scalar, which no downstream test
depends on (rank and vanishing only).

Three facts, checked in the tests on every case kind, carry the constants,
the Cartan decomposition g = k + p and the quaternionic halving:

  Fact 1. G_V^2 = -I and the complex structure is J_V = -G_V, where G_V
          is the Gram matrix of the form B on V; in the ostar case the
          quaternionic structure matrix is G_V as well.
  Fact 2. X in g means X^H G_V + G_V X = 0, that is X^H = G_V X G_V, so
          by Fact 1 J_V X J_V = X^H. The J_V-commuting part of X is
          therefore (X - X^H)/2 and the anticommuting part (X + X^H)/2.
  Fact 3. A quaternion-linear 2m x 2n matrix M, in its complex 2x2-block
          form [[X, -conj(Y)], [Y, conj(X)]], satisfies M C_n = C_m conj(M)
          for C_k = [[0, -I_k], [I_k, 0]], so its right block column is
          C_m conj(L) for its left block column L. `_completed` appends it,
          only to matrices validated or built quaternion-linear.

A W element is its integer plane: one denominator and the interleaved
Gaussian-integer parts of alpha, for ostar of its left block column only.
On its split rows (`linalg.split_rows`) dagger is a sparse action, mu_K
and mu_G are one `linalg.products` each and the projection to p writes the
model point's plane; the random generators of G and H are sparse actions
too, and QI is built only for public results. The constants of a case
(G_V, J_V, the structure maps, i I on K^s) are SignedPerms, per row a
column and a unit i**k; their dense matrices are the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd, lcm
from random import Random

from . import linalg
from .errors import InputError
from .linalg import split_matrix, split_rows, split_transpose
from .sampling import make_rng, random_plane, random_qi, random_qi_matrix, random_square
from .scalars import HALF, QI, QI_I, QI_ONE, QI_ZERO, to_plane
from .strata import (
    PSpaceModel, StratumPoint, _point, check_cells, mat_model, skew_model, split_selector,
    sym_model,
)

KINDS = ("sp", "u", "ostar")

# exact Pythagorean triples (a, b, c), a^2 + b^2 = c^2, for rational rotations
_PYTH = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
# exact hyperbolic triples (a, b, c) with a^2 - b^2 = c^2
_HYP = ((5, 3, 4), (13, 5, 12), (17, 8, 15))
_UNIT_PARTS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # the (re, im) of i**k


CASE_GRAMMAR = "sp:L | u:P,Q | ostar:D"


@dataclass(frozen=True)
class DualPairCase:
    kind: str
    params: tuple
    s: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown dual-pair case {self.kind!r}; expected {CASE_GRAMMAR}")
        expected = {"sp": 1, "u": 2, "ostar": 1}[self.kind]
        if len(self.params) != expected:
            raise InputError(f"case {self.kind} takes {expected} parameter(s)")
        if any(p < 1 for p in self.params):
            raise InputError("case parameters must be positive")
        if self.kind == "u" and self.params[0] < self.params[1]:
            raise InputError("case u:P,Q needs P >= Q")
        if self.kind == "ostar" and self.params[0] < 2:
            raise InputError("case ostar:D needs D >= 2")
        if self.s < 1:
            raise InputError("s must be >= 1")
        v, s = self.v_size, self.s_size
        check_cells(f"each {v} x {s} matrix of case {self}", v * s)
        self.model()  # the reduced point's model is held to the same budget

    @property
    def r(self) -> int:
        """Split rank of G, the saturation rank of the reduction: L, Q or D // 2."""
        return self.params[-1] // (2 if self.kind == "ostar" else 1)

    @property
    def v_size(self) -> int:
        return sum(self.params) if self.kind == "u" else 2 * self.params[0]

    @property
    def s_size(self) -> int:
        return 2 * self.s if self.kind == "ostar" else self.s

    @property
    def real_entries(self) -> bool:
        return self.kind == "sp"

    def selector(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"

    def __str__(self):
        return f"{self.selector()} s={self.s}"

    def model(self) -> PSpaceModel:
        if self.kind == "sp":
            return sym_model(self.params[0])
        if self.kind == "u":
            return mat_model(self.params[1], self.params[0])
        return skew_model(self.params[0])

    # form on V (conjugate-linear in the first slot): B(u, v) = u^H G_V v;
    # G_V is Omega for sp, -Omega for ostar and i diag(I_P, -I_Q) for u
    def form_v(self) -> "SignedPerm":
        if self.kind == "u":
            p = self.params[0]
            return SignedPerm(tuple((i, 1 if i < p else 3) for i in range(self.v_size)))
        return _omega(self.params[0], 1 if self.kind == "sp" else -1)

    def form_v_matrix(self) -> list:
        return self.form_v().dense()

    def j_v_matrix(self) -> list:
        """The complex structure J_V = -G_V (Fact 1)."""
        return (-self.form_v()).dense()

    def w_complex_dim(self) -> int:
        """Complex dimension of W(s) under the complex structure J_V o (.)"""
        return self.v_size * self.s // (2 if self.kind == "sp" else 1)


def parse_case(selector: str, s: int) -> DualPairCase:
    """Parse sp:L | u:P,Q | ostar:D into a case with s columns."""
    return DualPairCase(*split_selector(selector, "case", CASE_GRAMMAR), s)


def _block(a, b, c, d) -> list:
    return [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]


@dataclass(frozen=True)
class SignedPerm:
    """A monomial matrix with entries in {1, i, -1, -i}: row r holds i**k in
    column c, for (c, k) = entries[r]."""

    entries: tuple
    UNITS = (QI_ONE, QI_I, -QI_ONE, -QI_I)  # i**k

    def dense(self) -> list:
        n = len(self.entries)
        return [[self.UNITS[k] if j == c else QI_ZERO for j in range(n)]
                for c, k in self.entries]

    def left(self, x: list) -> list:
        """self @ x: row r is i**k times row c of x."""
        return [[v.times_unit(k) for v in x[c]] for c, k in self.entries]

    def right(self, x: list) -> list:
        """x @ self: column c is i**k times column r of x."""
        order = sorted((c, r, k) for r, (c, k) in enumerate(self.entries))
        return [[row[r].times_unit(k) for _, r, k in order] for row in x]

    def __neg__(self) -> "SignedPerm":
        return SignedPerm(tuple((c, k ^ 2) for c, k in self.entries))


def _omega(n: int, sign: int) -> SignedPerm:
    """The 2n x 2n matrix [[0, sign I], [-sign I, 0]]."""
    k = 0 if sign > 0 else 2
    return SignedPerm(tuple((n + i, k) for i in range(n)) + tuple((i, k ^ 2) for i in range(n)))


# --- split rows ------------------------------------------------------------------

def _plane(m: list) -> tuple:
    """(den, split rows) of a QI matrix, over the lcm of its entries' d."""
    den, flat = to_plane([x for row in m for x in row])
    return den, split_rows(flat, len(m[0]))


def _completed(case: DualPairCase, rows: list) -> list:
    """For ostar, the split rows of [L | C conj(L)], C = _omega(m, -1), for
    the 2m split rows of L (Fact 3). Otherwise rows."""
    if case.kind != "ostar":
        return rows
    m = len(rows) // 2
    right = [([-p for p in re], im) for re, im in rows[m:]] + [
        (re, [-q for q in im]) for re, im in rows[:m]]
    return [([*re, *r_re], [*im, *r_im]) for (re, im), (r_re, r_im) in zip(rows, right)]


def _chain(case: DualPairCase, *factors: list) -> list:
    """The product of the factors, as `linalg.mat_chain`. For ostar the
    product must be quaternion-linear: only the left half of the last
    factor's columns is multiplied, and the result is completed (Fact 3)."""
    if case.kind != "ostar":
        return linalg.mat_chain(*factors)
    *left, last = factors
    den, rows = _plane(linalg.mat_chain(*left, [row[:len(row) // 2] for row in last]))
    return split_matrix(den, _completed(case, rows))


def _is_h_linear(case: DualPairCase, m: list) -> bool:
    """Quaternion-linearity of an ostar matrix [L | R], M C_n = C_m conj(M):
    as C conj(C conj(L)) = -L, it holds exactly when R = C_m conj(L), that
    is when m is the completion of its left half. True off ostar."""
    if case.kind != "ostar":
        return True
    half, rows = len(m[0]) // 2, _plane(m)[1]
    return _completed(case, [(re[:half], im[:half]) for re, im in rows]) == rows


@dataclass(frozen=True, init=False)
class WElement:
    """A case and the integer plane of alpha in lowest terms: `flat` / `den`
    is its first s columns row by row, all of alpha but for ostar (Fact 3).
    `WElement(case, alpha)` takes and checks a QI matrix, which `alpha`
    builds back on each read. `checked_mu_K` is None but on a
    `sample_zero_level` element: the (den^2, split rows) of -mu_K(a) that
    the sample checked to be 0. Forming it again made the reduce items of a
    moment pass 7% slower (in-process A/B, 2 vCPUs, Python 3.11)."""

    case: DualPairCase
    den: int
    flat: tuple

    def __init__(self, case: DualPairCase, alpha: list):
        self.__post_init__(case, alpha)

    def __post_init__(self, case: DualPairCase, alpha: list):
        # the public checks, under the name perfbench/tracer.py spans
        rows, cols = linalg.shape(alpha)
        if any(len(row) != cols for row in alpha):
            raise InputError("alpha rows have different lengths")
        if (rows, cols) != (case.v_size, case.s_size):
            raise InputError(f"alpha must be {case.v_size}x{case.s_size}, got {rows}x{cols}")
        if case.real_entries and not linalg.is_real_matrix(alpha):
            raise InputError("case sp uses real matrices")
        if not _is_h_linear(case, alpha):
            raise InputError("alpha does not commute with the quaternionic structure")
        left = to_plane([x for row in alpha for x in row[:case.s]])
        self.__dict__.update(vars(_element(case, *left)))

    @property
    def alpha(self) -> list:
        return split_matrix(self.den, _rows(self))

    def to_json(self) -> dict:
        return {"case": self.case.selector(), "s": self.case.s,
                "alpha": linalg.matrix_to_json(self.alpha)}


def _element(case: DualPairCase, den: int, flat: list, checked_mu_K=None) -> WElement:
    """The element of the plane flat / den in lowest terms, without the public
    checks: for a plane of the right shape that is real (sp) by construction."""
    g = gcd(den, *flat)
    if g > 1:
        den, flat = den // g, [v // g for v in flat]
    w = object.__new__(WElement)
    w.__dict__.update(case=case, den=den, flat=tuple(flat), checked_mu_K=checked_mu_K)
    return w


def _rows(w: WElement) -> list:
    return _completed(w.case, split_rows(w.flat, w.case.s))


# --- momentum maps -------------------------------------------------------------

def _dagger_columns(case: DualPairCase, rows: list) -> list:
    """The split columns of dagger(a) = a^H J_V = (G_V a)^H for the split
    rows of a: the conjugated rows of G_V a."""
    return [(re, [-q for q in im]) for re, im in _act(_units(case.form_v().entries), (1, rows))[1]]


def dagger(w: WElement) -> list:
    """The adjoint map V -> K^s defined by (dagger(a) u, v) = B(u, a v):
    a^H G_V^H = a^H J_V, as G_V is skew-hermitian."""
    return split_matrix(w.den, split_transpose(_dagger_columns(w.case, _rows(w))))


def _times(case: DualPairCase, den: int, rows: list, cols: list) -> tuple:
    """(den^2, split rows) of R C for the split rows of R and the split
    columns of C over den; for ostar only the left half of C's columns is
    multiplied, and the product is completed (Fact 3)."""
    if case.kind == "ostar":
        cols = cols[:len(cols) // 2]
    return den ** 2, _completed(case, linalg.products(cols, rows))


def _mu_g(w: WElement, zero_level: bool = False) -> tuple:
    """mu_G(w) = a dagger(a), as `_times`; zero_level checks mu_K(w) = 0 first."""
    if zero_level and not _is_zero(_checked_mu_k(w)[1]):
        raise InputError("reduced_point needs mu_K(alpha) = 0")
    rows = _rows(w)
    return _times(w.case, w.den, rows, _dagger_columns(w.case, rows))


def _dagger_alpha(case: DualPairCase, den: int, rows: list) -> tuple:
    """dagger(a) a = -mu_K(a) for the split rows of a over den, as `_times`."""
    dag = split_transpose(_dagger_columns(case, rows))
    return _times(case, den, dag, split_transpose(rows))


def _checked_mu_k(w: WElement) -> tuple:
    return w.checked_mu_K or _dagger_alpha(w.case, w.den, _rows(w))


def _is_zero(rows: list) -> bool:
    return not any(any(re) or any(im) for re, im in rows)


def mu_K(w: WElement) -> list:
    """Momentum map for the compact group H: -dagger(a) a, valued in Lie(H)."""
    # the sign stays on QI while perfbench's moment test asserts qi_ops > 0 (ROADMAP 10)
    return linalg.mat_neg(split_matrix(*_checked_mu_k(w)))


def mu_G(w: WElement) -> list:
    """Momentum map for G: a dagger(a), valued in Lie(G)."""
    return split_matrix(*_mu_g(w))


def in_lie_h(case: DualPairCase, x: list) -> bool:
    return _is_member(case, x, on_v=False, group=False)


def in_lie_g(case: DualPairCase, x: list) -> bool:
    return _is_member(case, x, on_v=True, group=False)


def in_group_h(case: DualPairCase, x: list) -> bool:
    return _is_member(case, x, on_v=False, group=True)


def in_group_g(case: DualPairCase, y: list) -> bool:
    return _is_member(case, y, on_v=True, group=True)


def _is_member(case: DualPairCase, x: list, on_v: bool, group: bool) -> bool:
    """Membership in G or H (group) or in its Lie algebra, acting on V or
    K^s. Checks the shape, then the form condition (X^H F X = F, or
    X^H F + F X = 0, with F = G_V on V and F = i I on K^s; both F are
    skew-hermitian, so the second says F X is hermitian), then real entries
    (sp), then quaternion-linearity (ostar)."""
    n = case.v_size if on_v else case.s_size
    if len(x) != n or any(len(row) != n for row in x):
        return False
    form = case.form_v() if on_v else SignedPerm(tuple((i, 1) for i in range(n)))
    fx = form.left(x)
    if group:
        ok = linalg.mat_eq(linalg.mat_mul(linalg.conj_transpose(x), fx), form.dense())
    else:
        ok = linalg.mat_eq(fx, linalg.conj_transpose(fx))
    if not ok or (case.real_entries and not linalg.is_real_matrix(x)):
        return False
    return _is_h_linear(case, x)


def equivariance_check(w: WElement, x: list, y: list) -> bool:
    """Ad-equivariance of both momentum maps under (x, y) . a = y a x^-1:
    mu_K(y a x^-1) = x mu_K(a) x^-1 and mu_G(y a x^-1) = y mu_G(a) y^-1.
    Each side is one QI product chain; x and y are checked group elements,
    so for ostar every chain is quaternion-linear and formed on its left
    block column (Fact 3)."""
    case = w.case
    if not in_group_h(case, x):
        raise InputError("x does not lie in the compact group H")
    if not in_group_g(case, y):
        raise InputError("y does not lie in G")
    # inverses from the forms just checked (Fact 1): x^H x = I, and
    # y^H G_V y = G_V with G_V^-1 = -G_V
    form = case.form_v()
    x_inv = linalg.conj_transpose(x)
    y_inv = (-form).left(form.right(linalg.conj_transpose(y)))
    alpha, dag = w.alpha, dagger(w)
    moved = _chain(case, y, alpha, x_inv)
    moved = _element(case, *to_plane([v for row in moved for v in row[:case.s]]))
    rhs_k = linalg.mat_neg(_chain(case, x, dag, alpha, x_inv))
    rhs_g = _chain(case, y, alpha, dag, y_inv)
    return linalg.mat_eq(mu_K(moved), rhs_k) and linalg.mat_eq(mu_G(moved), rhs_g)


# --- Cartan projection ----------------------------------------------------------

def cartan_split(x: list) -> tuple[list, list]:
    """Split X in g into the J_V-commuting and J_V-anticommuting parts,
    (X - X^H)/2 and (X + X^H)/2, since J_V X J_V = X^H on g (Fact 2)."""
    pairs = [list(zip(row, col)) for row, col in zip(x, zip(*x))]
    x_k = [[(a - b.conjugate()) * HALF for a, b in row] for row in pairs]
    x_p = [[(a + b.conjugate()) * HALF for a, b in row] for row in pairs]
    return x_k, x_p


def cartan_project(x: list, case: DualPairCase) -> StratumPoint:
    """Project X in g to p and identify p with the case's matrix model: the
    (P:, :P) block of X_p for u, and A + i B or A - i B for sp or ostar,
    where [A | B] are the first rows of X_p."""
    if not in_lie_g(case, x):
        raise InputError("X does not lie in the Lie algebra of G")
    return _project_p(case, *_plane(x))


def _project_p(case: DualPairCase, den: int, x: list) -> StratumPoint:
    """`cartan_project` for X known to lie in g, such as mu_G(w), given by
    its split rows over den: the model point's plane over 2 den, read off
    2 X_p = X + X^H."""

    def part(i, j):  # 2 x_p(i, j) as (re, im)
        return x[i][0][j] + x[j][0][i], x[i][1][j] - x[j][1][i]

    n, flat = case.params[0], []
    if case.kind == "u":
        flat = [p for i in range(n, case.v_size) for j in range(n) for p in part(i, j)]
    else:  # 2 x_p(i, j) + sign i 2 x_p(i, n + j): the unit i (sp) or -i (ostar)
        sign = 1 if case.kind == "sp" else -1
        for i in range(n):
            for j in range(n):
                (a, b), (p, q) = part(i, j), part(i, n + j)
                flat += (a - sign * q, b + sign * p)
    return _point(case.model(), 2 * den, flat)


def reduced_point(w: WElement) -> StratumPoint:
    """Image of a zero-level element in the matrix model; rank <= min(s, r)."""
    return _project_p(w.case, *_mu_g(w, zero_level=True))


def reduction(w: WElement) -> tuple:
    """mu_G(w) and reduced_point(w) of a zero-level element, from one product."""
    mu_g = _mu_g(w, zero_level=True)
    return split_matrix(*mu_g), _project_p(w.case, *mu_g)


def veronese_map(case: DualPairCase, v: list) -> StratumPoint:
    """For s = 1, the composite of mu_G with the projection to p.

    Defined on all of W(1) (no zero-level requirement); the image lies in
    the rank <= 1 cone and scales by lambda^2 under real rescaling of v.
    """
    if case.s != 1:
        raise InputError("veronese_map needs a case with s = 1")
    if len(v) != case.v_size:
        raise InputError(f"vector must have {case.v_size} coordinates")
    # for ostar J_q(v) = C conj(v) is the second column; the public checks
    # stay, as v comes from the caller
    den, rows = _plane([[x] for x in v])
    return _project_p(case, *_mu_g(WElement(case, split_matrix(den, _completed(case, rows)))))


# --- sampling -------------------------------------------------------------------

def random_w_element(case: DualPairCase, seed: int) -> WElement:
    """A random element of W, its rationals of height at most 10."""
    height = 10
    rng = make_rng(seed, "w-element", case.selector(), case.s, height)
    # for ostar the left block column [x; y] of x + j y, with case.s columns
    return _element(case, *random_plane(rng, case.v_size * case.s, height,
                                        real=case.real_entries))


def _isotropic_basis(case: DualPairCase) -> tuple:
    """A basis of a maximal B-isotropic subspace of V (complex span; closed
    under the quaternionic structure in the ostar case): its size, and the
    sparse action of the matrix of its columns."""
    if case.kind == "sp":  # e_i, i < L; per column its entries (row, k), each i**k
        cols = [[(i, 0)] for i in range(case.params[0])]
    elif case.kind == "u":  # e_i + e_{P+i}, i < Q
        p, q = case.params
        cols = [[(i, 0), (p + i, 0)] for i in range(q)]
    else:  # u_m = e_2m + i e_2m+1, then their images e_D+2m - i e_D+2m+1 under C conj
        d = case.params[0]
        cols = [[(o + 2 * m, 0), (o + 2 * m + 1, k)]
                for o, k in ((0, 1), (d, 3)) for m in range(case.r)]
    rows = [[] for _ in range(case.v_size)]
    for col, entries in enumerate(cols):
        for row, k in entries:
            rows[row].append((col, *_UNIT_PARTS[k]))
    return len(cols), (1, rows)


def sample_zero_level(case: DualPairCase, seed: int, height: int = 10) -> WElement:
    """An exact point of the zero level of mu_K, built on ints with no QI.

    Columns are drawn inside a fixed maximal isotropic subspace (so the
    image is B-isotropic, which is exactly mu_K = 0) and then moved by two
    random exact G elements. Any s >= 1 is allowed; for s above the
    isotropic dimension the columns are simply dependent.
    """
    rng = make_rng(seed, "zero-level", case.selector(), case.s, height)
    size, basis = _isotropic_basis(case)
    # for ostar the left block column [x; y] of x + j y, with case.s columns
    den, beta = random_plane(rng, size * case.s, height, real=case.real_entries)
    # mix m multiplies by g_m1 g_m2 g_m3; the last mix is leftmost
    mix_gens = [[_g_generator(case, rng) for _ in range(3)] for _ in range(2)]
    plane = (den, split_rows(beta, case.s))
    for action in [basis] + [g for gens in mix_gens for g in reversed(gens)]:
        plane = _act(action, plane)
    den, rows = plane
    checked = _dagger_alpha(case, den, _completed(case, rows))
    if not _is_zero(checked[1]):
        raise RuntimeError("zero-level construction failed; isotropy violated")
    return _element(case, den, [p for re, im in rows for pair in zip(re, im) for p in pair],
                    checked)


def random_lie_g(case: DualPairCase, rng: Random) -> list:
    """A random element of Lie(G), built directly from the block structure."""
    height = 5
    qi = partial(random_qi, rng, height, real=case.real_entries)  # real in the sp case

    def anti(x):
        return -x.conjugate()

    if case.kind == "sp":
        ell = case.params[0]
        a = random_qi_matrix(rng, ell, ell, height, real=True)
        b = random_square(ell, qi, qi, lambda x: x)  # symmetric
        c = random_square(ell, qi, qi, lambda x: x)
        return _block(a, b, c, linalg.mat_neg(linalg.transpose(a)))
    if case.kind == "u":
        p, q = case.params
        a, d = (random_square(n, lambda: random_qi(rng, height, real=True).times_unit(1), qi, anti)
                for n in (p, q))
        b = random_qi_matrix(rng, p, q, height)
        return _block(a, b, linalg.conj_transpose(b), d)
    d = case.params[0]
    a = random_square(d, lambda: QI_ZERO, qi, lambda x: -x)  # complex skew
    b = random_square(d, lambda: random_qi(rng, height, real=True), qi, QI.conjugate)
    return _block(a, b, linalg.mat_neg(linalg.mat_conj(b)), linalg.mat_conj(a))


# --- exact random group elements -------------------------------------------------

def random_h_element(case: DualPairCase, rng: Random) -> list:
    """A product of three random generators of H, their actions applied to
    the identity (for ostar only to its left half, Fact 3)."""
    return _product(case, [_h_generator(case, rng) for _ in range(3)], case.s_size)


def random_g_element(case: DualPairCase, rng: Random) -> list:
    """A product of three random generators of G, their actions applied to
    the identity (for ostar only to its left half, Fact 3)."""
    return _product(case, [_g_generator(case, rng) for _ in range(3)], case.v_size)


def _product(case: DualPairCase, actions: list, n: int) -> list:
    cols = n // 2 if case.kind == "ostar" else n
    plane = (1, [([int(i == j) for j in range(cols)], [0] * cols) for i in range(n)])
    for action in reversed(actions):
        plane = _act(action, plane)
    return split_matrix(plane[0], _completed(case, plane[1]))


def _act(action: tuple, plane: tuple) -> tuple:
    """The plane of M X for an action M and the plane (den, split rows) of
    X. Row i of a sparse M X is the sum over the terms (c, re, im) of row i
    of (re + i im) times row c of X; a shear (V, W) is applied as
    X - V (W X)."""
    head, tail = action
    den, rows = plane
    if not isinstance(head, int):  # a shear (V, W)
        vwx_den, vwx = _act(head, _act(tail, plane))
        k = vwx_den // den
        return vwx_den, [([k * p - q for p, q in zip(xr, yr)], [k * p - q for p, q in zip(xi, yi)])
                         for (xr, xi), (yr, yi) in zip(rows, vwx)]
    zero = [0] * len(rows[0][0])  # read, never written
    out = []
    for terms in tail:
        re = im = zero
        for c, a, b in terms:
            xr, xi = rows[c]
            if b:
                re = [r + a * p - b * q for r, p, q in zip(re, xr, xi)]
                im = [r + a * q + b * p for r, p, q in zip(im, xr, xi)]
            elif re is zero:
                re = [a * p for p in xr]
                im = [a * q for q in xi]
            else:
                re = [r + a * p for r, p in zip(re, xr)]
                im = [r + a * q for r, q in zip(im, xi)]
        out.append((re, im))
    return den * head, out


def _units(entries) -> tuple:
    """The sparse action of a signed permutation: row r holds i**k in column
    c, for (c, k) = entries[r], as in `SignedPerm`."""
    return 1, [[(c, *_UNIT_PARTS[k])] for c, k in entries]


def _permutation(rng: Random, n: int, signs: bool = True, phases: bool = False) -> tuple:
    """The `SignedPerm` entries of a random signed permutation: column i has
    its unit in row perm[i], drawn from 1, -1, i, -i (phases) or 1, -1
    (signs), else 1."""
    perm = list(range(n))
    rng.shuffle(perm)
    ks = [(0, 2, 1, 3)[rng.randrange(4)] if phases else 2 * (rng.random() >= 0.5) if signs
          else 0 for _ in perm]
    return tuple((i, ks[i]) for i in sorted(range(n), key=perm.__getitem__))


def _rotation(rng: Random, n: int) -> tuple:
    """A rotation by a Pythagorean angle in a random coordinate plane of
    R^n; the identity for n < 2."""
    if n < 2:
        return _units([(i, 0) for i in range(n)])
    a, b, c = _PYTH[rng.randrange(len(_PYTH))]
    return _plane_rotations(n, [rng.sample(range(n), 2)], c, a, b, -b)


def _plane_rotations(n: int, planes, den: int, c: int, s: int, t: int) -> tuple:
    """The sparse n x n identity with [[c, s], [t, c]] / den on rows and
    columns i, j for each plane (i, j)."""
    rows = [[(i, den, 0)] for i in range(n)]
    for i, j in planes:
        rows[i] = [(i, c, 0), (j, s, 0)]
        rows[j] = [(i, t, 0), (j, c, 0)]
    return den, rows


def _quaternion_monomial(entries) -> tuple:
    """The sparse block form [[a, -conj(b)], [b, conj(a)]] of the monomial
    quaternionic matrix a + j b with row i holding a and b in column c, for
    (c, (ar, ai, br, bi, e)) = entries[i]: a = (ar + i ai) / e, b likewise."""
    d, den = len(entries), lcm(*[q[4] for _, q in entries])
    top, bot = [], []
    for c, (ar, ai, br, bi, e) in entries:
        m = den // e
        top.append([t for t in ((c, ar * m, ai * m), (d + c, -br * m, bi * m)) if t[1] or t[2]])
        bot.append([t for t in ((c, br * m, bi * m), (d + c, ar * m, -ai * m)) if t[1] or t[2]])
    return den, top + bot


# unit quaternions (ar, ai, br, bi, e): +-1, +-i, +-j, +-ij, 3/5 + 4/5 j, 3/5 + 4/5 ij
_H_UNITS = ((1, 0, 0, 0, 1), (-1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, -1, 0, 0, 1),
            (0, 0, 1, 0, 1), (0, 0, -1, 0, 1), (0, 0, 0, 1, 1), (0, 0, 0, -1, 1),
            (3, 0, 4, 0, 5), (3, 0, 0, 4, 5))
# +-1, +-j, 3/5 + 4/5 j, 5/13 + 12/13 j
_G_UNITS = _H_UNITS[:2] + _H_UNITS[4:6] + ((3, 0, 4, 0, 5), (5, 0, 12, 0, 13))


def _h_generator(case: DualPairCase, rng: Random) -> tuple:
    """A random generator of H as a sparse action."""
    s = case.s
    if case.kind == "sp":
        return _rotation(rng, s) if rng.random() < 0.5 else _units(_permutation(rng, s))
    if case.kind == "u":
        pick = rng.randrange(3)  # a phase permutation, a rotation or a permutation
        if pick == 1:
            return _rotation(rng, s)
        return _units(_permutation(rng, s, signs=pick == 0, phases=pick == 0))
    # ostar: quaternionic permutations and unit-quaternion diagonals
    if rng.random() < 0.5:
        return _quaternion_monomial([(c, _H_UNITS[0])
                                     for c, _ in _permutation(rng, s, signs=False)])
    return _quaternion_monomial([(i, _H_UNITS[rng.randrange(len(_H_UNITS))]) for i in range(s)])


def _g_generator(case: DualPairCase, rng: Random) -> tuple:
    """A random generator of G as an action: for sp a block shear or
    diag(M, M^-T) with M = I + x e_ij, so M^-T = I - x e_ji; for u a
    block-diagonal phase permutation or a hyperbolic boost; for ostar a
    monomial quaternionic matrix, a rotation c I + s J_V, or an isotropic
    shear (V, W) from coefficients drawn on the isotropic basis."""
    if case.kind == "sp":
        ell = case.params[0]
        pick = rng.randrange(3)
        rows = [[(i, 1, 0)] for i in range(2 * ell)]
        if pick < 2:
            small = partial(rng.randint, -2, 2)
            b = random_square(ell, small, small, lambda x: x)  # symmetric
            # [[I, b], [0, I]] (pick 0) or [[I, 0], [b, I]] (pick 1)
            shift = ell * pick
            for i, brow in enumerate(b):
                rows[shift + i] += [(ell - shift + j, x, 0) for j, x in enumerate(brow) if x]
        elif ell >= 2:
            i, j = rng.sample(range(ell), 2)
            x = rng.randint(-2, 2)
            rows[i].append((j, x, 0))
            rows[ell + j].append((ell + i, -x, 0))
        return 1, rows
    if case.kind == "u":
        p, q = case.params
        if rng.random() < 0.5:  # block unitary
            top, bot = (_permutation(rng, n, phases=True) for n in (p, q))
            return _units(top + tuple((p + c, k) for c, k in bot))
        a, b, c = _HYP[rng.randrange(len(_HYP))]  # a hyperbolic boost
        return _plane_rotations(p + q, [(rng.randrange(p), p + rng.randrange(q))], c, a, b, b)
    # ostar
    d = case.params[0]
    pick = rng.randrange(3)
    if pick == 0:
        return _quaternion_monomial([(c, _G_UNITS[rng.randrange(len(_G_UNITS))])
                                     for c, _ in _permutation(rng, d, signs=False)])
    if pick == 1:
        # c I + s J_V with J_V = [[0, I], [-I, 0]]
        a, b, c = _PYTH[rng.randrange(len(_PYTH))]
        return _plane_rotations(2 * d, [(i, d + i) for i in range(d)], c, a, b, -b)
    # isotropic shear I - (v v^H + u u^H) K = I - V W with V = [v | u],
    # u = J_q v = C conj(v), and W = V^H K = [-u | v]^T, as K = C (Fact 1),
    # C^T = -C and C^2 = -I; v = B c for the isotropic basis B
    size, basis = _isotropic_basis(case)
    den, coef = random_plane(rng, size, 3)
    den, v = _act(basis, (den, split_rows(coef, 1)))
    vu = [tuple(zip(re, im)) for re, im in _completed(case, v)]  # per row (v_r, u_r)
    return ((den, [[(k, *x) for k, x in enumerate(row) if any(x)] for row in vu]),
            (den, [[(k, -u[0], -u[1]) for k, (_, u) in enumerate(vu) if any(u)],
                   [(k, *x) for k, (x, _) in enumerate(vu) if any(x)]]))
