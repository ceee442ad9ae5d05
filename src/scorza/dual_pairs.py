"""Dual pairs acting on W = Hom_K(K^s, V) and their momentum maps.

Three cases, by the base division algebra of V:

  sp:L    K = R, V = R^{2L} symplectic,          H = O(s),  G = Sp(L,R)
  u:P,Q   K = C, V = C^{P+Q} signature (P,Q),    H = U(s),  G = U(P,Q)
  ostar:D K = H, V = H^D skew-hermitian,         H = Sp(s), G = O*(2D)

Everything is stored as exact complex matrices; the quaternionic case
carries an antilinear structure map and all quaternion-linear maps commute
with it. The frozen bases fix the p to matrix-model identification up to a
scalar, which no downstream test depends on (rank and vanishing only).

Two facts, checked in the tests on every case kind, carry the constants
and the Cartan decomposition g = k + p:

  Fact 1. G_V^2 = -I and the complex structure is J_V = -G_V, where G_V
          is the Gram matrix of the form B on V; in the ostar case the
          quaternionic structure matrix is G_V as well.
  Fact 2. X in g means X^H G_V + G_V X = 0, that is X^H = G_V X G_V, so
          by Fact 1 J_V X J_V = X^H. The J_V-commuting part of X is
          therefore (X - X^H)/2 and the anticommuting part (X + X^H)/2.

A third fact halves the quaternionic products:

  Fact 3. A quaternion-linear 2m x 2n matrix M, in its complex 2x2-block
          form [[X, -conj(Y)], [Y, conj(X)]], satisfies M C_n = C_m conj(M)
          for the structure C_k = [[0, -I_k], [I_k, 0]], so its right block
          column is C_m conj(L) for its left block column L. Only
          `_left_half` and `_with_right_half` know C; the rest builds an
          ostar matrix from L and tests M == [L | C_m conj(L)]. `_chain`
          and `_product` form only L of an ostar product. This holds only
          for products that are quaternion-linear: every factor is
          validated (WElement, in_group_h, in_group_g) or built
          quaternion-linear (the generator actions, the isotropic basis,
          `_with_right_half`).

The random generators of G and H are sparse actions, never matrices: per
output row the (column, re, im) ints of the nonzero entries over one
denominator, and for the ostar isotropic shear I - V W the pair of sparse V
and W, applied as X - V (W X). `_act` applies one to the rows of an integer
plane, so a zero-level sample and a random group element build QI once.

Every constant of a case (G_V, J_V, the structure maps, i I on K^s) is a
SignedPerm: per row, a column and a unit i**k. Products with it are indexing
that negates or swaps real and imaginary parts. The dense builders
form_v_matrix and j_v_matrix are the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from random import Random

from . import linalg
from .errors import InputError
from .sampling import (
    make_rng, random_fraction, random_qi, random_qi_matrix, random_square,
)
from .scalars import HALF, QI, QI_I, QI_ONE, QI_ZERO, from_plane, to_plane
from .strata import (
    PSpaceModel, StratumPoint, check_cells, mat_model, skew_model, split_selector, sym_model,
)

KINDS = ("sp", "u", "ostar")

# exact Pythagorean pairs (a/c, b/c), a^2 + b^2 = c^2, for rational rotations
_PYTH = tuple((QI.from_ints(a, 0, c), QI.from_ints(b, 0, c))
              for a, b, c in ((3, 4, 5), (5, 12, 13), (8, 15, 17)))
# exact hyperbolic pairs (a/c, b/c) with a^2 - b^2 = c^2
_HYP = tuple((QI.from_ints(a, 0, c), QI.from_ints(b, 0, c))
             for a, b, c in ((5, 3, 4), (13, 5, 12), (17, 8, 15)))


CASE_GRAMMAR = "sp:L | u:P,Q | ostar:D"


@dataclass(frozen=True)
class DualPairCase:
    kind: str
    params: tuple
    s: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(
                f"unknown dual-pair case {self.kind!r}; expected {CASE_GRAMMAR}"
            )
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
        """Split rank of G, the saturation rank of the reduction."""
        if self.kind == "sp":
            return self.params[0]
        if self.kind == "u":
            return self.params[1]
        return self.params[0] // 2

    @property
    def v_size(self) -> int:
        if self.kind == "sp":
            return 2 * self.params[0]
        if self.kind == "u":
            return sum(self.params)
        return 2 * self.params[0]

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
        if self.kind == "sp":
            return self.params[0] * self.s
        if self.kind == "u":
            return sum(self.params) * self.s
        return 2 * self.params[0] * self.s


def parse_case(selector: str, s: int) -> DualPairCase:
    """Parse sp:L | u:P,Q | ostar:D into a case with s columns."""
    return DualPairCase(*split_selector(selector, "case", CASE_GRAMMAR), s)


def _block(a, b, c, d) -> list:
    top = [ra + rb for ra, rb in zip(a, b)]
    bot = [rc + rd for rc, rd in zip(c, d)]
    return top + bot


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


def _chain(case: DualPairCase, *factors: list) -> list:
    """The product of the factors, as `linalg.mat_chain`. For ostar the
    product must be quaternion-linear: only the left half of the last
    factor's columns is multiplied, and the result is completed (Fact 3)."""
    *left, last = factors
    return _with_right_half(case, linalg.mat_chain(*left, _left_half(case, last)))


def _left_half(case: DualPairCase, m: list) -> list:
    """For ostar, the left block column of m (Fact 3). Otherwise m."""
    if case.kind != "ostar":
        return m
    half = len(m[0]) // 2
    return [row[:half] for row in m]


def _with_right_half(case: DualPairCase, lhalf: list) -> list:
    """For ostar, [L | C conj(L)] with C = _omega(rows // 2, -1): the
    quaternion-linear matrix with left block column L (Fact 3). Otherwise L."""
    if case.kind != "ostar":
        return lhalf
    rhalf = _omega(len(lhalf) // 2, -1).left(linalg.mat_conj(lhalf))
    return [a + b for a, b in zip(lhalf, rhalf)]


def _is_h_linear(case: DualPairCase, m: list) -> bool:
    """Quaternion-linearity of an ostar matrix [L | R], M C_n = C_m conj(M):
    as C conj(C conj(L)) = -L, it holds exactly when R = C_m conj(L), that
    is when m is the completion of its left half. True off ostar."""
    return m == _with_right_half(case, _left_half(case, m))


@dataclass
class WElement:
    case: DualPairCase
    alpha: list  # v_size x s_size complex matrix
    # mu_K(alpha), set by sample_zero_level alone: the value of its safety
    # check, which mu_K returns. Kept on purpose: forming it again made a
    # moment benchmark pass 4-7% slower (2 vCPUs, Python 3.11, in-process
    # alternating runs; faster in at most 5 of 16 pairs).
    checked_mu_K = None

    def __post_init__(self):
        rows, cols = linalg.shape(self.alpha)
        if any(len(row) != cols for row in self.alpha):
            raise InputError("alpha rows have different lengths")
        if (rows, cols) != (self.case.v_size, self.case.s_size):
            raise InputError(
                f"alpha must be {self.case.v_size}x{self.case.s_size}, got {rows}x{cols}"
            )
        if self.case.real_entries and not linalg.is_real_matrix(self.alpha):
            raise InputError("case sp uses real matrices")
        if not _is_h_linear(self.case, self.alpha):
            raise InputError("alpha does not commute with the quaternionic structure")

    @staticmethod
    def _trusted(case: DualPairCase, alpha: list) -> "WElement":
        """The element with this alpha, built without `__post_init__`'s
        checks: for alpha of the right shape that is real (sp) or
        quaternion-linear (ostar) by construction, such as a zero-level
        sample or a moved element y alpha x^-1 of checked x and y."""
        w = object.__new__(WElement)
        w.__dict__.update(case=case, alpha=alpha)
        return w

    def to_json(self) -> dict:
        return {
            "case": self.case.selector(),
            "s": self.case.s,
            "alpha": linalg.matrix_to_json(self.alpha),
        }


# --- momentum maps -------------------------------------------------------------

def dagger(w: WElement) -> list:
    """The adjoint map V -> K^s defined by (dagger(a) u, v) = B(u, a v):
    a^H G_V^H = a^H J_V, as G_V is skew-hermitian."""
    return (-w.case.form_v()).right(linalg.conj_transpose(w.alpha))


def mu_K(w: WElement) -> list:
    """Momentum map for the compact group H: -dagger(a) a, valued in Lie(H).
    For ostar only its left block column is multiplied (Fact 3). A
    `sample_zero_level` element returns the value that sampling checked."""
    if w.checked_mu_K is not None:
        return w.checked_mu_K
    return linalg.mat_neg(_chain(w.case, dagger(w), w.alpha))


def mu_G(w: WElement) -> list:
    """Momentum map for G: a dagger(a), valued in Lie(G). For ostar only its
    left block column is multiplied (Fact 3)."""
    return _chain(w.case, w.alpha, dagger(w))


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
    Each side is one product chain; x and y are checked group elements, so
    for ostar every chain is quaternion-linear and formed on its left block
    column (Fact 3)."""
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
    moved = WElement._trusted(case, _chain(case, y, alpha, x_inv))
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
    return _project_p(x, case)


def _project_p(x: list, case: DualPairCase) -> StratumPoint:
    """`cartan_project` for X known to lie in g, such as mu_G(w)."""

    def x_p(i, j):  # entry (i, j) of the p part from cartan_split
        return (x[i][j] + x[j][i].conjugate()) * HALF

    n = case.params[0]
    if case.kind == "u":
        m = [[x_p(i, j) for j in range(n)] for i in range(n, case.v_size)]
    else:
        k = 1 if case.kind == "sp" else 3  # the unit i or -i
        m = [[x_p(i, j) + x_p(i, n + j).times_unit(k) for j in range(n)] for i in range(n)]
    return StratumPoint(case.model(), m)


def reduced_point(w: WElement) -> StratumPoint:
    """Image of a zero-level element in the matrix model; rank <= min(s, r)."""
    if not linalg.is_zero_matrix(mu_K(w)):
        raise InputError("reduced_point needs mu_K(alpha) = 0")
    return _project_p(mu_G(w), w.case)


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
    w = WElement(case, _with_right_half(case, [[x] for x in v]))
    return _project_p(mu_G(w), case)


# --- sampling -------------------------------------------------------------------

def random_w_element(case: DualPairCase, seed: int) -> WElement:
    """A random element of W, its rationals of height at most 10."""
    height = 10
    rng = make_rng(seed, "w-element", case.selector(), case.s, height)
    # for ostar the left block column [x; y] of x + j y, with case.s columns
    lhalf = random_qi_matrix(rng, case.v_size, case.s, height, real=case.real_entries)
    return WElement._trusted(case, _with_right_half(case, lhalf))


def _isotropic_support(case: DualPairCase) -> list:
    """A basis of a maximal B-isotropic subspace of V (complex span; closed
    under the quaternionic structure in the ostar case), as sparse columns:
    per column its entries (row, k), each i**k."""
    if case.kind == "sp":  # e_i, i < L
        return [[(i, 0)] for i in range(case.params[0])]
    if case.kind == "u":  # e_i + e_{P+i}, i < Q
        p, q = case.params
        return [[(i, 0), (p + i, 0)] for i in range(q)]
    # u_m = e_2m + i e_2m+1, then their images e_D+2m - i e_D+2m+1 under C conj
    d = case.params[0]
    return [[(o + 2 * m, 0), (o + 2 * m + 1, k)]
            for o, k in ((0, 1), (d, 3)) for m in range(case.r)]


def sample_zero_level(case: DualPairCase, seed: int, height: int = 10) -> WElement:
    """An exact point of the zero level of mu_K.

    Columns are drawn inside a fixed maximal isotropic subspace (so the
    image is B-isotropic, which is exactly mu_K = 0) and then moved by two
    random exact G elements. Any s >= 1 is allowed; for s above the
    isotropic dimension the columns are simply dependent.

    The coefficients beta go to the integer plane once (for ostar only
    their left block column); the isotropic basis and the six drawn
    generators act on that plane as sparse actions, right to left, and QI
    is built once for the result. No generator is formed as a matrix, and
    the only matrix product is the mu_K check, whose value the element
    keeps as `checked_mu_K` for `mu_K` to return.
    """
    rng = make_rng(seed, "zero-level", case.selector(), case.s, height)
    support = _isotropic_support(case)
    # for ostar the left block column [x; y] of x + j y, with case.s columns
    beta = random_qi_matrix(rng, len(support), case.s, height, real=case.real_entries)
    # mix m multiplies by g_m1 g_m2 g_m3; the last mix is leftmost
    mix_gens = [[_g_generator(case, rng) for _ in range(3)] for _ in range(2)]
    basis = [[] for _ in range(case.v_size)]
    for col, entries in enumerate(support):
        for row, k in entries:
            basis[row].append((col, SignedPerm.UNITS[k]))
    chain = [g for gens in reversed(mix_gens) for g in gens] + [_sparse(basis)]
    w = WElement._trusted(case, _product(case, chain, _plane(beta)))
    mu_k = mu_K(w)
    if not linalg.is_zero_matrix(mu_k):
        raise RuntimeError("zero-level construction failed; isotropy violated")
    w.checked_mu_K = mu_k
    return w


def random_lie_g(case: DualPairCase, rng: Random) -> list:
    """A random element of Lie(G), built directly from the block structure."""
    height = 5

    def qi():  # real in the sp case
        return random_qi(rng, height, real=case.real_entries)

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
        a = random_square(p, lambda: random_fraction(rng, height).times_unit(1), qi, anti)
        d = random_square(q, lambda: random_fraction(rng, height).times_unit(1), qi, anti)
        b = random_qi_matrix(rng, p, q, height)
        return _block(a, b, linalg.conj_transpose(b), d)
    d = case.params[0]
    a = random_square(d, lambda: QI_ZERO, qi, lambda x: -x)  # complex skew
    b = random_square(d, lambda: random_fraction(rng, height), qi, QI.conjugate)
    return _block(
        a, b, linalg.mat_neg(linalg.mat_conj(b)), linalg.mat_conj(a)
    )


# --- exact random group elements -------------------------------------------------
#
# A plane (den, rows) holds a matrix as per-row (re, im) int lists over one
# denominator, the integer plane of `scalars` with its parts split. A sparse
# action (den, rows) holds per row the (column, re, im) ints of its nonzero
# entries (re + i im) / den; the ostar isotropic shear is a pair (V, W) of them.

def random_h_element(case: DualPairCase, rng: Random) -> list:
    """A product of three random generators of H, their actions applied to
    the identity (for ostar only to its left half, Fact 3)."""
    gens = [_h_generator(case, rng) for _ in range(3)]
    return _product(case, gens, _plane(_left_half(case, linalg.identity(case.s_size))))


def random_g_element(case: DualPairCase, rng: Random) -> list:
    """A product of three random generators of G, their actions applied to
    the identity (for ostar only to its left half, Fact 3)."""
    gens = [_g_generator(case, rng) for _ in range(3)]
    return _product(case, gens, _plane(_left_half(case, linalg.identity(case.v_size))))


def _plane(m: list) -> tuple:
    """The plane of a QI matrix, over the lcm of its entries' d."""
    den, flat = to_plane([x for row in m for x in row])
    w = 2 * len(m[0])
    return den, [(flat[i:i + w:2], flat[i + 1:i + w:2]) for i in range(0, len(flat), w)]


def _product(case: DualPairCase, actions: list, plane: tuple) -> list:
    """The QI matrix actions[0] ... actions[-1] X for the plane of X, applied
    right to left. For ostar, X is a left block column and the product's
    right block column C conj(L) is appended (Fact 3)."""
    for action in reversed(actions):
        plane = _act(action, plane)
    den, rows = plane
    return _with_right_half(case, [from_plane(den, [p for pair in zip(re, im) for p in pair])
                                   for re, im in rows])


def _act(action: tuple, plane: tuple) -> tuple:
    """The plane of M X for an action M and the plane (den, rows) of X. Row
    i of a sparse M X is the sum over the terms (c, re, im) of row i of
    (re + i im) times row c of X; a shear (V, W) is applied as X - V (W X)."""
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


def _sparse(rows: list) -> tuple:
    """The sparse action of a matrix given per row as (column, QI) entries,
    over the lcm of their d; zero entries are dropped."""
    den = lcm(*[x.d for row in rows for _, x in row])
    return den, [[(c, x.a * (den // x.d), x.b * (den // x.d)) for c, x in row if x]
                 for row in rows]


def _units(entries) -> tuple:
    """The sparse action of a signed permutation: row r holds i**k in column
    c, for (c, k) = entries[r], as in `SignedPerm`."""
    return _sparse([[(c, SignedPerm.UNITS[k])] for c, k in entries])


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
    c, s = _PYTH[rng.randrange(len(_PYTH))]
    return _plane_rotations(n, [rng.sample(range(n), 2)], c, s, -s)


def _plane_rotations(n: int, planes, c, s, t) -> tuple:
    """The sparse n x n identity with [[c, s], [t, c]] on rows and columns
    i, j for each plane (i, j)."""
    rows = [[(i, QI_ONE)] for i in range(n)]
    for i, j in planes:
        rows[i] = [(i, c), (j, s)]
        rows[j] = [(i, t), (j, c)]
    return _sparse(rows)


def _quaternion_monomial(entries) -> tuple:
    """The sparse block form [[a, -conj(b)], [b, conj(a)]] of the monomial
    quaternionic matrix a + j b with row i holding qa in a and qb in b, both
    in column c, for (c, qa, qb) = entries[i]."""
    d = len(entries)
    top = [[(c, qa), (d + c, -qb.conjugate())] for c, qa, qb in entries]
    bot = [[(c, qb), (d + c, qa.conjugate())] for c, qa, qb in entries]
    return _sparse(top + bot)


def _h_generator(case: DualPairCase, rng: Random) -> tuple:
    """A random generator of H as a sparse action."""
    s = case.s
    if case.kind == "sp":
        return _rotation(rng, s) if rng.random() < 0.5 else _units(_permutation(rng, s))
    if case.kind == "u":
        pick = rng.randrange(3)
        if pick == 0:
            return _units(_permutation(rng, s, phases=True))
        if pick == 1:
            return _rotation(rng, s)
        return _units(_permutation(rng, s, signs=False))
    # ostar: quaternionic permutations and unit-quaternion diagonals
    if rng.random() < 0.5:
        return _quaternion_monomial([(c, QI_ONE, QI_ZERO)
                                     for c, _ in _permutation(rng, s, signs=False)])
    units = [
        (QI_ONE, QI_ZERO), (-QI_ONE, QI_ZERO), (QI_I, QI_ZERO), (-QI_I, QI_ZERO),
        (QI_ZERO, QI_ONE), (QI_ZERO, -QI_ONE), (QI_ZERO, QI_I), (QI_ZERO, -QI_I),
        _PYTH[0], (_PYTH[0][0], _PYTH[0][1].times_unit(1)),  # 3/5 + 4/5 j, 3/5 + 4/5 ij
    ]
    return _quaternion_monomial([(i, *units[rng.randrange(len(units))]) for i in range(s)])


def _g_generator(case: DualPairCase, rng: Random) -> tuple:
    """A random generator of G as an action: for sp a block shear or
    diag(M, M^-T) with M = I + x e_ij, so M^-T = I - x e_ji; for u a
    block-diagonal phase permutation or a hyperbolic boost; for ostar a
    monomial quaternionic matrix, a rotation c I + s J_V, or an isotropic
    shear (V, W) from coefficients drawn on the isotropic basis."""
    if case.kind == "sp":
        ell = case.params[0]
        pick = rng.randrange(3)
        rows = [[(i, QI_ONE)] for i in range(2 * ell)]
        if pick < 2:
            def small():
                return QI(rng.randint(-2, 2))

            b = random_square(ell, small, small, lambda x: x)  # symmetric
            # [[I, b], [0, I]] (pick 0) or [[I, 0], [b, I]] (pick 1)
            shift = ell * pick
            for i, brow in enumerate(b):
                rows[shift + i] += [(ell - shift + j, x) for j, x in enumerate(brow)]
        elif ell >= 2:
            i, j = rng.sample(range(ell), 2)
            x = QI(rng.randint(-2, 2))
            rows[i].append((j, x))
            rows[ell + j].append((ell + i, -x))
        return _sparse(rows)
    if case.kind == "u":
        p, q = case.params
        if rng.random() < 0.5:
            # block unitary
            top = _permutation(rng, p, phases=True)
            bot = _permutation(rng, q, phases=True)
            return _units(top + tuple((p + c, k) for c, k in bot))
        c, s = _HYP[rng.randrange(len(_HYP))]  # a hyperbolic boost
        return _plane_rotations(p + q, [(rng.randrange(p), p + rng.randrange(q))], c, s, s)
    # ostar
    d = case.params[0]
    pick = rng.randrange(3)
    if pick == 0:
        units = [
            (QI_ONE, QI_ZERO), (-QI_ONE, QI_ZERO),
            (QI_ZERO, QI_ONE), (QI_ZERO, -QI_ONE),
            _PYTH[0], _PYTH[1],  # 3/5 + 4/5 j, 5/13 + 12/13 j
        ]
        return _quaternion_monomial([(c, *units[rng.randrange(len(units))])
                                     for c, _ in _permutation(rng, d, signs=False)])
    if pick == 1:
        # c I + s J_V with J_V = [[0, I], [-I, 0]]
        c, s = _PYTH[rng.randrange(len(_PYTH))]
        return _plane_rotations(2 * d, [(i, d + i) for i in range(d)], c, s, -s)
    # isotropic shear I - (v v^H + u u^H) K = I - V W with V = [v | u],
    # u = J_q v = C conj(v), and W = V^H K = [-u | v]^T, as K = C (Fact 1),
    # C^T = -C and C^2 = -I; v = B c is placed from the isotropic basis B
    v = [QI_ZERO] * (2 * d)
    for entries in _isotropic_support(case):
        coef = random_qi(rng, 3)
        for row, k in entries:
            v[row] = coef.times_unit(k)
    vu = _with_right_half(case, [[x] for x in v])
    return (_sparse([[(0, a), (1, b)] for a, b in vu]),
            _sparse([[(k, -b) for k, (_, b) in enumerate(vu)],
                     [(k, a) for k, (a, _) in enumerate(vu)]]))
