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

Every constant of a case (G_V, J_V, the structure maps, i I on K^s) is a
SignedPerm: per row, a column and a unit i**k. Products with it are indexing
that negates or swaps real and imaginary parts. The dense builders
(form_v_matrix, j_v_matrix, structure_v, structure_s) are the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from . import linalg
from .errors import InputError, UnsupportedError
from .sampling import (
    make_rng, random_fraction, random_qi, random_qi_matrix, random_square,
)
from .scalars import HALF, QI, QI_I, QI_ONE, QI_ZERO
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

    # antilinear quaternionic structure X -> C conj(X) C^-1, on V or on K^s
    def structure(self, on_v: bool) -> "SignedPerm":
        if self.kind != "ostar":
            raise UnsupportedError("structure map exists in the quaternionic case only")
        return _omega(self.params[0] if on_v else self.s, -1)

    def structure_v(self) -> list:
        return self.structure(True).dense()

    def structure_s(self) -> list:
        return self.structure(False).dense()

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


def _is_h_linear(m: list, rows_struct: SignedPerm, cols_struct: SignedPerm) -> bool:
    # quaternion-linearity: m @ C_cols == C_rows @ conj(m)
    return linalg.mat_eq(cols_struct.right(m), rows_struct.left(linalg.mat_conj(m)))


def _with_structure(case: DualPairCase, v: list) -> list:
    """The v_size x 2 matrix [v | C conj(v)] for the structure C on V."""
    cv = case.structure(True).left([[x.conjugate()] for x in v])
    return [[a, b] for a, (b,) in zip(v, cv)]


@dataclass
class WElement:
    case: DualPairCase
    alpha: list  # v_size x s_size complex matrix

    def __post_init__(self):
        rows, cols = linalg.shape(self.alpha)
        if (rows, cols) != (self.case.v_size, self.case.s_size):
            raise InputError(
                f"alpha must be {self.case.v_size}x{self.case.s_size}, got {rows}x{cols}"
            )
        if self.case.real_entries and not linalg.is_real_matrix(self.alpha):
            raise InputError("case sp uses real matrices")
        if self.case.kind == "ostar" and not _is_h_linear(
            self.alpha, self.case.structure(True), self.case.structure(False)
        ):
            raise InputError("alpha does not commute with the quaternionic structure")

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
    """Momentum map for the compact group H: -dagger(a) a, valued in Lie(H)."""
    return linalg.mat_neg(linalg.mat_mul(dagger(w), w.alpha))


def mu_G(w: WElement) -> list:
    """Momentum map for G: a dagger(a), valued in Lie(G)."""
    return linalg.mat_mul(w.alpha, dagger(w))


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
    if linalg.shape(x) != (n, n):
        return False
    form = case.form_v() if on_v else SignedPerm(tuple((i, 1) for i in range(n)))
    fx = form.left(x)
    if group:
        ok = linalg.mat_eq(linalg.mat_mul(linalg.conj_transpose(x), fx), form.dense())
    else:
        ok = linalg.mat_eq(fx, linalg.conj_transpose(fx))
    if not ok or (case.real_entries and not linalg.is_real_matrix(x)):
        return False
    if case.kind == "ostar":
        c = form if on_v else case.structure(False)  # on V the structure is G_V (Fact 1)
        return _is_h_linear(x, c, c)
    return True


def equivariance_check(w: WElement, x: list, y: list) -> bool:
    """Ad-equivariance of both momentum maps under (x, y) . a = y a x^-1."""
    case = w.case
    if not in_group_h(case, x):
        raise InputError("x does not lie in the compact group H")
    if not in_group_g(case, y):
        raise InputError("y does not lie in G")
    x_inv = linalg.inverse(x)
    y_inv = linalg.inverse(y)
    moved = WElement(case, linalg.mat_mul(y, linalg.mat_mul(w.alpha, x_inv)))
    lhs_k = mu_K(moved)
    rhs_k = linalg.mat_mul(x, linalg.mat_mul(mu_K(w), x_inv))
    lhs_g = mu_G(moved)
    rhs_g = linalg.mat_mul(y, linalg.mat_mul(mu_G(w), y_inv))
    return linalg.mat_eq(lhs_k, rhs_k) and linalg.mat_eq(lhs_g, rhs_g)


# --- Cartan projection ----------------------------------------------------------

def cartan_split(case: DualPairCase, x: list) -> tuple[list, list]:
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
    if case.kind == "ostar":  # J_q(v) = C conj(v) is the second column
        alpha = _with_structure(case, v)
    else:
        alpha = [[x] for x in v]
    w = WElement(case, alpha)
    return _project_p(mu_G(w), case)


# --- sampling -------------------------------------------------------------------

def random_w_element(case: DualPairCase, seed: int) -> WElement:
    """A random element of W, its rationals of height at most 10."""
    height = 10
    rng = make_rng(seed, "w-element", case.selector(), case.s, height)
    if case.kind == "ostar":
        d, s = case.params[0], case.s
        x = random_qi_matrix(rng, d, s, height)
        y = random_qi_matrix(rng, d, s, height)
        return WElement(case, _quaternion_blocks(x, y))
    alpha = random_qi_matrix(
        rng, case.v_size, case.s_size, height, real=case.real_entries
    )
    return WElement(case, alpha)


def _quaternion_blocks(x: list, y: list) -> list:
    # the complex 2x2-block form of a quaternionic matrix x + j y
    top = [rx + [-v.conjugate() for v in ry] for rx, ry in zip(x, y)]
    bot = [ry + [v.conjugate() for v in rx] for rx, ry in zip(x, y)]
    return top + bot


def isotropic_basis(case: DualPairCase) -> list:
    """Columns spanning a maximal B-isotropic subspace of V (complex span;
    closed under the quaternionic structure in the ostar case)."""
    if case.kind == "sp":  # e_i, i < L
        cols = [{i: QI_ONE} for i in range(case.params[0])]
    elif case.kind == "u":  # e_i + e_{P+i}, i < Q
        p, q = case.params
        cols = [{i: QI_ONE, p + i: QI_ONE} for i in range(q)]
    else:  # u_m = e_2m + i e_2m+1, then their images e_D+2m - i e_D+2m+1 under C conj
        d = case.params[0]
        cols = [{o + 2 * m: QI_ONE, o + 2 * m + 1: unit}
                for o, unit in ((0, QI_I), (d, -QI_I)) for m in range(case.r)]
    return [[col.get(k, QI_ZERO) for k in range(case.v_size)] for col in cols]


def sample_zero_level(case: DualPairCase, seed: int, height: int = 10) -> WElement:
    """An exact point of the zero level of mu_K.

    Columns are drawn inside a fixed maximal isotropic subspace (so the
    image is B-isotropic, which is exactly mu_K = 0) and then moved by two
    random exact G elements. Any s >= 1 is allowed; for s above the
    isotropic dimension the columns are simply dependent.
    """
    rng = make_rng(seed, "zero-level", case.selector(), case.s, height)
    basis = isotropic_basis(case)
    t_mat = linalg.transpose(basis)  # v_size x len(basis)
    if case.kind == "ostar":
        r = case.r
        x = random_qi_matrix(rng, r, case.s, height)
        y = random_qi_matrix(rng, r, case.s, height)
        beta = _quaternion_blocks(x, y)
    else:
        beta = random_qi_matrix(
            rng, len(basis), case.s_size, height, real=case.real_entries
        )
    # mix m multiplies by g_m1 g_m2 g_m3; the last mix is leftmost
    mix_gens = [[_g_generator(case, rng) for _ in range(3)] for _ in range(2)]
    alpha = linalg.mat_chain(*[g for gens in reversed(mix_gens) for g in gens], t_mat, beta)
    w = WElement(case, alpha)
    if not linalg.is_zero_matrix(mu_K(w)):
        raise RuntimeError("zero-level construction failed; isotropy violated")
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

def random_h_element(case: DualPairCase, rng: Random) -> list:
    """A product of three random generators of H."""
    return linalg.mat_chain(*[_h_generator(case, rng) for _ in range(3)])


def random_g_element(case: DualPairCase, rng: Random) -> list:
    """A product of three random generators of G."""
    return linalg.mat_chain(*[_g_generator(case, rng) for _ in range(3)])


def _permutation(rng: Random, n: int, signs: bool = True, phases: bool = False) -> list:
    """A random signed permutation matrix: column i has its unit in row
    perm[i], drawn from 1, -1, i, -i (phases) or 1, -1 (signs), else 1."""
    perm = list(range(n))
    rng.shuffle(perm)
    ks = [(0, 2, 1, 3)[rng.randrange(4)] if phases else 2 * (rng.random() >= 0.5) if signs
          else 0 for _ in perm]
    return SignedPerm(tuple((i, ks[i]) for i in sorted(range(n), key=perm.__getitem__))).dense()


def _rotation(rng: Random, n: int) -> list:
    if n < 2:
        return linalg.identity(n)
    c, s = _PYTH[rng.randrange(len(_PYTH))]
    return _plane_rotations(n, [rng.sample(range(n), 2)], c, s, -s)


def _plane_rotations(n: int, planes, c, s, t) -> list:
    """The n x n identity with [[c, s], [t, c]] on rows and columns i, j
    for each plane (i, j)."""
    m = linalg.identity(n)
    for i, j in planes:
        m[i][i] = m[j][j] = c
        m[i][j], m[j][i] = s, t
    return m


def _h_generator(case: DualPairCase, rng: Random) -> list:
    s = case.s
    if case.kind == "sp":
        return _rotation(rng, s) if rng.random() < 0.5 else _permutation(rng, s)
    if case.kind == "u":
        pick = rng.randrange(3)
        if pick == 0:
            return _permutation(rng, s, phases=True)
        if pick == 1:
            return _rotation(rng, s)
        return _permutation(rng, s, signs=False)
    # ostar: quaternionic permutations and unit-quaternion diagonals
    if rng.random() < 0.5:
        p = _permutation(rng, s, signs=False)
        z = linalg.zeros(s, s)
        return _block(p, z, z, p)
    units = [
        (QI_ONE, QI_ZERO), (-QI_ONE, QI_ZERO), (QI_I, QI_ZERO), (-QI_I, QI_ZERO),
        (QI_ZERO, QI_ONE), (QI_ZERO, -QI_ONE), (QI_ZERO, QI_I), (QI_ZERO, -QI_I),
        _PYTH[0], (_PYTH[0][0], _PYTH[0][1].times_unit(1)),  # 3/5 + 4/5 j, 3/5 + 4/5 ij
    ]
    a = linalg.zeros(s, s)
    b = linalg.zeros(s, s)
    for i in range(s):
        qa, qb = units[rng.randrange(len(units))]
        a[i][i] = qa
        b[i][i] = qb
    return _quaternion_blocks(a, b)


def _g_generator(case: DualPairCase, rng: Random) -> list:
    if case.kind == "sp":
        ell = case.params[0]
        pick = rng.randrange(3)
        if pick < 2:
            def small():
                return QI(rng.randint(-2, 2))

            b = random_square(ell, small, small, lambda x: x)  # symmetric
            z = linalg.zeros(ell, ell)
            ident = linalg.identity(ell)
            return _block(ident, b, z, ident) if pick == 0 else _block(ident, z, b, ident)
        m = linalg.identity(ell)
        if ell >= 2:
            i, j = rng.sample(range(ell), 2)
            m[i][j] = QI(rng.randint(-2, 2))
        m_inv_t = linalg.transpose(linalg.inverse(m))
        z = linalg.zeros(ell, ell)
        return _block(m, z, z, m_inv_t)
    if case.kind == "u":
        p, q = case.params
        if rng.random() < 0.5:
            # block unitary
            top = _permutation(rng, p, phases=True)
            bot = _permutation(rng, q, phases=True)
            return _block(top, linalg.zeros(p, q), linalg.zeros(q, p), bot)
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
        p = _permutation(rng, d, signs=False)
        a = linalg.zeros(d, d)
        b = linalg.zeros(d, d)
        for i in range(d):
            qa, qb = units[rng.randrange(len(units))]
            col = next(j for j in range(d) if p[i][j])
            a[i][col] = qa
            b[i][col] = qb
        return _quaternion_blocks(a, b)
    if pick == 1:
        # c I + s J_V with J_V = [[0, I], [-I, 0]]
        c, s = _PYTH[rng.randrange(len(_PYTH))]
        return _plane_rotations(2 * d, [(i, d + i) for i in range(d)], c, s, -s)
    # isotropic shear I - (v v^H + w w^H) K = I - V (V^H K), V = [v | w], w = J_q v,
    # with v = B c for the isotropic basis B; K = G_V is also the structure (Fact 1)
    basis = isotropic_basis(case)
    coefs = [random_qi(rng, 3) for _ in basis]
    vw = _with_structure(case, linalg.mat_vec(linalg.transpose(basis), coefs))
    vh_k = case.form_v().right(linalg.conj_transpose(vw))
    return linalg.mat_sub(linalg.identity(2 * d), linalg.mat_mul(vw, vh_k))
