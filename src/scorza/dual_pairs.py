"""Dual pairs acting on W = Hom_K(K^s, V) and their momentum maps.

Three cases, by the base division algebra of V:

  sp:L    K = R, V = R^{2L} symplectic,          H = O(s),  G = Sp(L,R)
  u:P,Q   K = C, V = C^{P+Q} signature (P,Q),    H = U(s),  G = U(P,Q)
  ostar:D K = H, V = H^D skew-hermitian,         H = Sp(s), G = O*(2D)

Everything is stored as exact complex matrices; the quaternionic case
carries an antilinear structure map and all quaternion-linear maps commute
with it. The frozen bases fix the p to matrix-model identification up to a
scalar, which no downstream test depends on (rank and vanishing only).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import linalg
from .errors import InputError, UnsupportedError
from .sampling import make_rng, random_fraction, random_qi, random_qi_matrix
from .scalars import HALF, QI, QI_I, QI_ONE, QI_ZERO
from .strata import (
    PSpaceModel, StratumPoint, check_cells, mat_model, skew_model, sym_model,
)

KINDS = ("sp", "u", "ostar")

# exact Pythagorean pairs for rational rotations
_PYTH = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
         (Fraction(8, 17), Fraction(15, 17)))
# exact hyperbolic pairs with c^2 - s^2 = 1
_HYP = ((Fraction(5, 4), Fraction(3, 4)), (Fraction(13, 12), Fraction(5, 12)),
        (Fraction(17, 15), Fraction(8, 15)))


_CASE_GRAMMAR = "sp:L | u:P,Q | ostar:D"


@dataclass(frozen=True)
class DualPairCase:
    kind: str
    params: tuple
    s: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(
                f"unknown dual-pair case {self.kind!r}; expected {_CASE_GRAMMAR}"
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

    # form on V (conjugate-linear in the first slot): B(u, v) = u^H G_V v
    def form_v_matrix(self) -> list:
        if self.kind == "sp":
            ell = self.params[0]
            return _block(
                linalg.zeros(ell, ell), linalg.identity(ell),
                linalg.mat_neg(linalg.identity(ell)), linalg.zeros(ell, ell),
            )
        if self.kind == "u":
            return linalg.mat_scale(_signature(*self.params), QI_I)
        d = self.params[0]
        return _omega_minus(d)

    def j_v_matrix(self) -> list:
        if self.kind == "sp":
            ell = self.params[0]
            return _block(
                linalg.zeros(ell, ell), linalg.mat_neg(linalg.identity(ell)),
                linalg.identity(ell), linalg.zeros(ell, ell),
            )
        if self.kind == "u":
            return linalg.mat_scale(_signature(*self.params), -QI_I)
        return linalg.mat_neg(_omega_minus(self.params[0]))

    # antilinear quaternionic structure X -> C conj(X) C^-1; matrices only
    def structure_v(self) -> list:
        if self.kind != "ostar":
            raise UnsupportedError("structure map exists in the quaternionic case only")
        return _omega_minus(self.params[0])

    def structure_s(self) -> list:
        if self.kind != "ostar":
            raise UnsupportedError("structure map exists in the quaternionic case only")
        return _omega_minus(self.s)

    def w_complex_dim(self) -> int:
        """Complex dimension of W(s) under the complex structure J_V o (.)"""
        if self.kind == "sp":
            return self.params[0] * self.s
        if self.kind == "u":
            return sum(self.params) * self.s
        return 2 * self.params[0] * self.s


def parse_case(selector: str, s: int) -> DualPairCase:
    """Parse sp:L | u:P,Q | ostar:D into a case with s columns."""
    text = selector.strip().lower()
    kind, _, args = text.partition(":")
    try:
        nums = tuple(int(a) for a in args.split(",")) if args else ()
    except ValueError as exc:
        raise InputError(
            f"bad case selector {selector!r}; expected {_CASE_GRAMMAR}"
        ) from exc
    return DualPairCase(kind, nums, s)


def _block(a, b, c, d) -> list:
    top = [ra + rb for ra, rb in zip(a, b)]
    bot = [rc + rd for rc, rd in zip(c, d)]
    return top + bot


def _signature(p: int, q: int) -> list:
    m = linalg.identity(p + q)
    for i in range(p, p + q):
        m[i][i] = -QI_ONE
    return m


def _omega_minus(n: int) -> list:
    # [[0, -I],[I, 0]]
    return _block(
        linalg.zeros(n, n), linalg.mat_neg(linalg.identity(n)),
        linalg.identity(n), linalg.zeros(n, n),
    )


def _is_h_linear(case: DualPairCase, m: list, rows_struct: list, cols_struct: list) -> bool:
    # quaternion-linearity: m @ C_cols == C_rows @ conj(m)
    lhs = linalg.mat_mul(m, cols_struct)
    rhs = linalg.mat_mul(rows_struct, linalg.mat_conj(m))
    return linalg.mat_eq(lhs, rhs)


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
            self.case, self.alpha, self.case.structure_v(), self.case.structure_s()
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
    """The adjoint map V -> K^s defined by (dagger(a) u, v) = B(u, a v)."""
    gv = w.case.form_v_matrix()
    return linalg.mat_mul(linalg.conj_transpose(w.alpha), linalg.conj_transpose(gv))


def mu_K(w: WElement) -> list:
    """Momentum map for the compact group H: -dagger(a) a, valued in Lie(H)."""
    return linalg.mat_neg(linalg.mat_mul(dagger(w), w.alpha))


def mu_G(w: WElement) -> list:
    """Momentum map for G: a dagger(a), valued in Lie(G)."""
    return linalg.mat_mul(w.alpha, dagger(w))


def in_lie_h(case: DualPairCase, x: list) -> bool:
    n = case.s_size
    if linalg.shape(x) != (n, n):
        return False
    if not linalg.is_zero_matrix(linalg.mat_add(linalg.conj_transpose(x), x)):
        return False
    if case.real_entries and not linalg.is_real_matrix(x):
        return False
    if case.kind == "ostar":
        cs = case.structure_s()
        return _is_h_linear(case, x, cs, cs)
    return True


def in_lie_g(case: DualPairCase, x: list) -> bool:
    n = case.v_size
    if linalg.shape(x) != (n, n):
        return False
    gv = case.form_v_matrix()
    cond = linalg.mat_add(
        linalg.mat_mul(linalg.conj_transpose(x), gv), linalg.mat_mul(gv, x)
    )
    if not linalg.is_zero_matrix(cond):
        return False
    if case.real_entries and not linalg.is_real_matrix(x):
        return False
    if case.kind == "ostar":
        cv = case.structure_v()
        return _is_h_linear(case, x, cv, cv)
    return True


def in_group_h(case: DualPairCase, x: list) -> bool:
    n = case.s_size
    if linalg.shape(x) != (n, n):
        return False
    if not linalg.mat_eq(
        linalg.mat_mul(linalg.conj_transpose(x), x), linalg.identity(n)
    ):
        return False
    if case.real_entries and not linalg.is_real_matrix(x):
        return False
    if case.kind == "ostar":
        cs = case.structure_s()
        return _is_h_linear(case, x, cs, cs)
    return True


def in_group_g(case: DualPairCase, y: list) -> bool:
    n = case.v_size
    if linalg.shape(y) != (n, n):
        return False
    gv = case.form_v_matrix()
    if not linalg.mat_eq(
        linalg.mat_mul(linalg.conj_transpose(y), linalg.mat_mul(gv, y)), gv
    ):
        return False
    if case.real_entries and not linalg.is_real_matrix(y):
        return False
    if case.kind == "ostar":
        cv = case.structure_v()
        return _is_h_linear(case, y, cv, cv)
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
    """Split X in g into the J_V-commuting and J_V-anticommuting parts."""
    j = case.j_v_matrix()
    jxj = linalg.mat_mul(j, linalg.mat_mul(x, j))
    x_k = linalg.mat_scale(linalg.mat_sub(x, jxj), HALF)
    x_p = linalg.mat_scale(linalg.mat_add(x, jxj), HALF)
    return x_k, x_p


def cartan_project(x: list, case: DualPairCase) -> StratumPoint:
    """Project X in g to p and identify p with the case's matrix model."""
    if not in_lie_g(case, x):
        raise InputError("X does not lie in the Lie algebra of G")
    _, x_p = cartan_split(case, x)
    if case.kind == "sp":
        ell = case.params[0]
        a = [row[:ell] for row in x_p[:ell]]
        b = [row[ell:] for row in x_p[:ell]]
        m = linalg.mat_add(a, linalg.mat_scale(b, QI_I))
        return StratumPoint(case.model(), m)
    if case.kind == "u":
        p = case.params[0]
        m = [row[:p] for row in x_p[p:]]
        return StratumPoint(case.model(), m)
    d = case.params[0]
    a = [row[:d] for row in x_p[:d]]
    b = [row[d:] for row in x_p[:d]]
    m = linalg.mat_sub(a, linalg.mat_scale(b, QI_I))
    return StratumPoint(case.model(), m)


def reduced_point(w: WElement) -> StratumPoint:
    """Image of a zero-level element in the matrix model; rank <= min(s, r)."""
    if not linalg.is_zero_matrix(mu_K(w)):
        raise InputError("reduced_point needs mu_K(alpha) = 0")
    return cartan_project(mu_G(w), w.case)


def veronese_map(case: DualPairCase, v: list) -> StratumPoint:
    """For s = 1, the composite of mu_G with the projection to p.

    Defined on all of W(1) (no zero-level requirement); the image lies in
    the rank <= 1 cone and scales by lambda^2 under real rescaling of v.
    """
    if case.s != 1:
        raise InputError("veronese_map needs a case with s = 1")
    if len(v) != case.v_size:
        raise InputError(f"vector must have {case.v_size} coordinates")
    if case.kind == "ostar":
        cv = case.structure_v()
        # J_q(v) = C conj(v), the antilinear structure applied to v
        jv = linalg.mat_vec(cv, [x.conjugate() for x in v])
        alpha = [[a, b] for a, b in zip(v, jv)]
    else:
        alpha = [[x] for x in v]
    w = WElement(case, alpha)
    return cartan_project(mu_G(w), case)


# --- sampling -------------------------------------------------------------------

def random_w_element(case: DualPairCase, seed: int, height: int = 10) -> WElement:
    rng = make_rng(seed, "w-element", case.selector(), case.s, height)
    return _random_w(case, rng, height)


def _random_w(case: DualPairCase, rng: Random, height: int) -> WElement:
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
    n = case.v_size
    if case.kind == "sp":
        ell = case.params[0]
        cols = [_unit(n, i) for i in range(ell)]
        return cols
    if case.kind == "u":
        p, q = case.params
        return [_vec_add(_unit(n, i), _unit(n, p + i)) for i in range(q)]
    d = case.params[0]
    r = case.r
    cols = []
    for m in range(r):
        u = _vec_add(_unit(n, 2 * m), _vec_scale(_unit(n, 2 * m + 1), QI_I))
        cols.append(u)
    cv = case.structure_v()
    cols += [linalg.mat_vec(cv, [x.conjugate() for x in u]) for u in cols[:r]]
    return cols


def _unit(n: int, i: int) -> list:
    return [QI_ONE if j == i else QI_ZERO for j in range(n)]


def _vec_add(u: list, v: list) -> list:
    return [a + b for a, b in zip(u, v)]


def _vec_scale(u: list, s: QI) -> list:
    return [a * s for a in u]


def sample_zero_level(
    case: DualPairCase, seed: int, height: int = 10, mixes: int = 2
) -> WElement:
    """An exact point of the zero level of mu_K.

    Columns are drawn inside a fixed maximal isotropic subspace (so the
    image is B-isotropic, which is exactly mu_K = 0) and then moved by a
    few random exact G elements. Any s >= 1 is allowed; for s above the
    isotropic dimension the columns are simply dependent.
    """
    rng = make_rng(seed, "zero-level", case.selector(), case.s, height)
    basis = isotropic_basis(case)
    t_mat = [list(row) for row in zip(*basis)]  # v_size x len(basis)
    if case.kind == "ostar":
        r = case.r
        x = random_qi_matrix(rng, r, case.s, height)
        y = random_qi_matrix(rng, r, case.s, height)
        beta = _quaternion_blocks(x, y)
    else:
        beta = random_qi_matrix(
            rng, len(basis), case.s_size, height, real=case.real_entries
        )
    alpha = linalg.mat_mul(t_mat, beta)
    for _ in range(mixes):
        alpha = linalg.mat_mul(random_g_element(case, rng), alpha)
    w = WElement(case, alpha)
    if not linalg.is_zero_matrix(mu_K(w)):
        raise RuntimeError("zero-level construction failed; isotropy violated")
    return w


def random_lie_g(case: DualPairCase, rng: Random, height: int = 5) -> list:
    """A random element of Lie(G), built directly from the block structure."""
    if case.kind == "sp":
        ell = case.params[0]
        a = random_qi_matrix(rng, ell, ell, height, real=True)
        b = _random_symmetric(rng, ell, height, real=True)
        c = _random_symmetric(rng, ell, height, real=True)
        neg_at = linalg.mat_neg(linalg.transpose(a))
        return _block(a, b, c, neg_at)
    if case.kind == "u":
        p, q = case.params
        a = _random_antihermitian(rng, p, height)
        d = _random_antihermitian(rng, q, height)
        b = random_qi_matrix(rng, p, q, height)
        return _block(a, b, linalg.conj_transpose(b), d)
    d = case.params[0]
    a = _random_complex_skew(rng, d, height)
    b = _random_hermitian_mat(rng, d, height)
    return _block(
        a, b, linalg.mat_neg(linalg.mat_conj(b)), linalg.mat_conj(a)
    )


def _random_symmetric(rng: Random, n: int, height: int, real: bool = False) -> list:
    m = linalg.zeros(n, n)
    for i in range(n):
        m[i][i] = random_qi(rng, height, real=real)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = random_qi(rng, height, real=real)
    return m


def _random_antihermitian(rng: Random, n: int, height: int) -> list:
    m = linalg.zeros(n, n)
    for i in range(n):
        m[i][i] = QI(0, random_fraction(rng, height))
        for j in range(i + 1, n):
            x = random_qi(rng, height)
            m[i][j] = x
            m[j][i] = -x.conjugate()
    return m


def _random_complex_skew(rng: Random, n: int, height: int) -> list:
    m = linalg.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            x = random_qi(rng, height)
            m[i][j] = x
            m[j][i] = -x
    return m


def _random_hermitian_mat(rng: Random, n: int, height: int) -> list:
    m = linalg.zeros(n, n)
    for i in range(n):
        m[i][i] = QI(random_fraction(rng, height))
        for j in range(i + 1, n):
            x = random_qi(rng, height)
            m[i][j] = x
            m[j][i] = x.conjugate()
    return m


# --- exact random group elements -------------------------------------------------

def random_h_element(case: DualPairCase, rng: Random, factors: int = 3) -> list:
    out = linalg.identity(case.s_size)
    for _ in range(factors):
        out = linalg.mat_mul(out, _h_generator(case, rng))
    return out


def random_g_element(case: DualPairCase, rng: Random, factors: int = 3) -> list:
    out = linalg.identity(case.v_size)
    for _ in range(factors):
        out = linalg.mat_mul(out, _g_generator(case, rng))
    return out


def _permutation(rng: Random, n: int, signs: bool = True, phases: bool = False) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    m = linalg.zeros(n, n)
    for i, j in enumerate(perm):
        if phases:
            val = (QI_ONE, -QI_ONE, QI_I, -QI_I)[rng.randrange(4)]
        elif signs:
            val = QI_ONE if rng.random() < 0.5 else -QI_ONE
        else:
            val = QI_ONE
        m[j][i] = val
    return m


def _rotation(rng: Random, n: int) -> list:
    if n < 2:
        return linalg.identity(n)
    c, s = _PYTH[rng.randrange(len(_PYTH))]
    i, j = rng.sample(range(n), 2)
    m = linalg.identity(n)
    m[i][i] = QI(c)
    m[j][j] = QI(c)
    m[i][j] = QI(s)
    m[j][i] = QI(-s)
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
        m = _permutation(rng, s, signs=False)
        return m
    # ostar: quaternionic permutations and unit-quaternion diagonals
    if rng.random() < 0.5:
        p = _permutation(rng, s, signs=False)
        z = linalg.zeros(s, s)
        return _block(p, z, z, p)
    units = [
        (QI_ONE, QI_ZERO), (-QI_ONE, QI_ZERO), (QI_I, QI_ZERO), (-QI_I, QI_ZERO),
        (QI_ZERO, QI_ONE), (QI_ZERO, -QI_ONE), (QI_ZERO, QI_I), (QI_ZERO, -QI_I),
        (QI(Fraction(3, 5)), QI(Fraction(4, 5))),
        (QI(Fraction(3, 5)), QI(0, Fraction(4, 5))),
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
            b = linalg.zeros(ell, ell)
            for i in range(ell):
                for j in range(i, ell):
                    v = QI(rng.randint(-2, 2))
                    b[i][j] = b[j][i] = v
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
        n = p + q
        if rng.random() < 0.5:
            # block unitary
            m = linalg.identity(n)
            top = _permutation(rng, p, phases=True)
            bot = _permutation(rng, q, phases=True)
            for i in range(p):
                for j in range(p):
                    m[i][j] = top[i][j]
            for i in range(q):
                for j in range(q):
                    m[p + i][p + j] = bot[i][j]
            return m
        c, s = _HYP[rng.randrange(len(_HYP))]
        i = rng.randrange(p)
        j = p + rng.randrange(q)
        m = linalg.identity(n)
        m[i][i] = QI(c)
        m[j][j] = QI(c)
        m[i][j] = QI(s)
        m[j][i] = QI(s)
        return m
    # ostar
    d = case.params[0]
    pick = rng.randrange(3)
    if pick == 0:
        units = [
            (QI_ONE, QI_ZERO), (-QI_ONE, QI_ZERO),
            (QI_ZERO, QI_ONE), (QI_ZERO, -QI_ONE),
            (QI(Fraction(3, 5)), QI(Fraction(4, 5))),
            (QI(Fraction(5, 13)), QI(Fraction(12, 13))),
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
        c, s = _PYTH[rng.randrange(len(_PYTH))]
        ident = linalg.identity(2 * d)
        j = case.j_v_matrix()
        return linalg.mat_add(linalg.mat_scale(ident, QI(c)), linalg.mat_scale(j, QI(s)))
    # isotropic shear I - (v v^H + w w^H) K = I - V (V^H K), V = [v | w], w = J_q v
    basis = isotropic_basis(case)
    v = [QI_ZERO] * (2 * d)
    for col in basis:
        coef = random_qi(rng, 3)
        v = _vec_add(v, _vec_scale(col, coef))
    cv = case.structure_v()
    w = linalg.mat_vec(cv, [x.conjugate() for x in v])
    vw = [[a, b] for a, b in zip(v, w)]
    vh_k = linalg.mat_mul(linalg.conj_transpose(vw), case.form_v_matrix())
    return linalg.mat_sub(linalg.identity(2 * d), linalg.mat_mul(vw, vh_k))
