"""Verification suites: every module invariant as a seeded, reproducible check.

A suite is a list of CheckResult records. Trials are split per check and
per trial index through the counter-based seed scheme, so any failing
trial can be re-run alone from the witness it leaves behind. The internal
registry maps checks to the operations they exercise; the "all" suite
asserts that every operation of every module is covered at least once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import cayley_dickson as cd
from . import dual_pairs as dp
from . import jordan as jd
from . import linalg
from . import strata as st
from .catalog import (
    catalog_scorza,
    golden_objects,
    golden_text,
    list_hermitian,
    severi_check,
    ScorzaEntry,
)
from .errors import InputError
from .sampling import derive_seed, make_rng, random_fraction, random_qi_vector

SUITES = ("composition", "jordan", "strata", "moment", "catalog", "all")

# operation registry: module -> spec-level operations
OPS = {
    "composition_algebras": (
        "cd_multiply", "conjugate", "norm_form", "real_trace",
    ),
    "jordan_core": (
        "jordan_product", "jtrace", "trace_form", "sharp", "generic_det",
        "jordan_rank3",
    ),
    "hermitian_catalog": ("catalog_scorza", "severi_check", "list_hermitian"),
    "strata_geometry": (
        "rank_of", "sample_rank_one", "sample_secant", "relative_invariant",
        "stratum_dimension", "defects", "closure_membership",
    ),
    "dual_pair_reduction": (
        "dagger", "mu_K_mu_G", "equivariance_check", "sample_zero_level",
        "cartan_project", "reduced_point", "veronese_map",
    ),
    "cli": ("run", "verify_suite"),
}

ALL_OPS = frozenset(op for ops in OPS.values() for op in ops)

# share of a probabilistic check's trials that must hit the generic case
GENERIC_SHARE = 0.95


@dataclass
class CheckResult:
    name: str
    trials: int
    passes: int
    required: int
    ok: bool
    ops: tuple
    witness: dict | None = None
    info: dict | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "passes": self.passes,
            "required": self.required,
            "ok": self.ok,
            "ops": list(self.ops),
            "witness": self.witness,
            "info": self.info,
        }


@dataclass
class VerificationReport:
    suite: str
    trials: int
    seed: int
    checks: list
    passed: bool
    wall_time_s: float
    coverage_ok: bool | None = None

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "passed": self.passed,
            "coverage_ok": self.coverage_ok,
            "wall_time_s": self.wall_time_s,
            "checks": [c.to_json() for c in self.checks],
        }


def _check(name, ops, trials, fn, info=None) -> CheckResult:
    """fn(t) -> (ok, witness); the check passes when every trial does."""
    passes = 0
    witness = None
    for t in range(trials):
        ok, wit = fn(t)
        if ok:
            passes += 1
        elif witness is None:
            witness = _built(wit)
    return CheckResult(
        name=name, trials=trials, passes=passes, required=trials,
        ok=passes == trials, ops=tuple(ops), witness=witness, info=info,
    )


def _bound_and_generic(name, ops, trials, fn) -> CheckResult:
    """fn(t) -> (bound_ok, generic_hit, witness); the hard bound must hold in
    every trial, genericity in at least GENERIC_SHARE of them. The witness
    is the first trial that breaks the bound or, if every trial meets it
    but too few are generic, the first non-generic trial."""
    passes = 0
    generic = 0
    witness = non_generic = None
    for t in range(trials):
        bound_ok, generic_hit, wit = fn(t)
        if bound_ok:
            passes += 1
        elif witness is None:
            witness = _built(wit)
        if generic_hit:
            generic += 1
        elif non_generic is None:
            non_generic = wit
    generic_required = math.ceil(GENERIC_SHARE * trials)
    ok = passes == trials and generic >= generic_required
    if not ok and witness is None:
        witness = _built(non_generic)
    return CheckResult(
        name=name, trials=trials, passes=passes, required=trials, ok=ok,
        ops=tuple(ops), witness=witness,
        info={"generic": generic, "generic_required": generic_required},
    )


def _built(wit):
    """A failing trial's witness: a dict or None, or a thunk that builds one,
    so that trials which pass never serialize their inputs."""
    return wit() if callable(wit) else wit


def _elements_witness(seed, t, *elements):
    return lambda: {"seed": seed, "trial": t, "elements": [e.to_json() for e in elements]}


# --- composition suite ---------------------------------------------------------

def suite_composition(trials: int, seed: int) -> list:
    checks = []

    def pair(t, tag, level, fld, height=10):
        rng = make_rng(seed, tag, t)
        return (
            cd.random_cd(rng, level, fld, height),
            cd.random_cd(rng, level, fld, height),
        )

    def norm_oct(t):
        x, y = pair(t, "norm-oct", 3, "Q")
        ok = cd.norm_form(x * y) == cd.norm_form(x) * cd.norm_form(y)
        return ok, _elements_witness(seed, t, x, y)

    checks.append(_check(
        "norm_multiplicativity_octonions",
        ("cd_multiply", "norm_form"), trials, norm_oct,
    ))

    def norm_all(t):
        level = t % 4
        fld = ("Q", "Qi")[(t // 4) % 2]
        x, y = pair(t, "norm-all", level, fld)
        ok = cd.norm_form(x * y) == cd.norm_form(x) * cd.norm_form(y)
        return ok, _elements_witness(seed, t, x, y)

    checks.append(_check(
        "norm_multiplicativity_all_levels",
        ("cd_multiply", "norm_form"), trials, norm_all,
    ))

    def alternative(t):
        fld = ("Q", "Qi")[t % 2]
        x, y = pair(t, "alt", 3, fld)
        xx = x * x
        ok = x * (x * y) == xx * y and (y * x) * x == y * xx
        return ok, _elements_witness(seed, t, x, y)

    checks.append(_check("alternative_laws", ("cd_multiply",), trials, alternative))

    def assoc_low(t):
        level = t % 3
        fld = ("Q", "Qi")[(t // 3) % 2]
        rng = make_rng(seed, "assoc-low", t)
        x, y, z = (cd.random_cd(rng, level, fld) for _ in range(3))
        ok = (x * y) * z == x * (y * z)
        return ok, _elements_witness(seed, t, x, y, z)

    checks.append(_check(
        "associativity_levels_0_2", ("cd_multiply",), trials, assoc_low,
    ))

    trip, lhs, rhs = cd.associativity_counterexample()
    checks.append(_check(
        "octonion_associativity_counterexample", ("cd_multiply",), 1,
        lambda t: (lhs != rhs, None),
        info={
            "basis_triple": list(trip),
            "left_assoc": lhs.to_json(),
            "right_assoc": rhs.to_json(),
        },
    ))

    def anti_auto(t):
        fld = ("Q", "Qi")[t % 2]
        x, y = pair(t, "anti-auto", 3, fld)
        ok = cd.conjugate(x * y) == cd.conjugate(y) * cd.conjugate(x)
        return ok, _elements_witness(seed, t, x, y)

    checks.append(_check(
        "conjugation_anti_automorphism", ("conjugate", "cd_multiply"),
        trials, anti_auto,
    ))

    def involution(t):
        rng = make_rng(seed, "involution", t)
        x = cd.random_cd(rng, 3, ("Q", "Qi")[t % 2])
        return cd.conjugate(cd.conjugate(x)) == x, _elements_witness(seed, t, x)

    checks.append(_check("conjugation_involution", ("conjugate",), trials, involution))

    def trace_sym(t):
        x, y = pair(t, "trace-sym", 3, ("Q", "Qi")[t % 2])
        ok = cd.real_trace(x * y) == cd.real_trace(y * x)
        return ok, _elements_witness(seed, t, x, y)

    checks.append(_check("trace_symmetry", ("real_trace",), trials, trace_sym))

    def table_vs_recursion(t):
        x, y = pair(t, "table-ref", 3, ("Q", "Qi")[t % 2])
        return x * y == cd.reference_multiply(x, y), _elements_witness(seed, t, x, y)

    checks.append(_check(
        "table_matches_doubling_recursion", ("cd_multiply",), trials,
        table_vs_recursion,
    ))
    return checks


# --- jordan suite -----------------------------------------------------------------

def suite_jordan(trials: int, seed: int) -> list:
    checks = []
    ident_oc = jd.jordan_identity("O_C", 3)

    def rnd(t, tag, algebra, height=5):
        rng = make_rng(seed, tag, t)
        return jd.random_hermitian(rng, algebra, 3, height)

    def jident(t):
        x = rnd(t, "jident-x", "O")
        y = rnd(t, "jident-y", "O")
        x2 = jd.jordan_product(x, x)
        lhs = jd.jordan_product(x2, jd.jordan_product(x, y))
        rhs = jd.jordan_product(x, jd.jordan_product(x2, y))
        return lhs == rhs, _elements_witness(seed, t, x, y)

    checks.append(_check("jordan_identity", ("jordan_product",), trials, jident))

    def pow_assoc(t):
        x = rnd(t, "powassoc", "O_C")
        x2 = jd.jordan_product(x, x)
        lhs = jd.jordan_product(x, jd.jordan_product(x, x2))
        rhs = jd.jordan_product(x2, x2)
        return lhs == rhs, _elements_witness(seed, t, x)

    checks.append(_check("power_associativity", ("jordan_product",), trials, pow_assoc))

    def tf_sym(t):
        x = rnd(t, "tfsym-x", "O_C")
        y = rnd(t, "tfsym-y", "O_C")
        ok = jd.trace_form(x, y) == jd.trace_form(y, x)
        return ok, _elements_witness(seed, t, x, y)

    checks.append(_check(
        "trace_form_symmetric", ("trace_form", "jtrace"), trials, tf_sym,
    ))

    def tf_pos(t):
        x = rnd(t, "tfpos", "O")
        if x.is_zero():
            return True, None
        val = jd.trace_form(x, x)
        return val.is_real() and val.as_fraction() > 0, _elements_witness(seed, t, x)

    checks.append(_check(
        "trace_form_positive_definite", ("trace_form",), trials, tf_pos,
    ))

    def sharp_identity(t):
        x = rnd(t, "sharpid", "O_C")
        lhs = jd.jordan_product(jd.sharp(x), x)
        rhs = ident_oc.scale(jd.generic_det(x))
        return lhs == rhs, _elements_witness(seed, t, x)

    checks.append(_check(
        "sharp_adjoint_identity", ("sharp", "generic_det", "jordan_product"),
        trials, sharp_identity,
    ))

    def adjoint_det(t):
        x = rnd(t, "adjdet", "O_C")
        d = jd.generic_det(x)
        return jd.generic_det(jd.sharp(x)) == d * d, _elements_witness(seed, t, x)

    checks.append(_check(
        "adjoint_det_identity", ("sharp", "generic_det"), trials, adjoint_det,
    ))

    def det_restriction(t):
        x = rnd(t, "detrestr", "C", height=8)
        ok = jd.generic_det(x) == linalg.det(jd.to_complex_matrix(x))
        return ok, _elements_witness(seed, t, x)

    checks.append(_check(
        "det_associative_restriction", ("generic_det",), trials, det_restriction,
    ))

    def det_homog(t):
        rng = make_rng(seed, "dethom", t)
        x = jd.random_hermitian(rng, "O_C", 3, 5)
        lam = random_fraction(rng, 7, nonzero=True)
        ok = jd.generic_det(x.scale(lam)) == lam ** 3 * jd.generic_det(x)
        return ok, _elements_witness(seed, t, x)

    checks.append(_check("det_degree_3_homogeneity", ("generic_det",), trials, det_homog))

    def freudenthal(t):
        x = rnd(t, "freud", "O_C")
        return jd.freudenthal_det3(x) == jd.generic_det(x), _elements_witness(seed, t, x)

    checks.append(_check(
        "closed_cubic_cross_check", ("generic_det",), trials, freudenthal,
    ))

    def rank_vs_matrix(t):
        # scalar complex entries: hermitian reduces to symmetric over Q(i);
        # one sample of each target rank 0..3 per trial
        rng = make_rng(seed, "rankmat", t)
        for k in range(4):
            x = jd.jordan_zero("O_C", 3)
            for _ in range(k):
                v = [cd.cd_scalar(q, 3, "Qi") for q in random_qi_vector(rng, 3, 5)]
                x = x + jd.rank_one_from_vector("O_C", v)
            if jd.jordan_rank3(x) != linalg.rank(jd.to_complex_matrix(x)):
                return False, _elements_witness(seed, t, x)
        return True, None

    checks.append(_check(
        "rank_matches_matrix_rank", ("jordan_rank3",), trials, rank_vs_matrix,
    ))

    def rank_one_square(t):
        rng = make_rng(seed, "rank1sq", t)
        v = [cd.random_cd(rng, 2, "Qi", 5) for _ in range(3)]
        a = jd.rank_one_from_vector("O_C", v)
        if a.is_zero():
            return True, None
        ok = jd.sharp(a).is_zero() and jd.jordan_rank3(a) == 1
        return ok, _elements_witness(seed, t, a)

    checks.append(_check(
        "rank_one_outer_squares", ("sharp", "jordan_rank3"), trials, rank_one_square,
    ))
    return checks


# --- strata suite -------------------------------------------------------------------

_STRATA_MODELS = ("sym:3", "mat:3,3", "mat:3,5", "skew:6", "skew:7", "exc27")
_REGULAR_MODELS = ("sym:3", "mat:3,3", "skew:6", "exc27")


def suite_strata(trials: int, seed: int) -> list:
    checks = []

    def rank_one(t):
        model = st.parse_model(_STRATA_MODELS[t % len(_STRATA_MODELS)])
        p = st.sample_rank_one(model, derive_seed(seed, "r1", t))
        return st.rank_of(p) == 1, _pt_witness(seed, t, p)

    checks.append(_check(
        "rank_one_samples", ("sample_rank_one", "rank_of"), trials, rank_one,
    ))

    for sel in _STRATA_MODELS:
        model = st.parse_model(sel)
        for s in range(1, model.max_rank + 1):
            checks.append(_secant_check(model, s, trials, seed))

    def chordal(t):
        p = st.sample_secant(st.EXC27, 1, derive_seed(seed, "chordal", t))
        det_zero = not jd.generic_det(p.coords)
        generic = not jd.sharp(p.coords).is_zero()
        return det_zero, generic, _pt_witness(seed, t, p)

    checks.append(_bound_and_generic(
        "exc27_chordal_inside_cubic", ("sample_secant", "relative_invariant"),
        trials, chordal,
    ))

    def inv_vanishes(t):
        model = st.parse_model(_REGULAR_MODELS[t % len(_REGULAR_MODELS)])
        p = st.sample_secant(model, model.max_rank - 2, derive_seed(seed, "invzero", t))
        return not st.relative_invariant(p), _pt_witness(seed, t, p)

    checks.append(_check(
        "invariant_vanishes_below_top_rank", ("relative_invariant", "sample_secant"),
        trials, inv_vanishes,
    ))

    def inv_nonzero(t):
        model = st.parse_model(_REGULAR_MODELS[t % len(_REGULAR_MODELS)])
        p = st.random_point(model, derive_seed(seed, "invfull", t))
        return bool(st.relative_invariant(p)), _pt_witness(seed, t, p)

    checks.append(_check(
        "invariant_nonzero_on_generic_points", ("relative_invariant",),
        trials, inv_nonzero,
    ))

    def pf_sq(t):
        p = st.random_point(st.skew_model(6), derive_seed(seed, "pfsq", t))
        pf = linalg.pfaffian(p.coords)
        return pf * pf == linalg.det(p.coords), _pt_witness(seed, t, p)

    checks.append(_check(
        "pfaffian_squares_to_determinant", ("relative_invariant",), trials, pf_sq,
    ))

    def chain(t):
        model = st.parse_model(_STRATA_MODELS[t % len(_STRATA_MODELS)])
        k = t % model.max_rank
        p = st.sample_secant(model, k, derive_seed(seed, "chain", t))
        r = st.rank_of(p)
        ok = all(
            st.closure_membership(p, s) == (r <= s)
            for s in range(0, model.max_rank + 1)
        )
        return ok, _pt_witness(seed, t, p)

    checks.append(_check(
        "ascending_closure_chain", ("closure_membership",), trials, chain,
    ))

    def peel(t):
        sel = ("sym:4", "mat:3,5", "skew:6")[t % 3]
        model = st.parse_model(sel)
        k = t % model.max_rank
        p = st.sample_secant(model, k, derive_seed(seed, "peel", t))
        pieces = st.peel_rank_one(p)
        if len(pieces) != st.rank_of(p):
            return False, _pt_witness(seed, t, p)
        total = st.zero_point(model)
        for piece in pieces:
            if st.rank_of(piece) != 1:
                return False, _pt_witness(seed, t, p)
            total = total + piece
        return total == p, _pt_witness(seed, t, p)

    checks.append(_check(
        "rank_one_peeling_reconstructs", ("rank_of",), trials, peel,
    ))

    severi = {"sym:3": (2, 5, 4), "mat:3,3": (4, 8, 7), "skew:6": (8, 14, 13),
              "exc27": (16, 26, 25)}

    def dims_table(t):
        for sel, (dim_x, m, chordal_dim) in severi.items():
            model = st.parse_model(sel)
            if st.stratum_dimension(model, 1)[1] != dim_x:
                return False, {"model": sel, "stratum": 1}
            if st.stratum_dimension(model, 2)[1] != chordal_dim:
                return False, {"model": sel, "stratum": 2}
            top = st.stratum_dimension(model, model.max_rank)[1]
            if top != m:
                return False, {"model": sel, "stratum": model.max_rank}
            if Fraction(3, 2) * dim_x + 2 != m:
                return False, {"model": sel, "relation": "severi"}
        # the non-regular k = 2 rows exist but fail the critical relation
        for sel, (dim_x, m) in {"mat:3,4": (5, 11), "skew:7": (10, 20)}.items():
            model = st.parse_model(sel)
            if st.stratum_dimension(model, 1)[1] != dim_x:
                return False, {"model": sel, "stratum": 1}
            if st.stratum_dimension(model, model.max_rank)[1] != m:
                return False, {"model": sel, "stratum": model.max_rank}
            if Fraction(3, 2) * dim_x + 2 == m:
                return False, {"model": sel, "relation": "severi-should-fail"}
        return True, None

    checks.append(_check(
        "severi_dimension_table", ("stratum_dimension",), 1, dims_table,
    ))

    def quadric(t):
        model = st.skew_model(5)
        ok = (
            st.stratum_dimension(model, 1)[1] == 6
            and model.ambient_proj_dim == 9
        )
        return ok, None

    checks.append(_check(
        "rank_2_quadric_case_skew5", ("stratum_dimension",), 1, quadric,
    ))

    def defect_conditions(t):
        expected = [
            ("sym:3", (1, 2), 2, True),
            ("mat:3,4", (2, 4), 2, True),
            ("mat:3,5", (2, 4), 2, False),
            ("exc27", (8, 16), 2, True),
        ]
        for sel, deltas, k0, ok_flag in expected:
            d = st.defects(st.parse_model(sel))
            if (d.deltas, d.k0, d.scorza_ok) != (deltas, k0, ok_flag):
                return False, {"model": sel, "got": [list(d.deltas), d.k0, d.scorza_ok]}
        d = st.defects(st.mat_model(3, 5))
        if d.k0 + (5 - 3) // 2 != d.dim_x // d.deltas[0]:
            return False, {"model": "mat:3,5", "relation": "k0-shift"}
        return True, None

    checks.append(_check(
        "scorza_defect_conditions", ("defects",), 1, defect_conditions,
    ))
    return checks


def _secant_check(model, s, trials, seed) -> CheckResult:
    sel = model.selector()

    def fn(t):
        p = st.sample_secant(model, s - 1, derive_seed(seed, "secant", sel, s, t))
        r = st.rank_of(p)
        return r <= s, r == s, _pt_witness(seed, t, p)

    return _bound_and_generic(
        f"secant_rank_{sel}_s{s}", ("sample_secant", "rank_of"), trials, fn,
    )


def _pt_witness(seed, t, p):
    return lambda: {"seed": seed, "trial": t, "point": p.to_json()}


# --- moment suite ----------------------------------------------------------------

_MOMENT_CASES = ("sp:3", "u:3,3", "ostar:6")


def suite_moment(trials: int, seed: int) -> list:
    checks = []
    for sel in _MOMENT_CASES:
        checks.extend(_moment_case_checks(sel, trials, seed))

    def w_dims(t):
        seqs = {
            "sp:3": [3, 6, 9],
            "u:3,3": [6, 12, 18],
            "ostar:6": [12, 24, 36],
        }
        for sel, expected in seqs.items():
            dims = [dp.parse_case(sel, s).w_complex_dim() for s in (1, 2, 3)]
            if dims != expected:
                return False, {"case": sel, "dims": dims}
        return True, None

    checks.append(_check(
        "w_space_dimension_sequences", ("cartan_project",), 1, w_dims,
        info={"projective_spaces": {
            "sp:3": [2, 5, 8], "u:3,3": [5, 11, 17], "ostar:6": [11, 23, 35],
        }},
    ))
    return checks


def _moment_case_checks(sel: str, trials: int, seed: int) -> list:
    checks = []
    base = dp.parse_case(sel, 2)
    r = base.r

    def dagger_identity(t):
        case = dp.parse_case(sel, 1 + t % 3)
        w = dp.random_w_element(case, derive_seed(seed, "dag", sel, t))
        # (dagger(a) u, v) = B(u, a v) over the full product basis
        gv = case.form_v_matrix()
        lhs = linalg.conj_transpose(dp.dagger(w))
        rhs = linalg.mat_mul(gv, w.alpha)
        return linalg.mat_eq(lhs, rhs), _w_witness(seed, t, w)

    checks.append(_check(
        f"dagger_defining_identity_{sel}", ("dagger",), trials, dagger_identity,
    ))

    def lie_membership(t):
        case = dp.parse_case(sel, 1 + t % 3)
        w = dp.random_w_element(case, derive_seed(seed, "lie", sel, t))
        ok = dp.in_lie_h(case, dp.mu_K(w)) and dp.in_lie_g(case, dp.mu_G(w))
        return ok, _w_witness(seed, t, w)

    checks.append(_check(
        f"momentum_lie_membership_{sel}", ("mu_K_mu_G",), trials, lie_membership,
    ))

    def equivariance(t):
        case = dp.parse_case(sel, 2)
        w = dp.random_w_element(case, derive_seed(seed, "equiv", sel, t))
        rng = make_rng(seed, "equiv-group", sel, t)
        x = dp.random_h_element(case, rng)
        y = dp.random_g_element(case, rng)
        return dp.equivariance_check(w, x, y), _w_witness(seed, t, w)

    checks.append(_check(
        f"momentum_equivariance_{sel}", ("equivariance_check",), trials, equivariance,
    ))

    def zero_level(t):
        case = dp.parse_case(sel, 1 + t % (r + 1))
        w = dp.sample_zero_level(case, derive_seed(seed, "zl", sel, t))
        return linalg.is_zero_matrix(dp.mu_K(w)), _w_witness(seed, t, w)

    checks.append(_check(
        f"zero_level_exact_{sel}", ("sample_zero_level",), trials, zero_level,
    ))

    def cartan(t):
        case = dp.parse_case(sel, 2)
        rng = make_rng(seed, "cartan", sel, t)
        x = dp.random_lie_g(case, rng)
        j = case.j_v_matrix()
        x_k, x_p = dp.cartan_split(case, x)
        ok = (
            linalg.mat_eq(linalg.mat_add(x_k, x_p), x)
            and linalg.mat_eq(linalg.mat_mul(x_k, j), linalg.mat_mul(j, x_k))
            and linalg.mat_eq(
                linalg.mat_mul(x_p, j), linalg.mat_neg(linalg.mat_mul(j, x_p))
            )
        )
        if ok:
            # the matrix-model image must satisfy the model symmetry exactly,
            # which StratumPoint construction validates
            dp.cartan_project(x, case)
        return ok, {"seed": seed, "trial": t, "case": sel}

    checks.append(_check(
        f"cartan_split_{sel}", ("cartan_project",), trials, cartan,
    ))

    for s in range(1, r + 2):
        checks.append(_reduction_check(sel, s, r, trials, seed))

    def veronese(t):
        case = dp.parse_case(sel, 1)
        rng = make_rng(seed, "veronese", sel, t)
        v = random_qi_vector(rng, case.v_size, 5, real=case.real_entries)
        pt = dp.veronese_map(case, v)
        rk = st.rank_of(pt)
        lam = random_fraction(rng, 5, nonzero=True)
        pt2 = dp.veronese_map(case, [x * lam for x in v])
        homog = linalg.mat_eq(pt2.coords, linalg.mat_scale(pt.coords, lam * lam))
        return rk <= 1 and homog, rk == 1, {"seed": seed, "trial": t, "case": sel}

    checks.append(_bound_and_generic(
        f"veronese_rank_one_{sel}", ("veronese_map",), trials, veronese,
    ))
    return checks


def _reduction_check(sel: str, s: int, r: int, trials: int, seed: int) -> CheckResult:
    def fn(t):
        case = dp.parse_case(sel, s)
        w = dp.sample_zero_level(case, derive_seed(seed, "red", sel, s, t))
        rk = st.rank_of(dp.reduced_point(w))
        cap = min(s, r)
        return rk <= cap, rk == cap, _w_witness(seed, t, w)

    return _bound_and_generic(
        f"reduced_rank_bound_{sel}_s{s}", ("reduced_point", "sample_zero_level"),
        trials, fn,
    )


def _w_witness(seed, t, w):
    return lambda: {"seed": seed, "trial": t, "element": w.to_json()}


# --- catalog suite -----------------------------------------------------------------

def suite_catalog(trials: int, seed: int) -> list:
    checks = []

    def formulas(t):
        for k in range(2, 7):
            entries = catalog_scorza(k)
            if len(entries) != (6 if k == 2 else 5):
                return False, {"k": k, "count": len(entries)}
            for e in entries:
                model = st.parse_model(e.p_model)
                if e.ambient_m != model.ambient_proj_dim:
                    return False, {"k": k, "label": e.label, "field": "ambient_m"}
                if not (e.k0 * e.delta <= e.dim_x < (e.k0 + 1) * e.delta):
                    return False, {"k": k, "label": e.label, "field": "k0"}
                if model.max_rank != k + 1:
                    return False, {"k": k, "label": e.label, "field": "rank"}
        return True, None

    checks.append(_check("scorza_formula_invariants", ("catalog_scorza",), 1, formulas))

    def severi_rows(t):
        rows = [e for e in catalog_scorza(2) if e.regular]
        dims = sorted((e.dim_x, e.ambient_m) for e in rows)
        if dims != [(2, 5), (4, 8), (8, 14), (16, 26)]:
            return False, {"rows": dims}
        if not all(severi_check(e) for e in rows):
            return False, {"rows": "relation failed"}
        perturbed = ScorzaEntry(
            label="(1.2.2.r)", k=2, dim_x=4, ambient_m=9, delta=2, k0=2,
            regular=True, embedding="Segre", p_model="mat:3,3",
        )
        if severi_check(perturbed):
            return False, {"rows": "perturbed row passed"}
        return True, None

    checks.append(_check("severi_rows_exactly_four", ("severi_check",), 1, severi_rows))

    def hermitian_lists(t):
        reg3 = [e.name for e in list_hermitian(3, regular_only=True)]
        if reg3 != ["sp(3,R)", "su(3,3)", "so*(12)", "e7(-25)"]:
            return False, {"r": 3, "got": reg3}
        for r in (4, 5, 6):
            reg = [e.name for e in list_hermitian(r, regular_only=True)]
            if reg != [f"sp({r},R)", f"su({r},{r})", f"so*({4 * r})"]:
                return False, {"r": r, "got": reg}
        reg2 = list_hermitian(2, regular_only=True)
        if [e.name for e in reg2] != ["so(p,2)"]:
            return False, {"r": 2, "got": [e.name for e in reg2]}
        nonreg2 = [e.name for e in list_hermitian(2) if not e.regular]
        if nonreg2 != ["su(p,2)", "so*(10)", "e6(-14)"]:
            return False, {"r": 2, "got": nonreg2}
        for r in (3, 4, 5, 6):
            nonreg = [e.name for e in list_hermitian(r) if not e.regular]
            if nonreg != [f"su(p,{r})", f"so*({4 * r + 2})"]:
                return False, {"r": r, "got": nonreg}
        for r in range(1, 7):
            for e in list_hermitian(r):
                if e.p_model not in ("none",) and not e.family:
                    model = st.parse_model(e.p_model)
                    if e.dim_p != model.ambient_dim:
                        return False, {"r": r, "name": e.name, "field": "dim_p"}
        return True, None

    checks.append(_check("hermitian_rank_lists", ("list_hermitian",), 1, hermitian_lists))

    def segre_families(t):
        # the rectangular families admitted by the classification are
        # exactly side difference 0 and 1
        for k in range(2, 7):
            segre = [e for e in catalog_scorza(k) if e.embedding == "Segre"]
            shapes = []
            for e in segre:
                model = st.parse_model(e.p_model)
                q, p = model.params
                shapes.append(p - q)
            if sorted(shapes) != [0, 1]:
                return False, {"k": k, "diffs": shapes}
        return True, None

    checks.append(_check(
        "segre_family_side_difference", ("catalog_scorza",), 1, segre_families,
    ))

    def goldens(t):
        from .cli import render_json

        for name, obj in golden_objects().items():
            if render_json(obj) != golden_text(name):
                return False, {"file": name}
        return True, None

    checks.append(_check(
        "golden_files_byte_identical", ("catalog_scorza", "list_hermitian"),
        1, goldens,
    ))

    def ambient_cross_check(t):
        for k in range(2, 7):
            for e in catalog_scorza(k):
                if not e.regular:
                    continue
                model = st.parse_model(e.p_model)
                got = st.stratum_dimension(model, model.max_rank)[1]
                if got != e.ambient_m:
                    return False, {"k": k, "label": e.label, "got": got}
        return True, None

    checks.append(_check(
        "ambient_matches_top_stratum", ("catalog_scorza", "stratum_dimension"),
        1, ambient_cross_check,
    ))
    return checks


# --- runner ---------------------------------------------------------------------

def run_suite(name: str, trials: int, seed: int) -> VerificationReport:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    if not isinstance(trials, int) or trials < 1:
        raise InputError("trials must be >= 1")
    start = time.perf_counter()
    suites = {
        "composition": suite_composition,
        "jordan": suite_jordan,
        "strata": suite_strata,
        "moment": suite_moment,
        "catalog": suite_catalog,
    }
    names = list(suites) if name == "all" else [name]
    checks = [c for n in names for c in suites[n](trials, seed)]
    checks.sort(key=lambda c: c.name)
    coverage_ok = None
    if name == "all":
        covered = {op for c in checks for op in c.ops}
        covered |= {"run", "verify_suite"}  # exercised by the runner itself
        coverage_ok = covered >= ALL_OPS
    passed = all(c.ok for c in checks) and coverage_ok is not False
    return VerificationReport(
        suite=name,
        trials=trials,
        seed=seed,
        checks=checks,
        passed=passed,
        wall_time_s=round(time.perf_counter() - start, 3),
        coverage_ok=coverage_ok,
    )
