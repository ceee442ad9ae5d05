"""Verification suites: every module invariant as a seeded, reproducible check.

Each check is a `Check` row of the table `CHECKS`, declared at import, so
its name is known without running it and it runs alone. A suite's report
lists its rows' results by name. Each trial draws from a seed derived from
the check and the trial index, so a failing trial can be re-run alone from
its witness. The "all" suite asserts that every operation of `OPS` is
covered at least once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

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
from .sampling import derive_seed, make_rng, random_qi, random_qi_vector

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
        "stratum_dimension", "defects", "closure_membership", "peel_rank_one",
    ),
    "dual_pair_reduction": (
        "dagger", "mu_K_mu_G", "equivariance_check", "sample_zero_level",
        "cartan_project", "reduced_point", "veronese_map",
    ),
    "cli": ("run", "verify_suite"),
}

ALL_OPS = frozenset(op for ops in OPS.values() for op in ops)

# share of a generic check's trials that must hit the generic case, exactly
GENERIC_SHARE = Fraction(19, 20)

# how a row's trials decide its verdict
EVERY = "every"      # fn(seed, t) -> (ok, witness); every trial must pass
GENERIC = "generic"  # fn(seed, t) -> (bound_ok, generic_hit, witness)
ONCE = "once"        # one trial whatever the trial count; fn(seed, 0) ->
                     # (ok, witness) or (ok, witness, info)


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
        return {**vars(self), "ops": list(self.ops)}


@dataclass
class VerificationReport:
    # in report order: to_json keeps it
    suite: str
    trials: int
    seed: int
    passed: bool
    coverage_ok: bool | None
    wall_time_s: float
    checks: list

    def to_json(self) -> dict:
        return {**vars(self), "checks": [c.to_json() for c in self.checks]}


@dataclass
class Check:
    """One declared check. Its trial function keeps no state between runs,
    so a row run alone gives the result it has inside its suite's run."""

    name: str
    ops: tuple
    fn: object
    kind: str = EVERY

    def run(self, trials: int, seed: int) -> CheckResult:
        """The witness is the first trial that fails or, if none does but
        the check fails, the first non-generic one. A GENERIC check may miss
        the generic case in ceil((1 - GENERIC_SHARE) * trials) trials: 100
        need 95 generic, 2 need 1, and at 1 the bound alone decides. A miss
        is correct, only rare: in 4,000 draws per (case, s), the reduction
        of sp:3 missed 1-2 times at s = 2 and 3, every other case never."""
        if self.kind == ONCE:
            trials = 1
        passes = generic = 0
        witness = non_generic = info = None
        for t in range(trials):
            if self.kind == GENERIC:
                ok, hit, wit = self.fn(seed, t)
            else:
                ok, wit, *extra = self.fn(seed, t)
                hit, info = True, extra[0] if extra else None
            if ok:
                passes += 1
            elif witness is None:
                witness = _built(wit)
            if hit:
                generic += 1
            elif non_generic is None:
                non_generic = wit
        ok = passes == trials
        if self.kind == GENERIC:
            required = trials - math.ceil((1 - GENERIC_SHARE) * trials)
            ok = ok and generic >= required
            if not ok and witness is None:
                witness = _built(non_generic)
            info = {"generic": generic, "generic_required": required}
        return CheckResult(
            name=self.name, trials=trials, passes=passes, required=trials, ok=ok,
            ops=self.ops, witness=witness, info=info,
        )


# suite -> its declared rows, in declaration order
CHECKS = {suite: [] for suite in SUITES if suite != "all"}


def check(suite, name, ops, kind=EVERY):
    """Declare the decorated trial function as the row `name` of `suite`."""
    def declare(fn):
        CHECKS[suite].append(Check(name, ops, fn, kind))
        return fn
    return declare


def _built(wit):
    """A failing trial's witness: a dict or None, or a thunk that builds one,
    so that trials which pass never serialize their inputs."""
    return wit() if callable(wit) else wit


def _elements_witness(seed, t, *elements):
    return lambda: {"seed": seed, "trial": t, "elements": [e.to_json() for e in elements]}


# --- composition suite ---------------------------------------------------------

def _cd_pair(seed, t, tag, level, fld, height=10):
    rng = make_rng(seed, tag, t)
    return (
        cd.random_cd(rng, level, fld, height),
        cd.random_cd(rng, level, fld, height),
    )


@check("composition", "norm_multiplicativity_octonions", ("cd_multiply", "norm_form"))
def _norm_oct(seed, t):
    x, y = _cd_pair(seed, t, "norm-oct", 3, "Q")
    ok = cd.norm_form(x * y) == cd.norm_form(x) * cd.norm_form(y)
    return ok, _elements_witness(seed, t, x, y)


@check("composition", "norm_multiplicativity_all_levels", ("cd_multiply", "norm_form"))
def _norm_all(seed, t):
    level = t % 4
    fld = ("Q", "Qi")[(t // 4) % 2]
    x, y = _cd_pair(seed, t, "norm-all", level, fld)
    ok = cd.norm_form(x * y) == cd.norm_form(x) * cd.norm_form(y)
    return ok, _elements_witness(seed, t, x, y)


@check("composition", "alternative_laws", ("cd_multiply",))
def _alternative(seed, t):
    fld = ("Q", "Qi")[t % 2]
    x, y = _cd_pair(seed, t, "alt", 3, fld)
    xx = x * x
    ok = x * (x * y) == xx * y and (y * x) * x == y * xx
    return ok, _elements_witness(seed, t, x, y)


@check("composition", "associativity_levels_0_2", ("cd_multiply",))
def _assoc_low(seed, t):
    level = t % 3
    fld = ("Q", "Qi")[(t // 3) % 2]
    rng = make_rng(seed, "assoc-low", t)
    x, y, z = (cd.random_cd(rng, level, fld) for _ in range(3))
    ok = (x * y) * z == x * (y * z)
    return ok, _elements_witness(seed, t, x, y, z)


@check("composition", "octonion_associativity_counterexample", ("cd_multiply",), ONCE)
def _assoc_counterexample(seed, t):
    trip, lhs, rhs = cd.associativity_counterexample()
    return lhs != rhs, None, {
        "basis_triple": list(trip),
        "left_assoc": lhs.to_json(),
        "right_assoc": rhs.to_json(),
    }


@check("composition", "conjugation_anti_automorphism", ("conjugate", "cd_multiply"))
def _anti_auto(seed, t):
    fld = ("Q", "Qi")[t % 2]
    x, y = _cd_pair(seed, t, "anti-auto", 3, fld)
    ok = cd.conjugate(x * y) == cd.conjugate(y) * cd.conjugate(x)
    return ok, _elements_witness(seed, t, x, y)


@check("composition", "conjugation_involution", ("conjugate",))
def _involution(seed, t):
    rng = make_rng(seed, "involution", t)
    x = cd.random_cd(rng, 3, ("Q", "Qi")[t % 2])
    return cd.conjugate(cd.conjugate(x)) == x, _elements_witness(seed, t, x)


@check("composition", "trace_symmetry", ("real_trace",))
def _trace_sym(seed, t):
    x, y = _cd_pair(seed, t, "trace-sym", 3, ("Q", "Qi")[t % 2])
    ok = cd.real_trace(x * y) == cd.real_trace(y * x)
    return ok, _elements_witness(seed, t, x, y)


@check("composition", "table_matches_doubling_recursion", ("cd_multiply",))
def _table_vs_recursion(seed, t):
    x, y = _cd_pair(seed, t, "table-ref", 3, ("Q", "Qi")[t % 2])
    return x * y == cd.reference_multiply(x, y), _elements_witness(seed, t, x, y)


# --- jordan suite -----------------------------------------------------------------

def _hermitian(seed, t, tag, algebra, height=5):
    rng = make_rng(seed, tag, t)
    return jd.random_hermitian(rng, algebra, 3, height)


@check("jordan", "jordan_identity", ("jordan_product",))
def _jordan_identity(seed, t):
    x = _hermitian(seed, t, "jident-x", "O")
    y = _hermitian(seed, t, "jident-y", "O")
    x2 = jd.jordan_product(x, x)
    lhs = jd.jordan_product(x2, jd.jordan_product(x, y))
    rhs = jd.jordan_product(x, jd.jordan_product(x2, y))
    return lhs == rhs, _elements_witness(seed, t, x, y)


@check("jordan", "power_associativity", ("jordan_product",))
def _pow_assoc(seed, t):
    x = _hermitian(seed, t, "powassoc", "O_C")
    x2 = jd.jordan_product(x, x)
    lhs = jd.jordan_product(x, jd.jordan_product(x, x2))
    rhs = jd.jordan_product(x2, x2)
    return lhs == rhs, _elements_witness(seed, t, x)


@check("jordan", "trace_form_symmetric", ("trace_form", "jtrace"))
def _tf_sym(seed, t):
    x = _hermitian(seed, t, "tfsym-x", "O_C")
    y = _hermitian(seed, t, "tfsym-y", "O_C")
    ok = jd.trace_form(x, y) == jd.trace_form(y, x)
    return ok, _elements_witness(seed, t, x, y)


@check("jordan", "trace_form_positive_definite", ("trace_form",))
def _tf_pos(seed, t):
    x = _hermitian(seed, t, "tfpos", "O")
    if x.is_zero():
        return True, None
    val = jd.trace_form(x, x)
    return val.is_real() and val.as_fraction() > 0, _elements_witness(seed, t, x)


@check("jordan", "sharp_adjoint_identity", ("sharp", "generic_det", "jordan_product"))
def _sharp_identity(seed, t):
    x = _hermitian(seed, t, "sharpid", "O_C")
    lhs = jd.jordan_product(jd.sharp(x), x)
    rhs = jd.jordan_identity("O_C", 3).scale(jd.generic_det(x))
    return lhs == rhs, _elements_witness(seed, t, x)


@check("jordan", "adjoint_det_identity", ("sharp", "generic_det"))
def _adjoint_det(seed, t):
    x = _hermitian(seed, t, "adjdet", "O_C")
    d = jd.generic_det(x)
    return jd.generic_det(jd.sharp(x)) == d * d, _elements_witness(seed, t, x)


@check("jordan", "det_associative_restriction", ("generic_det",))
def _det_restriction(seed, t):
    x = _hermitian(seed, t, "detrestr", "C", height=8)
    ok = jd.generic_det(x) == linalg.det(jd.to_complex_matrix(x))
    return ok, _elements_witness(seed, t, x)


@check("jordan", "det_degree_3_homogeneity", ("generic_det",))
def _det_homog(seed, t):
    rng = make_rng(seed, "dethom", t)
    x = jd.random_hermitian(rng, "O_C", 3, 5)
    lam = random_qi(rng, 7, real=True, nonzero=True)
    ok = jd.generic_det(x.scale(lam)) == lam ** 3 * jd.generic_det(x)
    return ok, _elements_witness(seed, t, x)


@check("jordan", "closed_cubic_cross_check", ("generic_det",))
def _freudenthal(seed, t):
    x = _hermitian(seed, t, "freud", "O_C")
    return jd.freudenthal_det3(x) == jd.generic_det(x), _elements_witness(seed, t, x)


@check("jordan", "rank_matches_matrix_rank", ("jordan_rank3",))
def _rank_vs_matrix(seed, t):
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


@check("jordan", "rank_one_outer_squares", ("sharp", "jordan_rank3"))
def _rank_one_square(seed, t):
    rng = make_rng(seed, "rank1sq", t)
    v = [cd.random_cd(rng, 2, "Qi", 5) for _ in range(3)]
    a = jd.rank_one_from_vector("O_C", v)
    if a.is_zero():
        return True, None
    ok = jd.sharp(a).is_zero() and jd.jordan_rank3(a) == 1
    return ok, _elements_witness(seed, t, a)


# --- strata suite -------------------------------------------------------------------

_STRATA_MODELS = ("sym:3", "mat:3,3", "mat:3,5", "skew:6", "skew:7", "exc27")
_REGULAR_MODELS = ("sym:3", "mat:3,3", "skew:6", "exc27")
_PEEL_MODELS = ("sym:4", "mat:3,5", "skew:6", "exc27")


def _pt_witness(seed, t, p):
    return lambda: {"seed": seed, "trial": t, "point": {**p.to_json(), "rank": st.rank_of(p)}}


@check("strata", "rank_one_samples", ("sample_rank_one", "rank_of"))
def _rank_one(seed, t):
    model = st.parse_model(_STRATA_MODELS[t % len(_STRATA_MODELS)])
    p = st.sample_rank_one(model, derive_seed(seed, "r1", t))
    return st.rank_of(p) == 1, _pt_witness(seed, t, p)


def _secant_trial(model, s, seed, t):
    sel = model.selector()
    # the relative invariant vanishes below the top rank of a regular model
    vanishes = model.regular and s < model.max_rank
    p = st.sample_secant(model, s - 1, derive_seed(seed, "secant", sel, s, t))
    r = st.rank_of(p)
    bound = r <= s and not (vanishes and st.relative_invariant(p))
    return bound, r == s, _pt_witness(seed, t, p)


for _model in map(st.parse_model, _STRATA_MODELS):
    for _s in range(1, _model.max_rank + 1):
        check("strata", f"secant_rank_{_model.selector()}_s{_s}", ("sample_secant", "rank_of"),
              GENERIC)(partial(_secant_trial, _model, _s))


@check("strata", "exc27_chordal_inside_cubic", ("sample_secant", "relative_invariant"), GENERIC)
def _chordal(seed, t):
    p = st.sample_secant(st.EXC27, 1, derive_seed(seed, "chordal", t))
    det_zero = not jd.generic_det(p.coords)
    generic = not jd.sharp(p.coords).is_zero()
    return det_zero, generic, _pt_witness(seed, t, p)


@check("strata", "invariant_vanishes_below_top_rank", ("relative_invariant", "sample_secant"))
def _inv_vanishes(seed, t):
    model = st.parse_model(_REGULAR_MODELS[t % len(_REGULAR_MODELS)])
    p = st.sample_secant(model, model.max_rank - 2, derive_seed(seed, "invzero", t))
    return not st.relative_invariant(p), _pt_witness(seed, t, p)


@check("strata", "invariant_nonzero_on_generic_points", ("relative_invariant",))
def _inv_nonzero(seed, t):
    model = st.parse_model(_REGULAR_MODELS[t % len(_REGULAR_MODELS)])
    p = st.random_point(model, derive_seed(seed, "invfull", t))
    return bool(st.relative_invariant(p)), _pt_witness(seed, t, p)


@check("strata", "pfaffian_squares_to_determinant", ("relative_invariant",))
def _pf_sq(seed, t):
    p = st.random_point(st.skew_model(6), derive_seed(seed, "pfsq", t))
    pf = st.relative_invariant(p)
    return pf * pf == linalg.det(p.coords), _pt_witness(seed, t, p)


@check("strata", "ascending_closure_chain", ("closure_membership",))
def _chain(seed, t):
    model = st.parse_model(_STRATA_MODELS[t % len(_STRATA_MODELS)])
    k = t // len(_STRATA_MODELS) % model.max_rank
    p = st.sample_secant(model, k, derive_seed(seed, "chain", t))
    r = st.rank_of(p)
    ok = all(
        st.closure_membership(p, s) == (r <= s)
        for s in range(0, model.max_rank + 1)
    )
    return ok, _pt_witness(seed, t, p)


@check("strata", "rank_one_peeling_reconstructs", ("peel_rank_one", "rank_of"))
def _peel(seed, t):
    model = st.parse_model(_PEEL_MODELS[t % len(_PEEL_MODELS)])
    k = t // len(_PEEL_MODELS) % model.max_rank
    p = st.sample_secant(model, k, derive_seed(seed, "peel", t))
    pieces = st.peel_rank_one(p)
    ok = len(pieces) == st.rank_of(p) and all(st.rank_of(q) == 1 for q in pieces)
    return ok and sum(pieces, st.zero_point(model)) == p, _pt_witness(seed, t, p)


@check("strata", "severi_dimension_table", ("stratum_dimension",), ONCE)
def _dims_table(seed, t):
    severi = {"sym:3": (2, 5, 4), "mat:3,3": (4, 8, 7), "skew:6": (8, 14, 13),
              "exc27": (16, 26, 25)}
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


@check("strata", "rank_2_quadric_case_skew5", ("stratum_dimension",), ONCE)
def _quadric(seed, t):
    model = st.skew_model(5)
    ok = (
        st.stratum_dimension(model, 1)[1] == 6
        and model.ambient_proj_dim == 9
    )
    return ok, None


@check("strata", "scorza_defect_conditions", ("defects",), ONCE)
def _defect_conditions(seed, t):
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
    # the rectangular counterexamples mat:3,p, p = 5, 6, shift the rank
    for p in (5, 6):
        d = st.defects(st.mat_model(3, p))
        if d.scorza_ok or d.k0 + (p - 3) // 2 != d.dim_x // d.deltas[0]:
            return False, {"model": f"mat:3,{p}", "relation": "k0-shift"}
    for k in range(2, 7):
        for e in catalog_scorza(k):
            d = st.defects(st.parse_model(e.p_model))
            got = (d.dim_x, d.ambient_proj_dim, d.deltas[0], d.k0, d.scorza_ok)
            if got != (e.dim_x, e.ambient_m, e.delta, e.k0, True):
                return False, {"k": k, "label": e.label, "got": list(got)}
    return True, None


# --- moment suite ----------------------------------------------------------------

_MOMENT_CASES = ("sp:3", "u:3,3", "ostar:6")
_CASE_RANKS = {sel: dp.parse_case(sel, 1).r for sel in _MOMENT_CASES}


def _w_witness(seed, t, w):
    return lambda: {"seed": seed, "trial": t, "element": w.to_json()}


def per_case(prefix, ops, kind=EVERY):
    """Declare the decorated fn(sel, seed, t) as the moment row
    `{prefix}_{sel}` of each case in _MOMENT_CASES."""
    def declare(fn):
        for sel in _MOMENT_CASES:
            check("moment", f"{prefix}_{sel}", ops, kind)(partial(fn, sel))
        return fn
    return declare


@per_case("dagger_defining_identity", ("dagger",))
def _dagger_identity(sel, seed, t):
    case = dp.parse_case(sel, 1 + t % 3)
    w = dp.random_w_element(case, derive_seed(seed, "dag", sel, t))
    # (dagger(a) u, v) = B(u, a v) over the full product basis
    gv = case.form_v_matrix()
    lhs = linalg.conj_transpose(dp.dagger(w))
    rhs = linalg.mat_mul(gv, w.alpha)
    return linalg.mat_eq(lhs, rhs), _w_witness(seed, t, w)


@per_case("momentum_lie_membership", ("mu_K_mu_G",))
def _lie_membership(sel, seed, t):
    case = dp.parse_case(sel, 1 + t % 3)
    w = dp.random_w_element(case, derive_seed(seed, "lie", sel, t))
    mu_k, mu_g = dp.mu_K(w), dp.mu_G(w)
    ok = dp.in_lie_h(case, mu_k) and dp.in_lie_g(case, mu_g)
    if ok and case.kind == "ostar":
        # mu_K and mu_G are quaternion-linear by construction (Fact 3 of
        # dual_pairs), so check their half products against full ones
        dag = dp.dagger(w)
        ok = (linalg.mat_eq(mu_k, linalg.mat_neg(linalg.mat_chain(dag, w.alpha)))
              and linalg.mat_eq(mu_g, linalg.mat_chain(w.alpha, dag)))
    return ok, _w_witness(seed, t, w)


@per_case("momentum_equivariance", ("equivariance_check",))
def _equivariance(sel, seed, t):
    case = dp.parse_case(sel, 2)
    w = dp.random_w_element(case, derive_seed(seed, "equiv", sel, t))
    rng = make_rng(seed, "equiv-group", sel, t)
    x = dp.random_h_element(case, rng)
    y = dp.random_g_element(case, rng)
    return dp.equivariance_check(w, x, y), _w_witness(seed, t, w)


@per_case("zero_level_exact", ("sample_zero_level",))
def _zero_level(sel, seed, t):
    case = dp.parse_case(sel, 1 + t % (_CASE_RANKS[sel] + 1))
    w = dp.sample_zero_level(case, derive_seed(seed, "zl", sel, t))
    return linalg.is_zero_matrix(dp.mu_K(w)), _w_witness(seed, t, w)


@per_case("cartan_split", ("cartan_project",))
def _cartan(sel, seed, t):
    case = dp.parse_case(sel, 2)
    rng = make_rng(seed, "cartan", sel, t)
    x = dp.random_lie_g(case, rng)
    j = case.j_v_matrix()
    x_k, x_p = dp.cartan_split(x)
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


@per_case("veronese_rank_one", ("veronese_map",), GENERIC)
def _veronese(sel, seed, t):
    case = dp.parse_case(sel, 1)
    rng = make_rng(seed, "veronese", sel, t)
    v = random_qi_vector(rng, case.v_size, 5, real=case.real_entries)
    pt = dp.veronese_map(case, v)
    rk = st.rank_of(pt)
    lam = random_qi(rng, 5, real=True, nonzero=True)
    pt2 = dp.veronese_map(case, [x * lam for x in v])
    homog = linalg.mat_eq(pt2.coords, linalg.mat_scale(pt.coords, lam * lam))
    return rk <= 1 and homog, rk == 1, {"seed": seed, "trial": t, "case": sel}


def _reduction_trial(sel, s, r, seed, t):
    case = dp.parse_case(sel, s)
    w = dp.sample_zero_level(case, derive_seed(seed, "red", sel, s, t))
    rk = st.rank_of(dp.reduced_point(w))
    cap = min(s, r)
    return rk <= cap, rk == cap, _w_witness(seed, t, w)


for _sel, _r in _CASE_RANKS.items():
    for _s in range(1, _r + 2):
        check("moment", f"reduced_rank_bound_{_sel}_s{_s}", ("reduced_point", "sample_zero_level"),
              GENERIC)(partial(_reduction_trial, _sel, _s, _r))


@check("moment", "w_space_dimension_sequences", ("cartan_project",), ONCE)
def _w_dims(seed, t):
    info = {"projective_spaces": {
        "sp:3": [2, 5, 8], "u:3,3": [5, 11, 17], "ostar:6": [11, 23, 35],
    }}
    seqs = {
        "sp:3": [3, 6, 9],
        "u:3,3": [6, 12, 18],
        "ostar:6": [12, 24, 36],
    }
    for sel, expected in seqs.items():
        dims = [dp.parse_case(sel, s).w_complex_dim() for s in (1, 2, 3)]
        if dims != expected:
            return False, {"case": sel, "dims": dims}, info
    return True, None, info


# --- catalog suite -----------------------------------------------------------------

@check("catalog", "scorza_formula_invariants", ("catalog_scorza",), ONCE)
def _formulas(seed, t):
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


@check("catalog", "severi_rows_exactly_four", ("severi_check",), ONCE)
def _severi_rows(seed, t):
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


@check("catalog", "hermitian_rank_lists", ("list_hermitian",), ONCE)
def _hermitian_lists(seed, t):
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


@check("catalog", "segre_family_side_difference", ("catalog_scorza",), ONCE)
def _segre_families(seed, t):
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


@check("catalog", "golden_files_byte_identical", ("catalog_scorza", "list_hermitian"), ONCE)
def _goldens(seed, t):
    from .cli import render_json

    for name, obj in golden_objects().items():
        if render_json(obj) != golden_text(name):
            return False, {"file": name}
    return True, None


@check("catalog", "ambient_matches_top_stratum", ("catalog_scorza", "stratum_dimension"), ONCE)
def _ambient_cross_check(seed, t):
    for k in range(2, 7):
        for e in catalog_scorza(k):
            if not e.regular:
                continue
            model = st.parse_model(e.p_model)
            got = st.stratum_dimension(model, model.max_rank)[1]
            if got != e.ambient_m:
                return False, {"k": k, "label": e.label, "got": got}
    return True, None


# --- runner ---------------------------------------------------------------------

def run_suite(name: str, trials: int, seed: int) -> VerificationReport:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    if not isinstance(trials, int) or trials < 1:
        raise InputError("trials must be >= 1")
    start = time.perf_counter()
    names = list(CHECKS) if name == "all" else [name]
    checks = [row.run(trials, seed) for n in names for row in CHECKS[n]]
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
