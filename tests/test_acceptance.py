"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything runs in exact arithmetic with fixed seeds; tolerances are zero
(integer and rational equality) except for the genericity thresholds,
which are the stated 95 out of 100 seeded trials. Criteria 4-6 read their
verdicts from the shared runs of the strata suite's checks (see conftest.py).
"""

import subprocess
import sys
import time

from scorza.catalog import catalog_scorza, golden_objects, golden_text
from scorza.strata import parse_model, stratum_dimension
from scorza.verify import run_suite

SEED = 20_260_810


def _failures(report) -> list:
    return [(c.name, c.witness) for c in report.checks if not c.ok]


def _report(num: int, description: str, ok: bool):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_composition_suite():
    start = time.perf_counter()
    report = run_suite("composition", trials=1000, seed=SEED)
    elapsed = time.perf_counter() - start
    names = {c.name for c in report.checks}
    ok = (
        report.passed
        and {"norm_multiplicativity_octonions", "alternative_laws",
             "conjugation_anti_automorphism",
             "octonion_associativity_counterexample"} <= names
        and elapsed < 5.0
    )
    _report(1, f"composition suite, 1000 octonion pairs, {elapsed:.2f}s "
               f"(failures: {_failures(report)})", ok)


def test_criterion_2_jordan_suite():
    start = time.perf_counter()
    report = run_suite("jordan", trials=200, seed=SEED)
    elapsed = time.perf_counter() - start
    names = {c.name for c in report.checks}
    ok = (
        report.passed
        and {"jordan_identity", "sharp_adjoint_identity", "adjoint_det_identity",
             "det_associative_restriction"} <= names
        and elapsed < 30.0
    )
    _report(2, f"jordan suite, 200 elements per check, {elapsed:.2f}s "
               f"(failures: {_failures(report)})", ok)


# (dim X, m) per family and Scorza index, plus the chordal row for k = 2
DIMENSION_TABLE = {
    2: {"sym:3": (2, 5), "mat:3,3": (4, 8), "mat:3,4": (5, 11),
        "skew:6": (8, 14), "skew:7": (10, 20), "exc27": (16, 26)},
    3: {"sym:4": (3, 9), "mat:4,4": (6, 15), "mat:4,5": (7, 19),
        "skew:8": (12, 27), "skew:9": (14, 35)},
    4: {"sym:5": (4, 14), "mat:5,5": (8, 24), "mat:5,6": (9, 29),
        "skew:10": (16, 44), "skew:11": (18, 54)},
}
CHORDAL_DIMS = {"sym:3": 4, "mat:3,3": 7, "skew:6": 13, "exc27": 25}


def test_criterion_3_dimension_tables():
    start = time.perf_counter()
    failures = []
    for k, table in DIMENSION_TABLE.items():
        for sel, (dim_x, m) in table.items():
            model = parse_model(sel)
            got_x = stratum_dimension(model, 1)[1]
            got_m = stratum_dimension(model, model.max_rank)[1]
            if (got_x, got_m) != (dim_x, m):
                failures.append((k, sel, got_x, got_m))
    for k in range(2, 7):
        for e in catalog_scorza(k):
            model = parse_model(e.p_model)
            got = (stratum_dimension(model, 1)[1], stratum_dimension(model, model.max_rank)[1])
            if got != (e.dim_x, e.ambient_m):
                failures.append(("catalog", k, e.p_model, got))
    for sel, expected in CHORDAL_DIMS.items():
        got = stratum_dimension(parse_model(sel), 2)[1]
        if got != expected:
            failures.append(("chordal", sel, got))
    elapsed = time.perf_counter() - start
    _report(
        3,
        f"dimension tables k=2,3,4, every catalog family k=2..6, chordal rows, "
        f"exact integers, {elapsed:.1f}s (failures: {failures})",
        not failures,
    )


def test_criterion_4_severi_relation(suite_check):
    check = suite_check("strata", "severi_dimension_table")
    _report(4, f"critical relation holds for exactly the four regular rows "
               f"(witness: {check.witness})", check.ok)


def test_criterion_5_scorza_conditions(suite_check):
    check = suite_check("strata", "scorza_defect_conditions")
    _report(5, f"defect conditions of every catalog family k=2..6 and the two "
               f"rectangular counterexamples (witness: {check.witness})", check.ok)


SECANT_MODELS = ("sym:3", "mat:3,3", "mat:3,5", "skew:6", "skew:7", "exc27")


def test_criterion_6_secant_identification(suite_check):
    # rank bound, genericity and the invariant's vanishing below the top rank
    # per stratum, and the exc27 chordal samples inside the cubic
    names = [f"secant_rank_{sel}_s{s}" for sel in SECANT_MODELS
             for s in range(1, parse_model(sel).max_rank + 1)]
    names.append("exc27_chordal_inside_cubic")
    checks = [suite_check("strata", n) for n in names]
    failures = [(c.name, c.witness, c.info) for c in checks if not c.ok]
    _report(6, f"secant rank identification, 100 seeded trials per stratum "
               f"(failures: {failures})", not failures)


def test_criterion_7_momentum_reduction_suite():
    start = time.perf_counter()
    report = run_suite("moment", trials=100, seed=SEED)
    elapsed = time.perf_counter() - start
    names = {c.name for c in report.checks}
    needed = set()
    for sel in ("sp:3", "u:3,3", "ostar:6"):
        needed |= {
            f"dagger_defining_identity_{sel}",
            f"momentum_lie_membership_{sel}",
            f"momentum_equivariance_{sel}",
            f"zero_level_exact_{sel}",
            f"veronese_rank_one_{sel}",
        }
        needed |= {f"reduced_rank_bound_{sel}_s{s}" for s in range(1, 5)}
    ok = report.passed and needed <= names
    _report(7, f"momentum and reduction suite, 100 trials per check, "
               f"{elapsed:.1f}s (failures: {_failures(report)})", ok)


def test_criterion_8_catalog_golden_files():
    failures = []
    for name in golden_objects():
        if name.startswith("scorza"):
            k = name.removeprefix("scorza_k").removesuffix(".json")
            args = ["catalog", "--k", k, "--format", "json"]
        else:
            r = name.removeprefix("hermitian_r").removesuffix(".json")
            args = ["catalog", "--rank", r, "--format", "json"]
        result = subprocess.run(
            [sys.executable, "-m", "scorza.cli", *args],
            capture_output=True, text=True,
        )
        if result.returncode != 0 or result.stdout != golden_text(name):
            failures.append(name)
    _report(8, f"catalog output byte-identical to frozen goldens "
               f"(failures: {failures})", not failures)
