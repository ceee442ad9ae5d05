import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorza import cayley_dickson, cli, dual_pairs, linalg, strata
from scorza.sampling import make_rng
from scorza.scalars import QI
from scorza.verify import run_suite


def run_cli(args, env=None, stdin=None, timeout=None):
    cmd = [sys.executable, "-m", "scorza.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, input=stdin, env=env,
                          timeout=timeout)


def test_catalog_table_lists_severi_rows():
    result = run_cli(["catalog", "--k", "2", "--format", "table"])
    assert result.returncode == 0
    for fragment in ("(1.1.2)", "(1.4)", "16", "26"):
        assert fragment in result.stdout


def test_catalog_json_matches_golden():
    from scorza.catalog import golden_text

    result = run_cli(["catalog", "--k", "3", "--format", "json"])
    assert result.returncode == 0
    assert result.stdout == golden_text("scorza_k3.json")
    result = run_cli(["catalog", "--rank", "4", "--format", "json"])
    assert result.stdout == golden_text("hermitian_r4.json")


def test_catalog_argument_validation():
    assert run_cli(["catalog"]).returncode == 2
    assert run_cli(["catalog", "--k", "2", "--rank", "3"]).returncode == 2
    assert run_cli(["catalog", "--k", "1"]).returncode == 2


def test_dim_exc27_stratum_one():
    result = run_cli(["dim", "--model", "exc27", "--stratum", "1"])
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"cone_dim": 17, "proj_dim": 16}


def test_dim_ignores_the_seed():
    one, two = (run_cli(["dim", "--model", "skew:7", "--stratum", "2", "--seed", seed])
                for seed in ("1", "2"))
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


def test_bad_selector_exits_2_with_grammar():
    result = run_cli(["dim", "--model", "frobenius:9", "--stratum", "1"])
    assert result.returncode == 2
    assert "sym:R | mat:Q,P | skew:N | exc27" in result.stderr


def test_verify_trials_validation():
    result = run_cli(["verify", "--suite", "all", "--trials", "0"])
    assert result.returncode == 2
    result = run_cli(["verify", "--suite", "nonsense", "--trials", "5"])
    assert result.returncode == 2


def test_verify_small_suite_passes():
    result = run_cli(["verify", "--suite", "composition", "--trials", "3",
                      "--seed", "42"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "octonion_associativity_counterexample" in names
    counter = next(
        c for c in report["checks"]
        if c["name"] == "octonion_associativity_counterexample"
    )
    assert counter["info"]["basis_triple"]


def test_sample_and_invariant_pipeline(tmp_path):
    point_file = tmp_path / "point.json"
    result = run_cli([
        "sample", "--model", "sym:3", "--secant", "0", "--seed", "7",
        "--out", str(point_file),
    ])
    assert result.returncode == 0
    data = json.loads(point_file.read_text())
    assert data["rank"] == 1
    result = run_cli(["invariant", "--point", str(point_file)])
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["is_zero"] is True
    # full-rank point through stdin
    result = run_cli(["sample", "--model", "sym:3", "--secant", "4", "--seed", "7"])
    result2 = run_cli(["invariant"], stdin=result.stdout)
    assert result2.returncode == 0
    assert json.loads(result2.stdout)["is_zero"] is False


def test_invariant_of_skew40_costs_polynomial_time():
    # a 40 x 40 Pfaffian by cofactor expansion would take of the order of
    # 2^40 steps; the skew elimination takes about 0.03 s
    model = strata.skew_model(40)
    full = strata.random_point(model, 40)
    result = run_cli(["invariant"], stdin=json.dumps(full.to_json()), timeout=30)
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["is_zero"] is False
    assert QI.from_json(out["invariant"]) ** 2 == linalg.det(full.coords)
    low = strata.sample_secant(model, 14, seed=40)
    assert strata.rank_of(low) == 15  # below the top rank 20
    result = run_cli(["invariant"], stdin=json.dumps(low.to_json()), timeout=30)
    assert result.returncode == 0
    assert json.loads(result.stdout)["is_zero"] is True
    start = time.perf_counter()
    strata.relative_invariant(full)
    assert time.perf_counter() - start < 1.0


def test_reduce_output_shape():
    result = run_cli(["reduce", "--case", "sp:3", "--s", "2", "--seed", "5"])
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert set(data) == {"case", "s", "alpha", "mu_K", "mu_G", "reduced_point", "rank"}
    assert data["rank"] <= 2
    assert all(all(x == {"re": "0/1", "im": "0/1"} for x in row) for row in data["mu_K"])


def test_byte_determinism():
    for args in (
        ["sample", "--model", "mat:3,5", "--secant", "1", "--seed", "99"],
        ["dim", "--model", "sym:3", "--stratum", "2", "--seed", "3"],
        ["catalog", "--k", "4"],
        ["reduce", "--case", "u:3,3", "--s", "2", "--seed", "11"],
        ["defects", "--model", "mat:3,5"],
    ):
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout, args
    # verify output is identical except the wall-time field
    a = run_cli(["verify", "--suite", "jordan", "--trials", "2", "--seed", "8"])
    b = run_cli(["verify", "--suite", "jordan", "--trials", "2", "--seed", "8"])
    ja, jb = json.loads(a.stdout), json.loads(b.stdout)
    ja.pop("wall_time_s"), jb.pop("wall_time_s")
    assert ja == jb


def test_seed_env_variable():
    import os

    env = dict(os.environ, SCORZA_SEED="123")
    a = run_cli(["sample", "--model", "sym:3"], env=env)
    b = run_cli(["sample", "--model", "sym:3", "--seed", "123"])
    assert a.stdout == b.stdout
    env_bad = dict(os.environ, SCORZA_SEED="pi")
    assert run_cli(["sample", "--model", "sym:3"], env=env_bad).returncode == 2


def _main_in_process(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors and --help
            code = exc.code
    return code, out.getvalue()


def _without_wall_time(text: str) -> str:
    if not text.startswith("{"):
        return text
    data = json.loads(text)
    data.pop("wall_time_s", None)
    return json.dumps(data)


def test_main_calls_in_one_process_match_fresh_runs(monkeypatch):
    # main builds its parser once and reuses it; a call sequence must still
    # behave like separate processes, the malformed call first
    monkeypatch.delenv("SCORZA_SEED", raising=False)
    calls = [
        ["sample", "--model", "sym:3", "--height", "0"],
        ["sample", "--model", "mat:2,3", "--secant", "1", "--seed", "4"],
        ["dim", "--model", "skew:5", "--stratum", "1", "--seed", "4"],
        ["verify", "--suite", "composition", "--trials", "1", "--seed", "4"],
    ]
    codes = []
    for argv in calls:
        code, out = _main_in_process(argv)
        fresh = run_cli(argv)
        assert code == fresh.returncode
        assert _without_wall_time(out) == _without_wall_time(fresh.stdout)
        codes.append(code)
    assert codes == [2, 0, 0, 0]
    assert cli.build_parser() is cli.build_parser()
    default_seed_call = ["sample", "--model", "sym:3"]
    monkeypatch.setenv("SCORZA_SEED", "5")
    _, out5 = _main_in_process(default_seed_call)
    monkeypatch.setenv("SCORZA_SEED", "6")
    _, out6 = _main_in_process(default_seed_call)
    assert out5 != out6
    assert out5 == run_cli(default_seed_call + ["--seed", "5"]).stdout


# sha256 of the stdout of `scorza sample --model M --secant K --seed 11`; any
# change to a rank-one draw or to the arithmetic of a summand moves these
SAMPLE_DIGESTS = {
    ("sym:1", 0): "b5645e1a409446b905db24fac59d0413fd3b67510cc33967fdbc2146e5ea3574",
    ("sym:1", 1): "99f614db401178cf39f4bebe1b5f80d7b5c8e0126f5bbb4c006314d02333c169",
    ("sym:1", 2): "a8ef411bb628e7ab76eb45243c81f43c9a27e5ae8f557f5e1fda0909e2efa66b",
    ("sym:3", 0): "4b70d40b5e1d30e7f8f08beed2f92d3792d628bcd3abf44af48baf9c7aa8bd3e",
    ("sym:3", 1): "0cd6be5e973f21b8da7c4f6ab85d3736a5e85c94b875e10d719eede10e59e2d0",
    ("sym:3", 2): "71160e14b1565a91a6647b70a6b4339ef90e06474dcda1ac3e7ae9b8fe2d3e5b",
    ("mat:3,5", 0): "e45e2d9906728ebd9b31cd94cbbda8d405175919e9eb36518a7e9cdb290e4dbf",
    ("mat:3,5", 1): "8379ed91324c7f48a3fc81599a2d04cc813e82c05a6fa82f45ca21c2085d2810",
    ("mat:3,5", 2): "5e58abb0d5605748a4f4b04e9372d29eee42d64970e289d2b828d2c5f82a7ec3",
    ("mat:4,1", 0): "30e1e25f66d1f8c60b44904d60069e08e136f3c3d8df46a8d50f44757facce47",
    ("mat:4,1", 1): "a00117f90e69bcc83e92d05aa66652871d5db652aad690bead96552e6cee532d",
    ("mat:4,1", 2): "bb836a816600f5fd7430fd37b75522dad85e4aaca76696e6279e2fc513d8a25e",
    ("skew:2", 0): "d0788e3d6aab8a56c9d8464d82ac6912e766ba3ee14a5379823927c21090668b",
    ("skew:2", 1): "5bc350c1dc9a1409cdc0b52ad694423200d36936a0ee0b7a56a69901a13666c6",
    ("skew:2", 2): "522126f5ebbadd3b5f0967d782974971f84717c9347621c636f01f9366120745",
    ("skew:7", 0): "290bde09113f7c0dc885bdbd4ada41e19136418112a3d269bb3519d8f66d351c",
    ("skew:7", 1): "c34ac7500104fe9932072a87f904703c4bdbf9cbf46b81047b8e0b865b140c15",
    ("skew:7", 2): "1ed8f2522106fd2135a79b3b2e72eb2cb321eb076165edb5661514943f58ae7d",
    ("exc27", 0): "2f83cb0528d484d872780faa144f7b38701d3782fb00d660bdc1f4227953ff80",
    ("exc27", 1): "1c77e72b26505b22a28b283920e9aab58ace41c3eb81de3bafe5706b9c2b9f8e",
    ("exc27", 2): "1203eb6f0d6cdbb692abc73f73340ad984fae432f4bf7602c78d89f77184dc14",
}


@pytest.mark.parametrize("model,k", sorted(SAMPLE_DIGESTS))
def test_sample_output_pinned(model, k):
    code, out = _main_in_process(["sample", "--model", model, "--secant", str(k),
                                  "--seed", "11"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_DIGESTS[model, k]


def test_defects_json():
    result = run_cli(["defects", "--model", "mat:3,5"])
    data = json.loads(result.stdout)
    assert data["deltas"] == [2, 4]
    assert data["k0"] == 2
    assert data["scorza_ok"] is False


def test_verify_failure_exit_code_and_witness(monkeypatch):
    # a doubled dagger: the moment suite must fail and carry a reproducible
    # witness
    dagger = dual_pairs.dagger

    def corrupted(w):
        return linalg.mat_scale(dagger(w), QI(2))

    monkeypatch.setattr(dual_pairs, "dagger", corrupted)
    report = run_suite("moment", trials=4, seed=7)
    assert not report.passed
    failing = [c for c in report.checks if not c.ok]
    assert failing
    dagger_checks = [c for c in failing if c.name.startswith("dagger_defining")]
    assert dagger_checks
    for c in dagger_checks:
        assert c.witness is not None
        assert "element" in c.witness and "alpha" in c.witness["element"]


def test_verify_witness_is_the_first_failing_trial(monkeypatch):
    # a transposed reference product fails the table cross-check; the
    # witness, built only for the first failing trial, names its inputs
    monkeypatch.setattr(cayley_dickson, "reference_multiply", lambda x, y: y * x)
    report = run_suite("composition", trials=3, seed=11)
    assert not report.passed
    check = next(c for c in report.checks if c.name == "table_matches_doubling_recursion")
    assert check.passes == 0
    rng = make_rng(11, "table-ref", 0)
    x, y = (cayley_dickson.random_cd(rng, 3, "Q") for _ in range(2))
    assert check.witness == {"seed": 11, "trial": 0, "elements": [x.to_json(), y.to_json()]}


def test_genericity_shortfall_carries_a_witness(monkeypatch):
    # every reduced point has rank 0: each trial meets the rank bound but no
    # draw is generic, so the report fails (exit 1) and names trial 0 and
    # its input
    reduced = dual_pairs.reduced_point
    monkeypatch.setattr(dual_pairs, "reduced_point",
                        lambda w: strata.zero_point(reduced(w).model))
    code, out = _main_in_process(["verify", "--suite", "moment", "--trials", "4",
                                  "--seed", "7"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    check = checks["reduced_rank_bound_sp:3_s2"]
    assert not check["ok"] and check["passes"] == check["trials"] == 4
    assert check["info"] == {"generic": 0, "generic_required": 3}
    witness = check["witness"]
    assert witness["seed"] == 7 and witness["trial"] == 0
    assert witness["element"]["case"] == "sp:3" and witness["element"]["s"] == 2
    assert {n for n, c in checks.items() if not c["ok"]} == {
        n for n in checks if n.startswith("reduced_rank_bound_")
    }


@pytest.mark.parametrize("seed,s", [
    (3642584154, 3), (2992739187, 3), (78485939, 3), (336516587, 2),
])
def test_one_non_generic_draw_passes_at_one_trial(seed, s):
    # the one draw is correct but not generic: at one trial the rank bound
    # alone decides, so the run exits 0
    code, out = _main_in_process(["verify", "--suite", "moment", "--trials", "1",
                                  "--seed", str(seed)])
    assert code == 0
    check = next(c for c in json.loads(out)["checks"]
                 if c["name"] == f"reduced_rank_bound_sp:3_s{s}")
    assert check["ok"] and check["info"] == {"generic": 0, "generic_required": 0}


def test_verify_all_exercises_every_operation():
    report = run_suite("all", trials=1, seed=0)
    assert report.coverage_ok is True
    assert report.passed


def test_console_script_help():
    result = run_cli(["--help"])
    assert result.returncode == 0
    for sub in ("catalog", "verify", "sample", "dim", "defects", "invariant",
                "reduce"):
        assert sub in result.stdout
    # --model names the model grammar only, not the dual-pair cases
    result = run_cli(["sample", "--help"])
    assert result.returncode == 0
    assert "exc27" in result.stdout
    assert "sp:L" not in result.stdout


SYM1_POINT = json.dumps({"model": {"kind": "sym", "r": 1},
                         "coords": [[{"re": "1/1", "im": "0/1"}]]})
UNWRITABLE = "{tmp}/missing-dir/out.json"
# nested past the JSON decoder's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _sym2_point_with_rank(rank) -> str:
    one, zero = {"re": "1/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}
    return json.dumps({"model": {"kind": "sym", "r": 2},
                       "coords": [[one, zero], [zero, zero]], "rank": rank})


def _mat22_point(q, p) -> str:
    zero = {"re": "0/1", "im": "0/1"}
    return json.dumps({"model": {"kind": "mat", "q": q, "p": p},
                       "coords": [[zero, zero], [zero, zero]]})


def _exc27_point(n=3, level=3, rows=(3, 2, 1)) -> str:
    # the zero point, with the second upper-triangle row one entry short
    # when rows = (3, 1, 1)
    octonion = {"level": level, "coeffs": [{"re": "0", "im": "0"}] * 8}
    return json.dumps({"model": {"kind": "exc27"}, "coords": {
        "n": n, "algebra": "O_C", "entries": [[octonion] * k for k in rows]}})


def _sym_point(diagonal: str, r: int) -> str:
    # diag(diagonal, ..., diagonal) in sym:r
    zero = {"re": "0/1", "im": "0/1"}
    return json.dumps({"model": {"kind": "sym", "r": r}, "coords": [
        [{"re": diagonal, "im": "0/1"} if i == j else zero for j in range(r)] for i in range(r)]})


# values whose parts pass the interpreter's limit on writing an int as text
# (4,300 digits by default): a determinant of 4,861 digits, samples drawn at
# height 10^4000, and an input part of 4,400 digits
BIG_DET_POINT = _sym_point(str(10**80), 60)
BIG_PART_POINT = _sym_point("1" * 4400, 1)
PAST_DIGIT_LIMIT = {
    "invariant-det-past-digit-limit": (["invariant"], BIG_DET_POINT),
    "invariant-table-det-past-digit-limit": (["invariant", "--format", "table"], BIG_DET_POINT),
    "sample-past-digit-limit": (["sample", "--model", "sym:2", "--secant", "1",
                                 "--height", str(10**4000)], None),
    "reduce-past-digit-limit": (["reduce", "--case", "sp:1", "--s", "1",
                                 "--height", str(10**4000)], None),
    "invariant-part-past-digit-limit": (["invariant"], BIG_PART_POINT),
}
MALFORMED = {
    **PAST_DIGIT_LIMIT,
    "invariant-bad-json-stdin": (["invariant"], "{not json"),
    "invariant-bad-json-file": (["invariant", "--point", "{tmp}/bad.json"], None),
    "invariant-deep-json-stdin": (["invariant"], DEEP_JSON),
    "invariant-deep-json-file": (["invariant", "--point", "{tmp}/deep.json"], None),
    "invariant-missing-file": (["invariant", "--point", "{tmp}/none.json"], None),
    "invariant-missing-keys": (["invariant"], "{}"),
    "invariant-ill-typed-coords": (
        ["invariant"], '{"model": {"kind": "mat", "q": 1, "p": 1}, "coords": 7}'),
    "invariant-ragged-coords": (
        ["invariant"], '{"model": {"kind": "sym", "r": 2}, "coords": '
        '[[{"re": "1", "im": "0"}, {"re": "1", "im": "0"}], [{"re": "1", "im": "0"}]]}'),
    "invariant-unknown-model-kind": (
        ["invariant"], '{"model": {"kind": "frob"}, "coords": [[{"re": "1", "im": "0"}]]}'),
    "invariant-missing-model-param": (
        ["invariant"], '{"model": {"kind": "mat", "q": 2}, "coords": []}'),
    "invariant-exc27-short-row": (["invariant"], _exc27_point(rows=(3, 1, 1))),
    # every JSON integer field takes a non-bool int only
    "invariant-model-param-float": (["invariant"], _mat22_point(2.9, 2.2)),
    "invariant-model-param-bool": (["invariant"], SYM1_POINT.replace("1}", "true}", 1)),
    "invariant-model-param-string": (["invariant"], _mat22_point("2", 2)),
    "invariant-exc27-n-float": (["invariant"], _exc27_point(n=3.5)),
    "invariant-exc27-level-float": (["invariant"], _exc27_point(level=3.0)),
    # a piped "rank" is taken as the point's rank, so it must be an int in 0..max_rank
    "invariant-rank-bool": (["invariant"], _sym2_point_with_rank(True)),
    "invariant-rank-float": (["invariant"], _sym2_point_with_rank(2.7)),
    "invariant-rank-string": (["invariant"], _sym2_point_with_rank("1")),
    "invariant-rank-null": (["invariant"], _sym2_point_with_rank(None)),
    "invariant-rank-negative": (["invariant"], _sym2_point_with_rank(-5)),
    "invariant-rank-above-max": (["invariant"], _sym2_point_with_rank(99)),
    "sample-height-0": (["sample", "--model", "sym:3", "--height", "0"], None),
    "dim-height-0": (["dim", "--model", "sym:3", "--stratum", "1", "--height", "0"], None),
    "dim-height": (["dim", "--model", "sym:3", "--stratum", "1", "--height", "3"], None),
    "defects-height-0": (["defects", "--model", "sym:3", "--height", "0"], None),
    "defects-height": (["defects", "--model", "sym:3", "--height", "3"], None),
    "reduce-height-0": (["reduce", "--case", "sp:2", "--s", "1", "--height", "0"], None),
    "reduce-height-negative": (["reduce", "--case", "sp:2", "--s", "1", "--height", "-4"], None),
    "catalog-out": (["catalog", "--k", "2", "--out", UNWRITABLE], None),
    "verify-out": (["verify", "--suite", "composition", "--trials", "1",
                    "--out", UNWRITABLE], None),
    "sample-out": (["sample", "--model", "sym:3", "--out", UNWRITABLE], None),
    "dim-out": (["dim", "--model", "sym:3", "--stratum", "1", "--out", UNWRITABLE], None),
    "defects-out": (["defects", "--model", "sym:3", "--out", UNWRITABLE], None),
    "invariant-out": (["invariant", "--out", UNWRITABLE], SYM1_POINT),
    "reduce-out": (["reduce", "--case", "sp:2", "--s", "1", "--out", UNWRITABLE], None),
    "dim-over-cost-limit": (["dim", "--model", "mat:40,40", "--stratum", "40"], None),
    "defects-over-cost-limit": (["defects", "--model", "skew:16"], None),
    "sample-sym-over-cost-limit": (["sample", "--model", "sym:100000"], None),
    "sample-skew-over-cost-limit": (["sample", "--model", "skew:3000"], None),
    "sample-secant-over-cost-limit": (["sample", "--model", "exc27", "--secant", "100000"], None),
    "sample-skew-secant-over-cost-limit": (["sample", "--model", "skew:2", "--secant", "24999"], None),
    "reduce-s-over-cost-limit": (["reduce", "--case", "ostar:6", "--s", "100000"], None),
    "reduce-case-over-cost-limit": (["reduce", "--case", "sp:100000", "--s", "1"], None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(case, tmp_path):
    args, stdin = MALFORMED[case]
    (tmp_path / "bad.json").write_text("{\"model\": ")
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    result = run_cli([a.format(tmp=tmp_path) for a in args], stdin=stdin)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "error:" in result.stderr


@pytest.mark.parametrize("case", sorted(PAST_DIGIT_LIMIT))
def test_values_past_the_digit_limit_get_a_short_message_naming_it(case):
    args, stdin = PAST_DIGIT_LIMIT[case]
    result = run_cli(args, stdin=stdin)
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1 and len(result.stderr) < 300
    assert f"more than {sys.get_int_max_str_digits()} digits" in result.stderr


@pytest.mark.parametrize("case,s,message", [
    ("sp:2", "0", "s must be >= 1"),
    ("u:2,3", "1", "case u:P,Q needs P >= Q"),
    ("ostar:1", "1", "case ostar:D needs D >= 2"),
    ("sp:x", "1", "bad case selector 'sp:x'; expected sp:L | u:P,Q | ostar:D"),
    ("xx:3", "1", "unknown dual-pair case 'xx'; expected sp:L | u:P,Q | ostar:D"),
])
def test_reduce_reports_the_real_case_error(case, s, message):
    result = run_cli(["reduce", "--case", case, "--s", s])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.strip() == f"error: {message}"


# JSON trees: str-keyed dicts, lists and tuples, empty ones included, with
# leaves of any unicode str (escapes, non-ASCII), int, bool, None and finite float
LEAVES = (st.text() | st.integers() | st.booleans() | st.none()
          | st.floats(allow_nan=False, allow_infinity=False))


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4) | st.tuples(children, children)
        | st.dictionaries(st.text(), children, max_size=4),
        max_leaves=20,
    )


JSON_TREES = _trees(LEAVES)
# QI leaves from any int triple (a, b, d > 0), zero and negative parts included
QI_LEAVES = st.builds(QI.from_ints, st.integers(), st.integers(), st.integers(min_value=1))


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_render_json_matches_json_dumps(obj):
    assert cli.render_json(obj) == json.dumps(obj, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(_trees(LEAVES | QI_LEAVES))
def test_render_json_writes_qi_leaves_as_their_to_json(obj):
    expected = json.dumps(obj, indent=2, default=QI.to_json) + "\n"
    assert cli.render_json(obj) == expected


def test_reduce_writes_its_matrices_without_matrix_to_json(count_calls):
    """alpha, mu_K, mu_G and the reduced point's coordinates go to the
    writer as QI matrices: nothing calls matrix_to_json."""
    target = linalg.matrix_to_json.__code__
    (code, out), calls = count_calls(
        lambda: _main_in_process(["reduce", "--case", "ostar:6", "--s", "3"]),
        lambda frame: frame.f_code is target,
    )
    assert code == 0 and calls == 0
    assert len(json.loads(out)["alpha"]) == 12


def test_render_json_raises_type_error_outside_its_types():
    for bad in ({1: "int key"}, {"set": {1}}, [Fraction(1, 2)], [cayley_dickson.cd_one(3)]):
        with pytest.raises(TypeError):
            cli.render_json(bad)
