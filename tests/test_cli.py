import json
import subprocess
import sys

import pytest

from scorza import cayley_dickson, dual_pairs, linalg
from scorza.sampling import make_rng
from scorza.scalars import QI
from scorza.verify import run_suite


def run_cli(args, env=None, stdin=None):
    cmd = [sys.executable, "-m", "scorza.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, input=stdin, env=env)


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


SYM1_POINT = json.dumps({"model": {"kind": "sym", "r": 1},
                         "coords": [[{"re": "1/1", "im": "0/1"}]]})
UNWRITABLE = "{tmp}/missing-dir/out.json"

MALFORMED = {
    "invariant-bad-json-stdin": (["invariant"], "{not json"),
    "invariant-bad-json-file": (["invariant", "--point", "{tmp}/bad.json"], None),
    "invariant-missing-file": (["invariant", "--point", "{tmp}/none.json"], None),
    "invariant-missing-keys": (["invariant"], "{}"),
    "invariant-ill-typed-coords": (
        ["invariant"], '{"model": {"kind": "mat", "q": 1, "p": 1}, "coords": 7}'),
    "invariant-ragged-coords": (
        ["invariant"], '{"model": {"kind": "sym", "r": 2}, "coords": '
        '[[{"re": "1", "im": "0"}, {"re": "1", "im": "0"}], [{"re": "1", "im": "0"}]]}'),
    "sample-height-0": (["sample", "--model", "sym:3", "--height", "0"], None),
    "dim-height-0": (["dim", "--model", "sym:3", "--stratum", "1", "--height", "0"], None),
    "defects-height-0": (["defects", "--model", "sym:3", "--height", "0"], None),
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
    "reduce-s-over-cost-limit": (["reduce", "--case", "ostar:6", "--s", "100000"], None),
    "reduce-case-over-cost-limit": (["reduce", "--case", "sp:100000", "--s", "1"], None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(case, tmp_path):
    args, stdin = MALFORMED[case]
    (tmp_path / "bad.json").write_text("{\"model\": ")
    result = run_cli([a.format(tmp=tmp_path) for a in args], stdin=stdin)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "error:" in result.stderr


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
