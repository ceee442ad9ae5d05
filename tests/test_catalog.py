import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scorza.catalog import ScorzaEntry, catalog_scorza, list_hermitian, severi_check
from scorza.errors import InputError
from scorza.strata import parse_model


def test_k2_table_matches_classification():
    rows = {(e.dim_x, e.ambient_m) for e in catalog_scorza(2)}
    assert rows == {(2, 5), (4, 8), (5, 11), (8, 14), (10, 20), (16, 26)}
    regular = {(e.dim_x, e.ambient_m) for e in catalog_scorza(2) if e.regular}
    assert regular == {(2, 5), (4, 8), (8, 14), (16, 26)}
    assert catalog_scorza(2, regular_only=True) == [e for e in catalog_scorza(2) if e.regular]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_symbolic_formulas(k):
    entries = {e.label: e for e in catalog_scorza(k)}
    assert entries[f"(1.1.{k})"].ambient_m == k * (k + 3) // 2
    assert entries[f"(1.2.{k}.r)"].ambient_m == k * (k + 2)
    assert entries[f"(1.2.{k}.n)"].ambient_m == k * k + 3 * k + 1
    assert entries[f"(1.3.{k}.r)"].ambient_m == k * (2 * k + 3)
    assert entries[f"(1.3.{k}.n)"].ambient_m == 2 * k * k + 5 * k + 2
    assert entries[f"(1.2.{k}.n)"].dim_x == 2 * k + 1
    for e in entries.values():
        assert e.k0 == e.dim_x // e.delta == k
        assert e.k0 * e.delta <= e.dim_x < (e.k0 + 1) * e.delta
        model = parse_model(e.p_model)
        assert model.ambient_proj_dim == e.ambient_m
        assert model.max_rank == k + 1
    assert ("(1.4)" in entries) == (k == 2)


def test_specific_rows_k3():
    entries = {e.label: e for e in catalog_scorza(3)}
    assert entries["(1.2.3.n)"].ambient_m == 19
    assert entries["(1.2.3.n)"].dim_x == 7
    assert entries["(1.3.3.r)"].ambient_m == 27


def test_severi_check():
    for e in catalog_scorza(2):
        if e.regular:
            assert severi_check(e)
    perturbed = ScorzaEntry(
        label="(1.2.2.r)", k=2, dim_x=4, ambient_m=9, delta=2, k0=2,
        regular=True, embedding="Segre", p_model="mat:3,3",
    )
    assert not severi_check(perturbed)
    nonregular = next(e for e in catalog_scorza(2) if not e.regular)
    with pytest.raises(InputError):
        severi_check(nonregular)
    k3 = catalog_scorza(3)[0]
    with pytest.raises(InputError):
        severi_check(k3)


def test_scorza_input_validation():
    with pytest.raises(InputError):
        catalog_scorza(1)
    with pytest.raises(InputError):
        catalog_scorza(0)


def test_hermitian_rank3_regular():
    entries = list_hermitian(3, regular_only=True)
    assert [e.name for e in entries] == ["sp(3,R)", "su(3,3)", "so*(12)", "e7(-25)"]
    assert [e.dim_p for e in entries] == [6, 9, 15, 27]
    assert entries[-1].p_model == "exc27"


@pytest.mark.parametrize("r", [4, 5, 6])
def test_hermitian_higher_rank_regular(r):
    entries = list_hermitian(r, regular_only=True)
    assert [e.name for e in entries] == [f"sp({r},R)", f"su({r},{r})", f"so*({4 * r})"]


def test_hermitian_rank_1_and_2():
    r1 = list_hermitian(1)
    assert [e.name for e in r1] == ["sp(1,R)", "so*(4)"]
    assert all(e.regular for e in r1)
    r2 = list_hermitian(2, regular_only=True)
    assert [e.name for e in r2] == ["so(p,2)"]
    assert r2[0].family
    nonreg = [e.name for e in list_hermitian(2) if not e.regular]
    assert nonreg == ["su(p,2)", "so*(10)", "e6(-14)"]


def test_hermitian_nonregular_rank_n():
    for r in (3, 4, 5):
        nonreg = [e for e in list_hermitian(r) if not e.regular]
        assert [e.name for e in nonreg] == [f"su(p,{r})", f"so*({4 * r + 2})"]
        skew_entry = nonreg[1]
        assert skew_entry.p_model == f"skew:{2 * r + 1}"
        assert skew_entry.dim_p == (2 * r + 1) * r


def test_hermitian_dim_p_matches_model():
    for r in range(1, 7):
        for e in list_hermitian(r):
            if e.p_model != "none" and not e.family:
                assert e.dim_p == parse_model(e.p_model).ambient_dim
            if not e.family and e.p_model != "none" and e.p_model != "exc27":
                assert parse_model(e.p_model).regular == e.regular


def test_hermitian_input_validation():
    with pytest.raises(InputError):
        list_hermitian(0)



def test_regen_goldens_runs_from_a_checkout_and_rewrites_them_unchanged(tmp_path):
    # the script imports scorza from the checkout's src/, with no install and
    # no PYTHONPATH: run on a copy whose goldens are removed first, it writes
    # all 11 back byte-identical to the checked-in ones
    root = Path(__file__).resolve().parents[1]
    for part in ("src", "scripts"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    goldens = root / "src" / "scorza" / "data" / "catalog"
    written = tmp_path / "src" / "scorza" / "data" / "catalog"
    names = sorted(p.name for p in goldens.glob("*.json"))
    assert len(names) == 11
    shutil.rmtree(written)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run([sys.executable, "scripts/regen_goldens.py"], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in written.glob("*.json")) == names
    for name in names:
        assert (written / name).read_bytes() == (goldens / name).read_bytes(), name
