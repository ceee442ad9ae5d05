"""Tests of the benchmark itself (not of scorza).

    python3 -m pytest perfbench/tests -q

They run small subsets of each workload, so they take seconds, not the
minutes a full benchmark run takes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Gate, Item, generate  # noqa: E402

run.import_scorza()


def small_pass(workload: str, seed: int) -> list:
    """A cheap slice of a workload's pass that keeps every piped pair whole."""
    items = generate(workload, seed)
    if workload == "algebra":
        return items[:2]
    if workload == "moment":
        return [i for i in items if i.kind == "reduce" and i.argv[2] in ("sp:3", "u:3,3")][:8]
    keep = [i for i in items
            if (i.kind == "defects" and i.meta["model"] == "sym:3")
            or (i.kind == "dim" and i.argv[2] == "sym:3")
            or i.meta.get("model") in ("sym:3", "mat:3,5", "exc27")]
    ids = {i.id for i in keep}
    return [i for i in keep if i.stdin_from is None or i.stdin_from in ids]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_repeats_counts_and_digest(workload):
    items = small_pass(workload, 5)
    first, pass1 = run.trace_items(items)
    second, pass2 = run.trace_items(items)
    assert not pass1.failures and not pass2.failures
    assert pass1.digest == pass2.digest
    counts = run.exact_counts(first)
    assert counts == run.exact_counts(second)
    assert counts["cli.main.calls"] == len(items)
    assert counts["scalars.qi_ops"] > 0


def test_tracer_restores_every_binding():
    from scorza import cli, linalg, strata
    from scorza.scalars import QI

    before = (cli.main, cli.run_suite, linalg.rank, strata.generic_det, QI.__add__)
    run.trace_items(small_pass("geometry", 1)[:2])
    assert (cli.main, cli.run_suite, linalg.rank, strata.generic_det, QI.__add__) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_items(workload):
    assert generate(workload, 1) == generate(workload, 1)
    assert generate(workload, 1) != generate(workload, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_picks_every_input(workload, monkeypatch):
    items = generate(workload, 3)
    for item in items:
        # every item names its seed; invariant items read a generated point
        assert ("--seed" in item.argv) != (item.stdin_from is not None)
    monkeypatch.setenv("SCORZA_SEED", "424242")
    assert generate(workload, 3) == items


def test_program_default_seed_is_never_used(monkeypatch):
    item = next(i for i in generate("geometry", 3) if i.kind == "sample")
    monkeypatch.delenv("SCORZA_SEED", raising=False)
    plain = run.run_item(item, None)
    monkeypatch.setenv("SCORZA_SEED", "424242")
    assert run.run_item(item, None)[:2] == plain[:2]


def test_geometry_rows_are_the_catalog_rows():
    from scorza.catalog import catalog_scorza

    for k in range(2, workloads.GEOMETRY_MAX_K + 1):
        assert workloads.scorza_models(k) == [e.p_model for e in catalog_scorza(k)]


def _gate_failures(item, out, rc=0):
    gate = Gate()
    gate.check(item, rc, json.dumps(out))
    return gate.finish()


def test_gate_rejects_wrong_outputs():
    defects = Item(0, "defects", ("defects",), {"k": 2, "model": "sym:3"})
    good = {"dim_x": 2, "ambient_proj_dim": 5, "deltas": [1], "k0": 2, "scorza_ok": True}
    assert not _gate_failures(defects, good)
    assert _gate_failures(defects, dict(good, k0=3))
    assert _gate_failures(defects, dict(good, scorza_ok=False))
    assert _gate_failures(defects, good, rc=1)
    dim = Item(0, "dim", ("dim",), {"proj_dim": 25})
    assert _gate_failures(dim, {"cone_dim": 25, "proj_dim": 24})
    verify = Item(0, "verify", ("verify",))
    assert _gate_failures(verify, {"passed": False})
    sample = Item(0, "sample", ("sample",), {"model": "sym:3", "s": 1})
    assert _gate_failures(sample, {"rank": 2})


def test_gate_checks_invariant_and_genericity():
    gate = Gate()
    for n in range(20):
        gate.check(Item(2 * n, "sample", ("sample",), {"model": "sym:3", "s": 2}), 0,
                   json.dumps({"rank": 2 if n else 1}))
        gate.check(Item(2 * n + 1, "invariant", ("invariant",), {"model": "sym:3"},
                        stdin_from=2 * n), 0, json.dumps({"is_zero": n != 3}))
    # 19/20 generic passes the 95% gate; the nonzero invariant at rank 2 fails
    assert gate.finish() == {7: "invariant is_zero=False at rank 2"}
    gate = Gate()
    for n in range(2):
        gate.check(Item(n, "sample", ("sample",), {"model": "sym:3", "s": 2}), 0,
                   json.dumps({"rank": 1 + n}))
    assert list(gate.finish()) == [0]


def test_tail_percentile_keeps_ten_items_beyond():
    for n in (20, 50, 105, 1000):
        q = run.tail_percentile(n)
        assert n * (100 - q) / 100 >= run.TAIL_BEYOND - 1e-9
    assert run.tail_percentile(100) == 90 and run.tail_percentile(210) == 95


def test_speed_scale_uses_the_samples_over_the_span():
    from speed import REF_NOMINAL_S, SpeedMeter

    meter = SpeedMeter()
    meter.times = [1.0, 2.0, 3.0, 4.0, 5.0]
    meter.kernel_s = [1.0, 2.0, 4.0, 6.0, 100.0]
    # inside [2.5, 3.5]: the sample at 3.0, plus 2.0 and 4.0 on either side
    assert meter.kernel_over(2.5, 3.5) == 4.0
    assert meter.scale(2.5, 3.5) == REF_NOMINAL_S / 4.0
    # a span with no sample inside falls back on its two neighbours
    assert meter.kernel_over(1.2, 1.8) == 1.5
    assert meter.kernel_over(0.0, 0.5) == 1.0


def test_ticks_sample_inside_an_item_and_leave_no_handler():
    import signal
    from time import perf_counter

    from speed import TICK_S, SpeedMeter

    before = signal.getsignal(signal.SIGALRM)
    meter = SpeedMeter()
    try:
        with meter.ticking():
            end = perf_counter() + 6 * TICK_S
            while perf_counter() < end:
                pass
    finally:
        meter.restore()
    assert len(meter.kernel_s) >= 3 and meter.spent > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pass_scales_latencies_and_restores_cpus():
    import os

    cpus = os.sched_getaffinity(0)
    items = small_pass("algebra", 4)
    from speed import SpeedMeter

    meter = SpeedMeter()
    try:
        p = run.run_pass(items, meter=meter)
    finally:
        meter.restore()
    assert os.sched_getaffinity(0) == cpus
    assert len(p.scaled) == len(p.latencies) == len(items)
    assert all(x > 0 for x in p.scaled)
    assert sum(p.latencies) <= p.wall
    assert all(a < b for a, b in p.spans)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
