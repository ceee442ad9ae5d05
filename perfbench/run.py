"""scorza benchmark: one workload, closed loop, one thread, one process.

    python3 perfbench/run.py --workload {algebra,moment,geometry} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else. The item list of one pass comes from
``workloads.generate(workload, seed)``; whole passes over it are repeated
until ``--seconds`` are used (at least MIN_PASSES). Every item is one
in-process call of ``scorza.cli.main`` with its output captured in memory,
and every output goes through the workload's correctness gate.

Every timing is reported in seconds at a nominal machine speed: it is
scaled by a reference kernel timed between and during items (speed.py),
because the shared machines this runs on change speed by up to 2x from
one moment to the next. The raw wall times are in the result file.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` one more pass runs under the span tracer and the last line
holds the per-layer metrics. The full result, stamped with the machine,
Python version, load, seed and commit, goes to ``perfbench/out/``, and the
spans of a traced pass to ``perfbench/out/spans-*.jsonl``.

Exit codes: 0 all outputs correct, 1 some output failed its gate,
2 the benchmark could not run (no ``src/scorza`` next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import REF_NOMINAL_S, SpeedMeter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 2
SETUP_PROBES = 8  # timed probes before and again after the passes
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MiB",
}
LIMITS = ("no hardware performance counters and no page-cache drops: shared "
          "containers allow neither, so only this process's own clocks and "
          "getrusage are used")


def per_layer_units() -> dict:
    from tracer import SPANS

    units = {"scalars.qi_ops": "count"}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "linalg.mat_mul.mults": "count",
        "linalg.rank.cells": "count",
        "cayley_dickson.int_form.hit_ratio": "ratio",
        "strata.dim_points_per_call": "ratio",
        "setup.import_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_s": "s",
        "trace.overhead": "ratio",
        "wall.run_s": "s",
        "wall.setup_s": "s",
        "speed.kernel_unit_ms": "ms",
    })
    return units


# --- the program under test -------------------------------------------------

class SetupError(Exception):
    """The benchmark cannot run here; reported with exit code 2."""


def import_scorza():
    """Import scorza from this checkout's ``src/``, refusing any other copy."""
    pkg = SRC / "scorza"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no scorza package at {pkg}")
    sys.path.insert(0, str(SRC))
    import scorza

    if Path(scorza.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"imported scorza from {scorza.__file__}, not {pkg}")
    return scorza


def run_item(item, stdin_text):
    """One closed-loop item: returns (exit code, stdout text, seconds)."""
    from scorza import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(item.argv))
    except SystemExit as exc:  # argparse rejects
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed item, not a failed benchmark
        rc = 3
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = perf_counter() - start
        sys.stdin = saved_stdin
    return rc, out.getvalue(), elapsed


@dataclass
class Pass:
    latencies: list     # wall seconds per item, kernel samples taken out
    spans: list         # (start, end) perf_counter times of each item
    scaled: list        # the latencies in seconds at the nominal speed (speed.py)
    hashes: list        # sha256 of each item's normalized output
    failures: dict      # item id -> reason, from the gate
    digest: str         # sha256 over all items' normalized outputs
    wall: float         # wall time of the pass, kernel samples excluded
    kernel_s: float     # median kernel unit time during the pass


def run_pass(items, tracer=None, meter=None) -> Pass:
    """Run every item once, in order, through the workload's gate, with
    reference kernel samples to scale their latencies: between items, and
    while items run unless the pass is traced (the samples would land in
    the spans' self time)."""
    from workloads import Gate, normalized_output

    meter = meter or SpeedMeter()
    gate = Gate()
    outputs, latencies, spans, hashes = {}, [], [], []
    digest = hashlib.sha256()
    first_sample = len(meter.times)
    meter.sample()
    start, spent = perf_counter(), meter.spent
    with meter.ticking() if tracer is None else contextlib.nullcontext():
        for item in items:
            if tracer is not None:
                tracer.item = item.id
            before = meter.spent
            rc, out, elapsed = run_item(item, outputs.get(item.stdin_from))
            end = perf_counter()
            latencies.append(elapsed - (meter.spent - before))
            spans.append((end - elapsed, end))
            outputs[item.id] = out
            gate.check(item, rc, out)
            record = json.dumps([item.id, list(item.argv), rc, normalized_output(item, out)])
            hashes.append(hashlib.sha256(record.encode()).hexdigest())
            digest.update(record.encode())
            meter.maybe_sample()
    wall = perf_counter() - start - (meter.spent - spent)
    meter.sample()
    scaled = [x * meter.scale(a, b) for x, (a, b) in zip(latencies, spans)]
    kernel_s = statistics.median(meter.kernel_s[first_sample:])
    return Pass(latencies, spans, scaled, hashes, gate.finish(), digest.hexdigest(), wall,
                kernel_s)


def failed_items(items, runs, reference: Pass) -> list:
    """Every item that failed its gate, or whose output differs from the
    reference pass, in each of ``runs`` (labelled by position or 'traced')."""
    failures = []
    for label, p in runs:
        for idx, h in enumerate(p.hashes):
            reason = p.failures.get(idx)
            if reason is None and h != reference.hashes[idx]:
                reason = "output differs from the first pass"
            if reason is not None:
                failures.append({"pass": label, "item": idx, "argv": items[idx].argv,
                                 "reason": reason})
    return failures


# --- set-up time ---------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> int:
    """Child side of the set-up measurement: import, generate, report."""
    start = perf_counter()
    import_scorza()
    import_s = perf_counter() - start
    from workloads import generate

    items = generate(workload, seed)
    print(json.dumps({"import_s": import_s, "items": len(items)}))
    return 0


def setup_probes(workload: str, seed: int, count: int, meter: SpeedMeter) -> list:
    """``count`` fresh interpreters that import scorza and build the item
    list: (wall time, import time the probe reports, scale at the probe),
    with a reference kernel sample before and after every probe."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    runs = []
    for _ in range(count):
        meter.sample()
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        end = perf_counter()
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        runs.append((json.loads(proc.stdout.splitlines()[-1])["import_s"], start, end))
    meter.sample()
    return [(end - start, import_s, meter.scale(start, end)) for import_s, start, end in runs]


# --- statistics ----------------------------------------------------------------

def tail_percentile(n_items: int) -> float:
    """Highest ladder percentile with TAIL_BEYOND distinct items of one pass
    beyond it. Passes repeat the same items, so counting the samples of
    several passes would let a handful of items set the tail, and which
    items those are changes with the seed."""
    fitting = [q for q in TAIL_LADDER if n_items * (100 - q) >= 100 * TAIL_BEYOND - 1e-6]
    return fitting[-1] if fitting else TAIL_LADDER[0]


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# --- stamps ----------------------------------------------------------------------

def commit_id() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over every file under src/, so a result names the code it ran."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamps(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "cannot_measure": LIMITS,
    }


# --- main ------------------------------------------------------------------------

def measure(items, seconds: float, meter: SpeedMeter) -> list:
    """Whole untraced passes until another would overrun ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(items, meter=meter))
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() - start + typical > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
        if args.seconds <= 0:
            raise SetupError("--seconds must be positive")
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        return run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    info = stamps(args)
    import_scorza()
    from workloads import generate

    items = generate(args.workload, args.seed)
    meter = SpeedMeter()
    try:
        return measured_run(args, info, items, meter)
    finally:
        meter.restore()


def measured_run(args, info, items, meter) -> int:
    # probes run before and after the passes, so one burst of load on the
    # machine cannot move their median; the first one only compiles bytecode
    probes = setup_probes(args.workload, args.seed, SETUP_PROBES + 1, meter)[1:]
    passes = measure(items, args.seconds, meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes += setup_probes(args.workload, args.seed, SETUP_PROBES, meter)
    import_s = statistics.median(imp * scale for _, imp, scale in probes)

    failures = failed_items(items, enumerate(passes), passes[0])
    attempted = len(items) * len(passes)
    tail_q = tail_percentile(len(items))
    e2e = timings([p.scaled for p in passes], [wall * scale for wall, _, scale in probes],
                  tail_q)
    e2e.update({
        "success_rate": 1 - len(failures) / attempted,
        "peak_rss_mb": peak_rss_mb,
    })
    wall = timings([p.latencies for p in passes], [wall for wall, _, _ in probes], tail_q)
    result = {
        "stamps": info,
        "items_per_pass": len(items),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_kernel_ms": [p.kernel_s * 1000 for p in passes],
        "setup_probe_s": [wall for wall, _, _ in probes],
        "items_measured": len(items) * len(passes),
        "tail_percentile": tail_q,
        "error_rate": len(failures) / attempted,
        "digest": passes[0].digest,
        "items": [" ".join(item.argv) for item in items],
        "pass_latencies_s": [p.latencies for p in passes],
        "pass_scaled_latencies_s": [p.scaled for p in passes],
        "pass_spans_s": [[(a - meter.times[0], b - meter.times[0]) for a, b in p.spans]
                         for p in passes],
        "kernel_samples": [[t - meter.times[0], k] for t, k in zip(meter.times, meter.kernel_s)],
        "end_to_end": e2e,
        "wall_clock": wall,
        "failures": failures[:50],
    }
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    if args.trace:
        tracer, traced = trace_items(items, meter)
        failures += failed_items(items, [("traced", traced)], passes[0])
        attempted += len(items)
        result["counts"] = exact_counts(tracer)
        result["per_layer"] = layer_metrics(tracer, traced, import_s, e2e["run_s"])
        result["per_layer"].update({
            "wall.run_s": wall["run_s"],
            "wall.setup_s": wall["setup_s"],
            "speed.kernel_unit_ms": statistics.median(meter.kernel_s) * 1000,
        })
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2, default=str) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} python={info['python']} "
          f"nproc={info['nproc']} load={info['loadavg_start'][0]:.2f} commit={info['commit'][:12]}")
    print(f"  items/pass={len(items)} passes={len(passes)} measured={result['items_measured']} "
          f"kernel={statistics.median(meter.kernel_s) * 1000:.3f}ms "
          f"tail=p{tail_q:g} error_rate={len(failures) / attempted:.4g} "
          f"digest={result['digest'][:16]}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for f in failures[:10]:
        print(f"  FAILED pass={f['pass']} item={f['item']} {f['argv']}: {f['reason']}")
    print(f"  full result: {out_path.relative_to(ROOT)}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


def timings(latencies: list, setup: list, tail_q: float) -> dict:
    """The timed end-to-end metrics from per-pass item latencies and
    set-up probe times, all in seconds."""
    pooled = [x for pass_ in latencies for x in pass_]
    per_item = [statistics.median(col) for col in zip(*latencies)]
    return {
        "setup_s": statistics.median(setup),
        "run_s": sum(per_item),
        "item_p50_ms": statistics.median(pooled) * 1000,
        "item_tail_ms": percentile(pooled, tail_q) * 1000,
    }


def trace_items(items, meter=None):
    """One pass under the span tracer: (tracer, Pass)."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer, run_pass(items, tracer, meter)
    finally:
        tracer.uninstall()


def exact_counts(tracer) -> dict:
    """The traced pass's counts, which repeat exactly at one seed."""
    from tracer import SPANS

    c = tracer.counts
    counts = {"scalars.qi_ops": c["scalars.qi_ops"]}
    counts.update({f"{name}.calls": tracer.calls[name] for name in SPANS})
    int_form_calls = c["cayley_dickson.int_form.calls"]
    dim_calls = tracer.calls["strata.stratum_dimension"]
    counts.update({
        "linalg.mat_mul.mults": c["linalg.mat_mul.mults"],
        "linalg.rank.cells": c["linalg.rank.cells"],
        "cayley_dickson.int_form.hit_ratio":
            c["cayley_dickson.int_form.hits"] / int_form_calls if int_form_calls else 0.0,
        "strata.dim_points_per_call": c["strata.dim_points"] / dim_calls if dim_calls else 0.0,
    })
    return counts


def layer_metrics(tracer, traced: Pass, import_s: float, untraced_run_s: float) -> dict:
    """Counts, and times scaled to the nominal speed by the traced pass's
    median reference kernel time."""
    from tracer import SPANS

    scale = REF_NOMINAL_S / traced.kernel_s
    metrics = exact_counts(tracer)
    metrics.update({f"{name}.self_s": tracer.self_s[name] * scale for name in SPANS})
    metrics.update({
        "setup.import_s": import_s,
        "trace.wall_s": traced.wall * scale,
        "trace.untraced_s": (traced.wall - tracer.traced_s()) * scale,
        "trace.overhead": sum(traced.scaled) / untraced_run_s,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
