"""Command-line interface.

Subcommands: catalog, verify, sample, dim, defects, invariant, reduce.
Output is JSON (default) or a plain table; identical arguments and seed
reproduce identical results. Exit codes: 0 success, 1 verification
failure, 2 input error. SCORZA_SEED sets the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import dual_pairs as dp
from . import linalg
from . import strata as st
from .catalog import (
    catalog_scorza,
    hermitian_json_obj,
    list_hermitian,
    scorza_json_obj,
)
from .errors import InputError, quoted
from .scalars import QI, Leaves, _past_digit_limit, leaf_strings
from .verify import SUITES, run_suite


def render_json(obj) -> str:
    """json.dumps(obj, indent=2) and a newline, byte for byte, for trees of
    str-keyed dicts and lists (or tuples) with str, int, bool, None, float,
    QI and `scalars.Leaves` leaves. A QI is written as its `to_json` dict
    would be, and a Leaves as its `plain_json` list would be, both from the
    ints by `scalars.leaf_strings`: no dict and, for a Leaves, no QI is
    built per value. Points, W elements and mu_G reach the writer as Leaves
    (their `json_tree`). Built by joining strings instead of by json's
    pure-Python indenting encoder. Any other key or value type raises
    TypeError."""
    return _render(obj, "\n") + "\n"


_encode_str = json.encoder.encode_basestring_ascii


def _render(obj, nl: str) -> str:
    """obj as indented JSON; nl is the newline and indent of its own line."""
    if obj.__class__ is Leaves:  # the parts are ASCII "p/q": nothing to escape
        if not obj.flat:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([
            f'{{{inner}  "re": "{re}",{inner}  "im": "{im}"{inner}}}'
            for re, im in leaf_strings(obj.den, obj.flat)]) + nl + "]"
    if obj.__class__ is QI:
        re, im = obj.part_strings()
        return f'{{{nl}  "re": "{re}",{nl}  "im": "{im}"{nl}}}'
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_encode_str(key)}: {_render(value, inner)}")
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):  # json writes a tuple as a list too
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in obj]) + nl + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {quoted(out)}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _table(headers: list, rows: list) -> str:
    cells = [headers] + [[str(x) for x in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _default_seed() -> int:
    env = os.environ.get("SCORZA_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        digits = env.strip().lstrip("+-").replace("_", "")
        if digits.isdecimal() and len(digits) > sys.get_int_max_str_digits():
            raise InputError(f"SCORZA_SEED {quoted(env)} has {_past_digit_limit()}") from None
        raise InputError(f"SCORZA_SEED must be an integer, got {quoted(env)}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@cache  # built on the first main call, then reused by every later call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorza",
        description="Exact computations with composition algebras, Jordan rank "
        "strata, secant varieties, and dual-pair momentum maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, height=True):
        p.add_argument("--seed", type=int, default=None, help="deterministic seed")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", help="write output to a file instead of stdout")
        if height:
            p.add_argument(
                "--height", type=_positive_int, default=10,
                help="bound on numerators and denominators of sampled rationals",
            )

    p = sub.add_parser("catalog", help="classification tables")
    p.add_argument("--k", type=int, help="Scorza index (k >= 2)")
    p.add_argument("--rank", type=int, help="hermitian Lie algebra real rank")
    p.add_argument("--regular-only", action="store_true")
    common(p, height=False)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, help="|".join(SUITES))
    p.add_argument("--trials", type=int, default=100)
    common(p, height=False)

    p = sub.add_parser("sample", help="sample a secant point of a model")
    p.add_argument("--model", required=True, help=st.MODEL_GRAMMAR)
    p.add_argument(
        "--secant", type=int, default=0,
        help="secant index k: the point is a sum of k+1 rank-1 samples",
    )
    common(p)

    p = sub.add_parser("dim", help="exact dimension of a stratum closure")
    p.add_argument("--model", required=True, help=st.MODEL_GRAMMAR)
    p.add_argument("--stratum", type=int, required=True)
    common(p, height=False)

    p = sub.add_parser("defects", help="secant defects and Scorza conditions")
    p.add_argument("--model", required=True, help=st.MODEL_GRAMMAR)
    common(p, height=False)

    p = sub.add_parser("invariant", help="evaluate the relative invariant")
    p.add_argument("--point", help="StratumPoint JSON file (default: stdin)")
    common(p, height=False)

    p = sub.add_parser("reduce", help="momentum maps and reduced point")
    p.add_argument("--case", required=True, help=dp.CASE_GRAMMAR)
    p.add_argument("--s", type=int, required=True, help="number of K^s columns")
    common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.command == "catalog":
        return _cmd_catalog(args)
    if args.command == "verify":
        return _cmd_verify(args, seed)
    if args.command == "sample":
        point = st.sample_secant(
            st.parse_model(args.model), args.secant, seed, args.height
        )
        rank = st.rank_of(point)
        _emit_result(
            args, {**point.json_tree(), "rank": rank},
            lambda: [["model", point.model.selector()], ["rank", rank],
                     ["coords", "see JSON format"]],
        )
        return 0
    if args.command == "dim":
        cone, proj = st.stratum_dimension(st.parse_model(args.model), args.stratum)
        obj = {"cone_dim": cone, "proj_dim": proj}
        _emit_result(args, obj, lambda: [["cone_dim", cone], ["proj_dim", proj]])
        return 0
    if args.command == "defects":
        d = st.defects(st.parse_model(args.model))
        obj = {
            "model": d.model.selector(),
            "dim_x": d.dim_x,
            "secant_proj_dims": list(d.secant_proj_dims),
            "ambient_proj_dim": d.ambient_proj_dim,
            "deltas": list(d.deltas),
            "k0": d.k0,
            "scorza_ok": d.scorza_ok,
        }
        _emit_result(args, obj, lambda: [[k, v] for k, v in obj.items()])
        return 0
    if args.command == "invariant":
        return _cmd_invariant(args)
    if args.command == "reduce":
        return _cmd_reduce(args, seed)
    raise InputError(f"unknown command {args.command!r}")


def _emit_result(args, json_obj, table_rows):
    """json_obj as JSON, or the rows that table_rows() builds as a table."""
    if args.format == "json":
        _emit(render_json(json_obj), args.out)
    else:
        _emit(_table(["field", "value"], table_rows()), args.out)


def _cmd_catalog(args) -> int:
    if (args.k is None) == (args.rank is None):
        raise InputError("catalog needs exactly one of --k or --rank")
    if args.k is not None:
        if args.format == "json":
            _emit(render_json(scorza_json_obj(args.k, args.regular_only)), args.out)
        else:
            rows = [
                [e.label, e.dim_x, e.ambient_m, e.delta, e.k0,
                 "yes" if e.regular else "no", e.embedding, e.p_model]
                for e in catalog_scorza(args.k, args.regular_only)
            ]
            _emit(_table(
                ["label", "dim_x", "m", "delta", "k0", "regular", "embedding",
                 "model"], rows,
            ), args.out)
        return 0
    if args.format == "json":
        _emit(render_json(hermitian_json_obj(args.rank, args.regular_only)), args.out)
    else:
        entries = list_hermitian(args.rank, args.regular_only)
        rows = [
            [e.name, e.rank, "yes" if e.regular else "no", e.p_model,
             e.dim_p if e.dim_p is not None else "-",
             "family" if e.family else "", e.note]
            for e in entries
        ]
        _emit(_table(
            ["name", "rank", "regular", "p_model", "dim_p", "", "note"], rows,
        ), args.out)
    return 0


def _cmd_verify(args, seed: int) -> int:
    report = run_suite(args.suite, args.trials, seed)
    if args.format == "json":
        _emit(render_json(report.to_json()), args.out)
    else:
        rows = []
        for c in report.checks:
            status = "ok" if c.ok else "FAIL"
            extra = ""
            if c.info and "generic" in c.info:
                extra = f"generic {c.info['generic']}/{c.info['generic_required']}"
            rows.append([c.name, f"{c.passes}/{c.trials}", c.required, status, extra])
        table = _table(["check", "passes", "required", "status", ""], rows)
        summary = (
            f"suite={report.suite} trials={report.trials} seed={report.seed} "
            f"passed={report.passed} wall={report.wall_time_s}s"
        )
        if report.coverage_ok is not None:
            summary += f" coverage_ok={report.coverage_ok}"
        _emit(table + summary + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_invariant(args) -> int:
    source = args.point or "stdin"
    try:
        if args.point:
            with open(args.point, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except OSError as exc:
        raise InputError(f"cannot read {quoted(source)}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nested too deep
        raise InputError(f"{source} is not valid JSON: {exc}") from exc
    point = st.StratumPoint.from_json(data, st.check_invariant)
    value = st.relative_invariant(point)
    obj = {"model": point.model.selector(), "invariant": value, "is_zero": not value}
    _emit_result(args, obj, lambda: [
        ["model", point.model.selector()],
        ["invariant", str(value)],  # reduced-fraction rendering
        ["is_zero", not value],
    ])
    return 0


def _cmd_reduce(args, seed: int) -> int:
    case = dp.parse_case(args.case, args.s)
    w = dp.sample_zero_level(case, seed, args.height)
    mu_g, point = dp.reduction(w)
    rank = st.rank_of(point)
    obj = {
        **w.json_tree(),  # case, s and alpha
        "mu_K": dp.mu_K(w),
        "mu_G": linalg.split_leaves(*mu_g),
        "reduced_point": {**point.json_tree(), "rank": rank},
        "rank": rank,
    }
    _emit_result(
        args, obj,
        lambda: [["case", case.selector()], ["s", case.s], ["rank", rank],
                 ["detail", "see JSON format"]],
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
