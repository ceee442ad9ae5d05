"""Item generators and correctness gates for the three workloads.

An item is one `scorza` command line, exactly as a user would type it,
run in-process through `scorza.cli.main`. The generator derives every
item's `--seed` from the workload seed with its own sha256 counter, so the
program never picks an input: no item relies on the CLI's default seed or
on `SCORZA_SEED`.

Workloads (see README.md for why each was chosen):

* ``algebra``  -- alternating `verify --suite composition` and
  `verify --suite jordan` items at small trial counts.
* ``moment``   -- `verify --suite moment` items plus `reduce --case C --s S`
  over the three dual-pair cases.
* ``geometry`` -- `defects` for every Scorza row with k <= GEOMETRY_MAX_K,
  the chordal `dim --stratum 2` rows, and `sample --secant` / `invariant`
  pipelines over six models.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field

WORKLOADS = ("algebra", "moment", "geometry")

# 3 composition and 2 jordan items per round, so the median item falls inside
# the composition cluster rather than on the edge between the two kinds
ALGEBRA_ROUNDS = 20
ALGEBRA_ROUND = ("composition", "jordan", "composition", "jordan", "composition")
ALGEBRA_TRIALS = {"composition": 20, "jordan": 1}

MOMENT_VERIFY_ITEMS = 3
MOMENT_TRIALS = 1
MOMENT_CASES = {"sp:3": 3, "u:3,3": 3, "ostar:6": 3}  # case -> split rank r
MOMENT_SEEDS_PER_REDUCE = 9

GEOMETRY_MAX_K = 2
GEOMETRY_SEEDS = 3          # seeds per defects row and per chordal dim row
SECANT_MODELS = ("sym:3", "mat:3,3", "mat:3,5", "skew:6", "skew:7", "exc27")
REGULAR_MODELS = ("sym:3", "mat:3,3", "skew:6", "exc27")
MAX_RANK = 3  # of every model in SECANT_MODELS
SECANT_TRIALS = 6
# projective dimension of the secant variety of each Severi variety
CHORDAL_PROJ_DIM = {"sym:3": 4, "mat:3,3": 7, "skew:6": 13, "exc27": 25}
GENERIC_SHARE = 0.95


@dataclass(frozen=True)
class Item:
    """One CLI call. ``stdin_from`` names an earlier item whose output is
    piped in, as in ``scorza sample ... | scorza invariant``."""

    id: int
    kind: str
    argv: tuple
    meta: dict = field(default_factory=dict, compare=False)
    stdin_from: int | None = None


def item_seed(seed: int, *parts) -> int:
    data = ":".join(str(p) for p in (seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:4], "big")


def scorza_models(k: int) -> list:
    """Model selectors of the Scorza families at index k (closed forms)."""
    models = [f"sym:{k + 1}", f"mat:{k + 1},{k + 1}", f"mat:{k + 1},{k + 2}",
              f"skew:{2 * k + 2}", f"skew:{2 * k + 3}"]
    return models + ["exc27"] if k == 2 else models


def generate(workload: str, seed: int) -> list:
    """The fixed item list of one pass of ``workload`` at ``seed``.

    ``moment`` and ``geometry`` items are put in an order drawn from the
    seed (a piped pair stays together), so each kind of item is spread over
    the whole pass. A pass then samples the machine's speed as evenly for
    the short items that set the median as for the long ones."""
    groups: list = []   # each a list of (kind, argv, meta); a pair is piped

    def add(kind, argv, meta=None):
        groups.append([(kind, tuple(argv), meta or {})])

    if workload == "algebra":
        for i in range(ALGEBRA_ROUNDS):
            for j, suite in enumerate(ALGEBRA_ROUND):
                add("verify", ["verify", "--suite", suite, "--trials",
                               str(ALGEBRA_TRIALS[suite]),
                               "--seed", str(item_seed(seed, workload, suite, i, j))])
    elif workload == "moment":
        for i in range(MOMENT_VERIFY_ITEMS):
            add("verify", ["verify", "--suite", "moment", "--trials", str(MOMENT_TRIALS),
                           "--seed", str(item_seed(seed, workload, "verify", i))])
        for j in range(MOMENT_SEEDS_PER_REDUCE):
            for case, r in MOMENT_CASES.items():
                for s in range(1, r + 2):
                    add("reduce", ["reduce", "--case", case, "--s", str(s),
                                   "--seed", str(item_seed(seed, workload, case, s, j))],
                        {"r": r, "s": s})
    elif workload == "geometry":
        for j in range(GEOMETRY_SEEDS):
            for k in range(2, GEOMETRY_MAX_K + 1):
                for model in scorza_models(k):
                    add("defects", ["defects", "--model", model, "--seed",
                                    str(item_seed(seed, workload, "defects", model, j))],
                        {"k": k, "model": model})
            for model, proj in CHORDAL_PROJ_DIM.items():
                add("dim", ["dim", "--model", model, "--stratum", "2",
                            "--seed", str(item_seed(seed, workload, "dim", model, j))],
                    {"proj_dim": proj})
        for t in range(SECANT_TRIALS):
            for model in SECANT_MODELS:
                for s in range(1, MAX_RANK + 1):
                    add("sample", ["sample", "--model", model, "--secant", str(s - 1),
                                   "--seed", str(item_seed(seed, workload, model, s, t))],
                        {"model": model, "s": s})
                    if model in REGULAR_MODELS:
                        groups[-1].append(("invariant", ("invariant",), {"model": model}))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if workload != "algebra":
        random.Random(item_seed(seed, workload, "order")).shuffle(groups)

    items: list = []
    for group in groups:
        for n, (kind, argv, meta) in enumerate(group):
            items.append(Item(len(items), kind, argv, meta, len(items) - 1 if n else None))
    return items


def normalized_output(item: Item, out: str) -> str:
    """The deterministic part of an item's output: verify reports lose
    their `wall_time_s` field, everything else is kept byte for byte."""
    if item.kind == "verify":
        try:
            report = json.loads(out)
        except ValueError:
            return out
        report.pop("wall_time_s", None)
        return json.dumps(report, sort_keys=True)
    return out


class Gate:
    """Checks the items of one pass, in order; collects failures."""

    def __init__(self):
        from scorza.catalog import catalog_scorza

        self._catalog = {(e.k, e.p_model): e
                         for k in range(2, GEOMETRY_MAX_K + 1) for e in catalog_scorza(k)}
        self.failures: dict = {}     # item id -> first reason
        self._secant = defaultdict(list)   # (model, s) -> [(item id, rank)]
        self._ranks: dict = {}       # sample item id -> rank

    def _fail(self, item_id: int, reason: str):
        self.failures.setdefault(item_id, reason)

    def check(self, item: Item, rc: int, out: str):
        if rc != 0:
            return self._fail(item.id, f"exit code {rc}")
        try:
            obj = json.loads(out)
        except ValueError:
            return self._fail(item.id, "output is not JSON")
        try:
            reason = getattr(self, "_check_" + item.kind)(item, obj)
        except (KeyError, IndexError, TypeError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason:
            self._fail(item.id, reason)

    def _check_verify(self, item, obj):
        return None if obj.get("passed") is True else "suite report not passed"

    def _check_reduce(self, item, obj):
        if any(x != {"re": "0/1", "im": "0/1"} for row in obj["mu_K"] for x in row):
            return "mu_K is not zero on the zero level"
        cap = min(item.meta["s"], item.meta["r"])
        return None if obj["rank"] <= cap else f"reduced rank {obj['rank']} > {cap}"

    def _check_defects(self, item, obj):
        e = self._catalog.get((item.meta["k"], item.meta["model"]))
        if e is None:
            return "no catalog row for this model"
        got = (obj["dim_x"], obj["ambient_proj_dim"], obj["deltas"][0], obj["k0"],
               obj["scorza_ok"])
        want = (e.dim_x, e.ambient_m, e.delta, e.k0, True)
        return None if got == want else f"defects {got} != catalog {want}"

    def _check_dim(self, item, obj):
        want = item.meta["proj_dim"]
        return None if obj["proj_dim"] == want else f"proj_dim {obj['proj_dim']} != {want}"

    def _check_sample(self, item, obj):
        rank, s = obj["rank"], item.meta["s"]
        self._ranks[item.id] = rank
        self._secant[(item.meta["model"], s)].append((item.id, rank))
        return None if rank <= s else f"secant rank {rank} > {s}"

    def _check_invariant(self, item, obj):
        rank = self._ranks.get(item.stdin_from)
        if rank is None:
            return "no rank for the piped point"
        if obj["is_zero"] != (rank < MAX_RANK):
            return f"invariant is_zero={obj['is_zero']} at rank {rank}"
        return None

    def finish(self):
        """Pass-level gate: rank = s on at least GENERIC_SHARE of the trials
        of every secant stratum; the non-generic items of a failing stratum
        count as failed. Returns item id -> reason for every failed item."""
        for (model, s), rows in sorted(self._secant.items()):
            generic = sum(1 for _, r in rows if r == s)
            if generic < GENERIC_SHARE * len(rows):
                for item_id, r in rows:
                    if r != s:
                        self._fail(item_id, f"{model} s={s}: {generic}/{len(rows)} generic")
        return self.failures
