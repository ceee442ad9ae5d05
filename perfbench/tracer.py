"""In-memory span tracer that wraps scorza's public functions from outside.

Nothing under ``src/`` is edited. ``Tracer.install`` replaces each traced
function in every ``scorza.*`` namespace that binds it (module globals,
``from x import y`` copies, class attributes) and ``Tracer.uninstall`` puts
the originals back. A span records name, start, end, parent span and item
id; self time is a span's duration minus the durations of its direct child
spans. ``QI`` arithmetic and ``CDElement.int_form`` are too fine for spans
and are only counted, so their time lands in the calling span's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute path) of every function it wraps
SPANS = {
    "cli.main": ("scorza.cli", ("main",)),
    "verify.run_suite": ("scorza.verify", ("run_suite",)),
    "linalg.mat_mul": ("scorza.linalg", ("mat_mul",)),
    "linalg.rank": ("scorza.linalg", ("rank",)),
    "linalg.det": ("scorza.linalg", ("det",)),
    "linalg.pfaffian": ("scorza.linalg", ("pfaffian",)),
    "linalg.inverse": ("scorza.linalg", ("inverse",)),
    "cayley_dickson.mul": ("scorza.cayley_dickson", ("CDElement.__mul__",)),
    "jordan.jordan_product": ("scorza.jordan", ("jordan_product",)),
    "jordan.sharp": ("scorza.jordan", ("sharp",)),
    "jordan.generic_det": ("scorza.jordan", ("generic_det",)),
    "strata.stratum_dimension": ("scorza.strata", ("stratum_dimension",)),
    "strata.chart_point": ("scorza.strata", ("chart_point",)),
    "strata.point_validate": ("scorza.strata", ("_validate_coords",)),
    "strata.sample_secant": ("scorza.strata", ("sample_secant",)),
    "strata.rank_of": ("scorza.strata", ("rank_of",)),
    "strata.relative_invariant": ("scorza.strata", ("relative_invariant",)),
    "dual_pairs.sample_zero_level": ("scorza.dual_pairs", ("sample_zero_level",)),
    "dual_pairs.random_g_element": ("scorza.dual_pairs", ("random_g_element",)),
    "dual_pairs.momentum": ("scorza.dual_pairs", ("mu_K", "mu_G")),
    "dual_pairs.reduced_point": ("scorza.dual_pairs", ("reduced_point",)),
    "dual_pairs.equivariance_check": ("scorza.dual_pairs", ("equivariance_check",)),
    "dual_pairs.welement_validate": ("scorza.dual_pairs", ("WElement.__post_init__",)),
}

QI_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index or -1, item id]
        self.item = None            # id of the item being run
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []      # open span indexes
        self._child: list = []      # child-span time of each open span
        self._patches: list = []    # (owner, attr, original)

    # --- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, count=None):
        spans, stack, child = self.spans, self._stack, self._child
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            if count is not None:
                count(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            child.append(0.0)
            rec[1] = start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[name] += dur - child.pop()
                calls[name] += 1
                if child:
                    child[-1] += dur

        return wrapper

    def _count_mat_mul(self, args):
        a, b = args[0], args[1]
        if a and b:
            self.counts["linalg.mat_mul.mults"] += len(a) * len(b) * len(b[0])

    def _count_rank(self, args):
        m = args[0]
        if m:
            self.counts["linalg.rank.cells"] += len(m) * len(m[0])
        if self._stack and self.spans[self._stack[-1]][0] == "strata.stratum_dimension":
            self.counts["strata.dim_points"] += 1

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _int_form(self, fn):
        counts = self.counts

        def wrapper(element):
            counts["cayley_dickson.int_form.calls"] += 1
            if "_intform" in vars(element):
                counts["cayley_dickson.int_form.hits"] += 1
            return fn(element)

        return wrapper

    # --- installation -----------------------------------------------------

    def _replace(self, original, wrapper, owner):
        """Bind ``wrapper`` wherever a scorza namespace binds ``original``."""
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patch(owner, key, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "scorza" or mod_name.startswith("scorza."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self):
        from scorza.cayley_dickson import CDElement
        from scorza.scalars import QI

        hooks = {"linalg.mat_mul": self._count_mat_mul, "linalg.rank": self._count_rank}
        for name, (module, paths) in SPANS.items():
            for path in paths:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._replace(original, self._span(name, original, hooks.get(name)), owner)
        for attr in QI_ARITHMETIC:
            self._patch(QI, attr, self._counted("scalars.qi_ops", vars(QI)[attr]))
        self._patch(CDElement, "int_form", self._int_form(vars(CDElement)["int_form"]))

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # --- results ----------------------------------------------------------

    def traced_s(self) -> float:
        """Total self time of all spans, which equals the root spans' time."""
        return sum(self.self_s.values())

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
