"""Per-layer spans and counters for a traced benchmark pass.

Nothing in permlab is edited: ``Tracer.install`` replaces module attributes
with timing wrappers, at the names where callers look them up. ``from .x
import f`` binds ``f`` into the importing module, so each wrapper goes into
every module that calls the function, and the relation objects get their
``class_of`` and ``key`` fields replaced. Modules are reached with
``importlib.import_module`` because the package re-exports functions under
module names (``permlab.census`` is the ``census()`` function).

A span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

RELATION_NAMES = ("conjugacy", "order", "knuth", "toric", "descent")


#: Every per-layer metric of a traced run, with its unit, in report order.
LAYER_UNITS = {
    "census.scan_s": "s",
    "census.scan_calls": "count",
    "census.kept_ratio": "ratio",
    "census.close_s": "s",
    "census.classes_counted": "count",
    "pattern.calls": "count",
    "pattern.s": "s",
    "pattern.calls_per_s": "1/s",
    "core.s_n_perms": "count",
    "core.toric_class_calls": "count",
    "core.toric_class_s": "s",
    "core.descent_set_calls": "count",
    **{f"relations.class_of_calls.{rel}": "count" for rel in RELATION_NAMES},
    **{f"relations.class_of_s.{rel}": "s" for rel in RELATION_NAMES},
    "relations.class_members": "count",
    "relations.close_yield": "ratio",
    "relations.census_s": "s",
    "tableau.rsk_calls": "count",
    "tableau.rsk_s": "s",
    "tableau.inverse_rsk_calls": "count",
    "tableau.inverse_rsk_s": "s",
    "cli.self_s": "s",
    "catalog.match_tables_s": "s",
    "arith.s": "s",
    # Process figures, added by run.py from plain and traced passes.
    "proc.cpu_s": "s",
    "proc.trace_overhead": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._children: list[float] = []

    def span(self, name, fn, on_result=None):
        """Wrap fn so each call adds to the calls, total and self time of
        `name`; on_result(args, result) may add counters."""
        children = self._children
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = children.pop()
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - inner
                if children:
                    children[-1] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrap fn to count its calls only, for functions too cheap to time."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_iter(self, name, fn):
        """Wrap a generator function to count the items consumers draw."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def install(self):
        """Wrap the layer functions and return the wrapped ``cli.main``.

        A name a later version no longer has is skipped, so its figures read 0.
        """
        cli, census, relations = (importlib.import_module(f"permlab.{name}")
                                  for name in ("cli", "census", "relations"))
        counts = self.counts

        def patch(modules, attr, make):
            """Replace attr in each module by one wrapper of the first module's
            function; the wrapper is returned, or None if no module has attr."""
            found = [m for m in modules if hasattr(m, attr)]
            if not found:
                return None
            wrapped = make(getattr(found[0], attr))
            for m in found:
                setattr(m, attr, wrapped)
            return wrapped

        def scanned(args, kept):
            counts["census.kept"] += len(kept)
            counts["census.space"] += math.factorial(args[1])

        def closed(args, result):
            counts["census.classes_counted"] += result[1]

        def members(args, cls):
            counts["relations.class_members"] += len(cls)

        # census: the S_n scan and the class closure behind every enumeration.
        for attr in ("avoid_all", "match_all"):
            patch([census], attr, lambda f: self.span("census.scan", f, scanned))
        patch([census], "_class_closed", lambda f: self.span("census.close", f, closed))

        # pattern: the occurrence engine, as the scan calls it.
        for attr in ("avoids", "matches"):
            patch([census], attr, lambda f: self.span("pattern", f))

        # core: permutations drawn from S_n, toric orbits, descent sets.
        patch([census, relations], "s_n", lambda f: self.counted_iter("core.s_n_perms", f))
        toric_class = patch([relations], "toric_class", lambda f: self.span("core.toric_class", f))
        descent_set = patch([relations], "descent_set", lambda f: self.counted("core.descent_set", f))

        # relations: class generation per relation, and the class census.
        for rel in getattr(relations, "RELATIONS", {}).values():
            class_of = getattr(rel, "class_of", None)
            if class_of is None:
                continue
            if rel.name == "toric" and toric_class is not None:
                class_of = toric_class
            object.__setattr__(rel, "class_of",
                               self.span(f"relations.class_of.{rel.name}", class_of, members))
            if rel.name == "descent" and descent_set is not None:
                object.__setattr__(rel, "key", descent_set)
        patch([cli, census], "census", lambda f: self.span("relations.census", f))

        # tableau: insertion and its inverse, as the Knuth relation uses them.
        patch([relations, cli], "rsk", lambda f: self.span("tableau.rsk", f))
        patch([relations], "inverse_rsk", lambda f: self.span("tableau.inverse_rsk", f))

        # catalog and arith: table matching and the arithmetic commands.
        patch([census], "match_tables", lambda f: self.span("catalog.match_tables", f))
        for attr in ("natural_perms", "robin_range", "sigma_arith", "sigma_via_divisor_perms"):
            patch([cli], attr, lambda f: self.span("arith", f))

        return self.span("cli", cli.main)

    def metrics(self) -> dict[str, float]:
        """The per-layer figures of this pass, keyed as in LAYER_UNITS."""
        calls, total, counts = self.calls, self.total_s, self.counts
        class_of_calls = sum(calls[f"relations.class_of.{rel}"] for rel in RELATION_NAMES)
        out = {
            "census.scan_s": total["census.scan"],
            "census.scan_calls": calls["census.scan"],
            "census.kept_ratio": counts["census.kept"] / max(counts["census.space"], 1),
            "census.close_s": total["census.close"],
            "census.classes_counted": counts["census.classes_counted"],
            "pattern.calls": calls["pattern"],
            "pattern.s": total["pattern"],
            "pattern.calls_per_s": calls["pattern"] / total["pattern"] if total["pattern"] else 0.0,
            "core.s_n_perms": counts["core.s_n_perms"],
            "core.toric_class_calls": calls["core.toric_class"],
            "core.toric_class_s": total["core.toric_class"],
            "core.descent_set_calls": counts["core.descent_set"],
        }
        for rel in RELATION_NAMES:
            out[f"relations.class_of_calls.{rel}"] = calls[f"relations.class_of.{rel}"]
            out[f"relations.class_of_s.{rel}"] = total[f"relations.class_of.{rel}"]
        out.update({
            "relations.class_members": counts["relations.class_members"],
            "relations.close_yield": (counts["census.classes_counted"] / class_of_calls
                                      if class_of_calls else 0.0),
            "relations.census_s": total["relations.census"],
            "tableau.rsk_calls": calls["tableau.rsk"],
            "tableau.rsk_s": total["tableau.rsk"],
            "tableau.inverse_rsk_calls": calls["tableau.inverse_rsk"],
            "tableau.inverse_rsk_s": total["tableau.inverse_rsk"],
            "cli.self_s": self.self_s["cli"],
            "catalog.match_tables_s": total["catalog.match_tables"],
            "arith.s": total["arith"],
        })
        return out
