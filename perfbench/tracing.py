"""Per-layer tracing installed from outside the program.

The dfep modules import their collaborators by name (``from dfep.model
import partition``), so a wrapper only takes effect where it replaces the
name a caller actually looks up.  :class:`Tracer` therefore patches every
module attribute that is bound to a traced function, in every loaded
``dfep`` module and in the benchmark's own workload module, and puts the
originals back afterwards.

Two kinds of wrapper are used:

* spans, for the layer entry points: name, start, end, parent span and item
  id, kept in memory; self time is computed from them at the end;
* counters only, for the high-volume primitives, whose per-call cost would
  otherwise swamp the numbers they are meant to explain.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Any, Callable

# (module, function, metric prefix, whether it gets a span)
TRACED = (
    ("dfep.harness.generate", "generate", "harness.generate", True),
    ("dfep.harness.io", "read_instance", "harness.read_instance", True),
    ("dfep.harness.io", "write_tree", "harness.write_tree", True),
    ("dfep.harness.cli", "main", "harness.cli_main", True),
    ("dfep.harness.experiment", "run_experiment", "harness.run_experiment", True),
    ("dfep.model", "validate_instance", "model.validate_instance", True),
    ("dfep.model", "evaluate", "model.evaluate", True),
    ("dfep.model", "restrict_tree", "model.restrict_tree", True),
    ("dfep.model", "partition", "model.partition", False),
    ("dfep.model", "pair_count", "model.pair_count", False),
    ("dfep.model", "separated_pairs", "model.separated_pairs", False),
    ("dfep.model", "tree_objects", "model.tree_objects", False),
    ("dfep.greedy", "divide_pairs", "greedy.divide_pairs", True),
    ("dfep.greedy", "root_lower_bound", "greedy.root_lower_bound", True),
    ("dfep.greedy", "select_test", "greedy.select_test", False),
    ("dfep.greedy", "criterion_value", "greedy.criterion_value", False),
    ("dfep.oracle", "opt_worst", "oracle.opt_worst", True),
    ("dfep.oracle", "opt_expected", "oracle.opt_expected", True),
    ("dfep.oracle", "pareto_frontier", "oracle.pareto_frontier", True),
    ("dfep.combine", "combine_trees", "combine.combine_trees", True),
    ("dfep.combine", "combine_uniform", "combine.combine_uniform", True),
)

# Extra counters charged to the calling module rather than the callee.
SITE_COUNTERS = {("dfep.oracle", "partition"): "oracle.partition.calls"}


def _result_counts(prefix: str, result: Any) -> dict[str, int]:
    """Work counts read off a traced call's return value."""
    if prefix in ("oracle.opt_worst", "oracle.opt_expected"):
        return {"oracle.states_explored": result.explored}
    if prefix == "oracle.pareto_frontier":
        return {"oracle.frontier_points": len(result)}
    if prefix == "harness.run_experiment":
        return {"harness.trade_off_points": sum(len(row.trade_offs) for row in result)}
    return {}


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self, extra_modules: tuple[str, ...] = ()):
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._item = ""
        self._patches = self._plan(extra_modules)

    def _plan(self, extra_modules: tuple[str, ...]) -> list[tuple[Any, str, Any, Any]]:
        """Every (module, attribute) bound to a traced function, with wrappers."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name.startswith("dfep") or name in extra_modules)
        ]
        plan = []
        for home, attr, prefix, spanned in TRACED:
            original = getattr(sys.modules[home], attr)
            for module in modules:
                if vars(module).get(attr) is not original:
                    continue
                site = SITE_COUNTERS.get((module.__name__, attr))
                if spanned:
                    wrapper = self._span_wrapper(prefix, original)
                else:
                    wrapper = self._count_wrapper(prefix, original, site)
                plan.append((module, attr, original, wrapper))
        return plan

    def _count_wrapper(self, prefix: str, fn: Callable, site: str | None) -> Callable:
        counts = self.counts
        key = prefix + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            if site is not None:
                counts[site] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, prefix: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        key = prefix + ".calls"

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (prefix, start, end, parent, self._item)
            counts[key] += 1
            counts.update(_result_counts(prefix, result))
            return result

        return spanned

    def install(self, item: str) -> None:
        self._item = item
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def self_times(self, item_prefix: str) -> Counter[str]:
        """Seconds of self time per span name, over items named ``item_prefix*``.

        A span's self time is its duration minus the durations of its direct
        children; children never overlap because the program is single
        threaded.
        """
        child_time: Counter[int] = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter[str] = Counter()
        for index, (name, start, end, _, item) in enumerate(self.spans):
            if item.startswith(item_prefix):
                out[name + ".s"] += (end - start) - child_time[index]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": parent, "item": item}
                handle.write(json.dumps(record) + "\n")
