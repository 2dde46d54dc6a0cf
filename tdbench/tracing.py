"""Per-layer spans and exact counts, recorded from outside the package.

`Tracer.install` replaces chosen module functions with timing wrappers.
The package binds many of them by name (`from .metric import
is_resolving`), so every module attribute holding the original function
is replaced, not only the defining one.  The search kernel is reached
through `solver._default_kernel`, so whichever kernel the solver picked is
the one traced; only its two entry points are wrapped, never a per-node
helper.

A span is (layer, start, end, parent index, call id).  A layer's self
time is the sum over its spans of the duration minus the time covered by
direct child spans.  Spans stay in memory until `dump` writes them.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

TABLE_LAYERS = ("graphs.bfs", "graphs.clique_distances")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_table(counts, args, kwargs, result, parent_layer):
    # A 2 x n product builds its table by BFS inside tensor_clique_distances;
    # count each table once, at the outermost call.
    if parent_layer not in TABLE_LAYERS:
        counts["graphs.table_bytes"] += 2 * result.n * result.n


def _count_resolving(counts, args, kwargs, result, parent_layer):
    counts["metric.is_resolving_calls"] += 1
    counts["metric.rep_entries"] += _arg(args, kwargs, 0, "dist").n * len(
        _arg(args, kwargs, 1, "wset"))


def _count_size_search(counts, args, kwargs, result, parent_layer):
    counts["kernel.calls"] += 1
    counts["kernel.masks_in"] += len(_arg(args, kwargs, 0, "masks"))
    counts["solver.seed_gap"] += _arg(args, kwargs, 4, "upper") - result
    counts["solver.lower_stops"] += result == _arg(args, kwargs, 3, "lower")


def _count_lex_search(counts, args, kwargs, result, parent_layer):
    counts["kernel.calls"] += 1
    counts["kernel.masks_in"] += len(_arg(args, kwargs, 0, "masks"))


# (module, function, layer, counter); layers double as metric name stems.
TARGETS = [
    ("cli", "main", "cli.self", None),
    ("constructions", "_two_factor_set", "constructions.self", None),
    ("constructions", "construct_resolving", "constructions.self", None),
    ("constructions", "dim_formula", "constructions.self", None),
    ("constructions", "formula_case", "constructions.self", None),
    ("constructions", "lower_bound_largest_factor", "constructions.self", None),
    ("constructions", "lower_bound_subproduct", "constructions.self", None),
    ("constructions", "upper_bound_construction", "constructions.self", None),
    ("solver", "exact_metric_dimension", "solver.exact_self", None),
    ("solver", "build_pair_table", "solver.pair_table", None),
    ("solver", "_twin_classes", "solver.twins", None),
    ("solver", "_greedy_completion", "solver.greedy_seed", None),
    ("solver", "greedy_resolving_set", "solver.greedy", None),
    ("solver", "exhaustive_metric_dimension", "solver.enumeration", None),
    ("kernel", "min_hitting_size", "kernel.size_search", _count_size_search),
    ("kernel", "lex_min_hitting_set", "kernel.lex_search", _count_lex_search),
    ("graphs", "read_edge_list", "graphs.parse", None),
    ("graphs", "all_pairs_distances", "graphs.bfs", _count_table),
    ("graphs", "tensor_clique_distances", "graphs.clique_distances", _count_table),
    ("metric", "is_resolving", "metric.is_resolving", _count_resolving),
]

LAYERS = sorted({layer for _, _, layer, _ in TARGETS})
COUNTS = ["kernel.calls", "kernel.masks_in", "solver.seed_gap", "solver.lower_stops",
          "metric.is_resolving_calls", "metric.rep_entries", "graphs.table_bytes"]


class Tracer:
    def __init__(self):
        self.passes: list[tuple[list, Counter]] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.call_id = 0
        self._stack: list[tuple[int, str]] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, modules: dict) -> None:
        """Wrap every TARGETS function wherever `modules` bind it.

        `modules` maps "cli", "constructions", "solver", "graphs" and
        "metric" to the package modules, plus any further module whose
        bindings should be replaced (the package itself); the kernel is
        looked up here.
        """
        modules = dict(modules, kernel=modules["solver"]._default_kernel)
        owners = list(modules.values())
        for module_key, name, layer, counter in TARGETS:
            original = getattr(modules[module_key], name)
            traced = self._wrap(layer, original, counter)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._restore.append((owner, attr, value))
                        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def begin_pass(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.passes.append((self.spans, self.counts))

    def _wrap(self, layer, fn, counter):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            parent = stack[-1] if stack else (-1, None)
            spans.append(None)
            stack.append((index, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent[0], self.call_id)
            if counter is not None:
                counter(self.counts, args, kwargs, result, parent[1])
            return result

        return traced

    def dump(self, path) -> None:
        """Write every pass's spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for number, (spans, _) in enumerate(self.passes):
                for layer, start, end, parent, call_id in spans:
                    fh.write(json.dumps({"pass": number, "layer": layer, "start": start,
                                         "end": end, "parent": parent,
                                         "call": call_id}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Self time per layer, plus "root" for the total of top-level spans."""
    covered = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (layer, start, end, parent, _) in enumerate(spans):
        out[layer] += (end - start) - covered[i]
        if parent < 0:
            out["root"] += end - start
    return out
