"""The benchmark's workloads: CLI argument lists generated from a seed.

Each workload is a list of calls into `tensordim.cli.main`.  A call either
has a fixed argv or derives it from the stdout of an earlier call in the
same pass (the way `verify` re-checks the set `construct` printed).  Every
call carries a check of its exit code and output; `cross_check` compares
outputs of different calls of one pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

import checks


@dataclass
class Call:
    # check(argv, rc, out) -> list of problems
    check: Callable[[list, int, str], list]
    argv: list | None = None
    # derive(stdout of calls[source]) -> argv
    derive: Callable[[str], list] | None = None
    source: int | None = None


@dataclass
class Workload:
    calls: list
    # Fixed per workload, so runs with different pass counts stay comparable.
    tail_percentile: float
    warmup: list = field(default_factory=list)
    cross_check: Callable[[list], dict] | None = None


@lru_cache(maxsize=8)
def _product(sizes) -> checks.ProductGraph:
    return checks.ProductGraph(sizes)


def _tensor(sizes) -> str:
    return ",".join(map(str, sizes))


def _reports(results):
    """(argv, parsed JSON or None) per call result."""
    for argv, rc, out in results:
        try:
            yield argv, json.loads(out) if rc == 0 else None
        except ValueError:
            yield argv, None


def _ignore_argv(fn):
    return lambda argv, rc, out: fn(rc, out)


def exact_products(seed: int, workdir: Path) -> Workload:
    """dim --exact on every K_m x K_n with 3 <= m <= n, m*n <= 40, plus
    dim --exact and bounds on 3x3x3 and 3x3x4; the seed shuffles the order."""
    calls = []
    pairs = [(m, n) for m in range(3, 41) for n in range(m, 41) if m * n <= 40]
    for sizes in pairs + [(3, 3, 3), (3, 3, 4)]:
        argv = ["dim", "--tensor", _tensor(sizes), "--exact", "--threads", "1"]
        calls.append(Call(_ignore_argv(partial(checks.check_product_dim,
                                               graph=checks.ProductGraph(sizes))), argv))
    for sizes in [(3, 3, 3), (3, 3, 4)]:
        argv = ["bounds", "--tensor", _tensor(sizes), "--exact-up-to", "64", "--threads", "1"]
        calls.append(Call(_ignore_argv(partial(checks.check_bounds,
                                               graph=checks.ProductGraph(sizes))), argv))
    random.Random(seed).shuffle(calls)

    def cross_check(results) -> dict:
        """dim --exact and bounds --exact agree on each three-factor product."""
        found = {(argv[2], argv[0]): (i, report)
                 for i, (argv, report) in enumerate(_reports(results))}
        problems = {}
        for tensor in ("3,3,3", "3,3,4"):
            (i, dim), (j, bounds) = found[(tensor, "dim")], found[(tensor, "bounds")]
            if dim is None or bounds is None or dim["dim"] != bounds["exact"]["dim"]:
                problems[i] = problems[j] = [f"{tensor}: dim and bounds disagree"]
        return problems

    warmup = [["dim", "--tensor", "3,4", "--exact", "--threads", "1"]]
    return Workload(calls, 75.0, warmup, cross_check)


# Product views are looked up at check time, so only a few distance caches
# are alive at once.
def _construct_check(sizes, argv, rc, out):
    return checks.check_construct(rc, out, _product(sizes))


def _verify_check(sizes, expect_resolving, argv, rc, out):
    wset = json.loads(argv[argv.index("--set") + 1])
    if wset and isinstance(wset[0], list):
        wset = [checks.encode(sizes, c) for c in wset]
    return checks.check_verify(rc, out, _product(sizes), wset, expect_resolving)


def _verify_built(tensor, out):
    return ["verify", "--tensor", tensor, "--set", json.dumps(json.loads(out)["resolving_set"])]


def _verify_minus_one(tensor, pick, out):
    ids = json.loads(out)["resolving_set_ids"]
    del ids[pick % len(ids)]
    return ["verify", "--tensor", tensor, "--set", json.dumps(ids)]


TABLE = (6, 40)


def certify_sweep(seed: int, workdir: Path) -> Workload:
    """construct + verify for every 2 <= m <= n <= 40 except 2x2; a quarter of
    the products also verify the set minus one member; one table call."""
    rng = random.Random(seed)
    products = [(m, n) for m in range(2, 41) for n in range(m, 41) if (m, n) != (2, 2)]
    # One product in each block of four (by vertex count) gets the minus-one
    # check, so every seed does about the same amount of work.
    products.sort(key=lambda p: (p[0] * p[1], p))
    minus_one = {rng.choice(products[i:i + 4]) for i in range(0, len(products), 4)}
    items = products + ["table"]
    rng.shuffle(items)
    calls = []
    for sizes in items:
        if sizes == "table":
            max_m, max_n = TABLE
            calls.append(Call(_ignore_argv(partial(checks.check_table, max_m=max_m, max_n=max_n)),
                              ["table", "--max-m", str(max_m), "--max-n", str(max_n),
                               "--exact-up-to", "4"]))
            continue
        tensor = _tensor(sizes)
        source = len(calls)
        calls.append(Call(partial(_construct_check, sizes), ["construct", "--tensor", tensor]))
        calls.append(Call(partial(_verify_check, sizes, True),
                          derive=partial(_verify_built, tensor), source=source))
        if sizes in minus_one:
            calls.append(Call(partial(_verify_check, sizes, False),
                              derive=partial(_verify_minus_one, tensor, rng.randrange(1 << 16)),
                              source=source))
    # The largest product first, so the allocator's peak does not depend on
    # where the seed puts it.
    warmup = [["construct", "--tensor", "40,40"]]
    return Workload(calls, 99.0, warmup)


ORACLE_UP_TO = 12
EXTRA_DEGREES = (1, 2, 3)
REPEATS = 4


def _random_graph(rng: random.Random, n: int, p: float) -> list:
    """Random spanning tree plus each other pair with probability p."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


def random_graphs(seed: int, workdir: Path) -> Workload:
    """dim --exact and dim --greedy on connected random graphs, n = 8..36.

    Each n gets graphs whose extra edges average degree 1, 2 and 3: sparse
    enough that no single graph dominates a pass, and the same spread of
    densities for every seed.
    """
    rng = random.Random(seed)
    calls = []
    files = []
    for n in range(8, 37):
        for rep in range(REPEATS):
            for degree in EXTRA_DEGREES:
                edges = _random_graph(rng, n, degree / (n - 1))
                path = workdir / f"g{n:02d}-{degree}-{rep}.txt"
                text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
                path.write_text(text, encoding="utf-8")
                graph = checks.EdgeListGraph(text)
                files.append(str(path))
                check = _ignore_argv(partial(checks.check_graph_dim, graph=graph,
                                             oracle_up_to=ORACLE_UP_TO))
                calls.append(Call(check, ["dim", str(path), "--exact", "--threads", "1"]))
                calls.append(Call(check, ["dim", str(path), "--greedy"]))
    rng.shuffle(calls)

    def cross_check(results) -> dict:
        """The exact dimension never exceeds the greedy set's size."""
        found = {(argv[1], argv[2]): (i, report)
                 for i, (argv, report) in enumerate(_reports(results))}
        problems = {}
        for path in files:
            (i, exact), (j, greedy) = found[(path, "--exact")], found[(path, "--greedy")]
            if exact is None or greedy is None or exact["dim"] > greedy["dim"]:
                problems[i] = problems[j] = [f"{path}: exact exceeds greedy"]
        return problems

    warmup = [calls[0].argv]
    return Workload(calls, 95.0, warmup, cross_check)


WORKLOADS = {
    "exact-products": exact_products,
    "certify-sweep": certify_sweep,
    "random-graphs": random_graphs,
}
