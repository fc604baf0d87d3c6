"""The benchmark's four workloads: seeded inputs, timed items, output checks.

Every workload is built by a ``setup_*`` function from the workload seed and
a scratch directory.  Set-up does everything a user pays once per session:
generating the seeded instances, writing instance files and pre-building
input trees.  It returns a :class:`Workload`, whose ``item(i)`` is the i-th
unit of timed work.  An item's ``run`` is the only timed call; its
``finish`` runs afterwards, untimed, and returns the item's output bytes
(hashed into the workload digest) together with every failed check.

The first ``reference`` items form the reference set: they are hashed into
the digest that is compared with ``digests.json`` and they are the work a
traced run repeats.  ``round`` items that belong together (the two greedy
instances, the three splice calls) are always run as a whole, so that a run
never ends on a lopsided mix.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from dfep.combine import combine_trees, combine_uniform
from dfep.greedy import divide_pairs, root_lower_bound
from dfep.harness import cli
from dfep.harness.experiment import (
    DEFAULT_RHO_GRID,
    DEFAULT_UNIFORM_TRADE_OFFS,
    ExperimentConfig,
    run_experiment,
    write_table,
)
from dfep.harness.generate import COST_MODES, GeneratorSpec, generate
from dfep.harness.io import read_tree, tree_to_doc, write_instance
from dfep.model import DecisionTree, Instance, evaluate, validate_tree


@dataclass(frozen=True)
class Item:
    """One timed call.  Items with the same ``key`` must give the same bytes."""

    key: str
    run: Callable[[], Any]
    finish: Callable[[Any], tuple[bytes, list[str]]]


@dataclass(frozen=True)
class Workload:
    item: Callable[[int], Item]
    reference: int
    round: int = 1


def _draw(rng: random.Random, **fields: Any) -> Instance:
    return generate(GeneratorSpec(seed=rng.getrandbits(32), prior_mode="random", **fields))


def _check_tree(tree: DecisionTree, objects: frozenset[int], inst: Instance, label: str) -> list[str]:
    return [f"{label}: {problem}" for problem in validate_tree(tree, objects, inst)]


# --- experiment --------------------------------------------------------------

# 2**4 = 16 >= 12 objects, so every draw of this range admits a complete
# instance and the generator never rejects it.
EXPERIMENT = ExperimentConfig(
    count=1, objects=(6, 12), classes=(2, 4), tests=(4, 10), outcomes=2, prior_mode="random"
)


def _experiment_finish(rows: list, table_path: str) -> tuple[bytes, list[str]]:
    problems = []
    for row in rows:
        if row.num_outcomes == 2 and not (row.greedy_within_cap and row.lower_bound_ok):
            problems.append(f"{row.name}: greedy harmonic cap or root lower bound broken")
        for outcome in row.trade_offs:
            if not (outcome.worst_ok and outcome.expected_ok):
                problems.append(f"{row.name}: {outcome.variant} at {outcome.trade_off} over its cap")
    write_table(rows, table_path)
    with open(table_path, "rb") as handle:
        return handle.read(), problems


def setup_experiment(seed: int, workdir: str) -> Workload:
    """One ``run_experiment`` call per item, each with its own config seed.

    The oracle checks are on, and items cycle through the three cost modes.
    """
    base = dataclasses.replace(EXPERIMENT, replay_path=os.path.join(workdir, "replay.json"))
    table_path = os.path.join(workdir, "table.tsv")

    def item(i: int) -> Item:
        config = dataclasses.replace(
            base,
            seed=random.Random(f"experiment/{seed}/{i}").getrandbits(32),
            cost_mode=COST_MODES[i % len(COST_MODES)],
        )
        return Item(
            key=f"experiment/{i}",
            run=lambda: run_experiment(config),
            finish=lambda rows: _experiment_finish(rows, table_path),
        )

    return Workload(item=item, reference=48)


# --- greedy-large --------------------------------------------------------------

# Binary instances need fewer tests than ternary ones for the same greedy
# time, so neither shape dominates the per-item median.
GREEDY_SHAPES = ((1000, 20, 2), (1000, 30, 3))


def setup_greedy_large(seed: int, workdir: str) -> Workload:
    """``dfep solve --algo greedy`` in process, then ``root_lower_bound``.

    A binary and a ternary instance with answer-dependent prices alternate.
    """
    rng = random.Random(f"greedy-large/{seed}")
    pool = []
    for k, (n, tests, outcomes) in enumerate(GREEDY_SHAPES):
        inst = _draw(rng, num_objects=n, num_classes=8, num_tests=tests,
                     num_outcomes=outcomes, cost_mode="value-dependent-random")
        path = os.path.join(workdir, f"greedy-{k}.json")
        write_instance(inst, path)
        pool.append((inst, path, os.path.join(workdir, f"greedy-{k}.tree.json")))

    def item(i: int) -> Item:
        k = i % len(pool)
        inst, path, out = pool[k]
        everything = frozenset(inst.objects)

        def run():
            code = cli.main(["solve", "--algo", "greedy", path, "-o", out])
            return code, root_lower_bound(everything, inst)

        def finish(result):
            code, lower = result
            if code != 0:
                return b"", [f"solve exited {code}"]
            tree = read_tree(out)
            problems = _check_tree(tree, everything, inst, "greedy tree")
            worst = evaluate(tree, inst).worst
            if not 0 < lower <= worst:
                problems.append(f"root lower bound {lower} not in (0, greedy worst {worst}]")
            with open(out, "rb") as handle:
                return handle.read() + f"lower_bound\t{lower}\n".encode(), problems

        return Item(key=f"greedy/{k}", run=run, finish=finish)

    return Workload(item=item, reference=len(pool), round=len(pool))


# --- frontier --------------------------------------------------------------

FRONTIER_SHAPE = (14, 10, 3)
FRONTIER_POOL = 60


def _frontier_finish(result, inst: Instance, worst_path: str, expected_path: str):
    codes, stdout = result
    if codes != [0, 0, 0]:
        return b"", [f"exit codes {codes}"]
    everything = frozenset(inst.objects)
    worst_tree, expected_tree = read_tree(worst_path), read_tree(expected_path)
    problems = _check_tree(worst_tree, everything, inst, "opt-worst tree")
    problems += _check_tree(expected_tree, everything, inst, "opt-expected tree")
    best_worst = evaluate(worst_tree, inst)
    best_expected = evaluate(expected_tree, inst)
    lines = stdout.splitlines()
    points = [tuple(Fraction(v) for v in line.split("\t")) for line in lines[1:]]
    if lines[:1] != ["budget\texpected"] or not points:
        return b"", problems + ["frontier output malformed"]
    if points[0][0] != best_worst.worst:
        problems.append(f"first budget {points[0][0]} != opt_worst {best_worst.worst}")
    if points[-1][1] != best_expected.expected:
        problems.append(f"last expected {points[-1][1]} != opt_expected {best_expected.expected}")
    for (b0, e0), (b1, e1) in zip(points, points[1:]):
        if not (b0 < b1 and e0 > e1):
            problems.append(f"frontier not a strict staircase at budget {b1}")
    if best_worst.worst > best_expected.worst or best_expected.expected > best_worst.expected:
        problems.append("one optimum beats the other on its own measure")
    data = b""
    for path in (worst_path, expected_path):
        with open(path, "rb") as handle:
            data += handle.read()
    return data + stdout.encode(), problems


def setup_frontier(seed: int, workdir: str) -> Workload:
    """Both exact optima and the Pareto frontier through the in-process CLI.

    Instances sit at the oracle's object cap, with answer-dependent prices.
    """
    rng = random.Random(f"frontier/{seed}")
    n, tests, outcomes = FRONTIER_SHAPE
    pool = []
    for k in range(FRONTIER_POOL):
        inst = _draw(rng, num_objects=n, num_classes=4, num_tests=tests,
                     num_outcomes=outcomes, cost_mode="value-dependent-random")
        path = os.path.join(workdir, f"frontier-{k}.json")
        write_instance(inst, path)
        pool.append((inst, path))
    worst_path = os.path.join(workdir, "opt-worst.json")
    expected_path = os.path.join(workdir, "opt-expected.json")

    def item(i: int) -> Item:
        k = i % len(pool)
        inst, path = pool[k]

        def run():
            codes = [
                cli.main(["solve", "--algo", "opt-worst", path, "-o", worst_path]),
                cli.main(["solve", "--algo", "opt-expected", path, "-o", expected_path]),
            ]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(["frontier", path]))
            return codes, out.getvalue()

        return Item(
            key=f"frontier/{k}",
            run=run,
            finish=lambda result: _frontier_finish(result, inst, worst_path, expected_path),
        )

    return Workload(item=item, reference=8)


# --- splice-large --------------------------------------------------------------

# With 18 ternary tests the greedy worst case is 7 on every seed tried; with
# 12 it is 7 or 8, and the sweep windows, hence the run time, follow it.
SPLICE_SHAPE = (1000, 18, 3)


def setup_splice_large(seed: int, workdir: str) -> Workload:
    """Splices of the greedy tree over one unit-cost instance.

    The greedy tree, built once, serves as both the expected-cost tree and
    the worst-case fallback.  A round is three items: ``combine_trees``
    at every trade-off of the default grid, then ``combine_uniform`` at
    numerators W and 2W.  The grid calls are one item because each alone is
    far shorter than a sweep, and a median over calls that differ tenfold by
    design is unsteady.
    """
    n, tests, outcomes = SPLICE_SHAPE
    inst = _draw(random.Random(f"splice-large/{seed}"), num_objects=n, num_classes=8,
                 num_tests=tests, num_outcomes=outcomes, cost_mode="unit")
    everything = frozenset(inst.objects)
    expected_tree = worst_tree = divide_pairs(everything, inst)
    reference = int(evaluate(worst_tree, inst).worst)
    base = evaluate(expected_tree, inst).expected
    # Each call returns its trees with one (label, worst-case cap, expected-cost
    # cap) per tree; every cap is exact and holds for unit costs.
    grid = [(f"combine_trees rho={rho}", (1 + rho) * reference, (1 + 1 / rho) * base)
            for rho in DEFAULT_RHO_GRID]
    calls: list[tuple[Callable[[], list[DecisionTree]], list]] = [(
        lambda: [combine_trees(expected_tree, worst_tree, rho, inst) for rho in DEFAULT_RHO_GRID],
        grid,
    )]
    for factor in DEFAULT_UNIFORM_TRADE_OFFS:
        numerator, rho = factor * reference, Fraction(factor)
        caps = (f"combine_uniform i={numerator}", numerator + reference,
                (1 + 2 / (rho * rho + 2 * rho)) * base)
        calls.append((
            lambda i=numerator: [combine_uniform(expected_tree, worst_tree, i, inst)], [caps]
        ))

    def finish(trees: list[DecisionTree], caps: list) -> tuple[bytes, list[str]]:
        data, problems = b"", []
        for tree, (label, worst_cap, expected_cap) in zip(trees, caps):
            problems += _check_tree(tree, everything, inst, label)
            report = evaluate(tree, inst)
            if report.worst > worst_cap:
                problems.append(f"{label}: worst {report.worst} over cap {worst_cap}")
            if report.expected > expected_cap:
                problems.append(f"{label}: expected {report.expected} over cap {expected_cap}")
            data += (json.dumps(tree_to_doc(tree), indent=2) + "\n").encode()
        return data, problems

    def item(i: int) -> Item:
        call, caps = calls[i % len(calls)]
        return Item(key=caps[0][0], run=call, finish=lambda trees: finish(trees, caps))

    return Workload(item=item, reference=len(calls), round=len(calls))


SETUPS = {
    "experiment": setup_experiment,
    "greedy-large": setup_greedy_large,
    "frontier": setup_frontier,
    "splice-large": setup_splice_large,
}
