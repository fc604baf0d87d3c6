"""The instance's integer view: ``Instance.kernel`` is built once per
instance, every layer reads it, and a replaced instance gets its own.  An
experiment item builds each of the structures read off it once per object
set: one subset table for both optima, one greedy tree, one splicer."""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import threading
from fractions import Fraction

import pytest

from dfep import combine, greedy, oracle
from dfep.combine import combine_trees, combine_uniform, find_replaceable
from dfep.greedy import criterion_value, divide_pairs, root_lower_bound, select_test
from dfep.harness import experiment
from dfep.harness.experiment import ExperimentConfig, run_experiment
from dfep.harness.io import read_instance
from dfep.model import Instance, Internal, Kernel, Leaf, evaluate, validate_instance
from dfep.oracle import opt_expected, opt_worst, pareto_frontier
from tests.conftest import random_complete_instance, reference_evaluate


@pytest.fixture
def kernels_built(monkeypatch) -> list[Instance]:
    """The instance of each kernel built from here on, in order."""
    built: list[Instance] = []
    build = Kernel.of.__func__

    def counted(cls, inst):
        built.append(inst)
        return build(cls, inst)

    monkeypatch.setattr(Kernel, "of", classmethod(counted))
    return built


@pytest.mark.parametrize("cost_mode", ["unit", "value-dependent-random"])
def test_an_experiment_item_builds_one_kernel_per_drawn_instance(
    kernels_built, monkeypatch, tmp_path, cost_mode
):
    drawn: list[Instance] = []
    draw = experiment.generate
    monkeypatch.setattr(experiment, "generate", lambda spec: drawn.append(draw(spec)) or drawn[-1])
    config = ExperimentConfig(
        seed=1406,
        count=2,
        objects=(6, 8),
        cost_mode=cost_mode,
        replay_path=str(tmp_path / "replay.json"),
    )
    rows = run_experiment(config)
    assert all(row.trade_offs for row in rows), "oracle checks should have run"
    assert len(drawn) == 2
    assert [id(inst) for inst in kernels_built] == [id(inst) for inst in drawn]


@pytest.mark.parametrize(
    "cost_mode, oracle_checks, tables",
    [("unit", True, 2), ("value-dependent-random", True, 2), ("unit", False, 0)],
)
def test_an_experiment_item_builds_each_table_and_greedy_tree_once(
    monkeypatch, tmp_path, cost_mode, oracle_checks, tables
):
    # One table serves both optima of the whole set, one more both optima of
    # the random subset, and the root lower bound reads the greedy tree built
    # for the row.
    calls: list[str] = []
    for module, name in ((oracle, "_table"), (greedy, "_build")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    config = ExperimentConfig(
        seed=1406,
        count=1,
        objects=(6, 8),
        cost_mode=cost_mode,
        oracle_checks=oracle_checks,
        replay_path=str(tmp_path / "replay.json"),
    )
    (row,) = run_experiment(config)
    assert bool(row.trade_offs) is oracle_checks
    assert (calls.count("_table"), calls.count("_build")) == (tables, 1)


def test_an_experiment_item_builds_one_splicer(monkeypatch, tmp_path):
    # The ρ grid and every uniform factor splice through one splicer, so the
    # fallback is priced and the object sets are compared once per instance.
    calls: list[tuple] = []
    splicer = combine._splicer

    def counted(*args):
        calls.append(args)
        return splicer(*args)

    monkeypatch.setattr(combine, "_splicer", counted)
    monkeypatch.setattr(experiment, "_splicer", counted)
    config = ExperimentConfig(
        seed=1406,
        count=1,
        objects=(6, 8),
        uniform_trade_offs=(1, 2, 3),
        replay_path=str(tmp_path / "replay.json"),
    )
    (row,) = run_experiment(config)
    assert [o.variant for o in row.trade_offs].count("uniform-sweep") == 3
    assert len(calls) == 1


def test_every_layer_reads_the_one_kernel(kernels_built):
    inst = random_complete_instance(random.Random(5), num_objects=7, num_tests=5)
    everything = frozenset(inst.objects)
    greedy = divide_pairs(everything, inst)
    root_lower_bound(everything, inst)
    select_test(everything, inst)
    criterion_value(everything, 0, inst)
    evaluate(greedy, inst)
    worst = opt_worst(everything, inst)
    opt_expected(everything, inst)
    pareto_frontier(everything, inst)
    combine_trees(greedy, worst.tree, 2, inst)
    combine_uniform(greedy, worst.tree, 2 * int(worst.value), inst)
    find_replaceable(greedy, inst, 1)
    assert len(kernels_built) == 1 and kernels_built[0] is inst
    assert inst.kernel is inst.kernel
    assert len(kernels_built) == 1


def test_a_replaced_instance_gets_its_own_kernel():
    inst = Instance.create(
        [0, 0, 1], [[1, 2, 2], [1, 1, 2]], priors=["1/2", "1/4", "1/4"], costs=[[1, 3], 2]
    )
    assert (inst.kernel.weights, inst.kernel.weight_scale) == ((2, 1, 1), 4)
    moved = dataclasses.replace(inst, priors=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
    assert moved.kernel is not inst.kernel
    assert (moved.kernel.weights, moved.kernel.weight_scale) == ((1, 2, 3), 6)
    assert (inst.kernel.weights, inst.kernel.weight_scale) == ((2, 1, 1), 4)
    assert moved.kernel.costs == inst.kernel.costs == ((1, 3), (2, 2))
    # Path costs 1, 5 and 5, weighed by each instance's own priors.
    below = Internal(1, {1: Leaf(0, frozenset({1})), 2: Leaf(1, frozenset({2}))})
    tree = Internal(0, {1: Leaf(0, frozenset({0})), 2: below})
    assert evaluate(tree, inst).expected == 3
    assert evaluate(tree, moved).expected == Fraction(13, 3)
    assert evaluate(tree, moved) == reference_evaluate(tree, moved)


def test_threads_reading_a_new_kernel_at_once_see_equal_ones():
    # From 3.12 on, cached_property takes no lock: more threads than cores
    # race for the first read, so several may build; all must agree.
    inst = random_complete_instance(random.Random(8), num_objects=12, num_tests=8)
    expected = Kernel.of(inst)
    seen: list[Kernel] = []
    start = threading.Barrier(8)

    def read() -> None:
        start.wait(timeout=10)
        seen.append(inst.kernel)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 and all(kernel == expected for kernel in seen)
    assert inst.kernel == expected and inst.kernel is inst.kernel


class TestOutcomeTableTheKernelRejects:
    """An outcome outside 1..k fails the kernel, so every layer that reads
    it raises the kernel's message, even where the bad test is never used.
    Only a directly built instance, or one read without validation, gets
    this far."""

    MESSAGE = r"^outcomes of test 1 are not 3 values in 1\.\.2$"

    @staticmethod
    def tree() -> Internal:
        return Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1, 2}))})

    def check(self, inst: Instance) -> None:
        tree = self.tree()
        for call in (
            lambda: evaluate(tree, inst),
            lambda: combine_trees(tree, tree, 1, inst),
            lambda: combine_uniform(tree, tree, 1, inst),
            lambda: find_replaceable(tree, inst, 1),
        ):
            with pytest.raises(ValueError, match=self.MESSAGE):
                call()

    def test_directly_built(self):
        self.check(
            Instance(
                classes=(0, 1, 1),
                num_outcomes=2,
                outcome_table=((1, 2, 2), (1, 0, 2)),
                priors=(Fraction(1, 3),) * 3,
                cost_table=((Fraction(1), Fraction(1)),) * 2,
            )
        )

    def test_read_without_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "num_outcomes": 2,
            "objects": [{"id": s, "class": min(s, 1), "prior": "1/3"} for s in range(3)],
            "tests": [
                {"id": 0, "costs": [1, 1], "outcomes": [1, 2, 2]},
                {"id": 1, "costs": [1, 1], "outcomes": [1, 0, 2]},
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="outside 1..2"):
            read_instance(path)
        self.check(read_instance(path, validate=False))


class TestPriorCountTheKernelRejects:
    """A directly built instance with one prior too few or too many fails the
    kernel with validate_instance's own message, in every layer that reads
    the kernel, instead of an IndexError deep in a loop."""

    @pytest.mark.parametrize("priors", [(Fraction(1),), (Fraction(1, 3),) * 3])
    def test_directly_built(self, priors):
        inst = Instance(
            classes=(0, 1),
            num_outcomes=2,
            outcome_table=((1, 2),),
            priors=priors,
            cost_table=((Fraction(1), Fraction(1)),),
        )
        message = f"^priors: expected 2 entries, got {len(priors)}$"
        tree = Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1}))})
        for call in (
            lambda: evaluate(tree, inst),
            lambda: opt_expected(inst.objects, inst),
            lambda: divide_pairs(inst.objects, inst),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        assert validate_instance(inst) == [message[1:-1]]


class TestCostTableTheKernelRejects:
    """A directly built instance whose cost table misses a price or a row
    fails the kernel with validate_instance's own message, in every layer
    that reads the kernel, instead of pricing a missing outcome at nothing or
    an IndexError deep in a loop."""

    @pytest.mark.parametrize(
        "costs, message",
        [
            (((1,), (5, 5)), "costs of test 0: expected 2 entries, got 1"),
            (((1, 1),), "cost table covers 1 tests, expected 2"),
            (((1, 1), (1, 1), (1, 1)), "cost table covers 3 tests, expected 2"),
        ],
    )
    def test_directly_built(self, costs, message):
        inst = Instance(
            classes=(0, 1, 1),
            num_outcomes=2,
            outcome_table=((1, 2, 2), (1, 1, 2)),
            priors=(Fraction(1, 3),) * 3,
            cost_table=tuple(tuple(map(Fraction, row)) for row in costs),
        )
        tree = Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1, 2}))})
        for call in (
            lambda: opt_worst(inst.objects, inst),
            lambda: opt_expected(inst.objects, inst),
            lambda: divide_pairs(inst.objects, inst),
            lambda: evaluate(tree, inst),
            lambda: combine_trees(tree, tree, 1, inst),
        ):
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value) == message
        assert validate_instance(inst) == [message]
