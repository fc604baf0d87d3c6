"""Splice tests: frontier rule, cost caps, the unit-cost threshold sweep."""

from __future__ import annotations

import copy
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfep import combine
from dfep.combine import (
    _splicer,
    _window,
    combine_trees,
    combine_uniform,
    find_replaceable,
    subtree_at,
)
from dfep.greedy import divide_pairs
from dfep.harness import experiment
from dfep.harness.experiment import ExperimentConfig, _trade_offs, run_experiment
from dfep.model import (
    DecisionTree,
    Instance,
    Internal,
    Leaf,
    _price,
    _price_nodes,
    evaluate,
    restrict_tree,
    tree_objects,
    validate_tree,
)
from dfep.oracle import _optima, opt_expected, opt_worst
from tests.conftest import (
    deep_chain,
    enumerate_trees,
    random_complete_instance,
    reference_combine_trees,
    reference_evaluate,
    reference_find_replaceable,
    reference_restrict_tree,
    result_or_error,
    run_python,
    splice_cases,
    tree_signature,
)


def caterpillar() -> tuple[Instance, Internal]:
    """Six singleton classes peeled off one per level; every edge costs 1."""
    n = 6
    inst = Instance.create(
        classes=list(range(n)),
        outcomes=[[2 if s == k else 1 for s in range(n)] for k in range(n - 1)],
    )
    return inst, peeling(range(n))


def peeling(order) -> Internal:
    """A caterpillar tree that peels off the objects of ``order`` in turn:
    test ``k`` sends object ``k`` alone down outcome 2."""
    *peeled, last = order
    tree: Internal | Leaf = Leaf(last, frozenset({last}))
    for k in reversed(peeled):
        tree = Internal(k, {1: tree, 2: Leaf(k, frozenset({k}))})
    return tree


class TestFindReplaceable:
    def test_threshold_zero_returns_the_root(self):
        inst, tree = caterpillar()
        assert find_replaceable(tree, inst, 0) == [()]

    def test_everything_below_threshold_returns_nothing(self):
        inst, tree = caterpillar()
        assert find_replaceable(tree, inst, 99) == []

    def test_unit_chain_crossing_level(self):
        # Both nodes three edges deep sit exactly at the threshold: the
        # spine's continuation and its sibling leaf.
        inst, tree = caterpillar()
        assert find_replaceable(tree, inst, 3) == [(1, 1, 1), (1, 1, 2)]

    def test_node_short_of_threshold_taken_when_every_branch_overshoots(self):
        inst = Instance.create(
            classes=[0, 1],
            outcomes=[[1, 2]],
            costs=[[3, 3]],
        )
        tree = Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1}))})
        # The root's path cost is 0 < 2, yet both onward edges cost 3 > 2, so
        # the hand-over must happen at the root or not at all.
        assert find_replaceable(tree, inst, 2) == [()]

    def test_antichain_and_coverage_on_random_trees(self):
        from dfep.greedy import divide_pairs

        rng = random.Random(71)
        for _ in range(30):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(3, 9),
                num_tests=rng.randint(3, 6),
                num_outcomes=rng.choice([2, 3]),
                cost_mode=rng.choice(["unit", "fixed", "value"]),
            )
            tree = divide_pairs(inst.objects, inst)
            report = evaluate(tree, inst)
            threshold = report.worst * Fraction(rng.randint(0, 5), 4)
            frontier = find_replaceable(tree, inst, threshold)
            # No frontier path extends another.
            for i, a in enumerate(frontier):
                for b in frontier[i + 1 :]:
                    assert a != b[: len(a)] and b != a[: len(b)]

            def leaf_paths(node, acc, path, out):
                if isinstance(node, Leaf):
                    out.append((path, acc))
                    return
                for o in sorted(node.children):
                    leaf_paths(
                        node.children[o],
                        acc + inst.cost(node.test, o),
                        path + (o,),
                        out,
                    )

            leaves: list[tuple[tuple[int, ...], Fraction]] = []
            leaf_paths(tree, Fraction(0), (), leaves)
            for path, cost in leaves:
                covering = [f for f in frontier if path[: len(f)] == f]
                if cost >= threshold:
                    assert len(covering) == 1
                else:
                    assert len(covering) <= 1

    def test_frontier_paths_stay_at_or_under_threshold_with_flat_prices(self):
        from dfep.greedy import divide_pairs

        rng = random.Random(73)
        for _ in range(20):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(3, 9),
                num_tests=5,
                cost_mode=rng.choice(["unit", "fixed"]),
            )
            tree = divide_pairs(inst.objects, inst)
            threshold = evaluate(tree, inst).worst * Fraction(1, 2)

            def cost_of(path):
                total = Fraction(0)
                node = tree
                for outcome in path:
                    total += inst.cost(node.test, outcome)
                    node = node.children[outcome]
                return total

            for path in find_replaceable(tree, inst, threshold):
                assert cost_of(path) <= threshold


class TestCombineParams:
    """How ``combine_trees`` reads its trade-off and reference."""

    def test_reference_is_recomputed_from_the_tree(self):
        # Four singleton classes: tests 0-2 each peel one object off, tests 3
        # and 4 halve.  The peeling chain has worst case 3, the halving tree 2.
        inst = Instance.create(
            classes=[0, 1, 2, 3],
            outcomes=[[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 2, 2], [1, 2, 1, 2]],
        )
        chain = peeling(range(4))
        low, high = (
            Internal(4, {1: Leaf(a, frozenset({a})), 2: Leaf(b, frozenset({b}))})
            for a, b in ((0, 1), (2, 3))
        )
        halving = Internal(3, {1: low, 2: high})
        assert (evaluate(chain, inst).worst, evaluate(halving, inst).worst) == (3, 2)
        # Trade-off 1 splices at the halving tree's 2, not the chain's 3: the
        # chain is handed over two edges down, where {2, 3} are still alive.
        assert find_replaceable(chain, inst, 2) == [(1, 1), (1, 2)]
        assert combine_trees(chain, halving, 1, inst) == Internal(
            0, {1: Internal(1, {1: high, 2: Leaf(1, frozenset({1}))}), 2: chain.children[2]}
        )
        assert combine_trees(chain, chain, 1, inst) == chain

    def test_positive_trade_off_required(self):
        inst, tree = caterpillar()
        for trade_off in (0, -1, "-1/2", Fraction(0)):
            with pytest.raises(ValueError, match="^trade-off must be positive, got "):
                combine_trees(tree, tree, trade_off, inst)


class TestCombineTrees:
    def oracle_pair(self, inst):
        everything = frozenset(inst.objects)
        return (
            opt_expected(everything, inst).tree,
            opt_worst(everything, inst).tree,
        )

    def test_unchanged_when_expected_tree_already_fits(self):
        rng = random.Random(79)
        for _ in range(15):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(2, 7),
                num_tests=4,
                cost_mode=rng.choice(["unit", "fixed", "value"]),
            )
            low_expected, low_worst = self.oracle_pair(inst)
            reference = evaluate(low_worst, inst).worst
            height = evaluate(low_expected, inst).worst
            # Threshold exactly at the expected tree's own height: nothing to
            # gain by handing over, and nothing changes.
            assert combine_trees(
                low_expected, low_worst, height / reference, inst
            ) == low_expected
            assert combine_trees(
                low_expected, low_worst, height / reference + 1, inst
            ) == low_expected

    def test_combining_a_tree_with_itself_respects_the_worst_cap(self):
        rng = random.Random(83)
        inst = random_complete_instance(rng, num_objects=7, num_tests=5)
        tree = opt_worst(frozenset(inst.objects), inst).tree
        reference = evaluate(tree, inst).worst
        for ratio in (Fraction(1, 2), Fraction(1), Fraction(2)):
            spliced = combine_trees(tree, tree, ratio, inst)
            assert validate_tree(spliced, frozenset(inst.objects), inst) == []
            assert evaluate(spliced, inst).worst <= (1 + ratio) * reference

    def test_mismatched_object_sets_rejected(self):
        inst, tree = caterpillar()
        partial = Leaf(5, frozenset({5}))
        with pytest.raises(ValueError, match="different object sets"):
            combine_trees(tree, partial, 1, inst)

    def test_both_caps_hold_when_prices_ignore_answers(self):
        rng = random.Random(89)
        for _ in range(20):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(2, 8),
                num_tests=rng.randint(3, 6),
                num_outcomes=rng.choice([2, 3]),
                cost_mode=rng.choice(["unit", "fixed"]),
            )
            low_expected, low_worst = self.oracle_pair(inst)
            budget = evaluate(low_worst, inst).worst
            average = evaluate(low_expected, inst).expected
            everything = frozenset(inst.objects)
            for ratio in (Fraction(1, 2), Fraction(1), Fraction(2)):
                spliced = combine_trees(low_expected, low_worst, ratio, inst)
                assert validate_tree(spliced, everything, inst) == []
                report = evaluate(spliced, inst)
                assert report.worst <= (1 + ratio) * budget
                assert report.expected <= (1 + 1 / ratio) * average

    def test_expected_cap_holds_even_with_answer_dependent_prices(self):
        rng = random.Random(97)
        for _ in range(20):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(2, 8),
                num_tests=rng.randint(3, 6),
                cost_mode="value",
            )
            low_expected, low_worst = self.oracle_pair(inst)
            average = evaluate(low_expected, inst).expected
            for ratio in (Fraction(1, 2), Fraction(1), Fraction(2)):
                spliced = combine_trees(low_expected, low_worst, ratio, inst)
                assert validate_tree(spliced, frozenset(inst.objects), inst) == []
                assert evaluate(spliced, inst).expected <= (1 + 1 / ratio) * average

    def test_per_object_path_accounting(self):
        # Nobody pays more than their original path plus the fallback's
        # worst case; objects actually handed over pay at most (1 + 1/ratio)
        # times their original path.
        rng = random.Random(101)
        for _ in range(15):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(3, 8),
                num_tests=5,
                cost_mode=rng.choice(["unit", "fixed", "value"]),
            )
            low_expected, low_worst = self.oracle_pair(inst)
            budget = evaluate(low_worst, inst).worst
            ratio = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            threshold = ratio * budget
            spliced = combine_trees(low_expected, low_worst, ratio, inst)
            before = evaluate(low_expected, inst).per_object
            after = evaluate(spliced, inst).per_object
            handed_over: set[int] = set()
            for path in find_replaceable(low_expected, inst, threshold):
                handed_over |= tree_objects(subtree_at(low_expected, path))
            for s in inst.objects:
                assert after[s] <= before[s] + budget
                if s in handed_over:
                    assert after[s] <= (1 + 1 / ratio) * before[s]
                else:
                    assert after[s] == before[s]

    def test_two_object_proof_that_both_caps_can_be_unsatisfiable(self):
        # Answer-dependent prices: one test is nearly free on its likely
        # answer but ruinous on the other; the alternative is flat and dull.
        inst = Instance.create(
            classes=[0, 1],
            outcomes=[[1, 2], [1, 2]],
            priors=["100/101", "1/101"],
            costs=[[1, 10], [2, 2]],
        )
        everything = frozenset(inst.objects)
        trees = enumerate_trees(everything, inst)
        assert len(trees) == 2
        best_worst = opt_worst(everything, inst).value
        best_expected = opt_expected(everything, inst).value
        assert best_worst == 2
        assert best_expected == Fraction(110, 101)
        ratio = Fraction(2)
        worst_cap = (1 + ratio) * best_worst
        expected_cap = (1 + 1 / ratio) * best_expected
        for tree in trees:
            report = evaluate(tree, inst)
            assert report.worst > worst_cap or report.expected > expected_cap
        # The splice still honors its expected-cost promise; the worst-case
        # cap is exactly the one no tree can be forced to meet here.
        spliced = combine_trees(
            opt_expected(everything, inst).tree,
            opt_worst(everything, inst).tree,
            ratio,
            inst,
        )
        report = evaluate(spliced, inst)
        assert report.expected <= expected_cap
        assert report.worst > worst_cap


class TestSubtreeAt:
    def test_navigation_and_errors(self):
        inst, tree = caterpillar()
        assert subtree_at(tree, ()) is tree
        assert subtree_at(tree, (1, 2)) == Leaf(1, frozenset({1}))
        with pytest.raises(ValueError, match="descends past a leaf"):
            subtree_at(tree, (2, 1))
        with pytest.raises(ValueError, match="no branch"):
            subtree_at(tree, (3,))


class TestUniformCombineParams:
    """The sweep's threshold window, ``_window(reference, numerator)``."""

    def test_window_arithmetic(self):
        assert _window(10, 20) == range(7, 21)

    def test_smallest_cases(self):
        assert _window(1, 1) == range(1, 2)

    def test_window_is_never_empty_in_practice(self):
        for reference in range(1, 31):
            for numerator in range(1, 3 * reference + 1):
                window = _window(reference, numerator)
                assert 1 <= window[0] <= window[-1] == numerator

    def test_validation(self):
        # A reference below 1 is refused before the window is built; see
        # TestCombineUniform.test_rejects_a_bare_leaf_fallback.
        for numerator in (0, -3):
            with pytest.raises(ValueError, match="^trade-off numerator must be a positive integer"):
                _window(4, numerator)
        for numerator in (1.0, "2"):
            with pytest.raises(TypeError):
                _window(4, numerator)


class TestCombineUniform:
    def test_rejects_non_unit_costs(self):
        rng = random.Random(103)
        inst = random_complete_instance(
            rng, num_objects=4, num_tests=4, cost_mode="fixed", max_cost=5
        )
        while all(c == 1 for row in inst.cost_table for c in row):
            inst = random_complete_instance(
                rng, num_objects=4, num_tests=4, cost_mode="fixed", max_cost=5
            )
        tree = opt_worst(frozenset(inst.objects), inst).tree
        with pytest.raises(ValueError, match="requires unit costs"):
            combine_uniform(tree, tree, 2, inst)

    def test_rejects_a_bare_leaf_fallback(self):
        inst = Instance.create([0, 0], [[1, 2]])
        leaf = Leaf(0, frozenset({0, 1}))
        with pytest.raises(ValueError, match="positive integer worst-case"):
            combine_uniform(leaf, leaf, 2, inst)

    def test_rejects_a_bool_numerator(self):
        inst, tree = caterpillar()
        for flag in (True, False):
            with pytest.raises(TypeError, match="^trade-off numerator must be an integer, got "):
                combine_uniform(tree, tree, flag, inst)
        assert combine_uniform(tree, tree, 1, inst) == tree

    def test_returns_the_smallest_numerator_argmin(self):
        rng = random.Random(107)
        for _ in range(10):
            inst = random_complete_instance(
                rng, num_objects=rng.randint(3, 8), num_tests=5, cost_mode="unit"
            )
            everything = frozenset(inst.objects)
            low_expected = opt_expected(everything, inst).tree
            low_worst = opt_worst(everything, inst).tree
            reference = int(evaluate(low_worst, inst).worst)
            numerator = rng.randint(1, 3 * reference)
            candidates = [
                combine_trees(low_expected, low_worst, Fraction(i, reference), inst)
                for i in _window(reference, numerator)
            ]
            chosen = combine_uniform(low_expected, low_worst, numerator, inst)
            scores = [evaluate(c, inst).expected for c in candidates]
            assert evaluate(chosen, inst).expected == min(scores)
            assert chosen == candidates[scores.index(min(scores))]

    def test_cost_caps_on_oracle_inputs(self):
        rng = random.Random(109)
        for _ in range(12):
            inst = random_complete_instance(
                rng, num_objects=rng.randint(3, 8), num_tests=5, cost_mode="unit"
            )
            everything = frozenset(inst.objects)
            low_expected = opt_expected(everything, inst).tree
            low_worst = opt_worst(everything, inst).tree
            reference = int(evaluate(low_worst, inst).worst)
            average = evaluate(low_expected, inst).expected
            for numerator in {reference, 2 * reference, rng.randint(1, 3 * reference)}:
                chosen = combine_uniform(low_expected, low_worst, numerator, inst)
                assert validate_tree(chosen, everything, inst) == []
                report = evaluate(chosen, inst)
                assert report.worst <= numerator + reference
                ratio = Fraction(numerator, reference)
                assert report.expected <= (1 + 2 / (ratio * ratio + 2 * ratio)) * average
                # The argmin is also no worse than the splice at the window
                # floor, which carries its own (coarser) expected-cost cap.
                floor = _window(reference, numerator)[0]
                assert report.expected <= (1 + Fraction(reference, floor)) * average

    def test_doubled_budget_costs_at_most_five_quarters_on_average(self):
        rng = random.Random(113)
        for _ in range(12):
            inst = random_complete_instance(
                rng, num_objects=rng.randint(3, 8), num_tests=5, cost_mode="unit"
            )
            everything = frozenset(inst.objects)
            low_expected = opt_expected(everything, inst).tree
            low_worst = opt_worst(everything, inst).tree
            reference = int(evaluate(low_worst, inst).worst)
            chosen = combine_uniform(low_expected, low_worst, 2 * reference, inst)
            report = evaluate(chosen, inst)
            assert report.worst <= 3 * reference
            assert report.expected <= Fraction(5, 4) * evaluate(low_expected, inst).expected


def node_path_costs(tree, inst) -> set[Fraction]:
    """The path cost of every node, the root's 0 included."""
    costs, stack = set(), [(tree, Fraction(0))]
    while stack:
        node, cost = stack.pop()
        costs.add(cost)
        if isinstance(node, Internal):
            stack.extend(
                (child, cost + inst.cost(node.test, i)) for i, child in node.children.items()
            )
    return costs


class TestMatchesRecursiveReference:
    @settings(max_examples=400)
    @given(splice_cases(), st.data())
    def test_restrictions_frontiers_splices_and_sweeps(self, case, data):
        inst, members, low_expected, low_worst = case
        for tree in (low_expected, low_worst):
            for keep in (
                members,
                data.draw(st.frozensets(st.sampled_from(sorted(members)), min_size=1)),
                frozenset(),
                frozenset(inst.objects) - members,
            ):
                assert result_or_error(restrict_tree, tree, keep, inst) == result_or_error(
                    reference_restrict_tree, tree, keep, inst
                )
        reference = evaluate(low_worst, inst).worst
        average = evaluate(low_expected, inst).expected
        ratios = data.draw(
            st.lists(st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)), min_size=1)
        )
        # Thresholds equal to the path costs that occur in the tree are the
        # ties where ``>=`` and ``>`` in the crossing rule decide.
        path_costs = sorted(node_path_costs(low_expected, inst))
        for threshold in path_costs + [ratio * reference for ratio in ratios]:
            assert find_replaceable(low_expected, inst, threshold) == reference_find_replaceable(
                low_expected, inst, threshold
            )
        if reference > 0:
            ratios += [cost / reference for cost in path_costs if cost > 0]
        flat = all(len(set(row)) == 1 for row in inst.cost_table)
        for ratio in ratios:
            spliced = combine_trees(low_expected, low_worst, ratio, inst)
            assert spliced == reference_combine_trees(low_expected, low_worst, ratio, inst)
            assert validate_tree(spliced, members, inst) == []
            report = evaluate(spliced, inst)
            assert report.expected <= (1 + 1 / ratio) * average
            if flat:
                assert report.worst <= (1 + ratio) * reference
        if all(cost == 1 for row in inst.cost_table for cost in row) and reference >= 1:
            numerator = data.draw(st.integers(1, 3 * int(reference)))
            candidates = [
                reference_combine_trees(low_expected, low_worst, Fraction(i, reference), inst)
                for i in _window(int(reference), numerator)
            ]
            scores = [reference_evaluate(tree, inst).expected for tree in candidates]
            assert combine_uniform(low_expected, low_worst, numerator, inst) == candidates[
                scores.index(min(scores))
            ]


class TestPricedSplices:
    """A splice records each object's path cost in the walk that builds it;
    the sweep ranks its candidates and the experiment prices its results
    from those records, without walking a result again."""

    @settings(max_examples=300)
    @given(splice_cases(), st.data())
    def test_recorded_costs_are_the_price_of_the_spliced_tree(self, case, data):
        inst, _, low_expected, low_worst = case
        reference = evaluate(low_worst, inst).worst
        ratios = data.draw(
            st.lists(st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)), min_size=1)
        )
        # The path costs that occur in the tree include the root's 0, which
        # hands the root over, and each leaf's own, which can hand it over.
        thresholds = sorted(node_path_costs(low_expected, inst))
        _, splice = _splicer(low_expected, low_worst, inst)
        for threshold in thresholds + [ratio * reference for ratio in ratios]:
            tree, costs, frontier = splice(threshold)
            assert costs == _price(tree, inst)[0]
            assert frontier == reference_find_replaceable(low_expected, inst, threshold)

    def test_hand_overs_at_the_root_and_at_leaves(self):
        # The fallback restricted to the survivors contracts every edge above
        # them, and their costs count from the hand-over's own path cost.
        inst, tree = caterpillar()
        _, splice = _splicer(tree, tree, inst)
        deepest = (1, 1, 1, 1)
        cases = [(0, [()]), (1, [(1,), (2,)]), (5, [deepest + (1,), deepest + (2,)])]
        for threshold, expected_frontier in cases:
            spliced, costs, frontier = splice(Fraction(threshold))
            assert frontier == expected_frontier
            assert costs == _price(spliced, inst)[0]
            assert costs == {s: min(s + 1, 5) for s in inst.objects}

    def test_the_sweep_stops_at_its_first_full_copy(self, monkeypatch):
        thresholds: list[Fraction] = []
        splice = combine._splice

        def counted(tree, threshold, *rest):
            thresholds.append(threshold)
            return splice(tree, threshold, *rest)

        monkeypatch.setattr(combine, "_splice", counted)
        rng = random.Random(131)
        for _ in range(12):
            inst = random_complete_instance(
                rng, num_objects=rng.randint(3, 8), num_tests=5, cost_mode="unit"
            )
            everything = frozenset(inst.objects)
            low_expected = opt_expected(everything, inst).tree
            low_worst = opt_worst(everything, inst).tree
            reference = int(evaluate(low_worst, inst).worst)
            deepest = int(evaluate(low_expected, inst).worst)
            numerator = rng.randint(deepest + 2, deepest + 2 + 2 * reference)
            window = _window(reference, numerator)
            # With unit prices a node crosses threshold i where its path cost
            # reaches i, so the first splice that hands nothing over is at
            # the first i past the deepest path.
            first_copy = max(window[0], deepest + 1)
            candidates = [
                reference_combine_trees(low_expected, low_worst, Fraction(i, reference), inst)
                for i in window
            ]
            scores = [reference_evaluate(tree, inst).expected for tree in candidates]
            thresholds.clear()
            chosen = combine_uniform(low_expected, low_worst, numerator, inst)
            assert thresholds == [Fraction(i) for i in range(window[0], first_copy + 1)]
            assert len(thresholds) < len(window)
            assert chosen == candidates[scores.index(min(scores))]

    @pytest.mark.parametrize("outcomes", [2, 3])
    @pytest.mark.parametrize("cost_mode", ["unit", "fixed", "value"])
    def test_each_trade_off_outcome_is_the_price_of_its_tree(self, cost_mode, outcomes):
        config = ExperimentConfig(uniform_trade_offs=(1, 2, 3))
        rng = random.Random(137)
        for _ in range(8):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(3, 9),
                num_tests=rng.randint(3, 6),
                num_outcomes=outcomes,
                cost_mode=cost_mode,
            )
            variants = set()
            for outcome, tree in _trade_offs(config, inst, *_optima(frozenset(inst.objects), inst)):
                report = evaluate(tree, inst)
                assert (outcome.achieved_worst, outcome.achieved_expected) == (
                    report.worst,
                    report.expected,
                )
                variants.add(outcome.variant)
            assert variants == ({"splice", "uniform-sweep"} if cost_mode == "unit" else {"splice"})


class TestDeepTrees:
    # The chain of ``deep_chain`` is 1,099 tests deep, past the default
    # recursion limit; trees are compared by flat signature, since ``==``
    # recurses once per level.
    def test_frontier_on_a_chain_deeper_than_the_recursion_limit(self):
        inst, tree = deep_chain(1100)
        assert find_replaceable(tree, inst, 1000) == [(1,) * 1000, (1,) * 999 + (2,)]
        assert find_replaceable(tree, inst, 2000) == []

    def test_splice_on_a_chain_deeper_than_the_recursion_limit(self):
        inst, tree = deep_chain(1100)
        # The hand-over happens 549 levels down, where the threshold 1099/2
        # lies less than one edge ahead, and hands the 551 objects still
        # alive to the fallback restricted to them: the same chain again.
        assert find_replaceable(tree, inst, Fraction(1099, 2)) == [(1,) * 549]
        spliced = combine_trees(tree, tree, Fraction(1, 2), inst)
        assert tree_signature(spliced) == tree_signature(tree)
        assert validate_tree(spliced, inst.objects, inst) == []


class TestMalformedFallback:
    # The instance of ``test_invalid_tree_files_exit_one``: classes 0, 0, 1;
    # test 0 splits {0} from {1, 2}, test 1 splits {0, 1} from {2}.
    INST = Instance.create(classes=[0, 0, 1], outcomes=[[1, 2, 2], [1, 1, 2]])
    # Test 0, then test 1 on {1, 2}: at threshold 1 it hands {1, 2} over.
    EXPECTED = Internal(
        0,
        {
            1: Leaf(0, frozenset({0})),
            2: Internal(1, {1: Leaf(0, frozenset({1})), 2: Leaf(1, frozenset({2}))}),
        },
    )
    MIXED = Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1, 2}))})
    MISSING = Internal(
        0, {1: Leaf(0, frozenset({0, 1})), 2: Internal(1, {2: Leaf(1, frozenset({2}))})}
    )
    MIXED_ERROR = "invalid tree: a leaf gets objects [1, 2] of mixed classes"
    MISSING_ERROR = "invalid tree: test 1 has no branch for outcome 1"

    def test_mixed_leaf_is_named(self):
        inst = self.INST
        for call in (
            lambda: restrict_tree(self.MIXED, [0, 1, 2], inst),
            lambda: restrict_tree(self.MIXED, [1, 2], inst),
            # Trade-off 1/4 hands every object over at the root.
            lambda: combine_trees(self.EXPECTED, self.MIXED, Fraction(1, 4), inst),
            lambda: combine_uniform(self.EXPECTED, self.MIXED, 1, inst),
        ):
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value) == self.MIXED_ERROR

    def test_missing_branch_is_named(self):
        inst = self.INST
        for call in (
            lambda: restrict_tree(self.MISSING, [0, 1, 2], inst),
            lambda: restrict_tree(self.MISSING, [1, 2], inst),
            lambda: combine_trees(self.EXPECTED, self.MISSING, Fraction(1, 4), inst),
            lambda: combine_uniform(self.EXPECTED, self.MISSING, 1, inst),
        ):
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value) == self.MISSING_ERROR

    def test_mixed_leaf_is_named_without_assertions(self, tmp_path):
        # ``python -O`` strips assert statements, so the check must not be one.
        script = (
            "from dfep.model import Instance, Internal, Leaf, restrict_tree\n"
            "inst = Instance.create(classes=[0, 0, 1], outcomes=[[1, 2, 2], [1, 1, 2]])\n"
            "tree = Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1, 2}))})\n"
            "try:\n"
            "    restrict_tree(tree, [0, 1, 2], inst)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        run = run_python("-O", "-c", script, cwd=tmp_path, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout == self.MIXED_ERROR + "\n"


class TestMalformedExpectedTree:
    # The splice names a bad test id before it reads any price (id -1 must
    # not read the last test's), and a node with no branches before it takes
    # the cheapest of them.
    INST = TestMalformedFallback.INST
    GOOD = TestMalformedFallback.EXPECTED

    @staticmethod
    def with_test_ids(root: int, below: int) -> Internal:
        return Internal(
            root,
            {
                1: Leaf(0, frozenset({0})),
                2: Internal(below, {1: Leaf(0, frozenset({1})), 2: Leaf(1, frozenset({2}))}),
            },
        )

    @pytest.mark.parametrize("test", [9, 2, -1])
    def test_unknown_test_is_named(self, test):
        inst, good = self.INST, self.GOOD
        for bad in (self.with_test_ids(test, 1), self.with_test_ids(0, test)):
            for call in (
                lambda: combine_trees(bad, good, 10, inst),
                lambda: combine_uniform(bad, good, 2, inst),
                lambda: find_replaceable(bad, inst, 10),
            ):
                with pytest.raises(ValueError) as error:
                    call()
                assert str(error.value) == f"no such test: {test}"
        # Even where the root's cheapest branch overshoots and hands it over.
        bad = self.with_test_ids(test, 1)
        for call in (
            lambda: combine_trees(bad, good, Fraction(1, 4), inst),
            lambda: find_replaceable(bad, inst, "1/2"),
        ):
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value) == f"no such test: {test}"

    def test_node_without_branches_is_named(self):
        inst, good = self.INST, self.GOOD
        with pytest.raises(ValueError) as error:
            find_replaceable(Internal(0, {}), inst, "1/2")
        assert str(error.value) == "invalid tree: test 0 has no branches"
        # A childless node beside a subtree over every object passes the
        # object-set check, so the splice itself meets it.
        bad = Internal(0, {1: Internal(1, {}), 2: good})
        for call in (
            lambda: combine_trees(bad, good, 10, inst),
            lambda: combine_uniform(bad, good, 2, inst),
            lambda: find_replaceable(bad, inst, 10),
        ):
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value) == "invalid tree: test 1 has no branches"
        # Met at the threshold, so about to be handed over: it holds no
        # objects, and the fallback restricted to none would be a test with
        # no branches in the result.
        inst = Instance.create([0, 1, 1], [[1, 2, 2], [1, 1, 2]])
        good = Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1, 2}))})
        bad = Internal(
            0,
            {
                1: Leaf(0, frozenset({0})),
                2: Internal(1, {1: Leaf(1, frozenset({1, 2})), 2: Internal(0, {})}),
            },
        )
        for call in (
            lambda: combine_trees(bad, good, 2, inst),
            lambda: combine_uniform(bad, good, 2, inst),
            lambda: find_replaceable(bad, inst, 2),
        ):
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value) == "invalid tree: test 0 has no branches"


class TestOutcomeKeysOutsideTheAlphabet:
    # A copied node's branch keys are checked against 1..k before any price
    # is read, with evaluate's own message: key 0 would read the last
    # outcome's price, and key 3 would read past the end of the row.
    # Test 0 splits {0, 1} from {2, 3}, and its second answer costs 5.
    PRICED = Instance.create(
        classes=[0, 1, 2, 3], outcomes=[[1, 1, 2, 2], [1, 2, 1, 2]], costs=[[1, 5], [1, 1]]
    )
    UNIT = TestMalformedFallback.INST
    UNIT_GOOD = TestMalformedFallback.EXPECTED

    @staticmethod
    def priced_tree(root_keys=(1, 2), below_keys=(1, 2)) -> Internal:
        def pair(first: int, second: int) -> Internal:
            return Internal(
                1,
                {
                    below_keys[0]: Leaf(first, frozenset({first})),
                    below_keys[1]: Leaf(second, frozenset({second})),
                },
            )

        return Internal(0, {root_keys[0]: pair(0, 1), root_keys[1]: pair(2, 3)})

    @staticmethod
    def unit_tree(root_keys=(1, 2), below_keys=(1, 2)) -> Internal:
        below = {below_keys[0]: Leaf(0, frozenset({1})), below_keys[1]: Leaf(1, frozenset({2}))}
        top = {root_keys[0]: Leaf(0, frozenset({0})), root_keys[1]: Internal(1, below)}
        return Internal(0, top)

    @pytest.mark.parametrize("bad", [0, 3])
    def test_find_replaceable_names_the_key(self, bad):
        inst = self.PRICED
        for tree in (self.priced_tree(root_keys=(1, bad)), self.priced_tree(below_keys=(bad, 2))):
            with pytest.raises(ValueError) as error:
                find_replaceable(tree, inst, 3)
            assert str(error.value) == f"tree references outcome {bad} outside 1..2"
            with pytest.raises(ValueError) as error:
                evaluate(tree, inst)
            assert str(error.value) == f"tree references outcome {bad} outside 1..2"
        # The valid tree hands over only the branch that test 0 prices at 5.
        assert find_replaceable(self.priced_tree(), inst, 3) == [(2,)]

    def test_every_walk_applies_the_node_rule(self):
        # A node's keys are checked before any branch below it is walked, and
        # a text key is a ValueError named by its repr.
        inst, fallback = self.PRICED, self.priced_tree()
        unknown_test = Internal(9, fallback.children[1].children)
        for tree, bad in (
            (self.priced_tree(root_keys=("1", 2)), "'1'"),
            (self.priced_tree(below_keys=(1, "2")), "'2'"),
            (Internal(0, {1: unknown_test, 3: fallback}), "3"),
        ):
            for walk in (
                lambda: evaluate(tree, inst),
                lambda: find_replaceable(tree, inst, 100),
                lambda: combine_trees(tree, fallback, 10, inst),
            ):
                with pytest.raises(ValueError) as error:
                    walk()
                assert str(error.value) == f"tree references outcome {bad} outside 1..2"

    def test_bad_keys_of_two_types_are_named_without_a_type_error(self):
        # Keys of two types need not compare: the first type by name is
        # named, and among keys of one type the smallest, as before.
        inst, fallback = self.PRICED, self.priced_tree()
        for root_keys, below_keys, bad in (
            (("1", 7), (1, 2), "7"),
            ((1, 2), (9, "0"), "9"),
            (("2", "0"), (1, 2), "'0'"),
            ((1, 2), (9, 0), "0"),
        ):
            tree = self.priced_tree(root_keys, below_keys)
            for walk in (
                lambda: evaluate(tree, inst),
                lambda: reference_evaluate(tree, inst),
                lambda: find_replaceable(tree, inst, 100),
                lambda: combine_trees(tree, fallback, 10, inst),
            ):
                with pytest.raises(ValueError) as error:
                    walk()
                assert str(error.value) == f"tree references outcome {bad} outside 1..2"

    @pytest.mark.parametrize("bad", [0, 3])
    def test_combine_trees_names_the_key(self, bad):
        inst, fallback = self.PRICED, self.priced_tree()
        for tree in (self.priced_tree(root_keys=(bad, 2)), self.priced_tree(below_keys=(1, bad))):
            with pytest.raises(ValueError) as error:
                combine_trees(tree, fallback, 10, inst)
            assert str(error.value) == f"tree references outcome {bad} outside 1..2"

    @pytest.mark.parametrize("bad", [0, 3])
    def test_combine_uniform_names_the_key(self, bad):
        inst, fallback = self.UNIT, self.UNIT_GOOD
        for tree in (self.unit_tree(root_keys=(1, bad)), self.unit_tree(below_keys=(bad, 2))):
            with pytest.raises(ValueError) as error:
                combine_uniform(tree, fallback, 2, inst)
            assert str(error.value) == f"tree references outcome {bad} outside 1..2"


def leaf(label: int, *objects: int) -> Leaf:
    return Leaf(label, frozenset(objects))


def tree_nodes(tree: DecisionTree) -> list[DecisionTree]:
    """Every node of a tree, in no particular order."""
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, Internal):
            stack.extend(node.children.values())
    return nodes


def unshared_splices(expected_tree, fallback, inst):
    """``_splicer``'s splices with no fallback node indexed, so that every
    hand-over rebuilds its restriction node by node, as before sharing."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(combine, "_price_nodes", lambda tree, inst: (_price(tree, inst)[0], {}))
        return _splicer(expected_tree, fallback, inst)[1]


class TestSharedFallbackNodes:
    """A hand-over puts in each fallback node that all its objects reach as
    it is, when the fallback keeps the sharing rule; otherwise it restricts
    node by node as before, with the same trees and the same errors."""

    # Classes 0, 0, 1, 1; test 0 splits the classes, and tests 1 and 2 split
    # each class; every price is 1.
    INST = Instance.create([0, 0, 1, 1], [[1, 1, 2, 2], [1, 2, 1, 2], [1, 2, 2, 1]])
    EXPECTED = Internal(
        1,
        {
            1: Internal(0, {1: leaf(0, 0), 2: leaf(1, 2)}),
            2: Internal(0, {1: leaf(0, 1), 2: leaf(1, 3)}),
        },
    )
    # Fallbacks that break the rule, each valid in every other way.
    BROKEN = {
        # A valid tree, but test 1 splits two objects of class 0.
        "one class": Internal(
            0, {1: Internal(1, {1: leaf(0, 0), 2: leaf(0, 1)}), 2: leaf(1, 2, 3)}
        ),
        "wrong label": Internal(0, {1: leaf(1, 0, 1), 2: leaf(1, 2, 3)}),
        # Object 1 answers test 0 with 1, but sits below its branch 2.
        "other outcome": Internal(
            0,
            {
                1: leaf(0, 0),
                2: Internal(1, {1: leaf(1, 2), 2: Internal(2, {1: leaf(1, 3), 2: leaf(0, 1)})}),
            },
        ),
        "two leaves": Internal(
            0, {1: leaf(0, 0, 1), 2: Internal(1, {1: leaf(1, 2), 2: leaf(1, 2, 3)})}
        ),
        # A label and an id that only compare equal to the ints a rebuild puts in.
        "float label": Internal(0, {1: leaf(0, 0, 1), 2: leaf(1.0, 2, 3)}),
        "bool id": Internal(0, {1: leaf(0, 0, True), 2: leaf(1, 2, 3)}),
    }

    @settings(max_examples=200)
    @given(splice_cases(), st.data())
    def test_splices_of_built_trees(self, case, data):
        inst, members, low_expected, low_worst = case
        # Trees from the greedy and the exact solvers keep the rule.
        assert _price_nodes(low_worst, inst)[1]
        reference = evaluate(low_worst, inst).worst
        ratios = data.draw(
            st.lists(st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)), min_size=1)
        )
        _, splice = _splicer(low_expected, low_worst, inst)
        unshared = unshared_splices(low_expected, low_worst, inst)
        for ratio in ratios:
            tree, costs, frontier = splice(ratio * reference)
            assert (tree, costs, frontier) == unshared(ratio * reference)
            assert tree == reference_combine_trees(low_expected, low_worst, ratio, inst)
            assert costs == _price(tree, inst)[0]
            # So do splices, which may be fallbacks in turn.
            assert _price_nodes(tree, inst)[1]

    @settings(max_examples=200)
    @given(splice_cases(), st.data())
    def test_the_index_holds_each_nodes_count_and_path_cost(self, case, data):
        inst, members, low_expected, low_worst = case
        reference = evaluate(low_worst, inst).worst
        _, splice = _splicer(low_expected, low_worst, inst)
        ratios = data.draw(
            st.lists(st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)), max_size=3)
        )
        trees = [
            divide_pairs(members, inst),
            divide_pairs(members, inst, include_empty_outcomes=False),
            opt_worst(members, inst).tree,
            opt_expected(members, inst).tree,
        ] + [splice(ratio * reference)[0] for ratio in ratios]
        for tree in trees:
            index, expected = _price_nodes(tree, inst)[1], {}
            stack = [(tree, Fraction(0))]
            while stack:
                node, cost = stack.pop()
                expected[id(node)] = (len(tree_objects(node)), cost * inst.kernel.scale)
                if isinstance(node, Internal):
                    stack.extend(
                        (child, cost + inst.cost(node.test, i)) for i, child in node.children.items()
                    )
            assert index == expected

    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_fallbacks_outside_the_rule_restrict_as_before(self, name):
        inst, fallback = self.INST, self.BROKEN[name]
        _, splice = _splicer(self.EXPECTED, fallback, inst)
        unshared = unshared_splices(self.EXPECTED, fallback, inst)
        for threshold in range(4):
            assert result_or_error(splice, Fraction(threshold)) == result_or_error(
                unshared, Fraction(threshold)
            )
            tree, costs, _ = splice(Fraction(threshold))
            assert costs == _price(tree, inst)[0]
            assert validate_tree(tree, inst.objects, inst) == []
            for node in tree_nodes(tree):
                if isinstance(node, Leaf):
                    assert {type(node.class_id)} | set(map(type, node.objects)) == {int}
            if name in ("one class", "wrong label"):
                # The recursive reference routes by leaf sets, which these keep.
                ratio = Fraction(threshold) / evaluate(fallback, inst).worst
                if ratio:
                    assert tree == reference_combine_trees(self.EXPECTED, fallback, ratio, inst)
        assert _price_nodes(fallback, inst) == (_price(fallback, inst)[0], {})

    def test_errors_of_fallbacks_outside_the_rule_are_unchanged(self):
        # The texts are those of the walk that rebuilds every node.
        inst = TestMalformedFallback.INST
        expected = TestMalformedFallback.EXPECTED
        for fallback, text in (
            (TestMalformedFallback.MIXED, TestMalformedFallback.MIXED_ERROR),
            (TestMalformedFallback.MISSING, TestMalformedFallback.MISSING_ERROR),
        ):
            assert _price_nodes(fallback, inst)[1] == {}
            _, splice = _splicer(expected, fallback, inst)
            unshared = unshared_splices(expected, fallback, inst)
            for threshold in (Fraction(1, 4), Fraction(1), Fraction(2)):
                assert result_or_error(splice, threshold) == result_or_error(unshared, threshold)
            assert result_or_error(splice, Fraction(1, 4)) == ("error", text)

    def test_pricing_errors_are_those_of_price(self):
        keys = TestOutcomeKeysOutsideTheAlphabet
        inst, good = keys.PRICED, keys.priced_tree()
        for tree in (
            keys.priced_tree(root_keys=(1, 3)),
            keys.priced_tree(below_keys=("1", 0)),
            Internal(7, good.children),
            Internal(0, {1: good.children[1], 2: leaf(2, 2, 9)}),
            Internal(0, {1: leaf(0, -1), 2: good.children[2]}),
        ):
            assert result_or_error(lambda: _price_nodes(tree, inst)[0]) == result_or_error(
                lambda: _price(tree, inst)[0]
            )
            assert result_or_error(lambda: _price(tree, inst))[0] == "error"

    def test_a_splice_shares_fallback_nodes_and_mutates_neither_input(self):
        inst = random_complete_instance(
            random.Random(1406), num_objects=200, num_tests=12, num_outcomes=3, cost_mode="value"
        )
        # The same tests at unit prices, for the sweep.
        unit = dataclasses.replace(
            inst, cost_table=tuple((Fraction(1),) * inst.num_outcomes for _ in inst.tests)
        )
        everything = frozenset(inst.objects)
        greedy = divide_pairs(everything, inst)
        twin = divide_pairs(everything, inst, include_empty_outcomes=False)
        assert greedy != twin
        for expected_tree, fallback in ((greedy, greedy), (greedy, twin)):
            before = copy.deepcopy((expected_tree, fallback))
            fallback_nodes = {id(node) for node in tree_nodes(fallback)}
            reference, splice = _splicer(expected_tree, fallback, inst)
            threshold = Fraction(reference, 2 * inst.kernel.scale)
            tree, _, frontier = splice(threshold)
            assert frontier
            assert any(id(subtree_at(tree, path)) in fallback_nodes for path in frontier)
            for ratio in (Fraction(1, 4), Fraction(1, 2), 1, 2, 4):
                combine_trees(expected_tree, fallback, ratio, inst)
            worst = int(evaluate(fallback, unit).worst)
            for numerator in (worst, 2 * worst):
                combine_uniform(expected_tree, fallback, numerator, unit)
            assert (expected_tree, fallback) == before

    def test_an_experiment_mutates_none_of_its_trees(self, monkeypatch, tmp_path):
        seen = []
        splicer = combine._splicer

        def copied(expected_tree, fallback, inst):
            seen.append(((expected_tree, fallback), copy.deepcopy((expected_tree, fallback))))
            return splicer(expected_tree, fallback, inst)

        monkeypatch.setattr(experiment, "_splicer", copied)
        config = ExperimentConfig(
            seed=1406,
            count=6,
            objects=(6, 9),
            tests=(4, 6),
            replay_path=str(tmp_path / "replay.json"),
        )
        run_experiment(config)
        assert len(seen) == 6
        for trees, before in seen:
            assert trees == before


class TestObjectsOffTheirPath:
    # The expected tree puts objects 1 and 2 on path (2, 1), but object 2
    # answers test 1 with 2; the fallback is valid.
    INST = Instance.create([0, 1, 1], [[1, 2, 2], [1, 1, 2]])
    EXPECTED = Internal(
        0, {1: leaf(0, 0), 2: Internal(1, {1: leaf(1, 1, 2), 2: leaf(1, 2)})}
    )
    FALLBACK = Internal(0, {1: leaf(0, 0), 2: leaf(1, 1, 2)})
    ERROR = "invalid tree: objects [2] lie at path (2, 1) but do not take it"

    def test_a_copied_leaf_is_refused(self):
        # At trade-off 10 the whole expected tree is copied.
        inst = self.INST
        for call in (
            lambda: combine_trees(self.EXPECTED, self.FALLBACK, 10, inst),
            lambda: combine_uniform(self.EXPECTED, self.FALLBACK, 3, inst),
            lambda: find_replaceable(self.EXPECTED, inst, 10),
        ):
            assert result_or_error(call) == ("error", self.ERROR)

    @pytest.mark.parametrize("stray", ["2", 2.0, True])
    def test_a_copied_leaf_of_an_id_that_is_no_int_is_refused(self, stray):
        # Only an int names an object; the frontier alone never compares object sets.
        inst = self.INST
        tree = Internal(0, {1: leaf(0, 0), 2: Internal(1, {1: leaf(1, 1), 2: leaf(1, stray)})})
        assert result_or_error(find_replaceable, tree, inst, 10) == (
            "error",
            f"invalid tree: objects [{stray!r}] lie at path (2, 2) but do not take it",
        )

    def test_a_hand_over_is_refused(self):
        # At trade-off 2 both leaves below test 1 are handed over, and
        # object 2 would land in both.
        inst = self.INST
        assert result_or_error(combine_trees, self.EXPECTED, self.FALLBACK, 2, inst) == (
            "error",
            self.ERROR,
        )
        # The frontier alone does not walk what it hands over.
        assert find_replaceable(self.EXPECTED, inst, 2) == [(2, 1), (2, 2)]
        # At trade-off 1 the node over both is handed over whole, which is valid.
        spliced = combine_trees(self.EXPECTED, self.FALLBACK, 1, inst)
        assert spliced == self.FALLBACK
        assert validate_tree(spliced, inst.objects, inst) == []


class TestCopiedLeafLabels:
    """A splice refuses a copied leaf whose label is not its objects' class
    as an int; a hand-over relabels."""

    INST = TestSharedFallbackNodes.INST
    # Objects 0 and 1 are of class 0, but labeled 1.
    MISLABELED = Internal(0, {1: leaf(1, 0, 1), 2: leaf(1, 2, 3)})
    VALID = Internal(0, {1: leaf(0, 0, 1), 2: leaf(1, 2, 3)})

    @pytest.mark.parametrize(
        "tree, path, label",
        [
            (MISLABELED, (1,), 1),
            (Internal(0, {1: leaf(0, 0, 1), 2: leaf(1.0, 2, 3)}), (2,), 1.0),
            (Internal(0, {1: leaf(0, 0, 1), 2: leaf(True, 2, 3)}), (2,), True),
        ],
    )
    def test_a_copied_leaf_with_a_wrong_label_is_refused(self, tree, path, label):
        # Every price is 1 and each tree's worst cost is 1, so trade-off 2
        # and threshold 5 copy the whole tree.
        inst = self.INST
        error = ("error", f"invalid tree: leaf at path {path} has wrong label {label!r}")
        assert result_or_error(combine_trees, tree, tree, 2, inst) == error
        assert result_or_error(combine_trees, tree, self.VALID, 2, inst) == error
        assert result_or_error(combine_uniform, tree, self.VALID, 3, inst) == error
        assert result_or_error(find_replaceable, tree, inst, 5) == error

    def test_objects_off_their_path_are_named_before_the_label(self):
        # Object 2 answers test 0 with 2, and objects 0 and 1 are not of class 1.
        inst = self.INST
        tree = Internal(0, {1: leaf(1, 0, 1, 2), 2: leaf(1, 3)})
        error = ("error", "invalid tree: objects [2] lie at path (1,) but do not take it")
        assert result_or_error(combine_trees, tree, self.VALID, 2, inst) == error
        assert result_or_error(find_replaceable, tree, inst, 5) == error

    def test_a_mislabeled_leaf_past_the_threshold_is_handed_over_and_relabeled(self):
        # At trade-off 1 both leaves sit at the threshold and are handed over.
        inst = self.INST
        assert find_replaceable(self.MISLABELED, inst, 1) == [(1,), (2,)]
        for fallback in (self.MISLABELED, self.VALID):
            spliced = combine_trees(self.MISLABELED, fallback, 1, inst)
            assert spliced == self.VALID
            assert validate_tree(spliced, inst.objects, inst) == []
