"""Splice tests: frontier rule, cost caps, the unit-cost threshold sweep."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfep.combine import (
    CombineParams,
    UniformCombineParams,
    combine_trees,
    combine_uniform,
    find_replaceable,
    subtree_at,
)
from dfep.greedy import divide_pairs
from dfep.model import (
    Instance,
    Internal,
    Leaf,
    evaluate,
    restrict_tree,
    tree_objects,
    validate_tree,
)
from dfep.oracle import enumerate_trees, opt_expected, opt_worst
from tests.conftest import (
    deep_chain,
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
    tree: Internal | Leaf = Leaf(n - 1, frozenset({n - 1}))
    for k in reversed(range(n - 1)):
        tree = Internal(k, {1: tree, 2: Leaf(k, frozenset({k}))})
    return inst, tree


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
    def test_reference_is_recomputed_from_the_tree(self):
        inst, tree = caterpillar()
        params = CombineParams.resolve(tree, Fraction(1, 2), inst)
        assert params.worst_reference == 5
        assert params.threshold == Fraction(5, 2)

    def test_positive_trade_off_required(self):
        inst, tree = caterpillar()
        with pytest.raises(ValueError, match="positive"):
            CombineParams.resolve(tree, 0, inst)


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
    def test_window_arithmetic(self):
        params = UniformCombineParams.resolve(10, 20)
        assert params.window_low == 7
        assert params.window_high == 20
        assert list(params.window()) == list(range(7, 21))

    def test_smallest_cases(self):
        params = UniformCombineParams.resolve(1, 1)
        assert params.window_low == 1 and params.window_high == 1

    def test_window_is_never_empty_in_practice(self):
        for reference in range(1, 31):
            for numerator in range(1, 3 * reference + 1):
                params = UniformCombineParams.resolve(reference, numerator)
                assert 1 <= params.window_low <= params.window_high

    def test_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            UniformCombineParams.resolve(0, 4)
        with pytest.raises(ValueError, match="positive integer"):
            UniformCombineParams.resolve(4, 0)


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
            params = UniformCombineParams.resolve(reference, numerator)
            candidates = [
                combine_trees(low_expected, low_worst, Fraction(i, reference), inst)
                for i in params.window()
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
                floor = UniformCombineParams.resolve(reference, numerator).window_low
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
            window = UniformCombineParams.resolve(int(reference), numerator).window()
            candidates = [
                reference_combine_trees(low_expected, low_worst, Fraction(i, reference), inst)
                for i in window
            ]
            scores = [reference_evaluate(tree, inst).expected for tree in candidates]
            assert combine_uniform(low_expected, low_worst, numerator, inst) == candidates[
                scores.index(min(scores))
            ]


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
