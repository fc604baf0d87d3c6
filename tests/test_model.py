"""Model-layer tests: validation, partitions, pair counts, costs, restriction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfep.combine import combine_trees, combine_uniform
from dfep.model import (
    Instance,
    Internal,
    Leaf,
    evaluate,
    iter_leaves,
    pair_count,
    partition,
    restrict_tree,
    separated_pairs,
    tree_objects,
    validate_instance,
    validate_tree,
)
from tests.conftest import (
    brute_force_pair_count,
    brute_force_separated,
    deep_chain,
    path_costs_by_walking,
    random_complete_instance,
    reference_evaluate,
    result_or_error,
    splice_cases,
    tree_signature,
)


class TestInstanceCreate:
    def test_defaults_give_uniform_priors_and_unit_costs(self):
        inst = Instance.create([0, 1], [[1, 2]])
        assert inst.priors == (Fraction(1, 2), Fraction(1, 2))
        assert inst.cost_table == ((Fraction(1), Fraction(1)),)
        assert inst.num_outcomes == 2

    def test_scalar_cost_per_test_is_broadcast(self):
        inst = Instance.create([0, 1], [[1, 2], [2, 1]], costs=[3, "1/2"])
        assert inst.cost(0, 1) == 3 and inst.cost(0, 2) == 3
        assert inst.cost(1, 1) == Fraction(1, 2) and inst.cost(1, 2) == Fraction(1, 2)

    def test_per_outcome_costs_kept_exact(self):
        inst = Instance.create([0, 1], [[1, 2]], costs=[["1/3", 4]])
        assert inst.cost(0, 1) == Fraction(1, 3)
        assert inst.cost(0, 2) == Fraction(4)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            Instance.create([0, 1], [[1]])
        with pytest.raises(ValueError):
            Instance.create([0, 1], [[1, 2]], priors=["1/2"])
        with pytest.raises(ValueError):
            Instance.create([0, 1], [[1, 2]], costs=[[1]])
        with pytest.raises(ValueError):
            Instance.create([], [])


class TestValidateInstance:
    def test_valid_instance_has_no_violations(self, two_test_example):
        assert validate_instance(two_test_example) == []

    def test_each_violation_is_reported(self):
        inst = Instance(
            classes=(0, 1),
            num_outcomes=2,
            outcome_table=((1, 3),),
            priors=(Fraction(1, 2), Fraction(1, 3)),
            cost_table=((Fraction(0), Fraction(1)),),
        )
        messages = "\n".join(validate_instance(inst))
        assert "outside 1..2" in messages
        assert "sums to" in messages
        assert "not positive" in messages

    def test_incomplete_pair_is_named(self):
        inst = Instance.create([0, 1, 2], [[1, 2, 2]])
        messages = validate_instance(inst)
        assert any("objects 1 and 2" in m for m in messages)

    def test_negative_prior_flagged_even_if_sum_is_one(self):
        inst = Instance.create(
            [0, 1], [[1, 2]], priors=["3/2", "-1/2"]
        )
        messages = "\n".join(validate_instance(inst))
        assert "negative" in messages

    def test_random_instances_validate_clean(self):
        rng = random.Random(20260822)
        for _ in range(30):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(2, 8),
                num_tests=rng.randint(3, 6),
                num_outcomes=rng.choice([2, 2, 3]),
                cost_mode=rng.choice(["unit", "fixed", "value"]),
            )
            assert validate_instance(inst) == []

    def test_completeness_matches_the_pair_loop_in_content_and_order(self):
        # Few binary tests over many objects leave many fused signatures.
        rng = random.Random(31)
        incomplete = 0
        for _ in range(30):
            n = rng.randint(2, 40)
            classes = [rng.randrange(3) for _ in range(n)]
            rows = [[rng.randint(1, 2) for _ in range(n)] for _ in range(rng.randint(0, 4))]
            inst = Instance.create(classes, rows, num_outcomes=2)
            expected = [
                f"completeness: objects {a} and {b} are never separated"
                for a in range(n)
                for b in range(a + 1, n)
                if classes[a] != classes[b] and all(row[a] == row[b] for row in rows)
            ]
            assert validate_instance(inst) == expected
            incomplete += bool(expected)
        assert incomplete >= 20


class TestPartition:
    def test_buckets_follow_outcomes(self, two_test_example):
        assert partition([0, 1, 2], 0, two_test_example) == {
            1: frozenset({0}),
            2: frozenset({1, 2}),
        }
        assert partition([0, 1, 2], 1, two_test_example) == {
            1: frozenset({0, 1}),
            2: frozenset({2}),
        }

    def test_empty_buckets_omitted_and_keys_sorted(self):
        inst = Instance.create([0, 1, 2], [[3, 1, 3], [1, 2, 3]], num_outcomes=3)
        buckets = partition([0, 1, 2], 0, inst)
        assert list(buckets) == [1, 3]

    def test_unknown_test_or_object_rejected(self, two_test_example):
        with pytest.raises(ValueError, match="no such test"):
            partition([0], 5, two_test_example)
        with pytest.raises(ValueError, match="no such object"):
            partition([7], 0, two_test_example)

    def test_buckets_partition_the_input(self):
        rng = random.Random(7)
        for _ in range(25):
            inst = random_complete_instance(
                rng, num_objects=rng.randint(2, 9), num_tests=4, num_outcomes=3
            )
            members = frozenset(
                s for s in inst.objects if rng.random() < 0.7
            ) or frozenset({0})
            for t in inst.tests:
                buckets = partition(members, t, inst)
                assert frozenset().union(*buckets.values()) == members
                total = sum(len(b) for b in buckets.values())
                assert total == len(members)


class TestPairCounts:
    def test_known_class_sizes(self):
        # Class sizes 2, 3, 1: pairs across classes = 2*3 + 2*1 + 3*1 = 11.
        inst = Instance.create(
            [0, 0, 1, 1, 1, 2],
            [[1, 2, 1, 2, 1, 2], [1, 1, 2, 2, 2, 2], [1, 1, 1, 1, 2, 2], [1, 1, 2, 1, 1, 2]],
        )
        assert pair_count(inst.objects, inst) == 11

    def test_homogeneous_and_singleton_sets_have_no_pairs(self, two_test_example):
        assert pair_count([0, 1], two_test_example) == 0
        assert pair_count([2], two_test_example) == 0
        assert pair_count([], two_test_example) == 0

    def test_matches_pairwise_enumeration(self):
        rng = random.Random(11)
        for _ in range(40):
            inst = random_complete_instance(
                rng, num_objects=rng.randint(2, 10), num_tests=5, num_outcomes=3
            )
            members = frozenset(s for s in inst.objects if rng.random() < 0.6)
            assert pair_count(members, inst) == brute_force_pair_count(members, inst)

    def test_separated_matches_pairwise_enumeration(self):
        rng = random.Random(13)
        for _ in range(40):
            inst = random_complete_instance(
                rng, num_objects=rng.randint(2, 10), num_tests=5, num_outcomes=3
            )
            members = frozenset(s for s in inst.objects if rng.random() < 0.7)
            for t in inst.tests:
                assert separated_pairs(members, t, inst) == brute_force_separated(
                    members, t, inst
                )

    def test_split_decomposition(self):
        # Splitting by a test accounts for every pair exactly once: either the
        # test separates it, or it survives inside a single bucket.
        rng = random.Random(17)
        for _ in range(40):
            inst = random_complete_instance(
                rng, num_objects=rng.randint(3, 10), num_tests=5, num_outcomes=3
            )
            members = frozenset(inst.objects)
            for t in inst.tests:
                buckets = partition(members, t, inst)
                inside = sum(pair_count(b, inst) for b in buckets.values())
                assert pair_count(members, inst) == separated_pairs(members, t, inst) + inside

    def test_monotone_under_subsets(self):
        rng = random.Random(19)
        for _ in range(25):
            inst = random_complete_instance(rng, num_objects=8, num_tests=5)
            members = frozenset(s for s in inst.objects if rng.random() < 0.8)
            smaller = frozenset(s for s in members if rng.random() < 0.7)
            assert pair_count(smaller, inst) <= pair_count(members, inst)


class TestEvaluate:
    def test_single_split_with_outcome_dependent_costs(self):
        # One test whose two answers cost 2 and 5; the heavy branch carries
        # three quarters of the prior, so the average is 2/4 + 15/4 = 17/4.
        inst = Instance.create(
            [0, 1], [[1, 2]], priors=["1/4", "3/4"], costs=[[2, 5]]
        )
        tree = Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1}))})
        report = evaluate(tree, inst)
        assert report.worst == 5
        assert report.expected == Fraction(17, 4)
        assert report.per_object == {0: Fraction(2), 1: Fraction(5)}

    def test_bare_leaf_costs_nothing(self):
        inst = Instance.create([0, 0], [[1, 2]])
        report = evaluate(Leaf(0, frozenset({0, 1})), inst)
        assert report.worst == 0 and report.expected == 0

    def test_matches_per_object_walk(self):
        from dfep.oracle import enumerate_trees

        rng = random.Random(23)
        for _ in range(15):
            inst = random_complete_instance(
                rng, num_objects=rng.randint(2, 5), num_tests=3, cost_mode="value"
            )
            trees = enumerate_trees(frozenset(inst.objects), inst)
            for tree in trees[: min(8, len(trees))]:
                report = evaluate(tree, inst)
                assert dict(report.per_object) == path_costs_by_walking(tree, inst)

    def test_unknown_references_raise(self, two_test_example):
        with pytest.raises(ValueError, match="no such test"):
            evaluate(Internal(9, {1: Leaf(0, frozenset({0}))}), two_test_example)
        with pytest.raises(ValueError, match="unknown object"):
            evaluate(Leaf(0, frozenset({42})), two_test_example)

    def test_chain_deeper_than_the_recursion_limit(self):
        n = 1100
        inst, tree = deep_chain(n)
        report = evaluate(tree, inst)
        assert report.per_object == {
            s: Fraction(min(s + 1, n - 1)) for s in range(n)
        }
        # Pre-order with answer 1 first reaches the deepest leaf first.
        assert list(report.per_object) == list(reversed(range(n)))
        assert report.worst == n - 1
        assert report.expected == Fraction((n - 1) * n // 2 + n - 1, n)

    @settings(max_examples=300)
    @given(st.booleans().flatmap(lambda coprime: splice_cases(coprime_priors=coprime)), st.data())
    def test_matches_the_fraction_reference(self, case, data):
        inst, _, low_expected, low_worst = case
        trees = [low_expected, low_worst]
        ratio = data.draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)))
        trees.append(combine_trees(low_expected, low_worst, ratio, inst))
        reference = reference_evaluate(low_worst, inst).worst
        if all(cost == 1 for row in inst.cost_table for cost in row) and reference >= 1:
            numerator = data.draw(st.integers(1, 3 * int(reference)))
            trees.append(combine_uniform(low_expected, low_worst, numerator, inst))
        tree = data.draw(st.sampled_from(trees))
        for _ in range(data.draw(st.integers(0, 3))):
            tree = with_fault(tree, inst, data)
        assert report_or_error(evaluate, tree, inst) == report_or_error(
            reference_evaluate, tree, inst
        )


def report_or_error(fn, tree, inst):
    """``("ok", (worst, expected, per_object items in order))``, or
    ``("error", message)``; every cost must be a ``Fraction``."""
    kind, out = result_or_error(fn, tree, inst)
    if kind == "error":
        return kind, out
    costs = [out.worst, out.expected, *out.per_object.values()]
    assert all(type(cost) is Fraction for cost in costs)
    return kind, (out.worst, out.expected, list(out.per_object.items()))


def with_fault(tree, inst, data):
    """The tree with one drawn fault at a drawn node: an unknown test, an
    outcome outside the alphabet, an unknown object, or an object that also
    sits in another leaf (the last leaf in pre-order then wins)."""
    fault = data.draw(st.sampled_from(["test", "outcome", "object", "twice"]))
    to_leaf = fault in ("object", "twice")
    everything, ancestors, node = tree_objects(tree), [], tree
    while isinstance(node, Internal) and (to_leaf or not data.draw(st.booleans())):
        outcome = data.draw(st.sampled_from(sorted(node.children)))
        ancestors.append((node, outcome))
        node = node.children[outcome]
    if fault == "test":
        test = data.draw(st.sampled_from([inst.num_tests, inst.num_tests + 3, -1]))
        node = Internal(test, dict(node.children) if isinstance(node, Internal) else {1: node})
    elif fault == "outcome":
        outcome = data.draw(st.sampled_from([0, inst.num_outcomes + 1, -1]))
        node = Internal(data.draw(st.sampled_from(inst.tests)), {outcome: node})
    else:
        others = sorted(everything - node.objects) or [min(node.objects)]
        unknown = [inst.num_objects, inst.num_objects + 5, -1]
        extra = data.draw(st.sampled_from(unknown if fault == "object" else others))
        node = Leaf(node.class_id, node.objects | {extra})
    for parent, outcome in reversed(ancestors):
        node = Internal(parent.test, {**parent.children, outcome: node})
    return node


class TestValidateTree:
    def _good_tree(self):
        return Internal(
            1,
            {
                1: Leaf(0, frozenset({0, 1})),
                2: Leaf(1, frozenset({2})),
            },
        )

    def test_accepts_valid_tree(self, two_test_example):
        assert validate_tree(self._good_tree(), [0, 1, 2], two_test_example) == []

    def test_rejects_mixed_leaf(self, two_test_example):
        bad = Leaf(0, frozenset({0, 1, 2}))
        messages = "\n".join(validate_tree(bad, [0, 1, 2], two_test_example))
        assert "not homogeneous" in messages

    def test_rejects_wrong_label(self, two_test_example):
        bad = Internal(
            1, {1: Leaf(0, frozenset({0, 1})), 2: Leaf(0, frozenset({2}))}
        )
        messages = "\n".join(validate_tree(bad, [0, 1, 2], two_test_example))
        assert "labeled class 0" in messages

    def test_rejects_children_not_matching_partition(self, two_test_example):
        bad = Internal(
            0, {1: Leaf(0, frozenset({0, 1})), 2: Leaf(1, frozenset({2}))}
        )
        messages = "\n".join(validate_tree(bad, [0, 1, 2], two_test_example))
        assert "should hold" in messages or "splits this set" in messages

    def test_rejects_single_child_node(self, two_test_example):
        bad = Internal(0, {2: Leaf(0, frozenset({1}))})
        messages = "\n".join(validate_tree(bad, [1], two_test_example))
        assert "child(ren)" in messages

    def test_tree_over_subset_is_checked_against_that_subset(self, two_test_example):
        tree = Internal(1, {1: Leaf(0, frozenset({1})), 2: Leaf(1, frozenset({2}))})
        assert validate_tree(tree, [1, 2], two_test_example) == []
        assert validate_tree(tree, [0, 1, 2], two_test_example) != []


class TestRestrictTree:
    def _chain(self):
        # test 1 first, then test 0 on the left bucket.
        return Internal(
            1,
            {
                1: Internal(
                    0,
                    {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1}))},
                ),
                2: Leaf(1, frozenset({2})),
            },
        )

    def _chain_instance(self):
        return Instance.create(
            classes=[0, 1, 1],
            outcomes=[[1, 2, 2], [1, 1, 2]],
            costs=[[2, 3], [5, 7]],
        )

    def test_homogeneous_survivors_collapse_to_leaf(self):
        inst = self._chain_instance()
        out = restrict_tree(self._chain(), {1, 2}, inst)
        assert out == Leaf(1, frozenset({1, 2}))

    def test_single_live_branch_is_contracted(self):
        inst = self._chain_instance()
        out = restrict_tree(self._chain(), {0, 1}, inst)
        # The root's outcome-2 branch dies, so the root edge disappears and
        # the test-0 node takes its place.
        assert isinstance(out, Internal) and out.test == 0
        assert validate_tree(out, [0, 1], inst) == []

    def test_identity_restriction_keeps_structure_valid(self):
        inst = self._chain_instance()
        out = restrict_tree(self._chain(), {0, 1, 2}, inst)
        assert validate_tree(out, [0, 1, 2], inst) == []
        assert tree_objects(out) == frozenset({0, 1, 2})

    def test_rejects_empty_or_foreign_sets(self):
        inst = self._chain_instance()
        with pytest.raises(ValueError, match="empty"):
            restrict_tree(self._chain(), set(), inst)
        with pytest.raises(ValueError, match="not in the tree"):
            restrict_tree(Leaf(1, frozenset({2})), {0}, inst)

    def test_costs_never_increase_and_result_validates(self):
        from dfep.greedy import divide_pairs

        rng = random.Random(29)
        for _ in range(30):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(3, 9),
                num_tests=rng.randint(3, 6),
                num_outcomes=rng.choice([2, 3]),
                cost_mode=rng.choice(["unit", "fixed", "value"]),
            )
            tree = divide_pairs(frozenset(inst.objects), inst)
            before = evaluate(tree, inst).per_object
            keep = frozenset(s for s in inst.objects if rng.random() < 0.6)
            if not keep:
                keep = frozenset({rng.randrange(inst.num_objects)})
            out = restrict_tree(tree, keep, inst)
            assert validate_tree(out, keep, inst) == []
            after = evaluate(out, inst).per_object
            assert set(after) == set(keep)
            for s in keep:
                assert after[s] <= before[s]

    def test_chain_deeper_than_the_recursion_limit(self):
        n = 1100
        inst, tree = deep_chain(n)
        # ``==`` on trees this deep would recurse, so compare flat signatures.
        assert tree_signature(restrict_tree(tree, range(n), inst)) == tree_signature(tree)
        # Keeping the even objects contracts every odd test, whose isolated
        # object is gone; the last kept object ends the chain.
        expected = Leaf(n - 2, frozenset({n - 2}))
        for t in reversed(range(0, n - 2, 2)):
            expected = Internal(t, {1: expected, 2: Leaf(t, frozenset({t}))})
        out = restrict_tree(tree, range(0, n, 2), inst)
        assert tree_signature(out) == tree_signature(expected)


class TestTreeHelpers:
    def test_tree_objects_and_leaf_order(self, two_test_example):
        tree = Internal(
            1,
            {
                2: Leaf(1, frozenset({2})),
                1: Leaf(0, frozenset({0, 1})),
            },
        )
        assert tree_objects(tree) == frozenset({0, 1, 2})
        leaves = list(iter_leaves(tree))
        assert [leaf.class_id for leaf in leaves] == [0, 1]

    def test_chain_deeper_than_the_recursion_limit(self):
        n = 1100
        inst, tree = deep_chain(n)
        assert tree_objects(tree) == frozenset(range(n))
        # Pre-order with answer 1 first reaches the deepest leaf first.
        assert [leaf.class_id for leaf in iter_leaves(tree)] == [n - 1, *reversed(range(n - 1))]
        assert validate_tree(tree, inst.objects, inst) == []
        # A fault at the bottom is reported with its full path.
        bad = Leaf(0, frozenset({n - 1}))
        for t in reversed(range(n - 1)):
            bad = Internal(t, {1: bad, 2: Leaf(t, frozenset({t}))})
        assert validate_tree(bad, inst.objects, inst) == [
            "root" + ".1" * (n - 1) + f": leaf labeled class 0 but objects are class {n - 1}"
        ]
