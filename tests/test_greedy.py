"""Greedy-builder tests: scoring, tie-breaks, guarantees against the DP optima."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfep.greedy import (
    GreedyTrace,
    criterion_value,
    divide_pairs,
    root_lower_bound,
    select_test,
)
from dfep.model import (
    Instance,
    Internal,
    Leaf,
    evaluate,
    pair_count,
    partition,
    separated_pairs,
    validate_tree,
)
from dfep.oracle import harmonic, opt_worst
from tests.conftest import (
    is_homogeneous,
    random_complete_instance,
    reference_criterion_value,
    reference_divide_pairs,
    reference_root_lower_bound,
    reference_select_test,
    result_or_error,
)


def two_singleton_classes() -> Instance:
    """Two objects, two classes, both tests separate them; costs differ."""
    return Instance.create(
        classes=[0, 1],
        outcomes=[[1, 2], [1, 2]],
        costs=[[2, 4], [3, 3]],
    )


class TestCriterionValue:
    def test_worked_example_scores(self):
        inst = two_singleton_classes()
        # One separable pair; each test resolves it on either answer, so the
        # score is just the dearer answer's cost.
        assert criterion_value([0, 1], 0, inst) == 4
        assert criterion_value([0, 1], 1, inst) == 3

    def test_unusable_test_scores_none(self):
        inst = Instance.create(
            classes=[0, 1],
            outcomes=[[1, 1], [1, 2]],
        )
        assert criterion_value([0, 1], 0, inst) is None
        assert criterion_value([0], 1, inst) is None  # nothing to separate

    def test_empty_outcomes_charged_full_price_by_default(self):
        inst = Instance.create(
            classes=[0, 1],
            outcomes=[[1, 2]],
            costs=[[1, 1, 9]],
            num_outcomes=3,
        )
        assert criterion_value([0, 1], 0, inst) == 9
        assert criterion_value([0, 1], 0, inst, include_empty_outcomes=False) == 1

    def test_split_of_a_single_class_set_scores_none(self):
        # Test 0 splits {0, 1}, but both are class 0: no pair to resolve.
        inst = Instance.create([0, 0, 1], [[1, 2, 1]])
        assert criterion_value([0, 1], 0, inst) is None
        assert criterion_value([0, 1], 0, inst, include_empty_outcomes=False) is None

    def test_partial_progress_shows_in_denominator(self):
        # Classes sized 2 and 1 give two separable pairs; the split below
        # resolves only one of them on its outcome-1 side.
        inst = Instance.create(
            classes=[0, 0, 1],
            outcomes=[[1, 2, 2], [1, 1, 2]],
            costs=[[6, 6], [6, 6]],
        )
        # Test 0: outcome 1 isolates an object of class 0 (resolves 1 pair,
        # 1 left inside outcome 2); outcome 2 keeps {1, 2} (1 pair inside).
        assert criterion_value([0, 1, 2], 0, inst) == Fraction(6, 1)
        # Test 1 resolves both pairs on either side.
        assert criterion_value([0, 1, 2], 1, inst) == Fraction(6, 2)


class TestSelectTest:
    def test_prefers_cheaper_worst_answer(self):
        inst = two_singleton_classes()
        assert select_test([0, 1], inst) == (1, Fraction(3))

    def test_score_ties_break_to_smallest_test_id(self):
        inst = Instance.create(
            classes=[0, 1],
            outcomes=[[1, 2], [2, 1]],
            costs=[[5, 5], [5, 5]],
        )
        assert select_test([0, 1], inst)[0] == 0

    def test_single_class_set_rejected(self):
        inst = two_singleton_classes()
        with pytest.raises(ValueError, match="single class"):
            select_test([0], inst)

    def test_inseparable_mixed_set_rejected(self):
        inst = Instance(
            classes=(0, 1),
            num_outcomes=2,
            outcome_table=((1, 1),),
            priors=(Fraction(1, 2), Fraction(1, 2)),
            cost_table=((Fraction(1), Fraction(1)),),
        )
        with pytest.raises(ValueError, match="incomplete"):
            select_test([0, 1], inst)


class TestDividePairs:
    def test_outcomes_outside_the_alphabet_rejected(self):
        inst = Instance(
            classes=(0, 1, 2),
            num_outcomes=2,
            outcome_table=((0, 1, 2),),
            priors=(Fraction(1, 3),) * 3,
            cost_table=((Fraction(1), Fraction(1)),),
        )
        with pytest.raises(ValueError, match="not 3 values in 1..2"):
            divide_pairs(inst.objects, inst)

    def test_worked_example_tree(self):
        inst = two_singleton_classes()
        tree = divide_pairs([0, 1], inst)
        assert isinstance(tree, Internal) and tree.test == 1
        assert evaluate(tree, inst).worst == 3

    def test_empty_outcome_switch_can_change_the_tree(self):
        inst = Instance.create(
            classes=[0, 1],
            outcomes=[[1, 2], [1, 2]],
            costs=[[1, 1, 9], [4, 4, 4]],
            num_outcomes=3,
        )
        cautious = divide_pairs([0, 1], inst)
        optimistic = divide_pairs([0, 1], inst, include_empty_outcomes=False)
        assert isinstance(cautious, Internal) and cautious.test == 1
        assert isinstance(optimistic, Internal) and optimistic.test == 0

    def test_switch_is_irrelevant_when_costs_ignore_the_answer(self):
        rng = random.Random(37)
        for _ in range(20):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(2, 9),
                num_tests=rng.randint(3, 6),
                num_outcomes=3,
                cost_mode=rng.choice(["unit", "fixed"]),
            )
            assert divide_pairs(inst.objects, inst) == divide_pairs(
                inst.objects, inst, include_empty_outcomes=False
            )

    def test_trees_valid_in_every_cost_mode(self):
        rng = random.Random(41)
        for _ in range(30):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(2, 10),
                num_tests=rng.randint(3, 6),
                num_outcomes=rng.choice([2, 3, 4]),
                cost_mode=rng.choice(["unit", "fixed", "value"]),
            )
            everything = frozenset(inst.objects)
            tree = divide_pairs(everything, inst)
            assert validate_tree(tree, everything, inst) == []

    def test_works_on_subsets(self):
        rng = random.Random(43)
        inst = random_complete_instance(rng, num_objects=9, num_tests=5)
        subset = frozenset({1, 3, 4, 7})
        tree = divide_pairs(subset, inst)
        assert validate_tree(tree, subset, inst) == []

    def test_trace_records_every_split_in_preorder(self):
        rng = random.Random(47)
        inst = random_complete_instance(
            rng, num_objects=8, num_tests=5, cost_mode="value"
        )
        trace = GreedyTrace()
        tree = divide_pairs(inst.objects, inst, trace=trace)

        def count_internal(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + sum(count_internal(c) for c in node.children.values())

        assert len(trace.steps) == count_internal(tree)
        assert trace.steps[0].objects == frozenset(inst.objects)
        for step in trace.steps:
            assert step.pairs_separated >= 1
            # Pairs strictly decrease into every branch of every split.
            assert all(after < step.pairs_before for after in step.pairs_after)
            assert step.ratio > 0
            assert criterion_value(step.objects, step.test, inst) == step.ratio


class TestFixedCostSpecialization:
    @staticmethod
    def reference_tree(members, inst):
        """Independent rebuild using the flat-cost form of the rule:
        cost divided by pairs resolved on the least helpful answer."""
        if is_homogeneous(members, inst):
            return Leaf(inst.classes[next(iter(members))], members)
        total = pair_count(members, inst)
        best = None
        for t in inst.tests:
            if separated_pairs(members, t, inst) == 0:
                continue
            buckets = partition(members, t, inst)
            keep = max(pair_count(b, inst) for b in buckets.values())
            score = Fraction(inst.cost_table[t][0], total - keep)
            if best is None or score < best[1]:
                best = (t, score)
        t = best[0]
        buckets = partition(members, t, inst)
        return Internal(
            t,
            {
                o: TestFixedCostSpecialization.reference_tree(b, inst)
                for o, b in buckets.items()
            },
        )

    def test_node_for_node_agreement(self):
        rng = random.Random(53)
        for _ in range(25):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(2, 9),
                num_tests=rng.randint(3, 6),
                num_outcomes=rng.choice([2, 3]),
                cost_mode="fixed",
            )
            everything = frozenset(inst.objects)
            assert divide_pairs(everything, inst) == self.reference_tree(
                everything, inst
            )


class TestGuarantees:
    def test_worst_cost_within_harmonic_factor_of_optimal(self):
        # Binary answers, answer-dependent costs: the greedy's worst-case
        # cost stays within H(number of separable pairs) of the optimum.
        rng = random.Random(59)
        for _ in range(25):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(2, 7),
                num_tests=rng.randint(3, 6),
                num_outcomes=2,
                cost_mode=rng.choice(["unit", "fixed", "value"]),
            )
            everything = frozenset(inst.objects)
            achieved = evaluate(divide_pairs(everything, inst), inst).worst
            best = opt_worst(everything, inst).value
            assert achieved <= harmonic(pair_count(everything, inst)) * best

    def test_lower_bound_never_exceeds_the_optimum(self):
        rng = random.Random(61)
        for _ in range(25):
            inst = random_complete_instance(
                rng,
                num_objects=rng.randint(2, 7),
                num_tests=rng.randint(3, 6),
                num_outcomes=2,
                cost_mode=rng.choice(["unit", "fixed", "value"]),
            )
            everything = frozenset(inst.objects)
            bound = root_lower_bound(everything, inst)
            assert 0 < bound <= opt_worst(everything, inst).value

    def test_lower_bound_tight_on_the_worked_example(self):
        inst = two_singleton_classes()
        assert root_lower_bound([0, 1], inst) == 3
        assert opt_worst([0, 1], inst).value == 3

    def test_lower_bound_zero_only_for_single_class_sets(self):
        inst = two_singleton_classes()
        assert root_lower_bound([0], inst) == 0


@st.composite
def greedy_cases(draw, objects=(2, 9), tests=(1, 6)):
    """An instance (maybe incomplete), an object subset, the empty switch.

    Object and test counts are drawn from the given ranges.  Costs are "p/q"
    strings with assorted denominators, so the kernel's integer scaling over
    their least common multiple is exercised.
    """
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(*objects))
    num_tests = draw(st.integers(*tests))
    # Objects 0 and 1 differ in class, so the full set always needs a test.
    classes = [0, 1] + draw(st.lists(st.integers(0, 3), min_size=n - 2, max_size=n - 2))
    rows = draw(
        st.lists(
            st.lists(st.integers(1, k), min_size=n, max_size=n),
            min_size=num_tests,
            max_size=num_tests,
        )
    )
    price = st.builds("{}/{}".format, st.integers(1, 12), st.integers(1, 7))
    mode = draw(st.sampled_from(["unit", "fixed", "value"]))
    if mode == "unit":
        costs = None
    elif mode == "fixed":
        costs = draw(st.lists(price, min_size=num_tests, max_size=num_tests))
    else:
        costs = draw(
            st.lists(
                st.lists(price, min_size=k, max_size=k),
                min_size=num_tests,
                max_size=num_tests,
            )
        )
    inst = Instance.create(classes, rows, costs=costs, num_outcomes=k)
    members = draw(
        st.one_of(
            st.just(frozenset(range(n))),
            st.frozensets(st.integers(0, n - 1), min_size=1),
        )
    )
    return inst, members, draw(st.booleans())


@st.composite
def cut_cases(draw):
    """An instance of 20-60 objects where equal scores are common, and an
    object subset: 2-5 outcomes, tests that share outcome rows, and unit
    prices, prices of 1 and 2, or prices in -2..3 (``Instance.create`` does
    not validate them).

    Such trees are several levels deep, so many nodes end their scan at a
    test's price floor, often on a floor equal to the best score.  The tables
    are drawn by a seeded ``random.Random``, as ``tie_cases`` in
    ``test_oracle.py`` are, so that they stay large and varied.
    """
    rng = draw(st.randoms(use_true_random=True))
    k, n = rng.randint(2, 5), rng.randint(20, 60)
    classes = [0, 1] + [rng.randrange(rng.randint(2, 8)) for _ in range(n - 2)]
    rows = [[rng.randint(1, k) for _ in range(n)] for _ in range(rng.randint(4, 10))]
    # Each distinct row is given to one to three tests, in shuffled order.
    rows = [row for row in rows for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    m = len(rows)
    costs = rng.choice([
        None,
        [rng.randint(1, 2) for _ in range(m)],
        [[rng.randint(1, 2) for _ in range(k)] for _ in range(m)],
        [[rng.randint(-2, 3) for _ in range(k)] for _ in range(m)],
    ])
    inst = Instance.create(classes, rows, costs=costs, num_outcomes=k)
    if rng.random() < 0.5:
        return inst, frozenset(inst.objects)
    return inst, frozenset(rng.sample(inst.objects, rng.randint(1, n)))


def assert_scores_match(inst, members, empty):
    """Every test's score and the chosen test equal the ``Fraction`` reference's."""
    for t in inst.tests:
        assert criterion_value(
            members, t, inst, include_empty_outcomes=empty
        ) == reference_criterion_value(members, t, inst, empty)
    assert result_or_error(
        select_test, members, inst, include_empty_outcomes=empty
    ) == result_or_error(reference_select_test, members, inst, empty)


def assert_builds_match(inst, members, empty):
    """Trees, traces and root bounds equal the ``Fraction`` reference's."""
    trace, expected_trace = GreedyTrace(), GreedyTrace()
    assert result_or_error(
        divide_pairs, members, inst, include_empty_outcomes=empty, trace=trace
    ) == result_or_error(reference_divide_pairs, members, inst, empty, expected_trace)
    assert trace.steps == expected_trace.steps
    assert result_or_error(
        root_lower_bound, members, inst, include_empty_outcomes=empty
    ) == result_or_error(reference_root_lower_bound, members, inst, empty)


class TestKernelMatchesFractionReference:
    @given(greedy_cases())
    def test_scores_choices_trees_traces_and_bounds(self, case):
        assert_scores_match(*case)
        assert_builds_match(*case)

    @given(greedy_cases(objects=(12, 24), tests=(6, 12)))
    def test_deep_trees_traces_and_bounds(self, case):
        # Larger sets grow trees several levels deep, where most tests have
        # stopped splitting and each node scores only what it inherited.
        assert_builds_match(*case)

    @given(cut_cases())
    def test_where_the_price_floor_cuts(self, case):
        # Each node stops scoring at the first test whose price floor shows
        # that it cannot win, often on a floor equal to the best score, and
        # hands the rest to its children unscored.
        for empty in (True, False):
            assert_scores_match(*case, empty)
            assert_builds_match(*case, empty)


def call_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


class TestDeepTrees:
    def test_chain_deeper_than_the_recursion_limit(self):
        # Test t isolates object t (answer 2).  Classes alternate, so each
        # step isolates the lowest class-0 object left, at ratio 1/(n/2): a
        # chain n/2 deep whose worst root branch costs n/2 in all.
        n = 300
        inst = Instance.create(
            classes=[s % 2 for s in range(n)],
            outcomes=[[2 if s == t else 1 for s in range(n)] for t in range(n)],
        )
        everything = frozenset(inst.objects)
        trace = GreedyTrace()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(call_depth() + 60)
        try:
            tree = divide_pairs(everything, inst, trace=trace)
            bound = root_lower_bound(everything, inst)
        finally:
            sys.setrecursionlimit(limit)
        chain = list(range(0, n, 2))
        assert [step.test for step in trace.steps] == chain
        assert {step.ratio for step in trace.steps} == {Fraction(2, n)}
        node = tree
        for t in chain:
            assert isinstance(node, Internal) and node.test == t
            assert node.children[2] == Leaf(0, frozenset({t}))
            node = node.children[1]
        assert node == Leaf(1, frozenset(range(1, n, 2)))
        assert bound == n // 2
