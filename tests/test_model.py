"""Model-layer tests: validation, partitions, pair counts, costs, restriction."""

from __future__ import annotations

import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfep.combine import combine_trees, combine_uniform
from dfep.model import (
    _RATIONAL_TEXT,
    Instance,
    Internal,
    Kernel,
    Leaf,
    as_fraction,
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
    reference_kernel,
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

    @pytest.mark.parametrize(
        "classes, outcomes, num_outcomes, message",
        [
            ([0, 1.9], [[1, 2]], None, "classes[1]: expected an integer, got 1.9"),
            ([0, True], [[1, 2]], None, "classes[1]: expected an integer, got True"),
            ([0, 1], [[1, 2.7]], None, "outcomes[0][1]: expected an integer, got 2.7"),
            ([0, 1], [[1, 2], ["2", 1]], None, "outcomes[1][0]: expected an integer, got '2'"),
            ([0, 1], [[True, 2]], None, "outcomes[0][0]: expected an integer, got True"),
            ([0, 1], [[1, 2]], True, "num_outcomes: expected an integer, got True"),
            ([0, 1], [[1, 2]], 2.0, "num_outcomes: expected an integer, got 2.0"),
        ],
    )
    def test_nothing_is_coerced_to_an_int(self, classes, outcomes, num_outcomes, message):
        with pytest.raises(ValueError) as error:
            Instance.create(classes, outcomes, num_outcomes=num_outcomes)
        assert str(error.value) == message


# Shape faults on the tables of a 3-object, 2-test binary instance, by the
# argument of Instance.create they sit in, each with validate_instance's text.
# A None cost entry is that test's usual price, a scalar or a per-outcome row.
SHAPE_FAULTS = [
    pytest.param(
        "outcomes", [[1, 2], [1, 1, 2]], "outcomes of test 0: expected 3 entries, got 2",
        id="short outcome row",
    ),
    pytest.param(
        "outcomes", [[1, 2, 2], [1, 1, 2, 1]], "outcomes of test 1: expected 3 entries, got 4",
        id="long outcome row",
    ),
    pytest.param(
        "priors", ["1/2", "1/2"], "priors: expected 3 entries, got 2", id="one prior too few"
    ),
    pytest.param(
        "priors", ["1/4"] * 4, "priors: expected 3 entries, got 4", id="one prior too many"
    ),
    pytest.param(
        "costs", [[1], None], "costs of test 0: expected 2 entries, got 1", id="short cost row"
    ),
    pytest.param(
        "costs", [None, [3, 4, 5]], "costs of test 1: expected 2 entries, got 3",
        id="long cost row",
    ),
    pytest.param(
        "costs", [None], "cost table covers 1 tests, expected 2", id="missing cost row"
    ),
    pytest.param(
        "costs", [None] * 3, "cost table covers 3 tests, expected 2", id="extra cost row"
    ),
]


class TestOneShapeRule:
    """Instance.create, validate_instance and Kernel.of name a shape fault
    by one rule, with one text."""

    @pytest.mark.parametrize("per_outcome", [False, True], ids=["scalar", "per-outcome"])
    @pytest.mark.parametrize("field, value, message", SHAPE_FAULTS)
    def test_each_fault_has_one_text(self, field, value, message, per_outcome):
        price = [[1, 2], [3, 4]] if per_outcome else [1, 3]
        tables = {
            "classes": [0, 1, 1],
            "outcomes": [[1, 2, 2], [1, 1, 2]],
            "priors": ["1/3"] * 3,
            "costs": price,
        }
        tables[field] = value
        if field == "costs":
            tables["costs"] = [price[t % 2] if c is None else c for t, c in enumerate(value)]
        with pytest.raises(ValueError) as error:
            Instance.create(
                tables["classes"],
                tables["outcomes"],
                priors=tables["priors"],
                costs=tables["costs"],
                num_outcomes=2,
            )
        inst = Instance(
            classes=tuple(tables["classes"]),
            num_outcomes=2,
            outcome_table=tuple(map(tuple, tables["outcomes"])),
            priors=tuple(map(as_fraction, tables["priors"])),
            cost_table=tuple(
                tuple(map(as_fraction, c)) if isinstance(c, list) else (as_fraction(c),) * 2
                for c in tables["costs"]
            ),
        )
        assert str(error.value) == message
        assert validate_instance(inst)[0] == message
        # The kernel's row loop names a short or long outcome row by its own text.
        if field == "outcomes":
            message = re.sub(r": expected .*", " are not 3 values in 1..2", message)
        assert result_or_error(Kernel.of, inst) == ("error", message)


class TestAsFraction:
    # Fraction alone would read all of these, and would expand the exponent
    # in full: a 10-million-bit numerator for the last one.
    OUTSIDE_THE_GRAMMAR = ("0.5", "1e3", "1E-2", " 1/2", "1/2 ", "1 / 2", "1_000", "1e3000000")

    @pytest.mark.parametrize("text", OUTSIDE_THE_GRAMMAR)
    def test_other_strings_are_refused(self, text):
        message = "^" + re.escape(f"not a rational: {text!r} (expected digits or 'p/q')") + "$"
        with pytest.raises(ValueError, match=message):
            as_fraction(text)
        with pytest.raises(ValueError, match=message):
            Instance.create([0, 1], [[1, 2]], priors=[text, "1/2"])
        with pytest.raises(ValueError, match=message):
            Instance.create([0, 1], [[1, 2]], costs=[[1, text]])
        inst = Instance.create([0, 1], [[1, 2]])
        tree = Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1}))})
        with pytest.raises(ValueError, match=message):
            combine_trees(tree, tree, text, inst)

    def test_ints_and_fractions_pass_and_other_types_do_not(self):
        assert as_fraction(3) == 3 and type(as_fraction(3)) is Fraction
        half = Fraction(1, 2)
        assert as_fraction(half) is half
        with pytest.raises(TypeError, match="not an exact rational: 0.5"):
            as_fraction(0.5)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bools_are_refused_everywhere_a_rational_is_read(self, flag):
        # bool is an int subclass: Fraction(True) would quietly read as 1.
        message = f"^not an exact rational: {flag}$"
        with pytest.raises(TypeError, match=message):
            as_fraction(flag)
        with pytest.raises(TypeError, match=message):
            Instance.create([0, 1], [[1, 2]], costs=[flag])
        with pytest.raises(TypeError, match=message):
            Instance.create([0, 1], [[1, 2]], costs=[[1, flag]])
        with pytest.raises(TypeError, match=message):
            Instance.create([0, 1], [[1, 2]], priors=[flag, "1/2"])
        inst = Instance.create([0, 1], [[1, 2]])
        tree = Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1}))})
        with pytest.raises(TypeError, match=message):
            combine_trees(tree, tree, flag, inst)

    @given(st.from_regex(_RATIONAL_TEXT, fullmatch=True))
    @example("-5/0")
    @example("+007/14")
    @example("9" * 4301)
    def test_grammar_strings_read_as_fraction_reads_them(self, text):
        try:
            expected = "ok", Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            expected = "error", f"not a rational: {text!r} ({exc})"
        got = result_or_error(as_fraction, text)
        assert got == expected
        assert type(got[1]) is type(expected[1])


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

    def test_every_violation_in_order(self):
        inst = Instance(
            classes=(0, -1, 1, 2),
            num_outcomes=2,
            outcome_table=((1, 3, 0, 1), (2, 1, 2, 2), (1, 1, -1, 1)),
            priors=(Fraction(1, 2), Fraction(-1, 4), Fraction(1, 2), Fraction(0)),
            cost_table=(
                (Fraction(0), Fraction(1)),
                (Fraction(1), Fraction(-2)),
                (Fraction(1, 3), Fraction(1)),
            ),
        )
        assert validate_instance(inst) == [
            "object 1 has negative class id -1",
            "outcome of test 0 on object 1 is 3, outside 1..2",
            "outcome of test 0 on object 2 is 0, outside 1..2",
            "outcome of test 2 on object 2 is -1, outside 1..2",
            "prior of object 1 is negative (-1/4)",
            "prior sums to 3/4, not 1",
            "cost of test 0 on outcome 1 is 0, not positive",
            "cost of test 1 on outcome 2 is -2, not positive",
            "completeness: objects 0 and 3 are never separated",
        ]


# The faults a row of outcomes can carry: a value outside 1..k, a row one
# entry short or long, or both, so that the bits set still number n.
ROW_FAULTS = ("zero", "above k", "negative", "above 255", "short", "long", "long with a zero")


def faulty_row(row, fault: str, s: int, k: int) -> tuple[int, ...]:
    """``row`` with one of ``ROW_FAULTS`` at position ``s``."""
    row = list(row)
    if fault == "short":
        del row[s]
    elif fault == "long":
        row.insert(s, 1)
    elif fault == "long with a zero":
        row[s : s + 1] = [1, 0]
    else:
        row[s] = {"zero": 0, "above k": k + 1, "negative": -1, "above 255": 1000}[fault]
    return tuple(row)


@st.composite
def kernel_cases(draw, outcomes=st.integers(2, 4), objects=st.integers(1, 12)):
    """An instance with random outcome rows and prices, one row of which
    may carry one of the ``ROW_FAULTS``."""
    k, n = draw(outcomes), draw(objects)
    num_tests = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.lists(st.integers(1, k), min_size=n, max_size=n),
            min_size=num_tests,
            max_size=num_tests,
        )
    )
    price = st.builds(Fraction, st.integers(1, 12), st.integers(1, 7))
    costs = draw(st.lists(price, min_size=num_tests, max_size=num_tests))
    classes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    inst = Instance.create(classes, rows, costs=costs, num_outcomes=k)
    fault = draw(st.none() | st.sampled_from(ROW_FAULTS))
    if fault is None:
        return inst
    t, s = draw(st.integers(0, num_tests - 1)), draw(st.integers(0, n - 1))
    table = list(inst.outcome_table)
    table[t] = faulty_row(table[t], fault, s, k)
    return dataclasses.replace(inst, outcome_table=tuple(table))


class TestKernelOf:
    @given(kernel_cases())
    def test_matches_the_bit_loop(self, inst):
        assert result_or_error(Kernel.of, inst) == result_or_error(reference_kernel, inst)

    @settings(max_examples=30)
    @given(kernel_cases(outcomes=st.just(300), objects=st.integers(1, 40)))
    def test_matches_the_bit_loop_past_255_outcomes(self, inst):
        assert result_or_error(Kernel.of, inst) == result_or_error(reference_kernel, inst)

    @pytest.mark.parametrize("k", [2, 3, 4, 300])
    @pytest.mark.parametrize("fault", ROW_FAULTS)
    def test_each_faulty_row_gets_the_row_message(self, k, fault):
        rows = [tuple(1 + (s + t) % k for s in range(5)) for t in range(3)]
        rows[1] = faulty_row(rows[1], fault, 2, k)
        inst = Instance(
            classes=(0, 1, 2, 3, 4),
            num_outcomes=k,
            outcome_table=tuple(rows),
            priors=(Fraction(1, 5),) * 5,
            cost_table=((Fraction(1),) * k,) * 3,
        )
        message = "outcomes of test 1 are not 5 values in 1..%d" % k
        with pytest.raises(ValueError, match=f"^{message}$"):
            Kernel.of(inst)
        assert result_or_error(reference_kernel, inst) == ("error", message)

    @pytest.mark.parametrize("k", [2, 300])
    @pytest.mark.parametrize("entry", [1.0, "1"])
    def test_an_entry_that_is_not_an_int_gets_the_row_message(self, k, entry):
        inst = Instance(
            classes=(0, 1),
            num_outcomes=k,
            outcome_table=((entry, 2),),
            priors=(Fraction(1, 2),) * 2,
            cost_table=((Fraction(1),) * k,),
        )
        with pytest.raises(ValueError, match=f"^outcomes of test 0 are not 2 values in 1..{k}$"):
            Kernel.of(inst)

    @pytest.mark.parametrize("k", [2, 300])
    def test_true_is_read_as_one_on_both_paths(self, k):
        def kernel(first):
            return Kernel.of(
                Instance(
                    classes=(0, 1),
                    num_outcomes=k,
                    outcome_table=((first, 2),),
                    priors=(Fraction(1, 2),) * 2,
                    cost_table=((Fraction(1),) * k,),
                )
            )

        assert kernel(True) == kernel(1)


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
        from tests.conftest import enumerate_trees

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
