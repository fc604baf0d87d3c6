"""Exact-solver tests: DP optima vs exhaustive enumeration, budgets, frontier."""

from __future__ import annotations

import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfep import oracle
from dfep.harness.generate import GeneratorSpec, generate
from dfep.model import Instance, evaluate, validate_tree
from dfep.oracle import (
    DP_OBJECT_LIMIT,
    FrontierPoint,
    OracleResult,
    _optima,
    _table,
    _tree,
    harmonic,
    opt_expected,
    opt_expected_under_budget,
    opt_worst,
    pareto_frontier,
)
from tests.conftest import (
    deep_chain,
    enumerate_trees,
    random_complete_instance,
    reference_budget,
    reference_frontier,
    reference_opt,
    reference_pareto,
    result_or_error,
    tree_signature,
)


def small_instances(seed: int, count: int, **overrides):
    rng = random.Random(seed)
    for _ in range(count):
        params = dict(
            num_objects=rng.randint(2, 6),
            num_tests=rng.randint(3, 5),
            num_outcomes=rng.choice([2, 2, 3]),
            cost_mode=rng.choice(["unit", "fixed", "value"]),
        )
        params.update(overrides)
        yield random_complete_instance(rng, **params)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(3) == Fraction(11, 6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            harmonic(-1)

    def test_equals_the_term_by_term_sum(self):
        total = Fraction(0)
        for k in range(301):
            assert harmonic(k) == total
            total += Fraction(1, k + 1)


class TestEnumeration:
    def test_single_class_set_is_one_leaf(self):
        inst = Instance.create([0, 0], [[1, 2]])
        trees = enumerate_trees([0, 1], inst)
        assert len(trees) == 1
        report = evaluate(trees[0], inst)
        assert report.worst == 0

    def test_all_enumerated_trees_are_valid(self):
        for inst in small_instances(101, 12):
            everything = frozenset(inst.objects)
            for tree in enumerate_trees(everything, inst):
                assert validate_tree(tree, everything, inst) == []

    def test_object_cap_enforced(self):
        rng = random.Random(3)
        inst = random_complete_instance(rng, num_objects=7, num_tests=6)
        with pytest.raises(ValueError, match="too large"):
            enumerate_trees(inst.objects, inst)

    def test_counts_the_trees_the_solvers_table_spells(self):
        # A leaf spells one canonical tree, and a mixed subset the sum over
        # its splits of the product of its nonempty buckets' counts, so a
        # split the table drops or invents changes the count.
        for inst in small_instances(107, 40):
            everything = frozenset(inst.objects)
            count = {}
            for mask, splits in _table(everything, inst):
                count[mask] = (
                    sum(math.prod(count[b] for b in buckets if b) for _, buckets in splits)
                    if splits
                    else 1
                )
            assert count[mask] == len(enumerate_trees(everything, inst))


class TestTreeSpelling:
    def test_a_choice_map_deeper_than_the_recursion_limit(self):
        # The chain's own choices: test t splits objects t..n-1 into the
        # rest (answer 1) and object t (answer 2).
        n = 1100
        inst, tree = deep_chain(n)
        everything = (1 << n) - 1
        choice = {}
        for t in range(n - 1):
            rest = everything >> (t + 1) << (t + 1)
            choice[rest | 1 << t] = (t, (rest, 1 << t))
        assert tree_signature(_tree(everything, inst, choice)) == tree_signature(tree)


class TestOptima:
    def test_dp_matches_enumeration_minimum(self):
        for inst in small_instances(211, 20):
            everything = frozenset(inst.objects)
            reports = [evaluate(t, inst) for t in enumerate_trees(everything, inst)]
            assert opt_worst(everything, inst).value == min(r.worst for r in reports)
            assert opt_expected(everything, inst).value == min(r.expected for r in reports)

    def test_witness_trees_achieve_their_value(self):
        for inst in small_instances(223, 20, num_objects=7, num_tests=5):
            everything = frozenset(inst.objects)
            for solver, measure in ((opt_worst, "worst"), (opt_expected, "expected")):
                result = solver(everything, inst)
                assert validate_tree(result.tree, everything, inst) == []
                assert getattr(evaluate(result.tree, inst), measure) == result.value

    def test_explored_counts_are_sane(self):
        rng = random.Random(5)
        inst = random_complete_instance(rng, num_objects=6, num_tests=4)
        result = opt_worst(inst.objects, inst)
        assert 1 <= result.explored <= 2 ** inst.num_objects

    def test_optima_shrink_on_subsets(self):
        # Removing objects can only make identification easier, for both
        # cost measures.
        for inst in small_instances(227, 15, num_objects=7, num_tests=5):
            everything = frozenset(inst.objects)
            rng = random.Random(len(everything) * 31)
            subset = frozenset(s for s in everything if rng.random() < 0.6)
            if not subset:
                subset = frozenset({0})
            assert opt_worst(subset, inst).value <= opt_worst(everything, inst).value
            assert (
                opt_expected(subset, inst).value <= opt_expected(everything, inst).value
            )

    def test_size_cap_enforced(self):
        rng = random.Random(7)
        inst = random_complete_instance(rng, num_objects=15, num_tests=10)
        with pytest.raises(ValueError, match="too large"):
            opt_worst(inst.objects, inst)

    def test_inseparable_mixed_set_is_rejected(self):
        # Bypass create/validate to reach the solver with a broken instance.
        inst = Instance(
            classes=(0, 1),
            num_outcomes=2,
            outcome_table=((1, 1),),
            priors=(Fraction(1, 2), Fraction(1, 2)),
            cost_table=((Fraction(1), Fraction(1)),),
        )
        with pytest.raises(ValueError, match="incomplete"):
            opt_worst([0, 1], inst)


class TestBudgetedExpected:
    def test_none_budget_is_unconstrained(self):
        for inst in small_instances(307, 8):
            everything = frozenset(inst.objects)
            free = opt_expected_under_budget(everything, inst, None)
            assert free is not None
            assert free.value == opt_expected(everything, inst).value

    def test_infeasible_budget_returns_none(self):
        for inst in small_instances(311, 10):
            everything = frozenset(inst.objects)
            floor = opt_worst(everything, inst).value
            if floor == 0:
                continue
            assert opt_expected_under_budget(everything, inst, floor - Fraction(1, 7)) is None

    def test_budget_at_the_floor_is_feasible(self):
        for inst in small_instances(313, 10):
            everything = frozenset(inst.objects)
            floor = opt_worst(everything, inst).value
            result = opt_expected_under_budget(everything, inst, floor)
            assert result is not None
            report = evaluate(result.tree, inst)
            assert report.worst <= floor
            assert report.expected == result.value

    def test_expected_is_monotone_in_the_budget(self):
        for inst in small_instances(317, 10):
            everything = frozenset(inst.objects)
            floor = opt_worst(everything, inst).value
            previous = None
            for bump in (0, 1, 2, 4):
                result = opt_expected_under_budget(everything, inst, floor + bump)
                assert result is not None
                if previous is not None:
                    assert result.value <= previous
                previous = result.value

    def test_matches_enumeration_under_budget(self):
        for inst in small_instances(331, 12):
            everything = frozenset(inst.objects)
            reports = [evaluate(t, inst) for t in enumerate_trees(everything, inst)]
            for bump in (0, 1, 3):
                budget = opt_worst(everything, inst).value + bump
                feasible = [r.expected for r in reports if r.worst <= budget]
                result = opt_expected_under_budget(everything, inst, budget)
                assert result is not None
                assert result.value == min(feasible)

    def test_budget_is_read_like_every_library_number(self):
        # Integers, "p/q" text and Fractions are read; decimals, exponents,
        # spaces and underscores are refused, and an exponent is never
        # expanded, however large.
        inst = next(iter(small_instances(337, 1)))
        everything = frozenset(inst.objects)
        floor = opt_worst(everything, inst).value
        expected = opt_expected_under_budget(everything, inst, floor)
        for budget in (floor, str(floor), f"{floor.numerator * 3}/{floor.denominator * 3}"):
            assert opt_expected_under_budget(everything, inst, budget) == expected
        for budget in ("1e4", "1_0", " 2 ", "0.5", "1e2000000"):
            with pytest.raises(ValueError, match="^not a rational: "):
                opt_expected_under_budget(everything, inst, budget)
        for budget in (True, False, 0.5):
            with pytest.raises(TypeError, match="^not an exact rational: "):
                opt_expected_under_budget(everything, inst, budget)


class TestParetoFrontier:
    @staticmethod
    def staircase_by_enumeration(inst: Instance) -> list[tuple[Fraction, Fraction]]:
        everything = frozenset(inst.objects)
        reports = [evaluate(t, inst) for t in enumerate_trees(everything, inst)]
        points: list[tuple[Fraction, Fraction]] = []
        for budget in sorted({r.worst for r in reports}):
            best = min(r.expected for r in reports if r.worst <= budget)
            if not points or best < points[-1][1]:
                points.append((budget, best))
        return points

    def test_matches_enumeration_staircase(self):
        for inst in small_instances(401, 15):
            frontier = pareto_frontier(inst.objects, inst)
            assert [(p.budget, p.expected) for p in frontier] == (
                self.staircase_by_enumeration(inst)
            )

    def test_endpoints_and_shape(self):
        for inst in small_instances(409, 12, num_objects=7, num_tests=5):
            everything = frozenset(inst.objects)
            frontier = pareto_frontier(everything, inst)
            assert frontier[0].budget == opt_worst(everything, inst).value
            assert frontier[-1].expected == opt_expected(everything, inst).value
            budgets = [p.budget for p in frontier]
            expectations = [p.expected for p in frontier]
            assert budgets == sorted(budgets)
            assert all(a < b for a, b in zip(budgets, budgets[1:]))
            assert all(a > b for a, b in zip(expectations, expectations[1:]))

    def test_witnesses_respect_their_point(self):
        for inst in small_instances(419, 10, num_objects=7, num_tests=5):
            everything = frozenset(inst.objects)
            for point in pareto_frontier(everything, inst):
                assert validate_tree(point.tree, everything, inst) == []
                report = evaluate(point.tree, inst)
                assert report.worst <= point.budget
                assert report.expected == point.expected

    def test_single_class_instance_has_trivial_frontier(self):
        inst = Instance.create([0, 0, 0], [[1, 2, 1], [1, 1, 2]])
        frontier = pareto_frontier(inst.objects, inst)
        assert frontier == [
            FrontierPoint(budget=Fraction(0), expected=Fraction(0), tree=frontier[0].tree)
        ]
        assert evaluate(frontier[0].tree, inst).worst == 0


@st.composite
def oracle_cases(draw):
    """A small instance (maybe incomplete) and an object subset.

    Costs are "p/q" strings and priors random weights, so the integer scaling
    of both over their least common multiples is exercised.
    """
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(4, 8))
    num_tests = draw(st.integers(2, 6))
    # Objects 0 and 1 differ in class, so the full set always needs a test.
    classes = [0, 1] + draw(st.lists(st.integers(0, 5), min_size=n - 2, max_size=n - 2))
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
    weights = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    priors = [Fraction(w, sum(weights)) for w in weights]
    inst = Instance.create(classes, rows, priors=priors, costs=costs, num_outcomes=k)
    members = draw(
        st.one_of(
            st.just(frozenset(range(n))),
            st.frozensets(st.integers(0, n - 1), min_size=1),
        )
    )
    return inst, members


def reference_result(members, inst, measure):
    memo: dict = {}
    value, tree = reference_opt(members, inst, measure, memo)
    return value, tree, len(memo)


class TestMatchesFractionReference:
    @settings(max_examples=400)
    @given(oracle_cases())
    def test_optima_frontier_and_budgets(self, case):
        inst, members = case
        for solver, measure in ((opt_worst, "worst"), (opt_expected, "expected")):
            got = result_or_error(solver, members, inst)
            if got[0] == "ok":
                got = "ok", (got[1].value, got[1].tree, got[1].explored)
            assert got == result_or_error(reference_result, members, inst, measure)
        frontier = result_or_error(pareto_frontier, members, inst)
        expected = result_or_error(reference_frontier, members, inst)
        if frontier[0] == "error":
            assert frontier == expected
            assert result_or_error(opt_expected_under_budget, members, inst, 0) == expected
            return
        points = frontier[1]
        assert [(p.budget, p.expected) for p in points] == expected[1]
        for point in points:
            assert validate_tree(point.tree, members, inst) == []
            report = evaluate(point.tree, inst)
            assert (report.worst, report.expected) == (point.budget, point.expected)
        budgets = [p.budget for p in points]
        probes = budgets + [(a + b) / 2 for a, b in zip(budgets, budgets[1:])]
        probes += [budgets[0] - Fraction(1, 7), budgets[-1] + 1]
        for budget in probes:
            result = opt_expected_under_budget(members, inst, budget)
            best = reference_budget(members, budget, inst, {}, {})
            if best is None:
                assert result is None
            else:
                assert result is not None and result.value == best[0]
                report = evaluate(result.tree, inst)
                assert report.worst <= budget and report.expected == result.value


def at_the_cap(seed: int) -> Instance:
    """The benchmark's frontier shape: DP_OBJECT_LIMIT objects, ten ternary
    tests, answer-dependent prices and random priors."""
    return generate(
        GeneratorSpec(
            num_objects=DP_OBJECT_LIMIT,
            num_classes=4,
            num_tests=10,
            num_outcomes=3,
            cost_mode="value-dependent-random",
            prior_mode="random",
            seed=7100 + seed,
        )
    )


class TestAtTheObjectCap:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_fraction_reference(self, seed):
        inst = at_the_cap(seed)
        members = frozenset(inst.objects)
        for solver, measure in ((opt_worst, "worst"), (opt_expected, "expected")):
            got = solver(members, inst)
            assert (got.value, got.tree, got.explored) == reference_result(
                members, inst, measure
            )
        points = pareto_frontier(members, inst)
        assert [(p.budget, p.expected) for p in points] == reference_frontier(members, inst)
        for point in points:
            report = evaluate(point.tree, inst)
            assert (report.worst, report.expected) == (point.budget, point.expected)


class TestOneFoldForBothMeasures:
    """``_optima`` folds one table for both measures; each result must be
    the one the standalone solver gives: value, tree (so the first-minimum
    tie-break) and ``explored``, or the same error."""

    @staticmethod
    def check(members, inst) -> None:
        shared = result_or_error(_optima, members, inst)
        alone = [result_or_error(solver, members, inst) for solver in (opt_worst, opt_expected)]
        if shared[0] == "error":
            assert alone == [shared, shared]
        else:
            assert alone == [("ok", result) for result in shared[1]]

    @given(oracle_cases())
    def test_matches_the_standalone_solvers(self, case):
        inst, members = case
        self.check(members, inst)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_standalone_solvers_at_the_cap(self, seed):
        inst = at_the_cap(seed)
        self.check(frozenset(inst.objects), inst)


def tie_heavy(seed: int) -> Instance:
    """An instance whose every split has a twin at an equal score: each
    outcome row (random ones, and the bit rows that make the instance
    complete) appears two or three times at equal prices, shuffled among the
    test ids, with unit or random prices and uniform or random priors."""
    rng = random.Random(seed)
    n, k = rng.randint(3, 8), rng.choice([2, 3])
    base = [[1 + (s >> bit & 1) for s in range(n)] for bit in range((n - 1).bit_length())]
    base += [[rng.randint(1, k) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    unit = rng.random() < 0.5
    tests = []
    for row in base:
        prices = [1] * k if unit else [rng.randint(1, 4) for _ in range(k)]
        tests += [(row, prices)] * rng.randint(2, 3)
    rng.shuffle(tests)
    weights = [rng.randint(1, 4) for _ in range(n)]
    return Instance.create(
        [rng.randint(0, 2) for _ in range(n)],
        [row for row, _ in tests],
        priors=None if rng.random() < 0.5 else [Fraction(w, sum(weights)) for w in weights],
        costs=[prices for _, prices in tests],
        num_outcomes=k,
    )


class TestTies:
    """Equal scores go to the lowest test id in every fold: the first least
    split is kept, never a later equal one."""

    @pytest.mark.parametrize("seed", range(40))
    def test_match_the_fraction_reference(self, seed):
        inst = tie_heavy(seed)
        rng = random.Random(seed)
        for members in (frozenset(inst.objects), frozenset(rng.sample(inst.objects, 3))):
            expected = [reference_result(members, inst, m) for m in ("worst", "expected")]
            shared = _optima(members, inst)
            alone = [opt_worst(members, inst), opt_expected(members, inst)]
            for results in (shared, alone):
                assert [(r.value, r.tree, r.explored) for r in results] == expected


@st.composite
def tie_cases(draw):
    """A small instance with many equal points, and an object subset: unit
    prices or prices of 1 and 2, uniform priors and 2-4 outcomes; or one
    built directly, without validation, with prices in -2..2.

    Equal points of two tests whose splits join out of test order come up
    in well under one draw of a hundred, so the tables are drawn by a seeded
    ``random.Random``, not shrunk toward the small and alike; two such cases
    are pinned below.
    """
    rng = draw(st.randoms(use_true_random=True))
    k, n, m = rng.choice([2, 2, 3, 4]), rng.randint(4, 8), rng.randint(4, 10)
    classes = [0, 1] + [rng.randrange(n) for _ in range(n - 2)]
    rows = [[rng.randint(1, k) for _ in range(n)] for _ in range(m)]
    mode = rng.choice(["unit", "fixed", "value", "direct"])
    if mode == "direct":
        inst = Instance(
            classes=tuple(classes),
            num_outcomes=k,
            outcome_table=tuple(map(tuple, rows)),
            priors=(Fraction(1, n),) * n,
            cost_table=tuple(
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(k)) for _ in range(m)
            ),
        )
    else:
        costs = {
            "unit": None,
            "fixed": [rng.randint(1, 2) for _ in range(m)],
            "value": [[rng.randint(1, 2) for _ in range(k)] for _ in range(m)],
        }[mode]
        inst = Instance.create(classes, rows, costs=costs, num_outcomes=k)
    if rng.random() < 0.5:
        return inst, frozenset(inst.objects)
    return inst, frozenset(rng.sample(inst.objects, rng.randint(1, n)))


class TestFrontierWitnesses:
    """The frontier skips the splits a found point already beats; its points,
    witness trees and ``explored``, and every budgeted result read off it,
    must still be those of the merging DP that joins every split."""

    @staticmethod
    def check(members, inst) -> None:
        got = result_or_error(pareto_frontier, members, inst)
        want = result_or_error(reference_pareto, members, inst)
        if want[0] == "error":
            assert got == want
            assert result_or_error(opt_expected_under_budget, members, inst, 0) == want
            return
        points, explored = want[1]
        assert got == ("ok", [FrontierPoint(*point) for point in points])
        budgets = [budget for budget, _, _ in points]
        probes = budgets + [(a + b) / 2 for a, b in zip(budgets, budgets[1:])]
        probes += [budgets[0] - 1, budgets[-1] + 1]
        for cap in probes:
            fitting = [point for point in points if point[0] <= cap]
            result = opt_expected_under_budget(members, inst, cap)
            if not fitting:
                assert result is None
            else:
                _, expected, tree = fitting[-1]
                assert result == OracleResult(expected, tree, explored)

    @given(oracle_cases())
    def test_matches_the_merging_reference(self, case):
        self.check(case[1], case[0])

    @settings(max_examples=300)
    @given(tie_cases())
    def test_matches_the_merging_reference_on_ties(self, case):
        self.check(case[1], case[0])

    @pytest.mark.parametrize(
        "inst",
        [
            # (3, 14/5) is test 0's corner and a point of test 2's split,
            # whose corner is lower, so test 2 joins first.
            Instance.create(
                [0, 1, 3, 1, 1],
                [[2, 2, 1, 2, 1], [2, 1, 2, 1, 2], [1, 1, 2, 1, 1], [2, 2, 1, 2, 1]],
                costs=[[1, 2], [1, 1], [1, 2], [2, 1]],
            ),
            # Unvalidated prices: (2, -1/3) is test 0's corner and a point of
            # test 2's split, whose corner is (1, -1/3).
            Instance(
                classes=(0, 1, 0),
                num_outcomes=3,
                outcome_table=((2, 3, 1), (1, 3, 2), (3, 1, 1)),
                priors=(Fraction(1, 3),) * 3,
                cost_table=tuple(
                    tuple(map(Fraction, row)) for row in ((2, -1, -2), (1, 1, 1), (0, 1, -1))
                ),
            ),
        ],
        ids=["validated", "unvalidated"],
    )
    def test_keeps_the_lower_test_of_an_equal_point_that_joins_later(self, inst):
        self.check(frozenset(inst.objects), inst)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_merging_reference_at_the_cap(self, seed):
        inst = at_the_cap(seed)
        self.check(frozenset(inst.objects), inst)


class TestOnlyTheMeasuresAskedFor:
    """A single-measure call neither scores nor spells the other measure."""

    INST = next(small_instances(811, 1, num_objects=6, num_tests=5, num_outcomes=3))

    def test_worst_sums_no_prior_mass(self, monkeypatch):
        inst = self.INST
        want = opt_worst(inst.objects, inst)

        def refuse(*args):
            raise AssertionError("prior masses summed for the worst case")

        monkeypatch.setattr(oracle, "_masses", refuse)
        assert opt_worst(inst.objects, inst) == want
        with pytest.raises(AssertionError):
            opt_expected(inst.objects, inst)

    @pytest.mark.parametrize("solver", [opt_worst, opt_expected])
    def test_spells_one_tree(self, monkeypatch, solver):
        inst, spelled = self.INST, []
        real = oracle._tree
        monkeypatch.setattr(oracle, "_tree", lambda *args: spelled.append(args) or real(*args))
        solver(inst.objects, inst)
        assert len(spelled) == 1

    def test_worst_is_the_largest_over_nonempty_buckets_below_zero(self):
        # Unvalidated negative prices: every path costs less than 0, so a
        # largest bucket score started at 0 would read 0.
        inst = Instance(
            classes=(0, 1, 2),
            num_outcomes=2,
            outcome_table=((1, 2, 2), (1, 1, 2)),
            priors=(Fraction(1, 3),) * 3,
            cost_table=((Fraction(-1), Fraction(-2)), (Fraction(-3), Fraction(-1))),
        )
        for result in (opt_worst(inst.objects, inst), _optima(inst.objects, inst)[0]):
            assert result.value == evaluate(result.tree, inst).worst == -1
            assert result.tree.test == 0


class TestNoCyclicGarbage:
    """The solvers free their tables by reference counting alone: a cycle
    (say, a closure that refers to itself) would hold every subset's entry
    until the next collection and raise the peak memory of a batch."""

    @pytest.mark.parametrize(
        "solve",
        [
            opt_worst,
            opt_expected,
            _optima,
            pareto_frontier,
            lambda members, inst: opt_expected_under_budget(members, inst, 10**6),
            enumerate_trees,
        ],
        ids=[
            "opt_worst", "opt_expected", "optima", "pareto_frontier", "under_budget", "enumerate"
        ],
    )
    def test_leaves_nothing_for_the_collector(self, solve):
        inst = next(small_instances(503, 1, num_objects=6, num_tests=5, num_outcomes=3))
        solve(inst.objects, inst)
        gc.collect()
        gc.disable()
        try:
            result = solve(inst.objects, inst)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert result is not None
