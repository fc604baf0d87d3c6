"""Shared test fixtures, independent oracles, and the CLI process launcher.

The oracles here deliberately avoid the library's own formulas: pair counts
are found by enumerating object pairs one by one, reference costs by
re-walking trees with a hand-rolled recursion, and the reference greedy
scores with ``Fraction`` over frozenset partitions instead of the library's
bitmask kernel.  The reference oracle does the same for the exact optima, and
finds the frontier by probing a budgeted DP at every realizable path cost
instead of merging per-subset Pareto sets.  The reference splice recurses
and finds each child's surviving objects from the child's leaves, where the
library routes them through the node's test on an explicit stack.  Agreement
between these and the library is then evidence, not tautology.

Property tests run under the ``dfep`` hypothesis profile registered here:
derandomized, so every run draws the same examples, with no deadline and a
bounded example count so the suite stays fast.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

import dfep
from dfep.greedy import GreedyStep, GreedyTrace, divide_pairs
from dfep.model import (
    CostReport,
    DecisionTree,
    Instance,
    Internal,
    Leaf,
    as_fraction,
    pair_count,
    partition,
    separated_pairs,
    tree_objects,
)
from dfep.oracle import opt_expected, opt_worst

settings.register_profile(
    "dfep", derandomize=True, deadline=None, max_examples=150, database=None
)
settings.load_profile("dfep")

# The directory that holds the imported ``dfep`` package, made absolute once:
# an inherited relative entry such as ``PYTHONPATH=src`` points nowhere once a
# child runs in ``tmp_path``.
DFEP_IMPORT_ROOT = str(Path(dfep.__file__).resolve().parent.parent)


def run_python(*args: str, cwd, text: bool = False) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a separate process that imports this very dfep.

    ``DFEP_IMPORT_ROOT`` goes first on the child's PYTHONPATH, ahead of any
    inherited entries.  Output is captured as ``str`` when ``text`` is true,
    else as ``bytes``.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        DFEP_IMPORT_ROOT + os.pathsep + inherited if inherited else DFEP_IMPORT_ROOT
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=text, cwd=cwd, env=env
    )


def run_dfep(*argv: str, cwd, text: bool = False) -> subprocess.CompletedProcess:
    """Run ``python -m dfep *argv`` from ``cwd`` against the dfep under test."""
    return run_python("-m", "dfep", *argv, cwd=cwd, text=text)


def brute_force_pair_count(objects, inst: Instance) -> int:
    """Count separable pairs by checking every unordered pair directly."""
    members = sorted(objects)
    total = 0
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if inst.classes[a] != inst.classes[b]:
                total += 1
    return total


def brute_force_separated(objects, test: int, inst: Instance) -> int:
    """Count separable pairs assigned different outcomes, pair by pair."""
    members = sorted(objects)
    row = inst.outcome_table[test]
    total = 0
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if inst.classes[a] != inst.classes[b] and row[a] != row[b]:
                total += 1
    return total


def path_costs_by_walking(tree: DecisionTree, inst: Instance) -> dict[int, Fraction]:
    """Per-object path cost computed by following each object from the root."""
    out: dict[int, Fraction] = {}

    def follow(obj: int) -> Fraction:
        node = tree
        cost = Fraction(0)
        while isinstance(node, Internal):
            outcome = inst.outcome_table[node.test][obj]
            cost += inst.cost_table[node.test][outcome - 1]
            node = node.children[outcome]
        assert obj in node.objects
        return cost

    def collect(node: DecisionTree) -> None:
        if isinstance(node, Leaf):
            for obj in node.objects:
                out[obj] = follow(obj)
        else:
            for child in node.children.values():
                collect(child)

    collect(tree)
    return out


def reference_evaluate(tree: DecisionTree, inst: Instance) -> CostReport:
    """Path costs summed in ``Fraction``s on an explicit stack, checking each
    edge's outcome, then each leaf's objects, then each node's test."""
    per_object: dict[int, Fraction] = {}
    stack: list[tuple[int | None, int, DecisionTree, Fraction]] = [
        (None, 0, tree, Fraction(0))
    ]
    while stack:
        test, outcome, node, acc = stack.pop()
        if test is not None:
            if not 1 <= outcome <= inst.num_outcomes:
                raise ValueError(
                    f"tree references outcome {outcome} outside 1..{inst.num_outcomes}"
                )
            acc += inst.cost(test, outcome)
        if isinstance(node, Leaf):
            for s in node.objects:
                if not 0 <= s < inst.num_objects:
                    raise ValueError(f"tree references unknown object {s}")
                per_object[s] = acc
            continue
        if not 0 <= node.test < inst.num_tests:
            raise ValueError(f"no such test: {node.test}")
        stack.extend(
            (node.test, i, node.children[i], acc)
            for i in sorted(node.children, reverse=True)
        )
    worst = max(per_object.values(), default=Fraction(0))
    expected = sum((cost * inst.priors[s] for s, cost in per_object.items()), Fraction(0))
    return CostReport(worst=worst, expected=expected, per_object=per_object)


def result_or_error(fn, *args, **kwargs):
    """``("ok", result)``, or ``("error", message)`` if ``fn`` raises ValueError."""
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:
        return "error", str(exc)


def reference_criterion_value(
    members: frozenset[int], test: int, inst: Instance, include_empty: bool
) -> Fraction | None:
    """The greedy score as a max of Fractions over a frozenset partition."""
    buckets = partition(members, test, inst)
    total = pair_count(members, inst)
    if total == 0 or separated_pairs(members, test, inst) == 0:
        return None
    outcomes = range(1, inst.num_outcomes + 1) if include_empty else sorted(buckets)
    score = Fraction(0)
    for i in outcomes:
        remaining = pair_count(buckets[i], inst) if i in buckets else 0
        score = max(score, Fraction(inst.cost(test, i), total - remaining))
    return score


def reference_select_test(
    members: frozenset[int], inst: Instance, include_empty: bool
) -> tuple[int, Fraction]:
    """The lowest-scoring test, ties to the smallest id; raises like the library."""
    if inst.is_homogeneous(members):
        raise ValueError("object set holds a single class; no test is needed")
    best = None
    for t in inst.tests:
        score = reference_criterion_value(members, t, inst, include_empty)
        if score is not None and (best is None or score < best[1]):
            best = (t, score)
    if best is None:
        raise ValueError(
            f"objects {sorted(members)} hold more than one class but no test "
            "separates them: incomplete instance"
        )
    return best


def reference_divide_pairs(
    members: frozenset[int],
    inst: Instance,
    include_empty: bool,
    trace: GreedyTrace | None = None,
) -> DecisionTree:
    """The greedy tree by plain recursion, recording steps in pre-order."""
    if inst.is_homogeneous(members):
        return Leaf(class_id=inst.classes[min(members)], objects=members)
    test, score = reference_select_test(members, inst, include_empty)
    buckets = partition(members, test, inst)
    if trace is not None:
        trace.steps.append(
            GreedyStep(
                objects=members,
                test=test,
                ratio=score,
                pairs_before=pair_count(members, inst),
                pairs_after=tuple(pair_count(buckets[i], inst) for i in sorted(buckets)),
            )
        )
    return Internal(
        test=test,
        children={
            i: reference_divide_pairs(buckets[i], inst, include_empty, trace)
            for i in sorted(buckets)
        },
    )


def reference_root_lower_bound(
    members: frozenset[int], inst: Instance, include_empty: bool
) -> Fraction:
    """The root bound from a fresh greedy build below each root bucket."""
    if inst.is_homogeneous(members):
        return Fraction(0)
    test, _ = reference_select_test(members, inst, include_empty)
    buckets = partition(members, test, inst)
    heights = {
        i: inst.cost(test, i)
        + reference_evaluate(
            reference_divide_pairs(buckets[i], inst, include_empty), inst
        ).worst
        for i in sorted(buckets)
    }
    worst = max(sorted(heights), key=lambda i: heights[i])
    total = pair_count(members, inst)
    remaining = pair_count(buckets[worst], inst)
    return Fraction(inst.cost(test, worst) * total, total - remaining)


def _reference_splits(members: frozenset[int], inst: Instance) -> list:
    """Usable tests with their frozenset buckets; raises on an inseparable set."""
    splits = [(t, partition(members, t, inst)) for t in inst.tests]
    splits = [(t, buckets) for t, buckets in splits if len(buckets) >= 2]
    if not splits:
        raise ValueError(
            f"objects {sorted(members)} hold more than one class but no test "
            "separates them: incomplete instance"
        )
    return splits


def _reference_leaf(members: frozenset[int], inst: Instance) -> Leaf:
    return Leaf(class_id=inst.classes[next(iter(members))], objects=members)


def reference_opt(members: frozenset[int], inst: Instance, measure: str, memo: dict):
    """Optimal ``"worst"`` or ``"expected"`` cost as (value, tree), by a
    ``Fraction`` recursion over frozensets memoized in ``memo``; ties go to
    the smallest test id."""
    if members in memo:
        return memo[members]
    if inst.is_homogeneous(members):
        result = (Fraction(0), _reference_leaf(members, inst))
    else:
        result = None
        for t, buckets in _reference_splits(members, inst):
            value = Fraction(0)
            children = {}
            for outcome in sorted(buckets):
                sub_value, children[outcome] = reference_opt(
                    buckets[outcome], inst, measure, memo
                )
                if measure == "worst":
                    value = max(value, inst.cost(t, outcome) + sub_value)
                else:
                    value += inst.mass(buckets[outcome]) * inst.cost(t, outcome) + sub_value
            if result is None or value < result[0]:
                result = (value, Internal(test=t, children=children))
    memo[members] = result
    return result


def reference_budget(
    members: frozenset[int], budget: Fraction, inst: Instance, memo: dict, worst_memo: dict
):
    """Best expected cost as (value, tree) among trees of worst cost at most
    ``budget``, or None if none fits: the DP over (set, budget) pairs."""
    key = (members, budget)
    if key in memo:
        return memo[key]
    if budget < reference_opt(members, inst, "worst", worst_memo)[0]:
        result = None
    elif inst.is_homogeneous(members):
        result = (Fraction(0), _reference_leaf(members, inst))
    else:
        result = None
        for t, buckets in _reference_splits(members, inst):
            total = Fraction(0)
            children = {}
            for outcome in sorted(buckets):
                cost = inst.cost(t, outcome)
                sub = reference_budget(buckets[outcome], budget - cost, inst, memo, worst_memo)
                if sub is None:
                    break
                total += inst.mass(buckets[outcome]) * cost + sub[0]
                children[outcome] = sub[1]
            else:
                if result is None or total < result[0]:
                    result = (total, Internal(test=t, children=children))
    memo[key] = result
    return result


def _reference_path_costs(members: frozenset[int], inst: Instance, memo: dict) -> set:
    """Every root-to-leaf path cost of every canonical tree over the set."""
    if members not in memo:
        if inst.is_homogeneous(members):
            memo[members] = {Fraction(0)}
        else:
            memo[members] = {
                inst.cost(t, outcome) + tail
                for t, buckets in _reference_splits(members, inst)
                for outcome, bucket in buckets.items()
                for tail in _reference_path_costs(bucket, inst, memo)
            }
    return memo[members]


def reference_frontier(members: frozenset[int], inst: Instance) -> list[tuple]:
    """The staircase as (budget, expected) pairs, by probing every realizable
    path cost from the worst-case optimum up with the budget DP."""
    worst_memo: dict = {}
    floor = reference_opt(members, inst, "worst", worst_memo)[0]
    unconstrained = reference_opt(members, inst, "expected", {})[0]
    memo: dict = {}
    points: list[tuple] = []
    for budget in sorted(_reference_path_costs(members, inst, {})):
        if budget < floor:
            continue
        value = reference_budget(members, budget, inst, memo, worst_memo)[0]
        if not points or value < points[-1][1]:
            points.append((budget, value))
        if value == unconstrained:
            break
    return points


def reference_restrict_tree(tree: DecisionTree, keep, inst: Instance) -> DecisionTree:
    """Projection onto ``keep`` by plain recursion, each child's survivors
    found as its leaves' objects; raises like the library."""
    wanted = frozenset(keep)
    if not wanted:
        raise ValueError("cannot restrict a tree to an empty object set")
    root_objects = tree_objects(tree)
    if not wanted <= root_objects:
        missing = sorted(wanted - root_objects)
        raise ValueError(f"objects {missing} are not in the tree")

    def shrink(node: DecisionTree, survivors: frozenset[int]) -> DecisionTree:
        labels = {inst.classes[s] for s in survivors}
        if len(labels) == 1:
            return Leaf(class_id=labels.pop(), objects=survivors)
        live = []
        for outcome in sorted(node.children):
            child = node.children[outcome]
            child_survivors = tree_objects(child) & survivors
            if child_survivors:
                live.append((outcome, child, child_survivors))
        if len(live) == 1:
            return shrink(live[0][1], live[0][2])
        return Internal(
            test=node.test,
            children={outcome: shrink(child, surv) for outcome, child, surv in live},
        )

    return shrink(tree, wanted)


def _reference_crosses(node: DecisionTree, path_cost: Fraction, threshold: Fraction, inst) -> bool:
    """Hand over at a path cost that reached the threshold, or where every
    onward branch would strictly overshoot it."""
    if path_cost >= threshold:
        return True
    return isinstance(node, Internal) and (
        path_cost + min(inst.cost(node.test, i) for i in node.children) > threshold
    )


def reference_find_replaceable(tree: DecisionTree, inst: Instance, threshold) -> list:
    """The hand-over paths, by a recursive pre-order walk."""
    cap = as_fraction(threshold)
    frontier: list[tuple[int, ...]] = []

    def walk(node: DecisionTree, path_cost: Fraction, path: tuple[int, ...]) -> None:
        if _reference_crosses(node, path_cost, cap, inst):
            frontier.append(path)
        elif isinstance(node, Internal):
            for outcome in sorted(node.children):
                cost = path_cost + inst.cost(node.test, outcome)
                walk(node.children[outcome], cost, path + (outcome,))

    walk(tree, Fraction(0), ())
    return frontier


def reference_combine_trees(
    expected_tree: DecisionTree, worst_case_tree: DecisionTree, trade_off, inst: Instance
) -> DecisionTree:
    """The splice by a recursive rebuild that restricts the fallback through
    :func:`reference_restrict_tree` at every hand-over."""
    ratio = as_fraction(trade_off)
    if ratio <= 0:
        raise ValueError(f"trade-off must be positive, got {ratio}")
    threshold = ratio * reference_evaluate(worst_case_tree, inst).worst
    if tree_objects(expected_tree) != tree_objects(worst_case_tree):
        raise ValueError("the two trees cover different object sets")

    def rebuild(node: DecisionTree, path_cost: Fraction) -> DecisionTree:
        if _reference_crosses(node, path_cost, threshold, inst):
            return reference_restrict_tree(worst_case_tree, tree_objects(node), inst)
        if isinstance(node, Leaf):
            return node
        return Internal(
            test=node.test,
            children={
                outcome: rebuild(
                    node.children[outcome], path_cost + inst.cost(node.test, outcome)
                )
                for outcome in sorted(node.children)
            },
        )

    return rebuild(expected_tree, Fraction(0))


def tree_signature(tree: DecisionTree) -> list[tuple]:
    """The tree as a flat pre-order list, ascending by outcome: a leaf is
    ``("leaf", class, objects)`` and an internal node ``("test", test,
    outcomes)``.  Equal trees have equal signatures, and comparing two
    signatures does not recurse once per level as ``==`` on trees does."""
    out: list[tuple] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(("leaf", node.class_id, tuple(sorted(node.objects))))
        else:
            out.append(("test", node.test, tuple(sorted(node.children))))
            stack.extend(node.children[i] for i in sorted(node.children, reverse=True))
    return out


BUILDERS = {
    "greedy": divide_pairs,
    "opt-worst": lambda members, inst: opt_worst(members, inst).tree,
    "opt-expected": lambda members, inst: opt_expected(members, inst).tree,
}

# Prior denominators for ``splice_cases(coprime_priors=True)``: distinct
# primes, so no two priors but the last share a factor.
PRIOR_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def splice_cases(draw, coprime_priors: bool = False):
    """A small instance with random priors, an object subset, and two input
    trees over that subset, each from the greedy or from an exact solver.

    Costs are "p/q" strings with assorted denominators; draws whose subset
    the tests cannot resolve are rejected.  With ``coprime_priors`` all
    priors but the last are ``a/p`` over distinct primes ``p``, and the last
    makes the sum 1.
    """
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 8))
    num_tests = draw(st.integers(2, 6))
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
    if coprime_priors:
        primes = draw(st.permutations(PRIOR_PRIMES))[: n - 1]
        priors = [Fraction(draw(st.integers(1, 2)), p) for p in primes]
        priors.append(1 - sum(priors))
    else:
        weights = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
        priors = [Fraction(w, sum(weights)) for w in weights]
    inst = Instance.create(classes, rows, priors=priors, costs=costs, num_outcomes=k)
    members = draw(
        st.one_of(
            st.just(frozenset(range(n))),
            st.frozensets(st.integers(0, n - 1), min_size=1),
        )
    )
    trees = []
    for _ in ("expected", "worst"):
        built = result_or_error(BUILDERS[draw(st.sampled_from(sorted(BUILDERS)))], members, inst)
        assume(built[0] == "ok")
        trees.append(built[1])
    return inst, members, trees[0], trees[1]


def deep_chain(n: int = 1100) -> tuple[Instance, DecisionTree]:
    """A chain tree n - 1 tests deep over n singleton classes, with its instance.

    Test t isolates object t (answer 2), and the chain applies tests 0, 1, ...
    along answer 1, so every walk that recurses once per level overflows the
    default recursion limit.
    """
    inst = Instance(
        classes=tuple(range(n)),
        num_outcomes=2,
        outcome_table=tuple((1,) * t + (2,) + (1,) * (n - 1 - t) for t in range(n - 1)),
        priors=(Fraction(1, n),) * n,
        cost_table=((Fraction(1), Fraction(1)),) * (n - 1),
    )
    tree: DecisionTree = Leaf(n - 1, frozenset({n - 1}))
    for t in reversed(range(n - 1)):
        tree = Internal(t, {1: tree, 2: Leaf(t, frozenset({t}))})
    return inst, tree


def random_instance(
    rng: random.Random,
    *,
    num_objects: int,
    num_tests: int,
    num_outcomes: int = 2,
    num_classes: int | None = None,
    cost_mode: str = "unit",
    max_cost: int = 8,
) -> Instance | None:
    """Draw a random complete instance, or None if the draw is incomplete.

    Callers should loop until a draw succeeds; with enough tests most draws
    do.  ``cost_mode`` is one of ``unit``, ``fixed`` (one random cost per
    test), or ``value`` (a random cost per test and outcome).
    """
    if num_classes is None:
        num_classes = rng.randint(2, max(2, num_objects))
    num_classes = min(num_classes, num_objects)
    classes = list(range(num_classes)) + [
        rng.randrange(num_classes) for _ in range(num_objects - num_classes)
    ]
    rng.shuffle(classes)
    outcomes = [
        [rng.randint(1, num_outcomes) for _ in range(num_objects)] for _ in range(num_tests)
    ]
    if cost_mode == "unit":
        costs = None
    elif cost_mode == "fixed":
        costs = [rng.randint(1, max_cost) for _ in range(num_tests)]
    elif cost_mode == "value":
        costs = [
            [rng.randint(1, max_cost) for _ in range(num_outcomes)] for _ in range(num_tests)
        ]
    else:
        raise ValueError(f"unknown cost_mode {cost_mode!r}")
    weights = [rng.randint(1, 10) for _ in range(num_objects)]
    total = sum(weights)
    priors = [Fraction(w, total) for w in weights]
    inst = Instance.create(
        classes,
        outcomes,
        priors=priors,
        costs=costs,
        num_outcomes=num_outcomes,
    )
    for a in range(num_objects):
        for b in range(a + 1, num_objects):
            if classes[a] != classes[b] and all(
                row[a] == row[b] for row in outcomes
            ):
                return None
    return inst


def random_complete_instance(rng: random.Random, **kwargs) -> Instance:
    """Like random_instance, but retries until the draw is complete."""
    for _ in range(500):
        inst = random_instance(rng, **kwargs)
        if inst is not None:
            return inst
    raise RuntimeError("could not draw a complete instance; loosen the parameters")


@pytest.fixture
def two_test_example() -> Instance:
    """Three objects, two classes, two hand-picked binary tests.

    Test 0 splits {0} from {1, 2}; test 1 splits {0, 1} from {2}.  Classes
    are 0, 0, 1 so only pairs (0,2) and (1,2) are separable.
    """
    return Instance.create(
        classes=[0, 0, 1],
        outcomes=[[1, 2, 2], [1, 1, 2]],
        priors=["1/2", "1/4", "1/4"],
    )
