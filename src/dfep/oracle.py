"""Exact baselines: optimal trees by exhaustive dynamic programming.

These solvers exist to judge the fast algorithms, not to be fast themselves.
Each is one memoized recursion over the object subsets that usable tests
reach from the input set, run on a :class:`~dfep.model.Kernel`: a subset is a
bitmask, its bucket under a test is one AND, and costs and priors are
integers scaled from the exact rationals.  The solvers differ only in three
small functions handed to that recursion: the value of a leaf, the value of
one split given its children's values, and the pick among a subset's splits.
The recursion is exponential, so the solvers refuse sets larger than a small
cap; every call builds its own kernel and memo.  Everything returns exact
rationals and a witness tree alongside the optimal value.

Provided here:

* :func:`opt_worst` / :func:`opt_expected` — minimum worst-case / expected
  cost over all valid trees.
* :func:`pareto_frontier` — the full worst-vs-expected trade-off staircase,
  built bottom-up from the Pareto set of (worst, expected) pairs of every
  subset.
* :func:`opt_expected_under_budget` — minimum expected cost among trees whose
  worst-case cost stays within a budget (None when the budget is infeasible),
  read off the frontier.
* :func:`enumerate_trees` — every canonical tree over a tiny object set.
* :func:`harmonic` — exact harmonic numbers, used by guarantee checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Callable, Iterable

from dfep.model import (
    DecisionTree,
    Instance,
    Internal,
    Kernel,
    Leaf,
    _check_objects,
    _incomplete,
    _scaled,
    mask_objects,
    objects_mask,
)

__all__ = [
    "DP_OBJECT_LIMIT",
    "ENUMERATION_OBJECT_LIMIT",
    "FrontierPoint",
    "OracleResult",
    "enumerate_trees",
    "harmonic",
    "opt_expected",
    "opt_expected_under_budget",
    "opt_worst",
    "pareto_frontier",
]

DP_OBJECT_LIMIT = 14
ENUMERATION_OBJECT_LIMIT = 6


@dataclass(frozen=True)
class OracleResult:
    """An exact optimum: its value, one optimal tree, and the search size.

    ``explored`` counts distinct object subsets the solver memoized, which
    makes regressions in pruning visible in tests.
    """

    value: Fraction
    tree: DecisionTree
    explored: int


@dataclass(frozen=True)
class FrontierPoint:
    """One step of the trade-off staircase.

    ``budget`` is an achievable worst-case cost, ``expected`` the best
    expected cost attainable without exceeding it, and ``tree`` a witness
    achieving both.
    """

    budget: Fraction
    expected: Fraction
    tree: DecisionTree


def harmonic(k: int) -> Fraction:
    """The k-th harmonic number 1 + 1/2 + ... + 1/k, exactly (0 for k=0)."""
    if k < 0:
        raise ValueError(f"harmonic numbers need k >= 0, got {k}")
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def _recurse(
    objects: Iterable[int],
    inst: Instance,
    limit: int,
    leaf: Callable[[Leaf], Any],
    split: Callable[[int, list[tuple[int, int, int, Any]]], Any],
    pick: Callable[[list[Any]], Any],
) -> tuple[Any, int, int]:
    """The value of the object set, the number of subsets memoized, and the
    scale of the kernel's integer costs.

    A single-class subset is valued by ``leaf`` from its leaf.  A mixed one
    is valued by ``pick`` from the ``split`` values of its usable tests (two
    or more nonempty buckets) in ascending test id; ``split`` gets the test
    and one ``(outcome, cost, bucket, bucket value)`` per bucket, in
    ascending outcome order.
    """
    members = _check_objects(objects, inst)
    if not members:
        raise ValueError("oracle needs a nonempty object set")
    if len(members) > limit:
        raise ValueError(
            f"instance too large for exact oracle: {len(members)} objects "
            f"(limit {limit})"
        )
    kernel = Kernel.of(inst)
    memo: dict[int, Any] = {}

    def visit(mask: int) -> Any:
        if mask in memo:
            return memo[mask]
        if sum(1 for part in kernel.class_masks if part & mask) == 1:
            label = inst.classes[(mask & -mask).bit_length() - 1]
            value = leaf(Leaf(class_id=label, objects=mask_objects(mask)))
        else:
            options = []
            for test, row in enumerate(kernel.outcome_masks):
                buckets = [(i, mask & m) for i, m in enumerate(row, start=1) if mask & m]
                if len(buckets) > 1:
                    costs = kernel.costs[test]
                    parts = [(i, costs[i - 1], b, visit(b)) for i, b in buckets]
                    options.append(split(test, parts))
            if not options:
                raise _incomplete(mask)
            value = pick(options)
        memo[mask] = value
        return value

    value = visit(objects_mask(members))
    # ``visit`` refers to itself; dropping it frees the memo now instead of
    # at the next cyclic garbage collection.
    del visit
    return value, len(memo), kernel.scale


def _weigher(inst: Instance) -> tuple[Callable[[int], int], int]:
    """The prior mass of a subset times ``scale``, an integer, and that scale."""
    scale, (weights,) = _scaled((inst.priors,))

    def weigh(mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += weights[low.bit_length() - 1]
            mask ^= low
        return total

    return weigh, scale


def _no_cost(leaf: Leaf) -> tuple[int, DecisionTree]:
    return 0, leaf


def _first_minimum(options: list[tuple[int, int, list]]) -> tuple[int, DecisionTree]:
    """The cheapest split as (value, tree); ties go to the smallest test id."""
    value, test, parts = min(options, key=itemgetter(0))
    return value, Internal(test=test, children={i: sub[1] for i, _, _, sub in parts})


def opt_worst(objects: Iterable[int], inst: Instance) -> OracleResult:
    """Minimum worst-case cost of any valid tree over the given objects."""

    def split(test: int, parts: list) -> tuple[int, int, list]:
        return max(cost + sub[0] for _, cost, _, sub in parts), test, parts

    (value, tree), explored, scale = _recurse(
        objects, inst, DP_OBJECT_LIMIT, _no_cost, split, _first_minimum
    )
    return OracleResult(value=Fraction(value, scale), tree=tree, explored=explored)


def opt_expected(objects: Iterable[int], inst: Instance) -> OracleResult:
    """Minimum prior-weighted expected cost of any valid tree."""
    weigh, weight_scale = _weigher(inst)

    def split(test: int, parts: list) -> tuple[int, int, list]:
        return sum(weigh(b) * cost + sub[0] for _, cost, b, sub in parts), test, parts

    (value, tree), explored, scale = _recurse(
        objects, inst, DP_OBJECT_LIMIT, _no_cost, split, _first_minimum
    )
    return OracleResult(
        value=Fraction(value, scale * weight_scale), tree=tree, explored=explored
    )


def _staircase(points: Iterable[tuple[int, int, Any]]) -> list[tuple[int, int, Any]]:
    """The (worst, expected, witness) points no other point beats on both
    measures, by ascending worst; of equal points the first stays."""
    out: list[tuple[int, int, Any]] = []
    for point in sorted(points, key=itemgetter(0, 1)):
        if not out or point[1] < out[-1][1]:
            out.append(point)
    return out


def _frontier(objects: Iterable[int], inst: Instance) -> tuple[list[FrontierPoint], int]:
    """The frontier of the object set, and the number of subsets memoized."""
    weigh, weight_scale = _weigher(inst)

    def split(test: int, parts: list) -> list[tuple[int, int, DecisionTree]]:
        # A split's worst is max(cost_i + worst_i) and its expected is
        # sum(mass_i * cost_i + expected_i), both monotone in every child's
        # pair, so the buckets join one at a time and a partial point beaten
        # on both measures is dropped at once: it only leads to beaten trees.
        partial: list[tuple[int, int, tuple]] = [(0, 0, ())]
        for _, cost, b, points in parts:
            toll = weigh(b) * cost
            partial = _staircase(
                (max(worst, cost + sub_worst), expected + toll + sub_expected, kids + (sub,))
                for worst, expected, kids in partial
                for sub_worst, sub_expected, sub in points
            )
        outcomes = [i for i, _, _, _ in parts]
        return [
            (worst, expected, Internal(test=test, children=dict(zip(outcomes, kids))))
            for worst, expected, kids in partial
        ]

    points, explored, scale = _recurse(
        objects,
        inst,
        DP_OBJECT_LIMIT,
        lambda leaf: [(0, 0, leaf)],
        split,
        lambda options: _staircase(itertools.chain.from_iterable(options)),
    )
    frontier = [
        FrontierPoint(Fraction(worst, scale), Fraction(expected, scale * weight_scale), tree)
        for worst, expected, tree in points
    ]
    return frontier, explored


def opt_expected_under_budget(
    objects: Iterable[int],
    inst: Instance,
    budget: Fraction | int | None,
) -> OracleResult | None:
    """Best expected cost among trees whose worst-case cost is within budget.

    ``budget=None`` lifts the constraint entirely.  Returns None exactly when
    the budget is below the optimal worst-case cost, i.e. no valid tree fits.
    """
    if budget is None:
        return opt_expected(objects, inst)
    frontier, explored = _frontier(objects, inst)
    cap = Fraction(budget)
    fitting = [point for point in frontier if point.budget <= cap]
    if not fitting:
        return None
    return OracleResult(value=fitting[-1].expected, tree=fitting[-1].tree, explored=explored)


def pareto_frontier(objects: Iterable[int], inst: Instance) -> list[FrontierPoint]:
    """The exact worst-vs-expected trade-off, one point per useful budget.

    Points ascend in budget and strictly descend in expected cost; each
    budget is the worst-case cost of its witness, and no tree beats a point
    on both measures.  The first point's budget is the optimal worst-case
    cost and the last point's expected cost is the unconstrained optimum, so
    the staircase spans the whole trade-off.
    """
    return _frontier(objects, inst)[0]


def enumerate_trees(objects: Iterable[int], inst: Instance) -> list[DecisionTree]:
    """Every canonical valid tree over a small object set.

    Canonical means single-class sets become leaves immediately; with strictly
    positive costs such trees dominate the rest, so minima over this family
    equal minima over all valid trees.  The family is exponential, hence the
    tight object cap.
    """

    def split(test: int, parts: list) -> list[DecisionTree]:
        outcomes = [i for i, _, _, _ in parts]
        return [
            Internal(test=test, children=dict(zip(outcomes, combo)))
            for combo in itertools.product(*(trees for _, _, _, trees in parts))
        ]

    trees, _, _ = _recurse(
        objects,
        inst,
        ENUMERATION_OBJECT_LIMIT,
        lambda leaf: [leaf],
        split,
        lambda options: list(itertools.chain.from_iterable(options)),
    )
    return trees
