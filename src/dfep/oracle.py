"""Exact baselines: optimal trees by exhaustive dynamic programming.

These solvers exist to judge the fast algorithms, not to be fast themselves.
All of them run on one table, built on ``inst.kernel`` by an explicit stack:
every object subset that usable tests reach from the input set, listed once
with its splits, children before parents.  A subset is a bitmask, its bucket
under a test is one AND, and costs and priors are integers scaled from the
exact rationals.  Each solver is a short bottom-up fold over that table: plain
dict reads of the children's values, each subset's prior mass summed once, and
trees spelled on an explicit stack for the input set's winners only.  The
table is exponential, so it refuses sets larger than a small cap.  Each public
call builds its own table; ``_optima`` scores each split for both optima in
one walk of its buckets, or for the one asked for alone.  Everything returns
exact rationals and a witness tree alongside the optimal value.

Provided here:

* :func:`opt_worst` / :func:`opt_expected` — minimum worst-case / expected
  cost over all valid trees.
* :func:`pareto_frontier` — the full worst-vs-expected trade-off staircase,
  built bottom-up from the Pareto set of (worst, expected) pairs of every
  subset.  No point of a split is below its corner, its buckets' least worst
  and least expected joined.  Splits join by ascending corner, those a found
  point beats or ties from a lower test are skipped, and the kept points go
  back in test order, so ties still go to the lowest test.
* :func:`opt_expected_under_budget` — minimum expected cost among trees whose
  worst-case cost stays within a budget (None when the budget is infeasible),
  read off the frontier.
* :func:`harmonic` — exact harmonic numbers, used by guarantee checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Any, Iterable

from dfep.model import (
    DecisionTree,
    Instance,
    Internal,
    Leaf,
    RationalLike,
    _check_objects,
    _incomplete,
    as_fraction,
    mask_objects,
    objects_mask,
)

__all__ = [
    "DP_OBJECT_LIMIT",
    "FrontierPoint",
    "OracleResult",
    "harmonic",
    "opt_expected",
    "opt_expected_under_budget",
    "opt_worst",
    "pareto_frontier",
]

DP_OBJECT_LIMIT = 14


@dataclass(frozen=True)
class OracleResult:
    """An exact optimum: its value, one optimal tree, and the search size.

    ``explored`` counts the distinct object subsets in the solver's table,
    which makes regressions in pruning visible in tests.
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
    common = lcm(*range(1, k + 1))
    return Fraction(sum(common // i for i in range(1, k + 1)), common)


def _table(objects: Iterable[int], inst: Instance) -> list:
    """Every subset that usable tests reach from the object set, paired with
    its splits, children before parents and the object set last.

    A split is ``(test, buckets)``, one bucket mask per outcome (empty ones
    included), for each test with two or more nonempty buckets, in ascending
    test id.  A single-class subset has no splits.  Subsets are entered depth
    first by ascending test and outcome, so of several inseparable mixed
    subsets the first one entered is reported.
    """
    members = _check_objects(objects, inst)
    if not members:
        raise ValueError("oracle needs a nonempty object set")
    if len(members) > DP_OBJECT_LIMIT:
        raise ValueError(
            f"instance too large for exact oracle: {len(members)} objects "
            f"(limit {DP_OBJECT_LIMIT})"
        )
    kernel = inst.kernel
    owner = [0] * inst.num_objects  # each object's class mask
    for part in kernel.class_masks:
        for s in mask_objects(part):
            owner[s] = part
    table: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    stack = [(objects_mask(members), list(enumerate(kernel.outcome_masks)))]
    while stack:
        mask, tests = stack.pop()
        if mask in table:
            continue
        if mask & owner[(mask & -mask).bit_length() - 1] == mask:
            table[mask] = []
            continue
        # Only a test that splits the parent can split the subset, and the
        # parent's buckets under it cut the subset as the test's own row does.
        table[mask] = splits = [
            (test, buckets)
            for test, row in tests
            if mask not in (buckets := tuple(map(mask.__and__, row)))
        ]
        if not splits:
            raise _incomplete(mask)
        stack.extend(
            (b, splits)
            for _, buckets in reversed(splits)
            for b in reversed(buckets)
            if b and b not in table
        )
    return sorted(table.items(), key=lambda entry: entry[0].bit_count())


def _masses(inst: Instance, rows: list) -> dict[int, int]:
    """The prior mass of each subset in ``rows``, and of the empty one, in
    the kernel's weights: an integer times ``weight_scale``."""
    weights = inst.kernel.weights
    mass = {0: 0}
    for mask, _ in rows:
        total, rest = 0, mask
        while rest:
            low = rest & -rest
            total += weights[low.bit_length() - 1]
            rest ^= low
        mass[mask] = total
    return mass


def _tree(witness: Any, inst: Instance, choice: dict[int, tuple]) -> DecisionTree:
    """The tree a witness spells.  A witness is an object mask, which takes
    its split in ``choice`` if it has one and is a leaf otherwise, or
    ``(test, ((outcome, witness), ...))`` with one entry per nonempty bucket."""
    # Each entry spells ``node`` into ``slot[key]``.
    root: dict[int, DecisionTree] = {}
    stack = [(witness, root, 0)]
    while stack:
        node, slot, key = stack.pop()
        if not isinstance(node, tuple):
            if node not in choice:
                label = inst.classes[(node & -node).bit_length() - 1]
                slot[key] = Leaf(class_id=label, objects=mask_objects(node))
                continue
            test, buckets = choice[node]
            node = test, [(i, b) for i, b in enumerate(buckets, start=1) if b]
        test, kids = node
        children: dict = dict.fromkeys(i for i, _ in kids)
        slot[key] = Internal(test=test, children=children)
        stack.extend((sub, children, i) for i, sub in kids)
    return root[0]


def _optima(
    objects: Iterable[int], inst: Instance, *, worst: bool = True, expected: bool = True
) -> list[OracleResult]:
    """The optimum of each measure asked for, worst-case first, from one table
    and one pass: one walk of a split's buckets scores it for both, the largest
    ``cost + worst`` over its nonempty buckets and the sum of ``mass * cost +
    expected``.  Each measure keeps its first least split, so ties go to the
    lowest test id; a measure not asked for is neither scored nor spelled, and
    prior masses are summed only for the expected cost."""
    rows, kernel = _table(objects, inst), inst.kernel
    costs, root = kernel.costs, rows[-1][0]
    mass = _masses(inst, rows) if expected else {}
    # Per measure, each subset's optimum and its chosen split.
    worst_of, worst_choice, expected_of, expected_choice = {0: 0}, {}, {0: 0}, {}
    for mask, splits in rows:
        best_worst = best_expected = None
        for split in splits:
            high, total = None, 0
            for cost, b in zip(costs[split[0]], split[1]):
                if b:
                    if worst:
                        score = cost + worst_of[b]
                        if high is None or score > high:
                            high = score
                    if expected:
                        total += mass[b] * cost + expected_of[b]
            if worst and (best_worst is None or high < best_worst):
                best_worst, worst_choice[mask] = high, split
            if expected and (best_expected is None or total < best_expected):
                best_expected, expected_choice[mask] = total, split
        # A single-class subset has no splits and costs nothing.
        worst_of[mask], expected_of[mask] = best_worst or 0, best_expected or 0
    folds = [(worst_of, kernel.scale, worst_choice)] if worst else []
    if expected:
        folds.append((expected_of, kernel.scale * kernel.weight_scale, expected_choice))
    return [
        OracleResult(Fraction(value[root], scale), _tree(root, inst, choice), len(rows))
        for value, scale, choice in folds
    ]


def opt_worst(objects: Iterable[int], inst: Instance) -> OracleResult:
    """Minimum worst-case cost of any valid tree over the given objects."""
    return _optima(objects, inst, expected=False)[0]


def opt_expected(objects: Iterable[int], inst: Instance) -> OracleResult:
    """Minimum prior-weighted expected cost of any valid tree."""
    return _optima(objects, inst, worst=False)[0]


def _staircase(points: list[tuple[int, int, Any]]) -> list[tuple[int, int, Any]]:
    """The (worst, expected, witness) points no other point beats on both
    measures, by ascending worst; of equal points the first stays."""
    if len(points) < 2:
        return points
    out: list[tuple[int, int, Any]] = []
    for point in sorted(points, key=itemgetter(0, 1)):
        if not out or point[1] < out[-1][1]:
            out.append(point)
    return out


def _frontier(objects: Iterable[int], inst: Instance) -> tuple[list[FrontierPoint], int]:
    """The frontier of the object set, and the number of subsets explored.

    Points carry witnesses as :func:`_tree` reads them; only the object
    set's winners become trees.
    """
    rows, kernel = _table(objects, inst), inst.kernel
    mass, costs = _masses(inst, rows), kernel.costs
    points: dict[int, list[tuple[int, int, Any]]] = {}
    # Each subset's least worst and least expected, read off its staircase.
    least: dict[int, tuple[int, int]] = {}
    for mask, splits in rows:
        if not splits:
            points[mask], least[mask] = [(0, 0, mask)], (0, 0)
            continue
        # A split's corner (high, total) joins its buckets' least pairs: none
        # of its points is below it, as high starts at 0 like their worst.
        corners = []
        for rank, (test, buckets) in enumerate(splits):
            high = total = 0
            for cost, b in zip(costs[test], buckets):
                if b:
                    low, floor = least[b]
                    if cost + low > high:
                        high = cost + low
                    total += mass[b] * cost + floor
            corners.append((total, high, rank))
        # Splits join by ascending corner, skipping one if a point found so far
        # is at or below its corner and from a lower test or off the corner:
        # each of its points is then beaten, or ties a lower test's point.
        found, joined = [], [()] * len(splits)
        for total, high, rank in sorted(corners):
            for worst, expected, r in found:
                if worst <= high and expected <= total and (
                    r < rank or worst < high or expected < total
                ):
                    break
            else:
                test, buckets = splits[rank]
                # A split's worst is max(cost_i + worst_i) and its expected
                # is sum(mass_i * cost_i + expected_i), both monotone in
                # every child's pair, so the buckets join one at a time and a
                # partial point beaten on both measures is dropped at once:
                # it only leads to beaten trees.
                partial: list[tuple[int, int, tuple]] = [(0, 0, ())]
                for i, (cost, b) in enumerate(zip(costs[test], buckets), start=1):
                    if b:
                        toll = mass[b] * cost
                        partial = _staircase(
                            [
                                (
                                    max(worst, cost + sub_worst),
                                    expected + toll + sub_expected,
                                    kids + ((i, sub),),
                                )
                                for worst, expected, kids in partial
                                for sub_worst, sub_expected, sub in points[b]
                            ]
                        )
                found += [(worst, expected, rank) for worst, expected, _ in partial]
                joined[rank] = [(w, e, (test, kids)) for w, e, kids in partial]
        # Kept points go back in test order: of equal points the lowest test's stays first.
        points[mask] = staircase = _staircase([point for part in joined for point in part])
        least[mask] = staircase[0][0], staircase[-1][1]
    frontier = [
        FrontierPoint(
            Fraction(worst, kernel.scale),
            Fraction(expected, kernel.scale * kernel.weight_scale),
            _tree(witness, inst, {}),
        )
        for worst, expected, witness in points[rows[-1][0]]
    ]
    return frontier, len(rows)


def opt_expected_under_budget(
    objects: Iterable[int],
    inst: Instance,
    budget: RationalLike | None,
) -> OracleResult | None:
    """Best expected cost among trees whose worst-case cost is within budget.

    ``budget`` is read by :func:`dfep.model.as_fraction`; ``budget=None``
    lifts the constraint entirely.  Returns None exactly when the budget is
    below the optimal worst-case cost, i.e. no valid tree fits.
    """
    if budget is None:
        return opt_expected(objects, inst)
    frontier, explored = _frontier(objects, inst)
    cap = as_fraction(budget)
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

