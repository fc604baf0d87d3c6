"""Blending two decision trees into one with both costs under control.

Given one tree built for low expected cost and one built for low worst-case
cost, :func:`combine_trees` produces a tree that follows the first until the
accumulated path cost crosses a threshold, then falls back to (a restriction
of) the second.  With threshold ``trade_off * worst_reference`` this caps the
expected cost at ``(1 + 1/trade_off)`` times the first tree's — always — and,
whenever every test's price is the same for all of its answers, caps the
worst-case cost at ``(1 + trade_off)`` times the second tree's.  When prices
do depend on the answer, no tree at all may satisfy both caps at once (the
test suite carries a two-object proof), so only the expected-cost cap is
promised there.

:func:`combine_uniform` sharpens the trade-off for unit-cost instances by
sweeping a window of thresholds and keeping the candidate with the lowest
expected cost.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from dfep.model import (
    DecisionTree,
    Instance,
    Internal,
    Leaf,
    RationalLike,
    _price,
    _restrict,
    _scaled,
    as_fraction,
    evaluate,
    tree_objects,
)

__all__ = [
    "CombineParams",
    "UniformCombineParams",
    "combine_trees",
    "combine_uniform",
    "find_replaceable",
    "subtree_at",
]


@dataclass(frozen=True)
class CombineParams:
    """Resolved arithmetic of one splice: trade-off, reference, threshold.

    ``worst_reference`` is recomputed from the fallback tree rather than
    trusted from the caller, and ``threshold`` is exactly their product.
    """

    trade_off: Fraction
    worst_reference: Fraction
    threshold: Fraction

    @classmethod
    def resolve(
        cls,
        worst_case_tree: DecisionTree,
        trade_off: RationalLike,
        inst: Instance,
    ) -> "CombineParams":
        ratio = as_fraction(trade_off)
        if ratio <= 0:
            raise ValueError(f"trade-off must be positive, got {ratio}")
        reference = evaluate(worst_case_tree, inst).worst
        return cls(
            trade_off=ratio,
            worst_reference=reference,
            threshold=ratio * reference,
        )


@dataclass(frozen=True)
class UniformCombineParams:
    """Threshold window for the unit-cost sweep.

    The trade-off is ``rho_numerator / worst_reference``; candidate
    thresholds use the numerators ``window_low .. window_high`` (inclusive),
    with ``window_high == rho_numerator``.
    """

    rho_numerator: int
    worst_reference: int
    window_low: int
    window_high: int

    @classmethod
    def resolve(cls, worst_reference: int, rho_numerator: int) -> "UniformCombineParams":
        if worst_reference < 1:
            raise ValueError(
                f"reference worst-case cost must be a positive integer, "
                f"got {worst_reference}"
            )
        if rho_numerator < 1:
            raise ValueError(
                f"trade-off numerator must be a positive integer, got {rho_numerator}"
            )
        high = rho_numerator
        low = -(-(rho_numerator * rho_numerator) // (2 * rho_numerator + 2 * worst_reference))
        if low > high:
            raise ValueError(
                "trade-off too small for this reference tree: empty threshold window"
            )
        return cls(
            rho_numerator=rho_numerator,
            worst_reference=worst_reference,
            window_low=low,
            window_high=high,
        )

    def window(self) -> Iterator[int]:
        return iter(range(self.window_low, self.window_high + 1))


def subtree_at(tree: DecisionTree, path: Sequence[int]) -> DecisionTree:
    """Follow a sequence of outcomes from the root; () names the root itself."""
    node = tree
    for depth, outcome in enumerate(path):
        if isinstance(node, Leaf):
            raise ValueError(f"path {tuple(path)} descends past a leaf at depth {depth}")
        if outcome not in node.children:
            raise ValueError(
                f"path {tuple(path)}: no branch for outcome {outcome} at depth {depth}"
            )
        node = node.children[outcome]
    return node


def _splice(
    tree: DecisionTree, threshold: Fraction, inst: Instance, hand_over: Callable[..., DecisionTree]
) -> DecisionTree:
    """Copy ``tree``, putting ``hand_over(node, path)`` in place of each node
    where the walk crosses ``threshold``; nodes are visited in pre-order,
    ascending by outcome, and none below a handed-over node is visited.

    The walk crosses where the path cost has reached the threshold, or where
    it has not but even the cheapest onward branch would strictly overshoot
    it — the last moment a hand-over can happen at-or-under the threshold.
    """
    scale, costs = _scaled(inst.cost_table)
    # Path costs are integers times ``scale``, so a path reaches the
    # threshold p/q where ``path * q >= p * scale``.
    q, bar = threshold.denominator, threshold.numerator * scale
    # Each entry copies ``node`` into ``slot[key]``.
    root: dict[int, DecisionTree] = {}
    stack = [(tree, 0, (), root, 0)]
    while stack:
        node, path_cost, path, slot, key = stack.pop()
        if path_cost * q >= bar:
            slot[key] = hand_over(node, path)
        elif isinstance(node, Leaf):
            slot[key] = node
        elif (path_cost + min(costs[node.test][i - 1] for i in node.children)) * q > bar:
            slot[key] = hand_over(node, path)
        else:
            children: dict = dict.fromkeys(sorted(node.children))
            slot[key] = Internal(test=node.test, children=children)
            row = costs[node.test]
            for i in reversed(children):
                stack.append((node.children[i], path_cost + row[i - 1], path + (i,), children, i))
    return root[0]


def find_replaceable(
    tree: DecisionTree, inst: Instance, threshold: RationalLike
) -> list[tuple[int, ...]]:
    """The hand-over frontier: outcome paths where the threshold is crossed.

    A node's path cost is the sum of branch costs on the edges from the root
    through the edge entering it (its own test is not yet paid; the root's
    path cost is 0).  Returned paths are in pre-order, ascending by outcome,
    and form an antichain: no returned node lies below another, and every
    leaf whose path cost reaches the threshold has exactly one returned
    ancestor-or-self.
    """
    frontier: list[tuple[int, ...]] = []

    def record(node: DecisionTree, path: tuple[int, ...]) -> DecisionTree:
        frontier.append(path)
        return node

    _splice(tree, as_fraction(threshold), inst, record)
    return frontier


def combine_trees(
    expected_tree: DecisionTree,
    worst_case_tree: DecisionTree,
    trade_off: RationalLike,
    inst: Instance,
) -> DecisionTree:
    """Splice the fallback tree into the expected tree past the threshold.

    The result follows ``expected_tree`` while the accumulated path cost
    stays under ``trade_off`` times the fallback's worst-case cost, then
    continues as the fallback restricted to the objects still alive.  If the
    expected tree never reaches the threshold the result is a copy of
    ``expected_tree``.

    Every object's path gets at most the fallback's worst-case cost added on
    top of (a prefix of) its original path, which yields the expected-cost
    cap ``(1 + 1/trade_off)``; with answer-independent test prices the splice
    points sit at-or-under the threshold, which also yields the worst-case
    cap ``(1 + trade_off)``.
    """
    params = CombineParams.resolve(worst_case_tree, trade_off, inst)
    return _splicer(expected_tree, worst_case_tree, inst)(params.threshold)


def _splicer(
    expected_tree: DecisionTree, worst_case_tree: DecisionTree, inst: Instance
) -> Callable[[Fraction], DecisionTree]:
    """The splice of the two trees at a given threshold, after the object-set check."""
    if tree_objects(expected_tree) != tree_objects(worst_case_tree):
        raise ValueError("the two trees cover different object sets")

    def fallback(node: DecisionTree, _: tuple[int, ...]) -> DecisionTree:
        # ``node`` holds some of the fallback's objects: restrict_tree's checks hold.
        return _restrict(worst_case_tree, tree_objects(node), inst)

    return lambda threshold: _splice(expected_tree, threshold, inst, fallback)


def combine_uniform(
    expected_tree: DecisionTree,
    worst_case_tree: DecisionTree,
    rho_numerator: int,
    inst: Instance,
) -> DecisionTree:
    """Best-of-window splice for unit-cost instances.

    With every test costing exactly 1, thresholds only matter at integer
    values, so instead of one splice this sweeps the numerators in the
    resolved window, builds one candidate per threshold, and returns the
    candidate with the smallest expected cost (ties: smallest numerator).
    The returned tree's worst-case cost is at most ``rho_numerator`` more
    than the fallback's, and the window's lower end is chosen so that the
    expected-cost factor improves on the single-splice cap — for a trade-off
    of 2 it drops from 3/2 to 5/4.
    """
    for t in inst.tests:
        for cost in inst.cost_table[t]:
            if cost != 1:
                raise ValueError("the uniform variant requires unit costs")
    # Unit costs: path costs are integers at scale 1.
    reference = max(_price(worst_case_tree, inst)[0].values(), default=0)
    if reference < 1:
        raise ValueError(
            f"fallback tree needs a positive integer worst-case cost, got {reference}"
        )
    params = UniformCombineParams.resolve(reference, operator.index(rho_numerator))
    splice = _splicer(expected_tree, worst_case_tree, inst)
    # The threshold ``Fraction(i, W) * W`` of trade-off i/W is ``i`` itself.
    candidates = (splice(Fraction(i)) for i in params.window())
    # ``min`` keeps the first of equal keys, so ties go to the smallest numerator.
    return min(candidates, key=lambda tree: _price(tree, inst)[1])
