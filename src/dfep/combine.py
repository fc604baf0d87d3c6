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
expected cost.  It stops at the first candidate that hands nothing over: a
node that does not cross one threshold crosses no larger one, so the rest
are copies of it.

Both, and the experiment runner, splice through ``_splicer``, which prices
the fallback and compares the two trees' object sets once for any number of
thresholds.  Each splice also returns its objects' path costs, recorded by
the walk that builds it, so no result is walked again to be ranked or priced.

The walk that prices the fallback, ``model._price_nodes``, also checks the
sharing rule stated there, which every tree the greedy, the oracle or a
splice builds keeps.  A hand-over then puts in, as it is, the first fallback
node that all of its own objects reach: results share subtrees with the
fallback, so neither tree may be mutated while a result is in use.  A
fallback that breaks the rule is restricted node by node.

A splice checks its inputs only as far as it reads them; the CLI validates
tree files in full.  Of the expected tree it checks each node it copies by
the pricing walk's node rule, each leaf it copies by the sharing rule's leaf
test, and that each hand-over's objects take its path.  Of the fallback it
checks what pricing and restriction read: no leaf may get two classes, nor
an object a missing branch, and a wrong label is restricted away.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from dfep.model import (
    DecisionTree,
    Instance,
    Internal,
    Leaf,
    RationalLike,
    _check_node,
    _price_nodes,
    _restrict,
    _strays,
    _weighed,
    as_fraction,
    tree_objects,
)

__all__ = [
    "combine_trees",
    "combine_uniform",
    "find_replaceable",
    "subtree_at",
]


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
    tree: DecisionTree, threshold: Fraction, inst: Instance, hand_over: Callable[..., tuple]
) -> tuple[DecisionTree, dict[int, int], list[tuple[int, ...]]]:
    """Copy ``tree``, putting ``hand_over(node, path_cost, costs)`` in place
    of each node where the walk crosses ``threshold``; nodes are visited in
    pre-order, ascending by outcome, and none below a handed-over node is
    visited.  Return the copy, each object's path cost in it times ``scale``
    (what ``_price`` gives on the copy), and the handed-over nodes' paths.

    The walk crosses where the path cost has reached the threshold, or where
    it has not but even the cheapest onward branch would strictly overshoot
    it — the last moment a hand-over can happen at-or-under the threshold.
    A copied leaf's objects go into ``costs`` at its path cost, and
    ``hand_over`` returns the subtree to put in and the objects it places,
    whose costs, counted from ``path_cost``, it has put in ``costs``.  The
    first copied leaf or hand-over that fails its check (see the module
    docstring) is refused once the walk is done, so that a node the walk
    cannot take is named first; a leaf's strays are named before its label.
    """
    kernel = inst.kernel
    prices, answers = kernel.costs, kernel.outcome_masks
    outcomes = frozenset(range(1, inst.num_outcomes + 1))
    labels = dict(zip(sorted(set(inst.classes)), kernel.class_masks))
    # Path costs are integers times ``scale``, so a path reaches the
    # threshold p/q where ``path * q >= p * scale``.
    q, bar = threshold.denominator, threshold.numerator * kernel.scale
    costs: dict[int, int] = {}
    frontier: list[tuple[int, ...]] = []
    # The first refused placement: its objects, path mask, path and node.
    fault: tuple | None = None
    # Each entry copies ``node`` into ``slot[key]``; ``mask`` holds the
    # objects that take ``path``, that is, answer every branch on it.
    root: dict[int, DecisionTree] = {}
    stack = [(tree, 0, (), (1 << inst.num_objects) - 1, root, 0)]
    while stack:
        node, path_cost, path, mask, slot, key = stack.pop()
        if path_cost * q < bar and isinstance(node, Leaf):
            slot[key] = node
            placed = node.objects
            costs.update(dict.fromkeys(placed, path_cost))
            refused = fault is None and _strays(placed, mask, labels, node.class_id)
        else:
            if path_cost * q < bar:
                _check_node(node, inst, outcomes)
                row, split, below = prices[node.test], answers[node.test], node.children
                if below and (path_cost + min(row[i - 1] for i in below)) * q <= bar:
                    children: dict = dict.fromkeys(sorted(below))
                    slot[key] = Internal(test=node.test, children=children)
                    stack.extend(
                        (below[i], path_cost + row[i - 1], path + (i,), mask & split[i - 1],
                         children, i)
                        for i in reversed(children)
                    )
                    continue
            # A node with no branches cannot be copied, and handed over it holds no objects.
            if isinstance(node, Internal) and not node.children:
                raise ValueError(f"invalid tree: test {node.test} has no branches")
            frontier.append(path)
            slot[key], placed = hand_over(node, path_cost, costs)
            refused = fault is None and _strays(placed, mask)
        if refused:
            fault = placed, mask, path, node
    if fault:
        placed, mask, path, node = fault
        # By type name first: ids of two types, such as 1 and "2", need not compare.
        wrong = sorted(_strays(placed, mask), key=lambda s: (type(s).__name__, s))
        if wrong:
            raise ValueError(f"invalid tree: objects {wrong} lie at path {path} but do not take it")
        raise ValueError(f"invalid tree: leaf at path {path} has wrong label {node.class_id!r}")
    return root[0], costs, frontier


def find_replaceable(
    tree: DecisionTree, inst: Instance, threshold: RationalLike
) -> list[tuple[int, ...]]:
    """The hand-over frontier: outcome paths where the threshold is crossed.

    A node's path cost is the sum of branch costs on the edges from the root
    through the edge entering it (its own test is not yet paid; the root's
    path cost is 0).  Returned paths are in pre-order, ascending by outcome,
    and form an antichain: no returned node lies below another, and every
    leaf whose path cost reaches the threshold has exactly one returned
    ancestor-or-self.  A leaf above the frontier that fails the sharing
    rule's leaf test is refused; nodes on the frontier are not walked.
    """
    return _splice(tree, as_fraction(threshold), inst, lambda node, *_: (node, ()))[2]


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
    ratio = as_fraction(trade_off)
    if ratio <= 0:
        raise ValueError(f"trade-off must be positive, got {ratio}")
    reference, splice = _splicer(expected_tree, worst_case_tree, inst)
    return splice(ratio * Fraction(reference, inst.kernel.scale))[0]


def _splicer(
    expected_tree: DecisionTree, worst_case_tree: DecisionTree, inst: Instance
) -> tuple[int, Callable[[Fraction], tuple]]:
    """The fallback's worst-case cost times ``inst.kernel.scale``, and the
    splice of the two trees at a given threshold, after the object-set check."""
    # One walk prices the fallback and, if it keeps the sharing rule, indexes its nodes.
    shared = _price_nodes(worst_case_tree, inst)
    fallback_costs = shared[0]
    reference = max(fallback_costs.values(), default=0)
    if tree_objects(expected_tree) != fallback_costs.keys():
        raise ValueError("the two trees cover different object sets")

    def fallback(node: DecisionTree, base: int, costs: dict[int, int]) -> tuple:
        # ``node`` holds some of the fallback's objects: restrict_tree's checks hold.
        survivors = tree_objects(node)
        return _restrict(worst_case_tree, survivors, inst, base, costs, shared), survivors

    return reference, lambda threshold: _splice(expected_tree, threshold, inst, fallback)


def _has_unit_prices(inst: Instance) -> bool:
    return all(c == 1 for row in inst.cost_table for c in row)


def _window(reference: int, numerator: int) -> range:
    """The sweep's threshold numerators for trade-off i/W, ``i = numerator``:
    ceil(i²/(2i+2W)) up to i, never empty since the low end is at most i."""
    if isinstance(numerator, bool):
        raise TypeError(f"trade-off numerator must be an integer, got {numerator!r}")
    numerator = operator.index(numerator)
    if numerator < 1:
        raise ValueError(f"trade-off numerator must be a positive integer, got {numerator}")
    return range(-(-(numerator * numerator) // (2 * numerator + 2 * reference)), numerator + 1)


def _sweep(
    splice: Callable[[Fraction], tuple], reference: int, numerator: int, inst: Instance
) -> tuple[DecisionTree, dict[int, int]]:
    """The unit-cost splice with the smallest expected cost over the window,
    and its path costs.  A node that does not cross a threshold crosses no
    larger one, so every splice after the first that hands nothing over is an
    equal copy, which cannot win a tie: the sweep stops there."""

    def candidates() -> Iterator[tuple[DecisionTree, dict[int, int]]]:
        # The threshold ``Fraction(i, W) * W`` of trade-off i/W is ``i`` itself.
        for i in _window(reference, numerator):
            tree, costs, frontier = splice(Fraction(i))
            yield tree, costs
            if not frontier:
                return

    # ``min`` keeps the first of equal keys, so ties go to the smallest numerator.
    return min(candidates(), key=lambda candidate: _weighed(candidate[1], inst))


def combine_uniform(
    expected_tree: DecisionTree,
    worst_case_tree: DecisionTree,
    rho_numerator: int,
    inst: Instance,
) -> DecisionTree:
    """Best-of-window splice for unit-cost instances.

    With every test costing exactly 1, thresholds only matter at integer
    values, so instead of one splice this sweeps the numerators in the
    resolved window, builds one candidate per threshold up to the first that
    equals ``expected_tree``, and returns the candidate with the smallest
    expected cost (ties: smallest numerator).
    The returned tree's worst-case cost is at most ``rho_numerator`` more
    than the fallback's, and the window's lower end is chosen so that the
    expected-cost factor improves on the single-splice cap — for a trade-off
    of 2 it drops from 3/2 to 5/4.
    """
    if not _has_unit_prices(inst):
        raise ValueError("the uniform variant requires unit costs")
    # Unit costs: path costs are integers at scale 1.
    reference, splice = _splicer(expected_tree, worst_case_tree, inst)
    if reference < 1:
        raise ValueError(
            f"fallback tree needs a positive integer worst-case cost, got {reference}"
        )
    return _sweep(splice, reference, rho_numerator, inst)[0]
