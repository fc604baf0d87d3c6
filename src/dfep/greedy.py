"""Greedy tree construction driven by cost per separated pair.

The builder works top-down.  At a node holding object set G it scores every
usable test (one that separates at least one pair of G) by its worst-case
price of progress

    max over outcomes i of   cost(t, i) / (pairs(G) - pairs(G_i)),

where ``G_i`` is the bucket of objects answering ``i`` — so the denominator is
the number of separable pairs that answering ``i`` would resolve — and commits
to the test minimizing that score.  Because each answer's cost may differ,
a test can look cheap on one branch and ruinous on another; taking the max
makes the score honest about the bad branch.

Outcomes that no object of G produces are, by default, still scored (they
contribute ``cost/pairs(G)``, i.e. full price for zero progress); pass
``include_empty_outcomes=False`` to score only outcomes that can actually
occur.  Both variants are deterministic: score ties break toward the smallest
test id.

Scoring runs on the instance's :class:`~dfep.model.Kernel`, ``inst.kernel``:
buckets are bitmask intersections, class histograms are popcounts, and scores
are integer (numerator, denominator) pairs compared by cross-multiplication,
so the choice is exactly the one the rational scores make.  A score becomes a
``Fraction`` only when it is returned or traced.

Each node scores tests in ascending ``(floor, id)`` and stops at the first
that cannot win.  A test's floor is its largest scaled price, or with empty
outcomes not scored its second smallest (0 for a row of fewer than two); no
test that splits a mixed node of ``P`` separable pairs scores below
``floor / P``.  Proof: the running max starts at 0, so a negative floor bounds
trivially.  Else some charged outcome costs at least ``floor`` against at most
``P`` resolved pairs: with empty outcomes scored every outcome is charged (an
empty one against exactly ``P``), and without them the split answers at least
two outcomes, the dearer of which costs at least the second smallest price.
Scanning stops at the first test with ``floor / P`` above the best score so
far, or equal to it with a higher id than the best test: it and every later
test lose.  A scored test becomes the best when its score is lower, or equal
with a lower id, so the choice is the ascending-id scan's first minimum.  A
test that does not split a mixed node separates none of its pairs and splits
none of its descendants, so each child inherits, in order and minus the
chosen test, the tests that split its parent and then the unscored tail,
which it checks again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from dfep.model import (
    DecisionTree,
    Instance,
    Internal,
    Kernel,
    Leaf,
    _check_objects,
    _check_test,
    _incomplete,
    _price,
    mask_objects,
    objects_mask,
)

__all__ = [
    "GreedyStep",
    "GreedyTrace",
    "criterion_value",
    "divide_pairs",
    "root_lower_bound",
    "select_test",
]


@dataclass(frozen=True)
class GreedyStep:
    """One committed split: where it happened, what was chosen, and why.

    ``pairs_after`` lists the separable pairs left inside each nonempty
    branch, in ascending outcome order; the difference between
    ``pairs_before`` and their sum is what the chosen test resolved.
    """

    objects: frozenset[int]
    test: int
    ratio: Fraction
    pairs_before: int
    pairs_after: tuple[int, ...]

    @property
    def pairs_separated(self) -> int:
        return self.pairs_before - sum(self.pairs_after)


@dataclass
class GreedyTrace:
    """Every split of one build, in pre-order (ascending outcomes)."""

    steps: list[GreedyStep] = field(default_factory=list)


def _group(objects: Iterable[int], inst: Instance, *tests: int) -> tuple[Kernel, int, list[int]]:
    """The instance's kernel, the object set as a mask, and its class parts;
    the objects are checked first, then ``tests``."""
    members = _check_objects(objects, inst)
    if not members:
        raise ValueError("cannot work with an empty object set")
    for test in tests:
        _check_test(test, inst)
    group = objects_mask(members)
    return inst.kernel, group, _class_parts(inst.kernel, group)


def _class_parts(kernel: Kernel, group: int) -> list[int]:
    """The node's objects split by class: one nonempty mask per class present."""
    return [part for part in (group & c for c in kernel.class_masks) if part]


def _pairs_in(parts: list[int], mask: int = -1) -> int:
    """Separable pairs among the node's objects that ``mask`` keeps."""
    counts = [(mask & part).bit_count() for part in parts]
    return (sum(counts) ** 2 - sum(c * c for c in counts)) // 2


def _offer(kernel: Kernel, include_empty: bool) -> list[tuple[int, int]]:
    """Every test as ``(floor, test)``, in the ascending order nodes scan."""
    nth = -1 if include_empty else 1
    floors = (sorted(row)[nth] if len(row) > 1 else 0 for row in kernel.costs)
    return sorted(zip(floors, range(len(kernel.costs))))


def _best(
    kernel: Kernel, group: int, parts: list[int], tests: list[tuple[int, int]], include_empty: bool
) -> tuple[tuple[int, int, int] | None, list[tuple[int, int]]]:
    """The lowest-scoring of ``tests`` (``(floor, test)`` pairs in ascending
    order) on a mixed node, and those to offer its children.

    The lowest is ``(test, cost, pairs)`` for the score ``cost / (kernel.scale
    * pairs)``, or None if no test splits; of equal scores the lowest id wins.
    The scan stops at the first test whose floor shows that it loses to the
    best so far, and offers it and every later test unscored, after the
    scanned tests that split.
    """
    total = _pairs_in(parts)
    best: tuple[int, int, int] | None = None
    splitting: list[tuple[int, int]] = []
    offered = iter(tests)
    for floor, test in offered:
        if best is not None and (floor * best[2], test) > (best[1] * total, best[0]):
            splitting.append((floor, test))
            splitting.extend(offered)
            break
        num, den = 0, 1
        for mask, cost in zip(kernel.outcome_masks[test], kernel.costs[test]):
            bucket = group & mask
            if bucket == group:
                break
            if bucket:
                kept = bucket.bit_count() ** 2
                for part in parts:
                    kept -= (bucket & part).bit_count() ** 2
                gain = total - kept // 2
            elif include_empty:
                gain = total
            else:
                continue
            if cost * den > num * gain:
                num, den = cost, gain
        else:
            splitting.append((floor, test))
            if best is None or (num * best[2], test) < (best[1] * den, best[0]):
                best = (test, num, den)
    return best, splitting


def _build(
    inst: Instance, group: int, include_empty: bool, trace: GreedyTrace | None
) -> DecisionTree:
    """The greedy tree over ``group``, built in pre-order on an explicit stack."""
    kernel = inst.kernel
    root: dict[int, DecisionTree] = {}
    stack: list[tuple] = [(group, root, 0, _offer(kernel, include_empty))]
    while stack:
        group, slot, outcome, tests = stack.pop()
        parts = _class_parts(kernel, group)
        if len(parts) == 1:
            label = inst.classes[(group & -group).bit_length() - 1]
            slot[outcome] = Leaf(class_id=label, objects=mask_objects(group))
            continue
        best, splitting = _best(kernel, group, parts, tests, include_empty)
        if best is None:
            raise _incomplete(group)
        test, cost, pairs = best
        masks = kernel.outcome_masks[test]
        buckets = [(i, group & mask) for i, mask in enumerate(masks, start=1) if group & mask]
        if trace is not None:
            ratio = Fraction(cost, kernel.scale * pairs)
            before, after = _pairs_in(parts), tuple(_pairs_in(parts, b) for _, b in buckets)
            trace.steps.append(GreedyStep(mask_objects(group), test, ratio, before, after))
        node = Internal(test=test, children={})
        slot[outcome] = node
        inherited = [pair for pair in splitting if pair[1] != test]
        # Reversed, so that the lowest outcome is popped (and traced) first.
        stack.extend((bucket, node.children, i, inherited) for i, bucket in reversed(buckets))
    return root[0]


def criterion_value(
    objects: Iterable[int],
    test: int,
    inst: Instance,
    *,
    include_empty_outcomes: bool = True,
) -> Fraction | None:
    """Score one test on one object set; None if the test separates nothing.

    Lower is better.  The score of a usable test is always finite: an outcome
    that keeps every pair together would make progress zero, but a usable
    test has no such outcome among those an object can produce, and empty
    outcomes are charged against all of ``pairs(G)``.
    """
    kernel, group, parts = _group(objects, inst, test)
    if len(parts) == 1:
        return None  # a split of a single-class set resolves no pairs
    best, _ = _best(kernel, group, parts, [(0, test)], include_empty_outcomes)
    return None if best is None else Fraction(best[1], kernel.scale * best[2])


def select_test(
    objects: Iterable[int],
    inst: Instance,
    *,
    include_empty_outcomes: bool = True,
) -> tuple[int, Fraction]:
    """The cheapest-progress test for a mixed object set, with its score."""
    kernel, group, parts = _group(objects, inst)
    if len(parts) == 1:
        raise ValueError("object set holds a single class; no test is needed")
    tests = _offer(kernel, include_empty_outcomes)
    best, _ = _best(kernel, group, parts, tests, include_empty_outcomes)
    if best is None:
        raise _incomplete(group)
    return best[0], Fraction(best[1], kernel.scale * best[2])


def divide_pairs(
    objects: Iterable[int],
    inst: Instance,
    *,
    include_empty_outcomes: bool = True,
    trace: GreedyTrace | None = None,
) -> DecisionTree:
    """Build a tree greedily over the given objects.

    Each chosen split separates at least one pair, so the construction always
    terminates in a valid tree.  Pass a :class:`GreedyTrace` to receive the
    per-node decisions.
    """
    _, group, _ = _group(objects, inst)
    return _build(inst, group, include_empty_outcomes, trace)


def root_lower_bound(
    objects: Iterable[int],
    inst: Instance,
    *,
    include_empty_outcomes: bool = True,
) -> Fraction:
    """A certified floor under the best possible worst-case cost.

    Looks at the greedy root test, finds which of its outcomes ends up the
    most expensive once the greedy finishes below it (ties toward the
    smallest outcome), and scales that outcome's cost by how little of the
    pair mass it resolves.  The resulting value never exceeds the worst-case
    cost of the best tree, so it certifies near-optimality whenever the
    greedy lands close to it.
    """
    _, group, parts = _group(objects, inst)
    return _lower_bound(_build(inst, group, include_empty_outcomes, None), parts, inst)


def _lower_bound(tree: DecisionTree, parts: list[int], inst: Instance) -> Fraction:
    """:func:`root_lower_bound` read off an already built greedy tree over
    the objects whose class parts are ``parts``."""
    if isinstance(tree, Leaf):
        return Fraction(0)  # a single class needs no test
    kernel = inst.kernel
    costs = kernel.costs[tree.test]
    # Scaled integer heights; ``max`` sends ties to the smallest outcome.
    heights = {
        i: costs[i - 1] + max(_price(tree.children[i], inst)[0].values())
        for i in sorted(tree.children)
    }
    worst_outcome = max(heights, key=heights.get)
    total = _pairs_in(parts)
    remaining = _pairs_in(parts, kernel.outcome_masks[tree.test][worst_outcome - 1])
    return Fraction(inst.cost(tree.test, worst_outcome) * total, total - remaining)
