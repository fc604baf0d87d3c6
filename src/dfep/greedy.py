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

Scoring runs on a :class:`~dfep.model.Kernel` built once per public call:
buckets are bitmask intersections, class histograms are popcounts, and scores
are integer (numerator, denominator) pairs compared by cross-multiplication,
so the choice is exactly the one the rational scores make.  A score becomes a
``Fraction`` only when it is returned or traced.
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


def _checked_members(objects: Iterable[int], inst: Instance) -> frozenset[int]:
    members = _check_objects(objects, inst)
    if not members:
        raise ValueError("cannot work with an empty object set")
    return members


def _class_parts(kernel: Kernel, group: int) -> list[int]:
    """The node's objects split by class: one nonempty mask per class present."""
    return [part for part in (group & c for c in kernel.class_masks) if part]


def _pairs(counts: list[int]) -> int:
    """Separable pairs among objects with these per-class counts."""
    size = sum(counts)
    return (size * size - sum(c * c for c in counts)) // 2


def _pairs_in(parts: list[int], mask: int = -1) -> int:
    """Separable pairs among the node's objects that ``mask`` keeps."""
    return _pairs([(mask & part).bit_count() for part in parts])


def _score(
    kernel: Kernel, parts: list[int], total: int, test: int, include_empty: bool
) -> tuple[int, int] | None:
    """Score of ``test`` on a node as ``(cost, pairs)``; None if it separates nothing.

    The score is ``cost / (kernel.scale * pairs)``.  ``parts`` are the node's
    class masks and ``total`` its separable pairs; the test is usable exactly
    when its buckets keep fewer than ``total`` pairs between them.
    """
    num, den = 0, 1
    kept = 0
    for mask, cost in zip(kernel.outcome_masks[test], kernel.costs[test]):
        counts = [(mask & part).bit_count() for part in parts]
        if any(counts):
            remaining = _pairs(counts)
            kept += remaining
        elif include_empty:
            remaining = 0
        else:
            continue
        if cost * den > num * (total - remaining):
            num, den = cost, total - remaining
    return None if kept == total else (num, den)


def _best(
    kernel: Kernel, group: int, parts: list[int], include_empty: bool
) -> tuple[int, int, int]:
    """The lowest-scoring test on a mixed node, as ``(test, cost, pairs)``.

    Only a strictly lower score replaces the incumbent, so ties go to the
    smallest test id.
    """
    total = _pairs_in(parts)
    best: tuple[int, int, int] | None = None
    for test in range(len(kernel.costs)):
        score = _score(kernel, parts, total, test, include_empty)
        if score is not None and (best is None or score[0] * best[2] < best[1] * score[1]):
            best = (test, *score)
    if best is None:
        raise ValueError(
            f"objects {sorted(mask_objects(group))} hold more than one class but no "
            "test separates them: incomplete instance"
        )
    return best


def _build(
    kernel: Kernel,
    inst: Instance,
    group: int,
    include_empty: bool,
    trace: GreedyTrace | None,
) -> DecisionTree:
    """The greedy tree over ``group``, built in pre-order on an explicit stack."""
    root: dict[int, DecisionTree] = {}
    stack: list[tuple[int, dict[int, DecisionTree], int]] = [(group, root, 0)]
    while stack:
        group, slot, outcome = stack.pop()
        parts = _class_parts(kernel, group)
        if len(parts) == 1:
            label = inst.classes[(group & -group).bit_length() - 1]
            slot[outcome] = Leaf(class_id=label, objects=mask_objects(group))
            continue
        test, cost, pairs = _best(kernel, group, parts, include_empty)
        buckets = [
            (i, group & mask)
            for i, mask in enumerate(kernel.outcome_masks[test], start=1)
            if group & mask
        ]
        if trace is not None:
            trace.steps.append(
                GreedyStep(
                    objects=mask_objects(group),
                    test=test,
                    ratio=Fraction(cost, kernel.scale * pairs),
                    pairs_before=_pairs_in(parts),
                    pairs_after=tuple(_pairs_in(parts, bucket) for _, bucket in buckets),
                )
            )
        node = Internal(test=test, children={})
        slot[outcome] = node
        # Reversed, so that the lowest outcome is popped (and traced) first.
        stack.extend((bucket, node.children, i) for i, bucket in reversed(buckets))
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
    members = _checked_members(objects, inst)
    if not 0 <= test < inst.num_tests:
        raise ValueError(f"no such test: {test}")
    kernel = Kernel.of(inst)
    parts = _class_parts(kernel, objects_mask(members))
    score = _score(kernel, parts, _pairs_in(parts), test, include_empty_outcomes)
    return None if score is None else Fraction(score[0], kernel.scale * score[1])


def select_test(
    objects: Iterable[int],
    inst: Instance,
    *,
    include_empty_outcomes: bool = True,
) -> tuple[int, Fraction]:
    """The cheapest-progress test for a mixed object set, with its score."""
    members = _checked_members(objects, inst)
    kernel = Kernel.of(inst)
    group = objects_mask(members)
    parts = _class_parts(kernel, group)
    if len(parts) == 1:
        raise ValueError("object set holds a single class; no test is needed")
    test, cost, pairs = _best(kernel, group, parts, include_empty_outcomes)
    return test, Fraction(cost, kernel.scale * pairs)


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
    members = _checked_members(objects, inst)
    return _build(
        Kernel.of(inst), inst, objects_mask(members), include_empty_outcomes, trace
    )


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
    members = _checked_members(objects, inst)
    kernel = Kernel.of(inst)
    group = objects_mask(members)
    parts = _class_parts(kernel, group)
    if len(parts) == 1:
        return Fraction(0)
    tree = _build(kernel, inst, group, include_empty_outcomes, None)
    assert isinstance(tree, Internal)
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
