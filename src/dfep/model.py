"""Core data model for discrete function evaluation instances and decision trees.

An instance bundles a finite set of objects (identified by dense integers
``0..n-1``), a class label per object, a prior probability per object, and a
collection of tests.  Applying a test to an object yields an outcome in
``1..num_outcomes``, and each (test, outcome) pair carries a strictly positive
cost — so the price of a test may depend on the answer it returns.

A decision tree is an adaptive identification strategy: internal nodes apply
tests, branches follow outcomes, and each leaf holds a nonempty set of objects
that all share one class.  This module provides the tree/instance types plus
the handful of exact-arithmetic primitives everything else builds on:
validation, test-induced partitions, separable-pair counting, cost evaluation,
and tree restriction to a subset of objects.  :class:`Kernel` is the same
instance recast as object bitmasks and integer costs, for hot loops.

All arithmetic is exact (`fractions.Fraction`, or integers scaled from it);
nothing in this module — or in the packages built on it — rounds.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from math import lcm
from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "CostReport",
    "DecisionTree",
    "Instance",
    "Internal",
    "Kernel",
    "Leaf",
    "as_fraction",
    "evaluate",
    "iter_leaves",
    "mask_objects",
    "objects_mask",
    "pair_count",
    "partition",
    "restrict_tree",
    "separated_pairs",
    "tree_objects",
    "unseparated_pairs",
    "validate_instance",
    "validate_tree",
]


# Fraction would also read decimals, exponents, spaces and underscores, and
# expands an exponent in full: "1e999999999" would build a billion-digit int.
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to an exact Fraction.

    A string is an optionally signed integer, or one over a denominator
    written in digits: "3", "-2/6".  Any other string raises ValueError.
    A bool is a flag, not a number, and raises TypeError like other types.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"not an exact rational: {value!r}")
    if not _RATIONAL_TEXT.fullmatch(value):
        raise ValueError(f"not a rational: {value!r} (expected digits or 'p/q')")
    try:
        # The text is checked, so two int() calls replace Fraction's own
        # string parser; they fail where it would, with its message.
        numerator, _, denominator = value.partition("/")
        return Fraction(int(numerator), int(denominator or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {value!r} ({exc})") from None


def _expect_int(raw: Any, where: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"{where}: expected an integer, got {raw!r}")
    return raw


def _expect_str(raw: Any, where: str) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"{where}: expected a string, got {raw!r}")
    return raw


@dataclass(frozen=True)
class Instance:
    """A complete description of one identification problem.

    Fields are stored as dense tuples indexed by object/test id:

    * ``classes[s]`` — class label of object ``s`` (nonnegative int).
    * ``num_outcomes`` — size of the outcome alphabet ``1..num_outcomes``.
    * ``outcome_table[t][s]`` — outcome of test ``t`` on object ``s``.
    * ``priors[s]`` — prior probability of object ``s`` (exact rational).
    * ``cost_table[t][i-1]`` — cost of test ``t`` when it answers ``i``.

    Instances are immutable and safe to share between threads.  Use
    :meth:`create` for friendly coercion from plain lists/ints/strings;
    :func:`validate_instance` is the semantic gatekeeper.
    """

    classes: tuple[int, ...]
    num_outcomes: int
    outcome_table: tuple[tuple[int, ...], ...]
    priors: tuple[Fraction, ...]
    cost_table: tuple[tuple[Fraction, ...], ...]
    name: str | None = None

    @property
    def num_objects(self) -> int:
        return len(self.classes)

    @property
    def num_tests(self) -> int:
        return len(self.outcome_table)

    @property
    def objects(self) -> range:
        """All object ids, as a sequence."""
        return range(self.num_objects)

    @property
    def tests(self) -> range:
        """All test ids, as a sequence."""
        return range(self.num_tests)

    def cost(self, test: int, outcome: int) -> Fraction:
        """Cost charged when ``test`` answers ``outcome`` (1-based)."""
        return self.cost_table[test][outcome - 1]

    @cached_property
    def kernel(self) -> "Kernel":
        """The instance as a :class:`Kernel`, built on first use and kept; the
        instance is frozen, so the kernel never goes stale.  Threads that read
        it first at the same time may each build one, all equal."""
        return Kernel.of(self)

    @classmethod
    def create(
        cls,
        classes: Sequence[int],
        outcomes: Sequence[Sequence[int]],
        *,
        priors: Sequence[RationalLike] | None = None,
        costs: Sequence[RationalLike] | Sequence[Sequence[RationalLike]] | None = None,
        num_outcomes: int | None = None,
        name: str | None = None,
    ) -> "Instance":
        """Build an instance from plain Python values.

        ``costs`` may be omitted (unit costs), given as one value per test
        (outcome-independent), or as one row of per-outcome values per test.
        ``priors`` defaults to uniform.  Classes, outcomes and ``num_outcomes``
        must be ints, not bools: nothing is coerced.  Types and shapes are
        checked here, by validate_instance's rules and with its texts; semantic
        invariants (prior sum, completeness, ...) are validate_instance's job.
        """
        n = len(classes)
        if n == 0:
            raise ValueError("an instance needs at least one object")
        labels, rows = tuple(classes), tuple(map(tuple, outcomes))
        # validate_instance's type rule, before any outcome is compared.
        k = 2 if num_outcomes is None else num_outcomes
        faults = _type_faults(cls(labels, k, rows, (), ()))
        if faults:
            raise ValueError(faults[0])
        if num_outcomes is None:
            num_outcomes = max(2, max((max(row) for row in rows if row), default=2))
        if priors is None:
            prior_row = tuple(Fraction(1, n) for _ in range(n))
        else:
            prior_row = tuple(as_fraction(p) for p in priors)
        if costs is None:
            cost_rows = tuple(tuple(Fraction(1) for _ in range(num_outcomes)) for _ in rows)
        else:
            cost_rows = tuple(
                tuple(as_fraction(c) for c in entry)
                if isinstance(entry, Sequence) and not isinstance(entry, str)
                else tuple(as_fraction(entry) for _ in range(num_outcomes))
                for entry in costs
            )
        inst = cls(
            classes=labels,
            num_outcomes=num_outcomes,
            outcome_table=rows,
            priors=prior_row,
            cost_table=cost_rows,
            name=name,
        )
        faults = _shape_faults(inst)
        if faults:
            raise ValueError(faults[0])
        return inst


def objects_mask(objects: Iterable[int]) -> int:
    """The bitmask of a set of object ids: object ``s`` is bit ``1 << s``."""
    mask = 0
    for s in objects:
        mask |= 1 << s
    return mask


def mask_objects(mask: int) -> frozenset[int]:
    """The object ids whose bits are set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _incomplete(mask: int) -> ValueError:
    """The error for a mixed-class object set that no test splits."""
    return ValueError(
        f"objects {sorted(mask_objects(mask))} hold more than one class but no "
        "test separates them: incomplete instance"
    )


@dataclass(frozen=True)
class Kernel:
    """An instance as object bitmasks and integer costs, for exact hot loops.

    * ``outcome_masks[t][i-1]`` — objects on which test ``t`` answers ``i``.
    * ``class_masks`` — one mask per class, in ascending label order.
    * ``costs[t][i-1]`` — ``cost(t, i) * scale``, an integer, where ``scale``
      is the least common multiple of the cost denominators.
    * ``weights[s]`` — ``priors[s] * weight_scale``, an integer, where
      ``weight_scale`` is the least common multiple of the prior denominators.

    A bucket of a node ``G`` is then ``G & outcome_masks[t][i-1]``, its class
    histogram comes from ``int.bit_count``, and cost ratios compare exactly by
    integer cross-multiplication.  It is derived from the instance alone;
    read it as :attr:`Instance.kernel`, which builds it once per instance.
    """

    outcome_masks: tuple[tuple[int, ...], ...]
    class_masks: tuple[int, ...]
    costs: tuple[tuple[int, ...], ...]
    scale: int
    weights: tuple[int, ...]
    weight_scale: int

    @classmethod
    def of(cls, inst: Instance) -> "Kernel":
        n, k = inst.num_objects, inst.num_outcomes
        tables = _outcome_digits(k) if k <= 255 else ()
        outcome_masks = []
        for t, row in enumerate(inst.outcome_table):
            if not tables:
                outcome_masks.append(_bit_masks(t, row, n, k))
                continue
            try:
                # Object s becomes the s-th byte from the right.
                text = bytes(row)[::-1]
            except (ValueError, TypeError):
                text = b""  # an entry that is not a byte, so not in 1..k
            masks = tuple(int(text.translate(table) or b"0", 2) for table in tables)
            # An entry outside 1..k sets no bit, so the masks miss an object.
            if len(row) != n or sum(m.bit_count() for m in masks) != n:
                raise ValueError(f"outcomes of test {t} are not {n} values in 1..{k}")
            outcome_masks.append(masks)
        # The type rule on what is read below: sorted labels, and exact rationals for _scaled.
        typed = Instance(inst.classes, 2, (), inst.priors, inst.cost_table)
        faults = _shape_faults(inst) or _type_faults(typed)
        if faults:
            raise ValueError(faults[0])
        labels: dict[int, int] = {}
        for s, label in enumerate(inst.classes):
            labels[label] = labels.get(label, 0) | 1 << s
        scale, costs = _scaled(inst.cost_table)
        weight_scale, (weights,) = _scaled((inst.priors,))
        return cls(
            outcome_masks=tuple(outcome_masks),
            class_masks=tuple(labels[label] for label in sorted(labels)),
            costs=tuple(map(tuple, costs)),
            scale=scale,
            weights=tuple(weights),
            weight_scale=weight_scale,
        )


@cache
def _outcome_digits(k: int) -> tuple[bytes, ...]:
    """For each outcome i in 1..k, the byte table that maps i to ``b"1"`` and
    every other byte to ``b"0"``."""
    return tuple(b"0" * i + b"1" + b"0" * (255 - i) for i in range(1, k + 1))


def _bit_masks(t: int, row: Sequence[int], n: int, k: int) -> tuple[int, ...]:
    """Test ``t``'s outcome masks one bit at a time, for more than 255 outcomes."""
    # An outcome outside 1..k would land in the wrong mask unnoticed, and one
    # that is not an int would index none.
    if len(row) != n or not all(isinstance(v, int) and 1 <= v <= k for v in row):
        raise ValueError(f"outcomes of test {t} are not {n} values in 1..{k}")
    masks = [0] * k
    for s, outcome in enumerate(row):
        masks[outcome - 1] |= 1 << s
    return tuple(masks)


def _scaled(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """The least common multiple of the denominators in ``rows``, and the rows
    times it as integers: test prices from the cost table, object weights from the priors."""
    # From a set, whose size is known: CPython keeps a tuple unpacked from a
    # generator of over ten items in a free list until a full collection.
    scale = lcm(*{x.denominator for row in rows for x in row})
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


@dataclass(frozen=True)
class Leaf:
    """Terminal node: a nonempty, single-class set of objects."""

    class_id: int
    objects: frozenset[int]


@dataclass(frozen=True)
class Internal:
    """Internal node: apply ``test`` and descend along the observed outcome.

    ``children`` maps outcome values to subtrees; only outcomes with a
    nonempty bucket appear, and a valid node has at least two of them.  The
    mapping is treated as immutable after construction: a splice may put
    the fallback tree's own nodes, and so their ``children`` mappings, in
    its result, so never mutate one.
    """

    test: int
    children: Mapping[int, "DecisionTree"]


DecisionTree = Union[Leaf, Internal]


def tree_objects(tree: DecisionTree) -> frozenset[int]:
    """The set of objects the tree classifies (union of its leaf sets)."""
    if isinstance(tree, Leaf):
        return tree.objects
    out: set[int] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out |= node.objects
        else:
            stack.extend(node.children.values())
    return frozenset(out)


def iter_leaves(tree: DecisionTree) -> Iterator[Leaf]:
    """Yield leaves in pre-order, visiting outcomes in ascending order."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        else:
            # Reversed, so that the lowest outcome is popped first.
            stack.extend(node.children[i] for i in sorted(node.children, reverse=True))


@dataclass(frozen=True)
class CostReport:
    """Cost of running a tree: per-object path costs plus both aggregates.

    ``worst`` is the maximum per-object path cost; ``expected`` weights each
    path cost by the object's prior (no renormalization, so reports for trees
    over subsets compose additively).
    """

    worst: Fraction
    expected: Fraction
    per_object: Mapping[int, Fraction]


def _check_test(test: int, inst: Instance) -> None:
    if not 0 <= test < inst.num_tests:
        raise ValueError(f"no such test: {test}")


def _check_node(node: Internal, inst: Instance, outcomes: frozenset[int]) -> None:
    """The rule for each internal node a pricing walk visits: a known test,
    then branch keys among ``outcomes``, the instance's ``1..k``."""
    _check_test(node.test, inst)
    if not node.children.keys() <= outcomes:
        # By type name first: keys of two types, such as 1 and "2", need not compare.
        bad = min(node.children.keys() - outcomes, key=lambda i: (type(i).__name__, i))
        raise ValueError(f"tree references outcome {bad!r} outside 1..{inst.num_outcomes}")


def _check_objects(objects: Iterable[int], inst: Instance) -> frozenset[int]:
    out = frozenset(objects)
    bad = [s for s in out if not 0 <= s < inst.num_objects]
    if bad:
        raise ValueError(f"no such object(s): {sorted(bad)}")
    return out


def _shape_faults(inst: Instance) -> list[str]:
    """Each way the tables miss the instance's shape: one prior per object,
    one outcome per object in each test's row, one row of ``num_outcomes``
    prices per test."""
    n, k, rows = inst.num_objects, inst.num_outcomes, inst.cost_table
    faults = []
    if len(inst.priors) != n:
        faults.append(f"priors: expected {n} entries, got {len(inst.priors)}")
    for t, row in enumerate(inst.outcome_table):
        if len(row) != n:
            faults.append(f"outcomes of test {t}: expected {n} entries, got {len(row)}")
    for t, row in enumerate(rows):
        if len(row) != k:
            faults.append(f"costs of test {t}: expected {k} entries, got {len(row)}")
    if len(rows) != inst.num_tests:
        faults.append(f"cost table covers {len(rows)} tests, expected {inst.num_tests}")
    return faults


def _type_faults(inst: Instance) -> list[str]:
    """Each entry of the wrong type, named as by Instance.create's arguments:
    classes, outcomes and the outcome count are ints, and priors and prices
    exact rationals, ints or Fractions; a bool is neither."""
    ints, exact = ((int,), "expected an integer, got"), ((int, Fraction), "not an exact rational:")
    # Each table with the name of its entry s, a template for ``str.format(s)``.
    tables = [("classes[{}]", inst.classes, ints)]
    tables += ((f"outcomes[{t}][{{}}]", row, ints) for t, row in enumerate(inst.outcome_table))
    tables += [("num_outcomes", (inst.num_outcomes,), ints), ("priors[{}]", inst.priors, exact)]
    tables += ((f"costs[{t}][{{}}]", row, exact) for t, row in enumerate(inst.cost_table))
    # A table of exactly those types, the usual case, passes without a Python loop.
    return [f"{name.format(s)}: {text} {v!r}" for name, row, (kinds, text) in tables
            if not set(map(type, row)) <= set(kinds) for s, v in enumerate(row)
            if isinstance(v, bool) or not isinstance(v, kinds)]


def validate_instance(inst: Instance) -> list[str]:
    """Check every instance invariant; return all violations (empty = ok).

    Violations are data, not exceptions: each is a human-readable string
    naming the broken invariant and a witness.  Structural problems (entries
    of the wrong type, then ragged tables) are reported first and suppress
    the semantic checks that would trip over them.
    """
    if inst.num_objects == 0:
        return ["instance has no objects"]
    type_faults = _type_faults(inst)
    if type_faults:
        return type_faults
    faults = _shape_faults(inst)
    if faults:
        return _count_faults(inst) + faults
    return _value_faults(inst)


def _count_faults(inst: Instance) -> list[str]:
    k = inst.num_outcomes
    return [] if k >= 2 else [f"num_outcomes must be at least 2, got {k}"]


def _value_faults(inst: Instance) -> list[str]:
    """validate_instance's checks on tables of the right types and shape, in
    its order: the outcome count, class ids, outcomes, priors, prices and
    completeness.  The instance reader runs only these after
    :meth:`Instance.create`, which has checked the types and shapes."""
    violations = _count_faults(inst)
    for s, cls in enumerate(inst.classes):
        if cls < 0:
            violations.append(f"object {s} has negative class id {cls}")
    k = inst.num_outcomes
    for t, row in enumerate(inst.outcome_table):
        # Rows are nonempty here; only a row out of range is scanned entry by entry.
        if not 1 <= min(row) <= max(row) <= k:
            violations.extend(
                f"outcome of test {t} on object {s} is {outcome}, outside 1..{k}"
                for s, outcome in enumerate(row)
                if not 1 <= outcome <= k
            )
    scale, (weights,) = _scaled((inst.priors,))
    for s, weight in enumerate(weights):
        if weight < 0:
            violations.append(f"prior of object {s} is negative ({inst.priors[s]})")
    if sum(weights) != scale:
        violations.append(f"prior sums to {sum(inst.priors, Fraction(0))}, not 1")
    for t, row in enumerate(inst.cost_table):
        for i, c in enumerate(row, start=1):
            if c <= 0:
                violations.append(f"cost of test {t} on outcome {i} is {c}, not positive")

    # Completeness: objects of different classes must be told apart by a test.
    for a, b in unseparated_pairs(inst.classes, inst.outcome_table):
        violations.append(f"completeness: objects {a} and {b} are never separated")
    return violations


def unseparated_pairs(
    classes: Sequence[int], outcome_rows: Sequence[Sequence[int]]
) -> list[tuple[int, int]]:
    """Every pair ``(a, b)``, ``a < b``, of different-class objects that no
    test tells apart, in ascending order.

    Objects are grouped by their outcome signature (one outcome per test), and
    only objects within a mixed-class group are paired, so the cost is linear
    in the table plus the pairs inside those groups.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    signatures = zip(*outcome_rows) if outcome_rows else [()] * len(classes)
    for s, signature in enumerate(signatures):
        groups.setdefault(signature, []).append(s)
    pairs = [
        (a, b)
        for members in groups.values()
        if len({classes[s] for s in members}) > 1
        for i, a in enumerate(members)
        for b in members[i + 1 :]
        if classes[a] != classes[b]
    ]
    pairs.sort()
    return pairs


def partition(objects: Iterable[int], test: int, inst: Instance) -> dict[int, frozenset[int]]:
    """Split a set of objects by their outcome under one test.

    Returns ``{outcome: bucket}`` with empty buckets omitted and keys in
    ascending outcome order.
    """
    _check_test(test, inst)
    return _split(_check_objects(objects, inst), inst.outcome_table[test])


def _split(members: Iterable[int], row: Sequence[int]) -> dict[int, frozenset[int]]:
    """:func:`partition` of known objects by one test's row of outcomes."""
    buckets: dict[int, set[int]] = {}
    for s in members:
        buckets.setdefault(row[s], set()).add(s)
    return {outcome: frozenset(buckets[outcome]) for outcome in sorted(buckets)}


def pair_count(objects: Iterable[int], inst: Instance) -> int:
    """Number of separable pairs: unordered pairs from different classes."""
    members = _check_objects(objects, inst)
    counts = Counter(inst.classes[s] for s in members)
    total = sum(counts.values())
    return (total * total - sum(c * c for c in counts.values())) // 2


def separated_pairs(objects: Iterable[int], test: int, inst: Instance) -> int:
    """Number of separable pairs the test resolves (differing outcomes).

    Counted directly from a class-by-outcome histogram, so the decomposition
    ``pair_count(G) == separated_pairs(G, t) + sum of pair_count over buckets``
    is a genuine cross-check rather than a restatement.
    """
    _check_test(test, inst)
    members = _check_objects(objects, inst)
    histogram: dict[int, Counter] = {}
    row = inst.outcome_table[test]
    for s in members:
        histogram.setdefault(inst.classes[s], Counter())[row[s]] += 1
    labels = sorted(histogram)
    separated = 0
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            na = sum(histogram[a].values())
            nb = sum(histogram[b].values())
            same_outcome = sum(histogram[a][o] * histogram[b][o] for o in histogram[a])
            separated += na * nb - same_outcome
    return separated


def evaluate(tree: DecisionTree, inst: Instance) -> CostReport:
    """Walk the tree and price every object's root-to-leaf path.

    Each edge leaving a node with test ``t`` along outcome ``i`` contributes
    ``inst.cost(t, i)``; a single leaf therefore costs nothing.  Raises if the
    tree mentions a test or object the instance does not know.
    """
    costs, expected = _price(tree, inst)
    scale = inst.kernel.scale
    shared = {cost: Fraction(cost, scale) for cost in set(costs.values())}
    return CostReport(
        worst=Fraction(max(costs.values(), default=0), scale),
        expected=Fraction(expected, scale * inst.kernel.weight_scale),
        per_object={s: shared[cost] for s, cost in costs.items()},
    )


def _price(tree: DecisionTree, inst: Instance) -> tuple[dict[int, int], int]:
    """:func:`evaluate` in the integers of ``inst.kernel``, with its checks:
    each object's path cost times ``scale`` in evaluate's order, and the
    expected cost times ``scale * weight_scale``."""
    out = _price_nodes(tree, inst, index=False)[0]
    # Summed after the walk: an object in two leaves counts once, at its last.
    return out, _weighed(out, inst)


def _weighed(costs: Mapping[int, int], inst: Instance) -> int:
    """The expected cost of path costs times ``scale``, times ``scale * weight_scale``."""
    weights = inst.kernel.weights
    return sum(cost * weights[s] for s, cost in costs.items())


def validate_tree(tree: DecisionTree, objects: Iterable[int], inst: Instance) -> list[str]:
    """Check that a tree is a valid strategy for the given object set.

    Verifies, per node: leaves are nonempty, homogeneous, and correctly
    labeled; internal nodes have at least two children whose object sets are
    exactly the test-induced partition of the node's set.  Violations are
    returned as strings (empty list = ok).
    """
    violations: list[str] = []
    try:
        expected_root = _check_objects(objects, inst)
    except ValueError as exc:
        return [str(exc)]

    # Pre-order with ascending outcomes, on an explicit stack so that depth
    # is unbounded; each entry carries the objects its node should hold.
    stack: list[tuple[DecisionTree, frozenset[int], str]] = [(tree, expected_root, "root")]
    while stack:
        node, expected, path = stack.pop()
        if isinstance(node, Leaf):
            if node.objects != expected:
                violations.append(
                    f"{path}: leaf holds {sorted(node.objects)} but should hold "
                    f"{sorted(expected)}"
                )
            if not node.objects:
                violations.append(f"{path}: empty leaf")
                continue
            labels = {inst.classes[s] for s in node.objects if 0 <= s < inst.num_objects}
            unknown = [s for s in node.objects if not 0 <= s < inst.num_objects]
            if unknown:
                violations.append(f"{path}: leaf references unknown objects {sorted(unknown)}")
                continue
            if len(labels) > 1:
                violations.append(f"{path}: leaf not homogeneous (classes {sorted(labels)})")
            elif labels != {node.class_id}:
                violations.append(
                    f"{path}: leaf labeled class {node.class_id} but objects are "
                    f"class {labels.pop()}"
                )
            continue
        if not 0 <= node.test < inst.num_tests:
            violations.append(f"{path}: unknown test {node.test}")
            continue
        buckets = _split(expected, inst.outcome_table[node.test])
        if len(node.children) < 2:
            violations.append(f"{path}: internal node with {len(node.children)} child(ren)")
        if set(node.children) != set(buckets):
            violations.append(
                f"{path}: children cover outcomes {sorted(node.children)} but test "
                f"{node.test} splits this set into outcomes {sorted(buckets)}"
            )
            continue
        stack.extend(
            (node.children[i], buckets[i], f"{path}.{i}")
            for i in sorted(node.children, reverse=True)
        )
    return violations


def restrict_tree(tree: DecisionTree, keep: Iterable[int], inst: Instance) -> DecisionTree:
    """Project a tree onto a subset of its objects.

    Dropped objects disappear from leaves; branches left empty are deleted;
    an internal node left with a single live branch is contracted (its edge —
    and that edge's cost — vanish); any subtree whose survivors all share one
    class collapses to a leaf.  No surviving object's path cost ever
    increases, which is what makes restrictions safe to splice into other
    trees.
    """
    wanted = frozenset(keep)
    if not wanted:
        raise ValueError("cannot restrict a tree to an empty object set")
    root_objects = tree_objects(tree)
    if not wanted <= root_objects:
        missing = sorted(wanted - root_objects)
        raise ValueError(f"objects {missing} are not in the tree")
    return _restrict(tree, _check_objects(wanted, inst), inst, 0, {}, ({}, {}))


def _strays(objects: Iterable, path: int, labels: Mapping | None = None, label: Any = None) -> list:
    """The ids among ``objects`` that are not ints in ``path``, the mask of
    the objects that answer every branch on a path.  Given ``labels``, each
    class's mask by label, this is the sharing rule's leaf test of a leaf
    labeled ``label``: also the ids not of the class an int label names."""
    if labels is not None:
        path &= labels.get(label, 0) if type(label) is int else 0
    wrong = []
    for s in objects:
        if type(s) is not int or s < 0 or not path >> s & 1:
            wrong.append(s)
    return wrong


def _price_nodes(
    tree: DecisionTree, inst: Instance, index: bool = True
) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """Each object's path cost times ``scale``, in pre-order with ascending
    outcomes, after checking each node a pricing walk visits; and, if the
    tree keeps the sharing rule and ``index`` is set, each node's object
    count and path cost times ``scale`` by ``id``; else no nodes.

    The sharing rule: each leaf holds ids, one or more, that are ints of the
    one class that its int label names and answer every branch on its path
    (the leaf test, :func:`_strays`), and each internal node has two
    branches or more and holds two classes or more.  Then no object answers
    the path of a node it is not below, so a node holds exactly the tree's
    objects that answer its path, and each branch exactly its node's objects
    that answer it: :func:`_restrict` rebuilds a node that all of its
    objects reach as an equal copy, and may put in the node itself.
    """
    kernel, n = inst.kernel, inst.num_objects
    prices, answers = kernel.costs, kernel.outcome_masks
    outcomes = frozenset(range(1, inst.num_outcomes + 1))
    labels = dict(zip(sorted(set(inst.classes)), kernel.class_masks)) if index else {}
    out: dict[int, int] = {}
    nodes: dict[int, tuple[int, int]] = {}
    # Internal nodes with their path costs and path masks, while the rule holds.
    internal: list[tuple[Internal, int, int]] = []
    keeps = index
    # On an explicit stack so that depth is unbounded; each entry is a node,
    # its path cost and the objects that answer every branch on its path.
    stack: list[tuple[DecisionTree, int, int]] = [(tree, 0, (1 << n) - 1)]
    while stack:
        node, acc, path = stack.pop()
        if isinstance(node, Leaf):
            objects = node.objects
            for s in objects:
                if not 0 <= s < n:
                    raise ValueError(f"tree references unknown object {s}")
                out[s] = acc
            if keeps:
                keeps = bool(objects) and not _strays(objects, path, labels, node.class_id)
                nodes[id(node)] = (len(objects), acc)
            continue
        _check_node(node, inst, outcomes)
        row, split, children = prices[node.test], answers[node.test], node.children
        if keeps:
            keeps = len(children) >= 2
            internal.append((node, acc, path))
        stack.extend(
            (children[i], acc + row[i - 1], path & split[i - 1] if keeps else 0)
            for i in sorted(children, reverse=True)
        )
    if not keeps:
        return out, {}
    # Under the rule the ids are distinct ints below n, so n of them are all objects.
    held, classes = objects_mask(out) if len(out) < n else (1 << n) - 1, inst.classes
    for node, acc, path in internal:
        inner = held & path
        # A node within the class of its lowest object holds one class.
        if not inner & ~labels[classes[(inner & -inner).bit_length() - 1]]:
            return out, {}
        nodes[id(node)] = (inner.bit_count(), acc)
    return out, nodes


def _restrict(
    tree: DecisionTree,
    survivors: frozenset[int],
    inst: Instance,
    base: int,
    out: dict[int, int],
    shared: tuple[Mapping[int, int], Mapping[int, tuple[int, int]]],
) -> DecisionTree:
    """:func:`restrict_tree` after its checks.  Objects of two classes that
    reach a leaf, or an outcome they take that has no branch, raise.  Puts
    each survivor's path cost times ``scale``, plus ``base``, in ``out``.

    ``shared`` is :func:`_price_nodes` of ``tree``, its path costs and its
    nodes.  A node reached by as many objects as it holds is put in as it
    is, its objects priced from the tree's path costs: the sharing rule,
    stated at :func:`_price_nodes`, makes it the tree the walk would
    rebuild.  Pass two empty mappings to rebuild every node."""
    classes, rows, num_tests = inst.classes, inst.outcome_table, inst.num_tests
    prices = inst.kernel.costs
    priced, nodes = shared
    # Each entry routes ``alive`` down ``node``, at path cost ``cost``, into ``slot[key]``.
    root: dict[int, DecisionTree] = {}
    stack = [(tree, survivors, base, root, 0)]
    while stack:
        node, alive, cost, slot, key = stack.pop()
        count, at = nodes.get(id(node), (-1, 0))  # no node holds -1 objects
        if count == len(alive):
            slot[key] = node
            out.update({s: priced[s] + cost - at for s in alive})
            continue
        labels = {classes[s] for s in alive}
        if len(labels) == 1:
            slot[key] = Leaf(class_id=labels.pop(), objects=alive)
            out.update(dict.fromkeys(alive, cost))
            continue
        if isinstance(node, Leaf):
            raise ValueError(f"invalid tree: a leaf gets objects {sorted(alive)} of mixed classes")
        if not 0 <= node.test < num_tests:
            raise ValueError(f"no such test: {node.test}")
        row = rows[node.test]
        answers = {row[s] for s in alive}
        if not answers <= node.children.keys():
            missing = min(answers - node.children.keys())
            raise ValueError(f"invalid tree: test {node.test} has no branch for outcome {missing}")
        if len(answers) == 1:  # a contracted edge, which adds nothing
            stack.append((node.children[answers.pop()], alive, cost, slot, key))
            continue
        # ``alive`` holds known objects, so the split checks none of them.
        buckets = _split(alive, row)
        children: dict = dict.fromkeys(buckets)
        slot[key] = Internal(test=node.test, children=children)
        step = prices[node.test]
        stack.extend(
            (node.children[i], bucket, cost + step[i - 1], children, i)
            for i, bucket in buckets.items()
        )
    return root[0]
