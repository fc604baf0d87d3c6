"""File formats: instance and tree documents (JSON) and DOT export.

Both document kinds are self-contained, deterministic, and exact: rationals
travel as ``"p/q"`` strings (plain integers are accepted as shorthand for
denominator 1), so write-then-read is the identity and equal values produce
identical bytes.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Any, Iterable, Union

from dfep.model import (
    DecisionTree,
    Instance,
    Internal,
    Leaf,
    _RATIONAL_TEXT,  # noqa: F401  (the grammar parse_rational accepts)
    _expect_int,
    as_fraction,
    tree_objects,
    validate_instance,
    validate_tree,
)

__all__ = [
    "export_dot",
    "format_rational",
    "instance_to_doc",
    "parse_rational",
    "read_instance",
    "read_tree",
    "tree_to_doc",
    "write_instance",
    "write_tree",
]

Pathish = Union[str, "os.PathLike[str]"]

# The most tests on a root-to-leaf path that the tree writer accepts.  The
# ``json`` parser behind the reader recurses twice per tree level, so a file
# at the cap reads back well inside Python's default recursion limit of 1,000.
MAX_TREE_DEPTH = 400


def format_rational(value: Fraction) -> str:
    """Render exactly: ``"3"`` for integers, ``"p/q"`` otherwise."""
    return str(value)


def parse_rational(raw: Any, where: str) -> Fraction:
    """Parse an int, a "p/q" string or a Fraction; ``where`` names the field in errors.

    A string is an optionally signed integer, or one over a positive
    denominator written in digits: "3", "-2/6"; :func:`~dfep.model.as_fraction`
    reads it.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, str, Fraction)):
        raise ValueError(f"{where}: expected an integer or a 'p/q' string, got {raw!r}")
    try:
        return as_fraction(raw)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _load_document(path: Pathish) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:
        # Besides JSONDecodeError: Python's cap on the digits of an integer
        # literal, and bytes that are not UTF-8.
        raise ValueError(f"{path}: malformed document: {exc}") from None
    except RecursionError:
        # The json parser recurses once per nesting level.
        raise ValueError(f"{path}: document nested too deeply") from None


def _encode_document(doc: Any, where: str) -> str:
    """The document's JSON text, indented by 2 and ending in a newline."""
    try:
        return json.dumps(doc, indent=2) + "\n"
    except RecursionError:
        # The json writer recurses once per nesting level, like the parser.
        raise ValueError(f"{where}: document nested too deeply") from None


def _write_text(text: str, path: Pathish) -> None:
    # Callers encode first, so that a failure leaves an existing file as it was.
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _dump_document(doc: Any, path: Pathish) -> None:
    _write_text(_encode_document(doc, f"{path}"), path)


def _expect_list(raw: Any, where: str) -> list:
    if not isinstance(raw, list):
        raise ValueError(f"{where}: expected a list, got {type(raw).__name__}")
    return raw


def _expect_mapping(raw: Any, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected an object, got {type(raw).__name__}")
    return raw


def instance_to_doc(inst: Instance) -> dict[str, Any]:
    """The plain-data form of an instance, as written to instance files."""
    doc: dict[str, Any] = {}
    if inst.name is not None:
        doc["name"] = inst.name
    doc["num_outcomes"] = inst.num_outcomes
    doc["objects"] = [
        {
            "id": s,
            "class": inst.classes[s],
            "prior": format_rational(inst.priors[s]),
        }
        for s in inst.objects
    ]
    doc["tests"] = [
        {
            "id": t,
            "costs": [format_rational(c) for c in inst.cost_table[t]],
            "outcomes": list(inst.outcome_table[t]),
        }
        for t in inst.tests
    ]
    return doc


def write_instance(inst: Instance, path: Pathish) -> None:
    _dump_document(instance_to_doc(inst), path)


def read_instance(path: Pathish, *, validate: bool = True) -> Instance:
    """Load an instance document; by default reject invalid instances.

    Structural problems (missing fields, bad ids, short cost rows) raise
    immediately with the offending field named.  With ``validate`` on,
    semantic violations found by :func:`~dfep.model.validate_instance` are
    embedded in the error as well.
    """
    doc = _expect_mapping(_load_document(path), f"{path}")
    num_outcomes = _expect_int(doc.get("num_outcomes"), f"{path}: num_outcomes")
    raw_objects = _expect_list(doc.get("objects"), f"{path}: objects")
    raw_tests = _expect_list(doc.get("tests"), f"{path}: tests")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"{path}: name: expected a string, got {name!r}")

    n = len(raw_objects)
    classes: list[int | None] = [None] * n
    priors: list[Fraction | None] = [None] * n
    for k, entry in enumerate(raw_objects):
        where = f"{path}: objects[{k}]"
        entry = _expect_mapping(entry, where)
        obj = _expect_int(entry.get("id"), f"{where}: id")
        if not 0 <= obj < n:
            raise ValueError(
                f"{where}: id {obj} outside 0..{n - 1} (ids must be dense)"
            )
        if classes[obj] is not None:
            raise ValueError(f"{where}: duplicate object id {obj}")
        classes[obj] = _expect_int(entry.get("class"), f"{where}: class")
        priors[obj] = parse_rational(entry.get("prior"), f"{where}: prior")

    num_tests = len(raw_tests)
    outcome_table: list[tuple[int, ...] | None] = [None] * num_tests
    cost_table: list[tuple[Fraction, ...] | None] = [None] * num_tests
    for k, entry in enumerate(raw_tests):
        where = f"{path}: tests[{k}]"
        entry = _expect_mapping(entry, where)
        t = _expect_int(entry.get("id"), f"{where}: id")
        if not 0 <= t < num_tests:
            raise ValueError(
                f"{where}: id {t} outside 0..{num_tests - 1} (ids must be dense)"
            )
        if outcome_table[t] is not None:
            raise ValueError(f"{where}: duplicate test id {t}")
        costs = _expect_list(entry.get("costs"), f"{where}: costs")
        if len(costs) < num_outcomes:
            raise ValueError(
                f"{where}: test {t} is missing the cost for outcome "
                f"{len(costs) + 1} (need one per outcome 1..{num_outcomes})"
            )
        if len(costs) > num_outcomes:
            raise ValueError(
                f"{where}: test {t} has {len(costs)} costs for {num_outcomes} outcomes"
            )
        cost_table[t] = tuple(
            parse_rational(c, f"{where}: costs[{i}] (test {t}, outcome {i + 1})")
            for i, c in enumerate(costs)
        )
        outcomes = _expect_list(entry.get("outcomes"), f"{where}: outcomes")
        if len(outcomes) != n:
            raise ValueError(
                f"{where}: test {t} needs one outcome per object (0..{n - 1}); "
                f"got {len(outcomes)}"
            )
        # One type scan per row; a message is built only for an entry that is not a plain int.
        for s in [s for s, o in enumerate(outcomes) if type(o) is not int]:
            _expect_int(outcomes[s], f"{where}: outcomes[{s}]")
        outcome_table[t] = tuple(outcomes)

    inst = Instance(
        classes=tuple(classes),  # type: ignore[arg-type]
        num_outcomes=num_outcomes,
        outcome_table=tuple(outcome_table),  # type: ignore[arg-type]
        priors=tuple(priors),  # type: ignore[arg-type]
        cost_table=tuple(cost_table),  # type: ignore[arg-type]
        name=name,
    )
    if validate:
        problems = validate_instance(inst)
        if problems:
            raise ValueError(
                f"{path}: invalid instance:\n" + "\n".join(f"  - {p}" for p in problems)
            )
    return inst


def tree_to_doc(tree: DecisionTree) -> dict[str, Any]:
    """The plain-data form of a tree, as written to tree files."""
    root: dict[str, Any] = {}
    stack: list[tuple[DecisionTree, dict[str, Any]]] = [(tree, root)]
    while stack:
        node, doc = stack.pop()
        if isinstance(node, Leaf):
            doc["leaf_class"] = node.class_id
            doc["objects"] = sorted(node.objects)
            continue
        doc["test"] = node.test
        doc["children"] = {}
        for outcome in sorted(node.children):
            doc["children"][str(outcome)] = sub = {}
            stack.append((node.children[outcome], sub))
    return root


def _tree_from_doc(doc: Any, where: str) -> DecisionTree:
    # A recursive descent on an explicit stack, so that depth is unbounded.
    # An entry (document, where, parent, key, None) parses a node into
    # parent[key]; below the root, ``where`` is the parent's and ``key`` the
    # raw children key, checked first.  Children are parsed in document
    # order, and a node's test id is checked after all of them, from an entry
    # (node, where, parent, key, children) that then builds the node.
    root: dict[Any, DecisionTree] = {}
    stack: list[tuple[Any, str, dict, Any, Any]] = [(doc, where, root, None, None)]
    while stack:
        raw, where, into, key, children = stack.pop()
        if children is not None:
            test = _expect_int(raw.get("test"), f"{where}: test")
            into[key] = Internal(test=test, children=children)
            continue
        if key is not None:
            try:
                # Only the writer's spelling: no "+", padding or other digits.
                if str(outcome := int(key)) != key:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{where}: children key {key!r} is not an outcome") from None
            where, key = f"{where}: children[{key}]", outcome
        node = _expect_mapping(raw, where)
        if "leaf_class" in node:
            extra = set(node) - {"leaf_class", "objects"}
            if extra:
                raise ValueError(f"{where}: unexpected leaf fields {sorted(extra)}")
            objects = _expect_list(node.get("objects"), f"{where}: objects")
            into[key] = Leaf(
                class_id=_expect_int(node.get("leaf_class"), f"{where}: leaf_class"),
                objects=frozenset(
                    _expect_int(s, f"{where}: objects[{k}]") for k, s in enumerate(objects)
                ),
            )
        elif "test" in node:
            extra = set(node) - {"test", "children"}
            if extra:
                raise ValueError(f"{where}: unexpected node fields {sorted(extra)}")
            children_doc = _expect_mapping(node.get("children"), f"{where}: children")
            children = {}
            stack.append((node, where, into, key, children))
            stack.extend(
                (sub, where, children, k, None) for k, sub in reversed(children_doc.items())
            )
        else:
            raise ValueError(f"{where}: node needs either 'leaf_class' or 'test'")
    return root[None]


def _check_ids(ids: Iterable[Any], where: str) -> None:
    for value in ids:
        if type(value) is not int:
            raise ValueError(f"{where}: tree id {value!r} is not an integer")


def _encode_tree(tree: DecisionTree, where: str) -> str:
    """``json.dumps(tree_to_doc(tree), indent=2) + "\\n"``, written directly.

    With ``indent`` set, ``json`` runs its pure-Python encoder, several times
    slower than this walk.  A tree deeper than :data:`MAX_TREE_DEPTH`, or
    one whose tests, outcomes, classes or objects are not ints, is refused
    with a one-line ``ValueError`` that starts with ``where``.
    """
    parts: list[str] = []
    # Pre-order with ascending outcomes.  An entry is a node with the text
    # before it and its depth, or the text that closes an internal node.
    stack: list[Any] = [(tree, "", 0)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            parts.append(entry)
            continue
        node, head, depth = entry
        if depth > MAX_TREE_DEPTH:
            raise ValueError(f"{where}: document nested too deeply")
        # A node at depth d is a JSON object at nesting level 2d.
        close = "\n" + " " * (4 * depth)
        field = close + "  "
        item = field + "  "
        if isinstance(node, Leaf):
            objects = sorted(node.objects)
            _check_ids((node.class_id, *objects), where)
            listed = f"[{item}{(',' + item).join(map(str, objects))}{field}]" if objects else "[]"
            parts.append(
                f'{head}{{{field}"leaf_class": {node.class_id},{field}"objects": {listed}{close}}}'
            )
            continue
        outcomes = sorted(node.children)
        _check_ids((node.test, *outcomes), where)
        parts.append(f'{head}{{{field}"test": {node.test},{field}"children": {{')
        if not outcomes:
            parts.append(f"}}{close}}}")
            continue
        stack.append(f"{field}}}{close}}}")
        stack.extend(
            (node.children[i], f'{"," if i != outcomes[0] else ""}{item}"{i}": ', depth + 1)
            for i in reversed(outcomes)
        )
    parts.append("\n")
    return "".join(parts)


def write_tree(tree: DecisionTree, path: Pathish) -> None:
    _write_text(_encode_tree(tree, f"{path}"), path)


def read_tree(path: Pathish) -> DecisionTree:
    return _tree_from_doc(_load_document(path), f"{path}")


def export_dot(tree: DecisionTree, inst: Instance, path: Pathish) -> None:
    """Write the tree as a DOT digraph (deterministic bytes).

    Internal nodes are labeled ``t<test>``, edges ``outcome=i, cost=c``, and
    leaves ``class <j> {objects}``.  Nodes are numbered in pre-order with
    outcomes ascending, so equal trees export identically.
    """
    problems = validate_tree(tree, tree_objects(tree), inst)
    if problems:
        raise ValueError("refusing to export an invalid tree:\n" + "\n".join(problems))
    lines = ["digraph decision_tree {"]
    counter = 0
    # Pre-order with ascending outcomes, on an explicit stack.  An entry is a
    # node with its parent's number and the label of the edge into it, or an
    # edge line, which comes off the stack once the subtree below it is out.
    stack: list[Any] = [(tree, None, "")]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            lines.append(entry)
            continue
        node, parent, label = entry
        this = counter
        counter += 1
        if parent is not None:
            stack.append(f'  n{parent} -> n{this} [label="{label}"];')
        if isinstance(node, Leaf):
            members = ", ".join(str(s) for s in sorted(node.objects))
            lines.append(f'  n{this} [shape=box, label="class {node.class_id} {{{members}}}"];')
            continue
        lines.append(f'  n{this} [label="t{node.test}"];')
        for outcome in sorted(node.children, reverse=True):
            cost = format_rational(inst.cost(node.test, outcome))
            stack.append((node.children[outcome], this, f"outcome={outcome}, cost={cost}"))
    lines.append("}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
