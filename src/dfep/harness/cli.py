"""Command-line interface.

Subcommands mirror the library: ``validate``, ``gen``, ``solve``,
``combine``, ``combine-uniform``, ``eval``, ``frontier``, ``export-dot``,
and ``experiment``.  Exit codes: 0 success, 1 validation/bound/runtime
failure, 2 usage errors.  All output is deterministic given the inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from dfep.combine import combine_trees, combine_uniform
from dfep.greedy import divide_pairs
from dfep.harness.experiment import BoundViolation, load_config, run_experiment, write_table
from dfep.harness.generate import COST_MODES, PRIOR_MODES, GeneratorSpec, generate
from dfep.harness.io import (
    _encode_document,
    _encode_tree,
    export_dot,
    format_rational,
    instance_to_doc,
    parse_rational,
    read_instance,
    read_tree,
    write_instance,
    write_tree,
)
from dfep.model import (
    DecisionTree,
    Instance,
    _value_faults,
    evaluate,
    tree_objects,
    validate_tree,
)
from dfep.oracle import opt_expected, opt_worst, pareto_frontier

__all__ = ["build_parser", "main"]


def _emit_json(doc: object) -> None:
    sys.stdout.write(_encode_document(doc, "stdout"))


def _read_tree(path: str, inst: Instance) -> DecisionTree:
    """Read a tree file that must be a valid tree for its objects in ``inst``."""
    tree = read_tree(path)
    problems = validate_tree(tree, tree_objects(tree), inst)
    if problems:
        raise ValueError(f"{path}: invalid tree: {problems[0]}")
    return tree


def _emit_tree(tree: DecisionTree, output: str | None) -> None:
    """Print the tree document, or write it to ``output`` when one is given."""
    if output is None:
        sys.stdout.write(_encode_tree(tree, "stdout"))
    else:
        write_tree(tree, output)


def _cmd_validate(args: argparse.Namespace) -> int:
    # The reader's Instance.create has applied the type and shape rules.
    problems = _value_faults(read_instance(args.instance, validate=False))
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print("ok")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        num_objects=args.objects,
        num_classes=args.classes,
        num_tests=args.tests,
        num_outcomes=args.outcomes,
        cost_mode=args.cost_mode,
        cost_range=(args.cost_range[0], args.cost_range[1]),
        prior_mode=args.prior_mode,
        seed=args.seed,
        name=args.name,
    )
    inst = generate(spec)
    if args.output is None:
        _emit_json(instance_to_doc(inst))
    else:
        write_instance(inst, args.output)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    everything = frozenset(inst.objects)
    if args.algo == "greedy":
        tree = divide_pairs(everything, inst)
    elif args.algo == "opt-worst":
        tree = opt_worst(everything, inst).tree
    else:
        tree = opt_expected(everything, inst).tree
    _emit_tree(tree, args.output)
    return 0


def _cmd_combine(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    low_expected = _read_tree(args.de, inst)
    low_worst = _read_tree(args.dw, inst)
    ratio = parse_rational(args.rho, "--rho")
    tree = combine_trees(low_expected, low_worst, ratio, inst)
    _emit_tree(tree, args.output)
    return 0


def _cmd_combine_uniform(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    low_expected = _read_tree(args.de, inst)
    low_worst = _read_tree(args.dw, inst)
    tree = combine_uniform(low_expected, low_worst, args.rho_num, inst)
    _emit_tree(tree, args.output)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    report = evaluate(_read_tree(args.tree, inst), inst)
    print(f"worst\t{format_rational(report.worst)}")
    print(f"expected\t{format_rational(report.expected)}")
    for s in sorted(report.per_object):
        print(f"object\t{s}\t{format_rational(report.per_object[s])}")
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    print("budget\texpected")
    for point in pareto_frontier(frozenset(inst.objects), inst):
        print(f"{format_rational(point.budget)}\t{format_rational(point.expected)}")
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    export_dot(_read_tree(args.tree, inst), inst, args.output)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    rows = run_experiment(config)
    if args.output is not None:
        write_table(rows, args.output)
    checked = sum(len(row.trade_offs) for row in rows)
    print(f"{len(rows)} instances, {checked} trade-off points, all bounds held")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfep",
        description=(
            "Decision trees for identifying an object's class by costly tests: "
            "greedy and exact construction, worst/expected trade-offs, and a "
            "seeded experiment harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file against every invariant")
    p.add_argument("instance")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--objects", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--tests", type=int, required=True)
    p.add_argument("--outcomes", type=int, default=2)
    p.add_argument("--cost-mode", choices=COST_MODES, default="unit")
    p.add_argument(
        "--cost-range",
        type=int,
        nargs=2,
        default=(1, 8),
        metavar=("LOW", "HIGH"),
    )
    p.add_argument("--prior-mode", choices=PRIOR_MODES, default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("solve", help="build a tree for an instance")
    p.add_argument("--algo", choices=("greedy", "opt-worst", "opt-expected"), required=True)
    p.add_argument("instance")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("combine", help="splice a worst-case fallback into an expected-cost tree")
    p.add_argument("--rho", required=True, help="trade-off, e.g. 2 or 1/2")
    p.add_argument("--de", required=True, help="tree built for expected cost")
    p.add_argument("--dw", required=True, help="tree built for worst-case cost")
    p.add_argument("instance")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_combine)

    p = sub.add_parser(
        "combine-uniform", help="unit-cost threshold sweep over a window of splices"
    )
    p.add_argument("--rho-num", type=int, required=True, help="trade-off numerator")
    p.add_argument("--de", required=True, help="tree built for expected cost")
    p.add_argument("--dw", required=True, help="tree built for worst-case cost")
    p.add_argument("instance")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_combine_uniform)

    p = sub.add_parser("eval", help="price every object's path through a tree")
    p.add_argument("tree")
    p.add_argument("instance")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("frontier", help="exact worst-vs-expected trade-off staircase")
    p.add_argument("instance")
    p.set_defaults(handler=_cmd_frontier)

    p = sub.add_parser("export-dot", help="render a tree as a DOT digraph")
    p.add_argument("tree")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_export_dot)

    p = sub.add_parser("experiment", help="run a seeded batch and check every bound")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", help="write the trade-off table (TSV) here")
    p.set_defaults(handler=_cmd_experiment)

    return parser


# Built on the first call, not at import.  Reuse is safe: parsing leaves the
# parser as it was, and every default is immutable.
_shared_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
