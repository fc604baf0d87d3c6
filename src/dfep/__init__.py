"""Adaptive class identification by costly tests.

Exact-arithmetic decision-tree construction for discrete function
evaluation: a ratio-greedy builder with a harmonic worst-case guarantee, an
exhaustive dynamic-programming solver for exact optima and trade-off
frontiers, a splicing combiner that balances worst-case against expected
cost, and a seeded experiment harness with file formats and a CLI.
"""

from dfep.combine import (
    combine_trees,
    combine_uniform,
    find_replaceable,
    subtree_at,
)
from dfep.greedy import (
    GreedyStep,
    GreedyTrace,
    criterion_value,
    divide_pairs,
    root_lower_bound,
    select_test,
)
from dfep.model import (
    CostReport,
    DecisionTree,
    Instance,
    Internal,
    Leaf,
    as_fraction,
    evaluate,
    iter_leaves,
    pair_count,
    partition,
    restrict_tree,
    separated_pairs,
    tree_objects,
    validate_instance,
    validate_tree,
)
from dfep.oracle import (
    FrontierPoint,
    OracleResult,
    harmonic,
    opt_expected,
    opt_expected_under_budget,
    opt_worst,
    pareto_frontier,
)

__version__ = "0.1.0"

__all__ = [
    "CostReport",
    "DecisionTree",
    "FrontierPoint",
    "GreedyStep",
    "GreedyTrace",
    "Instance",
    "Internal",
    "Leaf",
    "OracleResult",
    "as_fraction",
    "combine_trees",
    "combine_uniform",
    "criterion_value",
    "divide_pairs",
    "evaluate",
    "find_replaceable",
    "harmonic",
    "iter_leaves",
    "opt_expected",
    "opt_expected_under_budget",
    "opt_worst",
    "pair_count",
    "pareto_frontier",
    "partition",
    "restrict_tree",
    "root_lower_bound",
    "select_test",
    "separated_pairs",
    "subtree_at",
    "tree_objects",
    "validate_instance",
    "validate_tree",
]
