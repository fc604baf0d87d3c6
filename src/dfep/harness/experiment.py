"""Batch experiment runner: generate, solve, splice, and check every bound.

One run draws a batch of seeded random instances and works each in two
passes.  The first computes the exact optima and the greedy tree, splices
the two oracle trees across a trade-off grid (and sweeps the unit-cost
variant where it applies), and builds the instance's table row once.  The
second checks each guarantee on that row as an exact inequality, in order:

* greedy worst-case within the harmonic cap of the optimum (binary tests);
* the root lower bound really below the optimal worst case (binary tests);
* optima only shrinking on subsets;
* each trade-off line in table order: splices under their worst-case cap
  (answer-independent prices only — a two-object instance in the test suite
  proves the cap is unachievable in general) and their expected-cost cap
  (always), sweeps under both unit-cost caps.

A violated bound is not logged and skipped: the first in that order has its
instance, trees, and parameters serialized to a replay file, and the run
aborts with :class:`BoundViolation`.  The checks read the properties that
the table prints, so a saved table never disagrees with its own checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, NoReturn, Sequence

from dfep.combine import _has_unit_prices, _splicer, _sweep
from dfep.greedy import _lower_bound, _pairs_in, divide_pairs
from dfep.harness.generate import GeneratorSpec, _as_range, _check_draws, generate
from dfep.harness.io import (
    Pathish,
    _dump_document,
    _expect_list,
    _expect_mapping,
    _load_document,
    _write_text,
    format_rational,
    instance_to_doc,
    parse_rational,
    tree_to_doc,
)
from dfep.model import DecisionTree, Instance, _expect_int, _expect_str, _weighed, evaluate
from dfep.oracle import DP_OBJECT_LIMIT, OracleResult, _optima, harmonic

__all__ = [
    "BoundViolation",
    "ExperimentConfig",
    "ExperimentRow",
    "TradeOffOutcome",
    "load_config",
    "run_experiment",
    "write_table",
]

DEFAULT_RHO_GRID = (
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(4),
)
DEFAULT_UNIFORM_TRADE_OFFS = (1, 2)


class BoundViolation(RuntimeError):
    """A guarantee failed on a concrete instance; replay data was saved."""

    def __init__(self, message: str, replay_path: str):
        super().__init__(f"{message} (replay saved to {replay_path})")
        self.replay_path = replay_path


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch: sizes are inclusive [low, high] ranges, draws are seeded."""

    seed: int = 0
    count: int = 10
    objects: tuple[int, int] = (2, 8)
    classes: tuple[int, int] = (2, 4)
    tests: tuple[int, int] = (3, 6)
    outcomes: int = 2
    cost_mode: str = "unit"
    cost_range: tuple[int, int] = (1, 8)
    prior_mode: str = "random"
    rho_grid: tuple[Fraction, ...] = DEFAULT_RHO_GRID
    uniform_trade_offs: tuple[int, ...] = DEFAULT_UNIFORM_TRADE_OFFS
    oracle_checks: bool = True
    replay_path: str = "bound-violation.json"


@dataclass(frozen=True)
class TradeOffOutcome:
    """One spliced tree's exact costs next to the caps it was promised.

    ``worst_cap_applies`` records whether the worst-case cap is promised at
    all (it is not when test prices depend on answers).  The pass/fail flags
    are properties over the stored rationals, never stored themselves.
    """

    variant: str  # "splice" or "uniform-sweep"
    trade_off: Fraction
    achieved_worst: Fraction
    achieved_expected: Fraction
    worst_cap: Fraction
    expected_cap: Fraction
    worst_cap_applies: bool

    @property
    def worst_ok(self) -> bool:
        return not self.worst_cap_applies or self.achieved_worst <= self.worst_cap

    @property
    def expected_ok(self) -> bool:
        return self.achieved_expected <= self.expected_cap


@dataclass(frozen=True)
class ExperimentRow:
    """Everything measured on one instance, all of it exact."""

    index: int
    seed: int
    name: str
    num_objects: int
    num_classes: int
    num_tests: int
    num_outcomes: int
    cost_mode: str
    separable_pairs: int
    greedy_worst: Fraction
    greedy_expected: Fraction
    lower_bound: Fraction
    opt_worst: Fraction | None
    opt_expected: Fraction | None
    trade_offs: tuple[TradeOffOutcome, ...]

    @property
    def harmonic_cap(self) -> Fraction | None:
        """Greedy worst-case budget: harmonic(pairs) times the optimum."""
        if self.opt_worst is None:
            return None
        return harmonic(self.separable_pairs) * self.opt_worst

    @property
    def greedy_ratio(self) -> Fraction | None:
        if self.opt_worst is None or self.opt_worst == 0:
            return None
        return self.greedy_worst / self.opt_worst

    @property
    def greedy_within_cap(self) -> bool | None:
        cap = self.harmonic_cap
        if cap is None:
            return None
        return self.greedy_worst <= cap

    @property
    def lower_bound_ok(self) -> bool | None:
        if self.opt_worst is None:
            return None
        return self.lower_bound <= self.opt_worst


def _expect_bool(raw: Any, where: str) -> bool:
    if not isinstance(raw, bool):
        raise ValueError(f"{where}: expected true or false")
    return raw


def _rationals(raw: Any, where: str) -> tuple[Fraction, ...]:
    entries = _expect_list(raw, where)
    if not entries:
        raise ValueError(f"{where}: expected a nonempty list")
    return tuple(parse_rational(r, f"{where}[{k}]") for k, r in enumerate(entries))


def _ints(raw: Any, where: str) -> tuple[int, ...]:
    return tuple(_expect_int(i, f"{where}[{k}]") for k, i in enumerate(_expect_list(raw, where)))


# One reader per ExperimentConfig field, in field order: it checks the JSON
# type and returns the field value.  _check_config runs them on every config,
# from a file or Python alike (a tuple read as its list), then checks values.
_CONFIG_READERS = {
    "seed": _expect_int,
    "count": _expect_int,
    "objects": _as_range,
    "classes": _as_range,
    "tests": _as_range,
    "outcomes": _expect_int,
    "cost_mode": _expect_str,
    "cost_range": _as_range,
    "prior_mode": _expect_str,
    "rho_grid": _rationals,
    "uniform_trade_offs": _ints,
    "oracle_checks": _expect_bool,
    "replay_path": _expect_str,
}


def load_config(path: Pathish) -> ExperimentConfig:
    """Read a batch description from a JSON file (unknown keys rejected).

    The config gets every check :func:`run_experiment` makes, so a bad file
    fails before any draw.
    """
    doc = _expect_mapping(_load_document(path), f"{path}")
    unknown = set(doc) - set(_CONFIG_READERS)
    if unknown:
        raise ValueError(f"{path}: unknown configuration keys {sorted(unknown)}")
    return _check_config(ExperimentConfig(**doc), f"{path}")


def _check_config(config: ExperimentConfig, where: str) -> ExperimentConfig:
    """Reject a config that some draw of the batch could not run; return it
    rebuilt from what its field readers return."""
    fields = {}
    for key, read in _CONFIG_READERS.items():
        raw = getattr(config, key)
        fields[key] = read(list(raw) if isinstance(raw, tuple) else raw, f"{where}: {key}")
    config = ExperimentConfig(**fields)
    if config.count < 1:
        raise ValueError(f"{where}: count must be positive")
    if any(r <= 0 for r in config.rho_grid):
        raise ValueError(f"{where}: rho_grid: trade-offs must be positive")
    if any(i < 1 for i in config.uniform_trade_offs):
        raise ValueError(f"{where}: uniform_trade_offs: expected a list of positive integers")
    if config.oracle_checks and config.objects[1] > DP_OBJECT_LIMIT:
        raise ValueError(
            f"{where}: configured object count up to {config.objects[1]} exceeds oracle cap "
            f"({DP_OBJECT_LIMIT}); disable oracle_checks to generate larger instances"
        )
    _check_draws(
        f"{where}: ", "", config.objects, config.classes, config.tests, config.outcomes,
        config.cost_mode, config.cost_range, config.prior_mode,
    )
    return config


def _text(value: Any) -> str:
    """A table cell or replay detail: exact text, yes/no for a flag, "-" for none."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return format_rational(value) if isinstance(value, Fraction) else str(value)


def _violate(
    config: ExperimentConfig,
    inst: Instance,
    check: str,
    details: dict[str, Any],
    trees: dict[str, DecisionTree],
) -> NoReturn:
    """Save the failing instance and trees to the replay file, then abort."""
    details = {key: _text(value) for key, value in details.items()}
    doc = {
        "check": check,
        "details": details,
        "instance": instance_to_doc(inst),
        "trees": {label: tree_to_doc(tree) for label, tree in sorted(trees.items())},
    }
    _dump_document(doc, config.replay_path)
    summary = ", ".join(f"{k}={v}" for k, v in details.items())
    raise BoundViolation(
        f"{check} failed on instance {inst.name!r}: {summary}", config.replay_path
    )


def _has_flat_prices(inst: Instance) -> bool:
    return all(len(set(row)) == 1 for row in inst.cost_table)


def _trade_offs(
    config: ExperimentConfig, inst: Instance, worst: OracleResult, expected: OracleResult
) -> Iterator[tuple[TradeOffOutcome, DecisionTree]]:
    """Splice the two optimal trees across the grid and the unit-cost sweeps,
    and price each result from the path costs its splice recorded: the
    outcomes in table order, each with its tree."""
    flat = _has_flat_prices(inst)
    # One splicer serves the whole grid and every sweep: it prices the
    # fallback and checks that both trees cover the same objects once.
    reference, splice = _splicer(expected.tree, worst.tree, inst)
    scale = inst.kernel.scale

    def priced(
        variant: str, trade_off: Fraction, result: DecisionTree, costs: dict, **caps: Any
    ) -> tuple[TradeOffOutcome, DecisionTree]:
        achieved_worst = Fraction(max(costs.values(), default=0), scale)
        achieved_expected = Fraction(_weighed(costs, inst), scale * inst.kernel.weight_scale)
        outcome = TradeOffOutcome(variant, trade_off, achieved_worst, achieved_expected, **caps)
        return outcome, result

    fallback_worst = Fraction(reference, scale)
    for ratio in config.rho_grid:
        yield priced(
            "splice", ratio, *splice(ratio * fallback_worst)[:2],
            worst_cap=(1 + ratio) * worst.value,
            expected_cap=(1 + 1 / ratio) * expected.value,
            worst_cap_applies=flat,
        )

    # Unit prices have scale 1, so ``reference`` is the fallback's worst cost.
    if _has_unit_prices(inst) and reference >= 1:
        for factor in config.uniform_trade_offs:
            numerator = factor * reference
            ratio = Fraction(factor)
            yield priced(
                "uniform-sweep", ratio, *_sweep(splice, reference, numerator, inst),
                worst_cap=Fraction(numerator + reference),
                expected_cap=(1 + 2 / (ratio * ratio + 2 * ratio)) * expected.value,
                worst_cap_applies=True,
            )


def _check_row(
    config: ExperimentConfig,
    inst: Instance,
    rng: random.Random,
    row: ExperimentRow,
    greedy_tree: DecisionTree,
    optima: tuple[OracleResult, OracleResult],
    trade_offs: Sequence[tuple[TradeOffOutcome, DecisionTree]],
) -> None:
    """Abort on the first bound broken by ``row`` or a random subset's optima,
    in table order; the trees that ``trade_offs`` pairs with the row's outcomes fill the replay."""
    worst_tree, expected_tree = (result.tree for result in optima)
    # The harmonic cap and the root lower bound are proved for binary tests.
    if row.num_outcomes == 2:
        if not row.greedy_within_cap:
            _violate(
                config,
                inst,
                "greedy harmonic cap",
                {"achieved": row.greedy_worst, "cap": row.harmonic_cap},
                {"greedy": greedy_tree, "optimal_worst": worst_tree},
            )
        if not row.lower_bound_ok:
            _violate(
                config,
                inst,
                "root lower bound",
                {"lower_bound": row.lower_bound, "optimum": row.opt_worst},
                {"optimal_worst": worst_tree},
            )

    subset = frozenset(s for s in inst.objects if rng.random() < 0.5)
    if not subset:
        subset = frozenset({min(inst.objects)})
    sub_worst, sub_expected = (result.value for result in _optima(subset, inst))
    if sub_worst > row.opt_worst or sub_expected > row.opt_expected:
        _violate(
            config,
            inst,
            "subset monotonicity",
            {
                "subset": ",".join(str(s) for s in sorted(subset)),
                "subset_worst": sub_worst,
                "full_worst": row.opt_worst,
                "subset_expected": sub_expected,
                "full_expected": row.opt_expected,
            },
            {},
        )

    for outcome, result in trade_offs:
        if not outcome.worst_ok or not outcome.expected_ok:
            _violate(
                config,
                inst,
                f"{outcome.variant.replace('-', ' ')} caps",
                {
                    "trade_off": outcome.trade_off,
                    "worst": outcome.achieved_worst,
                    "worst_cap": outcome.worst_cap,
                    "expected": outcome.achieved_expected,
                    "expected_cap": outcome.expected_cap,
                },
                {"expected_tree": expected_tree, "worst_case_tree": worst_tree, "result": result},
            )


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Run one batch and return its rows; :func:`write_table` saves them.

    Raises :class:`BoundViolation` the moment any exact bound check fails;
    raises ValueError before the first draw on a config that
    :func:`load_config` would refuse in a file, with the file's text.
    """
    config = _check_config(config, "config")
    rng = random.Random(config.seed)
    rows: list[ExperimentRow] = []
    for index in range(config.count):
        size = rng.randint(*config.objects)
        spec = GeneratorSpec(
            num_objects=size,
            num_classes=rng.randint(min(config.classes[0], size), min(config.classes[1], size)),
            num_tests=rng.randint(*config.tests),
            num_outcomes=config.outcomes,
            cost_mode=config.cost_mode,
            cost_range=config.cost_range,
            prior_mode=config.prior_mode,
            seed=rng.getrandbits(32),
            name=f"run{index}",
        )
        inst = generate(spec)
        everything = frozenset(inst.objects)
        parts = list(inst.kernel.class_masks)  # the whole set holds every class
        greedy_tree = divide_pairs(everything, inst)
        greedy_report = evaluate(greedy_tree, inst)
        optima = _optima(everything, inst) if config.oracle_checks else None
        trade_offs = [] if optima is None else list(_trade_offs(config, inst, *optima))

        row = ExperimentRow(
            index=index,
            seed=spec.seed,
            name=inst.name or "",
            num_objects=inst.num_objects,
            num_classes=len(set(inst.classes)),
            num_tests=inst.num_tests,
            num_outcomes=inst.num_outcomes,
            cost_mode=config.cost_mode,
            separable_pairs=_pairs_in(parts),
            greedy_worst=greedy_report.worst,
            greedy_expected=greedy_report.expected,
            lower_bound=_lower_bound(greedy_tree, parts, inst),
            opt_worst=None if optima is None else optima[0].value,
            opt_expected=None if optima is None else optima[1].value,
            trade_offs=tuple(outcome for outcome, _ in trade_offs),
        )
        if optima is not None:
            _check_row(config, inst, rng, row, greedy_tree, optima, trade_offs)
        rows.append(row)
    return rows


# The table schema, in column order: each header beside the getter of its
# cell's value.  An instance's columns repeat on each of its lines, one line
# per trade-off outcome; an instance without outcomes (oracle checks off)
# gets one line whose outcome columns read "-".
_ROW_COLUMNS: tuple[tuple[str, Callable[[ExperimentRow], Any]], ...] = (
    ("index", lambda row: row.index),
    ("seed", lambda row: row.seed),
    ("name", lambda row: row.name),
    ("objects", lambda row: row.num_objects),
    ("classes", lambda row: row.num_classes),
    ("tests", lambda row: row.num_tests),
    ("outcome_alphabet", lambda row: row.num_outcomes),
    ("cost_mode", lambda row: row.cost_mode),
    ("pairs", lambda row: row.separable_pairs),
    ("opt_worst", lambda row: row.opt_worst),
    ("opt_expected", lambda row: row.opt_expected),
    ("greedy_worst", lambda row: row.greedy_worst),
    ("greedy_expected", lambda row: row.greedy_expected),
    ("greedy_cap", lambda row: row.harmonic_cap),
    ("greedy_ratio", lambda row: row.greedy_ratio),
    ("lower_bound", lambda row: row.lower_bound),
)
_OUTCOME_COLUMNS: tuple[tuple[str, Callable[[TradeOffOutcome], Any]], ...] = (
    ("variant", lambda outcome: outcome.variant),
    ("trade_off", lambda outcome: outcome.trade_off),
    ("achieved_worst", lambda outcome: outcome.achieved_worst),
    ("worst_cap", lambda outcome: outcome.worst_cap),
    ("worst_ok", lambda outcome: outcome.worst_ok),
    ("achieved_expected", lambda outcome: outcome.achieved_expected),
    ("expected_cap", lambda outcome: outcome.expected_cap),
    ("expected_ok", lambda outcome: outcome.expected_ok),
)


def write_table(rows: Sequence[ExperimentRow], path: str) -> None:
    """Write rows as a long-format TSV: one line per trade-off outcome.

    Instances with no trade-off outcomes (oracle checks disabled) still get
    one line, with "-" in the trade-off columns.  All numbers are exact.
    """
    lines = ["\t".join(header for header, _ in _ROW_COLUMNS + _OUTCOME_COLUMNS)]
    no_outcome = ["-"] * len(_OUTCOME_COLUMNS)
    for row in rows:
        base = [_text(value(row)) for _, value in _ROW_COLUMNS]
        tails = [[_text(value(o)) for _, value in _OUTCOME_COLUMNS] for o in row.trade_offs]
        lines.extend("\t".join(base + tail) for tail in tails or [no_outcome])
    _write_text("\n".join(lines) + "\n", path)
