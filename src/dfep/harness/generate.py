"""Seeded random instance generation.

Instances come out fully valid: after drawing classes, outcomes, priors, and
costs, the generator checks completeness and, if some pair of distinct-class
objects is never told apart, appends singleton-splitting unit-cost tests
until it is.  Repaired instances are flagged through their name so
experiments can tell pristine draws from patched ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from dfep.model import Instance, _expect_int, unseparated_pairs, validate_instance

__all__ = ["COST_MODES", "PRIOR_MODES", "GeneratorSpec", "generate"]

COST_MODES = ("unit", "fixed-random", "value-dependent-random")
PRIOR_MODES = ("uniform", "random")


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything that determines one random instance.

    ``cost_mode`` is one of ``unit`` (all costs 1), ``fixed-random`` (one
    integer cost per test, drawn from ``cost_range``), or
    ``value-dependent-random`` (an independent integer cost per test and
    outcome).  ``prior_mode`` is ``uniform`` or ``random`` (integer weights,
    exactly normalized).  The same spec always generates the same instance.
    """

    num_objects: int
    num_classes: int
    num_tests: int
    num_outcomes: int = 2
    cost_mode: str = "unit"
    cost_range: tuple[int, int] = (1, 8)
    prior_mode: str = "uniform"
    seed: int = 0
    name: str | None = None


def _check_spec(spec: GeneratorSpec) -> None:
    for key in ("num_objects", "num_classes", "num_tests", "num_outcomes", "seed"):
        _expect_int(getattr(spec, key), key)
    if spec.num_objects < 2:
        raise ValueError(f"need at least 2 objects, got {spec.num_objects}")
    if spec.num_classes < 1:
        raise ValueError(f"need at least 1 class, got {spec.num_classes}")
    if spec.num_classes > spec.num_objects:
        raise ValueError(
            f"{spec.num_classes} classes cannot be populated by "
            f"{spec.num_objects} objects"
        )
    if spec.num_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes per test, got {spec.num_outcomes}")
    if spec.num_tests < 1:
        raise ValueError(f"need at least 1 test, got {spec.num_tests}")
    if spec.cost_mode not in COST_MODES:
        raise ValueError(
            f"unknown cost mode {spec.cost_mode!r}; choose from {', '.join(COST_MODES)}"
        )
    if spec.prior_mode not in PRIOR_MODES:
        raise ValueError(
            f"unknown prior mode {spec.prior_mode!r}; choose from {', '.join(PRIOR_MODES)}"
        )
    low, high = spec.cost_range
    if not 1 <= low <= high:
        raise ValueError(
            f"cost range must satisfy 1 <= low <= high, got ({low}, {high})"
        )
    if spec.num_classes > 1 and spec.num_outcomes ** spec.num_tests < spec.num_objects:
        raise ValueError(
            f"{spec.num_tests} tests with {spec.num_outcomes} outcomes "
            f"distinguish at most {spec.num_outcomes ** spec.num_tests} objects; "
            f"{spec.num_objects} requested — completeness is impossible"
        )


def generate(spec: GeneratorSpec) -> Instance:
    """Draw the instance determined by the spec; always returns a valid one."""
    _check_spec(spec)
    rng = random.Random(spec.seed)
    n = spec.num_objects

    classes = list(range(spec.num_classes)) + [
        rng.randrange(spec.num_classes) for _ in range(n - spec.num_classes)
    ]
    rng.shuffle(classes)

    outcome_rows = [
        [rng.randint(1, spec.num_outcomes) for _ in range(n)]
        for _ in range(spec.num_tests)
    ]

    low, high = spec.cost_range
    cost_rows: list[list[Fraction]]
    if spec.cost_mode == "unit":
        cost_rows = [[Fraction(1)] * spec.num_outcomes for _ in range(spec.num_tests)]
    elif spec.cost_mode == "fixed-random":
        cost_rows = [
            [Fraction(rng.randint(low, high))] * spec.num_outcomes
            for _ in range(spec.num_tests)
        ]
    else:
        cost_rows = [
            [Fraction(rng.randint(low, high)) for _ in range(spec.num_outcomes)]
            for _ in range(spec.num_tests)
        ]

    if spec.prior_mode == "uniform":
        priors = [Fraction(1, n)] * n
    else:
        weights = [rng.randint(1, 100) for _ in range(n)]
        total = sum(weights)
        priors = [Fraction(w, total) for w in weights]

    # Completeness repair: isolate the first member of every inseparable
    # pair with a fresh unit-cost test that answers 2 for it and 1 for
    # everything else.  Isolating an object resolves all of its pairs, so
    # one pass suffices.
    repairs = 0
    isolated: set[int] = set()
    for a, _ in unseparated_pairs(classes, outcome_rows):
        if a in isolated:
            continue
        isolated.add(a)
        outcome_rows.append([2 if s == a else 1 for s in range(n)])
        cost_rows.append([Fraction(1)] * spec.num_outcomes)
        repairs += 1

    base = spec.name if spec.name is not None else f"seed{spec.seed}"
    name = base if repairs == 0 else f"{base}+{repairs}-repair-tests"

    inst = Instance(
        classes=tuple(classes),
        num_outcomes=spec.num_outcomes,
        outcome_table=tuple(tuple(row) for row in outcome_rows),
        priors=tuple(priors),
        cost_table=tuple(tuple(row) for row in cost_rows),
        name=name,
    )
    problems = validate_instance(inst)
    if problems:
        raise RuntimeError(
            "generator produced an invalid instance (a bug):\n" + "\n".join(problems)
        )
    return inst
