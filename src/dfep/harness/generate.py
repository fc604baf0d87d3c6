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
from typing import Any

from dfep.model import Instance, _expect_int, _expect_str, unseparated_pairs, validate_instance

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


def _as_range(raw: Any, where: str) -> tuple[int, int]:
    pair = (raw, raw) if isinstance(raw, int) else raw
    if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in pair
    ):
        raise ValueError(f"{where}: expected an integer or a [low, high] pair, got {raw!r}")
    return (pair[0], pair[1])


def _check_draws(
    where: str, size: str, objects: tuple[int, int], classes: tuple[int, int],
    tests: tuple[int, int], outcomes: int, cost_mode: str, cost_range: tuple[int, int],
    prior_mode: str,
) -> None:
    """The rules a spec and an experiment config share, on inclusive ranges (a
    spec's sizes one-value ones), each text naming the field after ``where``:
    a size field is ``size`` and its plain name, ``num_objects`` or ``objects``."""
    for key, (low, high), floor in (
        (f"{size}objects", objects, 2),
        (f"{size}classes", classes, 1),
        (f"{size}tests", tests, 1),
        ("cost_range", cost_range, 1),
    ):
        if low > high:
            raise ValueError(f"{where}{key}: empty range [{low}, {high}]")
        if low < floor:
            raise ValueError(f"{where}{key}: must be at least {floor}, got {low}")
    if outcomes < 2:
        raise ValueError(f"{where}{size}outcomes: must be at least 2, got {outcomes}")
    if cost_mode not in COST_MODES:
        raise ValueError(f"{where}cost_mode: unknown cost mode {cost_mode!r}")
    if prior_mode not in PRIOR_MODES:
        raise ValueError(f"{where}prior_mode: unknown prior mode {prior_mode!r}")
    # The hardest draw: the most objects, of two classes, by the fewest tests.
    # outcomes ** n.bit_length() > n, so the capped power keeps the comparison.
    most_objects, fewest_tests = objects[1], tests[0]
    reach = outcomes ** min(fewest_tests, most_objects.bit_length())
    if classes[1] >= 2 and reach < most_objects:
        raise ValueError(
            f"{where}{fewest_tests} tests with {outcomes} outcomes distinguish at most "
            f"{reach} objects, but up to {most_objects} objects of more than one class "
            "can be drawn, so completeness is impossible; raise tests or lower objects"
        )


# One reader per GeneratorSpec field, in field order, as _CONFIG_READERS has.
_SPEC_READERS = {
    "num_objects": _expect_int,
    "num_classes": _expect_int,
    "num_tests": _expect_int,
    "num_outcomes": _expect_int,
    "cost_mode": _expect_str,
    "cost_range": _as_range,
    "prior_mode": _expect_str,
    "seed": _expect_int,
    "name": lambda raw, where: None if raw is None else _expect_str(raw, where),
}


def _check_spec(spec: GeneratorSpec) -> GeneratorSpec:
    """Refuse a spec that cannot be drawn; return it rebuilt from its readers."""
    spec = GeneratorSpec(
        **{key: read(getattr(spec, key), key) for key, read in _SPEC_READERS.items()}
    )
    n, classes, tests = spec.num_objects, spec.num_classes, spec.num_tests
    _check_draws(
        "", "num_", (n, n), (classes, classes), (tests, tests),
        spec.num_outcomes, spec.cost_mode, spec.cost_range, spec.prior_mode,
    )
    if classes > n:
        raise ValueError(f"{classes} classes cannot be populated by {n} objects")
    return spec


def generate(spec: GeneratorSpec) -> Instance:
    """Draw the instance determined by the spec; always returns a valid one."""
    spec = _check_spec(spec)
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
