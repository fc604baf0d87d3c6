"""Benchmark driver: one workload, one process, one caller, one thread.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the checkout's ``src/`` and receives only the
inputs generated from ``--seed``.  Set-up runs ``SETUP_REPEATS`` times;
``setup_s`` is the median over the repeats of a fresh interpreter's import
of the CLI plus the workload's set-up.  Items then run back to back (a
closed loop) until ``--seconds`` of timed work are done.  The end-to-end
times are host-normalized by calibration probes (see ``run_untraced``).  Every output is
checked outside the timed span.  With ``--trace 1`` the reference items are
repeated instead, alternately with and without the per-layer wrappers of
``tracing.py``.

A few lines of run record go to standard output, followed by the result as
one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3
DEFAULT_SEED = 1406
HELD_OUT_SEED = 3655
P90_MIN_ITEMS = 100
# Median calibration time on the 2-vCPU host the benchmark was tuned on: the
# scale of the host-normalized seconds in the end-to-end metrics.
CALIBRATION_S = 0.016
PROBE_EVERY_S = 0.5
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import dfep.harness.cli; "
    "print(time.perf_counter() - start)"
)

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_s_p50": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "harness.generate.s": "s",
    "harness.read_instance.s": "s",
    "harness.write_tree.s": "s",
    "harness.cli_main.s": "s",
    "harness.run_experiment.s": "s",
    "harness.trade_off_points": "count",
    "model.validate_instance.s": "s",
    "model.evaluate.s": "s",
    "model.evaluate.calls": "count",
    "model.restrict_tree.s": "s",
    "model.restrict_tree.calls": "count",
    "model.partition.calls": "count",
    "model.pair_count.calls": "count",
    "model.separated_pairs.calls": "count",
    "model.tree_objects.calls": "count",
    "greedy.divide_pairs.s": "s",
    "greedy.root_lower_bound.s": "s",
    "greedy.select_test.calls": "count",
    "greedy.criterion_value.calls": "count",
    "greedy.scores_per_node": "ratio",
    "oracle.opt_worst.s": "s",
    "oracle.opt_expected.s": "s",
    "oracle.pareto_frontier.s": "s",
    "oracle.states_explored": "count",
    "oracle.partition.calls": "count",
    "oracle.partitions_per_state": "ratio",
    "oracle.frontier_points": "count",
    "combine.combine_trees.s": "s",
    "combine.combine_trees.calls": "count",
    "combine.combine_uniform.s": "s",
    "combine.restricts_per_splice": "ratio",
    "trace.items": "count",
    "trace.traced_items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s",
    "trace.overhead_items_per_s": "1/s",
}

# ratio metric -> (numerator, denominator); both are reported as well.
RATIOS = {
    "greedy.scores_per_node": ("greedy.criterion_value.calls", "greedy.select_test.calls"),
    "oracle.partitions_per_state": ("oracle.partition.calls", "oracle.states_explored"),
    "combine.restricts_per_splice": ("model.restrict_tree.calls", "combine.combine_trees.calls"),
}


def _import_program() -> None:
    """Import dfep from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "dfep" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dfep sources under {src}")
    sys.path.insert(0, str(src))
    import dfep

    if Path(dfep.__file__).resolve().parent != (src / "dfep").resolve():
        raise SystemExit(f"perfbench: imported dfep from {dfep.__file__}, not {src}")


def _import_seconds() -> float:
    """What a fresh interpreter spends importing the CLI and everything it needs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    return float(done.stdout)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown (git not found)"
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Outputs:
    """Checks item outputs and hashes the reference set.

    An item fails when it raises, when one of its checks fails, when its
    bytes differ from an earlier item with the same input, or when a
    reference item's bytes differ from the digest recorded for this seed.
    """

    def __init__(self, reference: int, recorded: list[str] | None):
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.by_key: dict[str, str] = {}
        self.reference: list[str | None] = [None] * reference

    def record(self, index: int, item, result, error: str | None) -> None:
        self.attempted += 1
        problems = [error] if error else []
        if not problems:
            try:
                data, problems = item.finish(result)
            except Exception:
                problems = ["check raised:\n" + traceback.format_exc()]
        if not problems:
            digest = hashlib.sha256(data).hexdigest()
            if self.by_key.setdefault(item.key, digest) != digest:
                problems = ["output differs from an earlier run of the same input"]
            elif index < len(self.reference):
                self.reference[index] = digest
                if self.recorded is not None and self.recorded[index] != digest:
                    problems = [f"output digest differs from {DIGESTS.name}"]
        if problems:
            self.failed += 1
            print(f"item {index} ({item.key}) failed: " + "; ".join(problems), file=sys.stderr)

    def digest(self) -> str | None:
        if None in self.reference:
            return None
        return hashlib.sha256("".join(self.reference).encode()).hexdigest()


def _run_item(item) -> tuple[object, float, str | None]:
    start = time.perf_counter()
    try:
        result = item.run()
        error = None
    except Exception:
        result, error = None, "raised:\n" + traceback.format_exc()
    return result, time.perf_counter() - start, error


def calibrate() -> float:
    """Seconds for a fixed job shaped like dfep's inner loops.

    It uses the standard library only (exact fractions, frozenset keys,
    dict stores), so no change to the repository can alter its cost: it
    measures how fast the host runs this kind of code at the moment.
    """
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 3000):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        seen[frozenset((i % 13, i % 17, i % 19))] = total
    return time.perf_counter() - start


def measure(workload, outputs: Outputs, seconds: float, probes: list[float]) -> list[float]:
    """Closed loop over items until ``seconds`` of timed work are done.

    A new round starts only while half a round's mean duration still fits,
    so runs end close to ``seconds`` whatever the round length.  Every
    ``PROBE_EVERY_S`` of item time a calibration probe is appended to
    ``probes``, untimed.
    """
    times: list[float] = []
    index = 0
    since_probe = 0.0
    while True:
        item = workload.item(index)
        result, elapsed, error = _run_item(item)
        times.append(elapsed)
        outputs.record(index, item, result, error)
        since_probe += elapsed
        if since_probe >= PROBE_EVERY_S:
            probes.append(calibrate())
            since_probe = 0.0
        index += 1
        if index % workload.round or index < workload.reference:
            continue
        rounds = index // workload.round
        if sum(times) + 0.5 * sum(times) / rounds >= seconds:
            return times


class WorkCountMismatch(RuntimeError):
    """The traced repeats of identical work counted different work."""


def traced(workload, outputs: Outputs, tracer, seconds: float) -> dict[str, float]:
    """Repeat the reference items, alternately traced and untraced.

    Returns the per-layer metrics: the traced set-up plus one traced repeat,
    taking the median over repeats for times.  Counts must be identical in
    every traced repeat.
    """
    setup_counts = Counter(tracer.counts)
    tracer.counts.clear()
    reps: list[tuple[Counter, Counter]] = []
    rates: dict[bool, list[float]] = {True: [], False: []}
    spent = 0.0
    while spent < seconds or len(rates[True]) < 2 or not rates[False]:
        on = len(rates[True]) <= len(rates[False])
        rep = len(rates[True]) + len(rates[False])
        elapsed = 0.0
        for index in range(workload.reference):
            item = workload.item(index)
            if on:
                tracer.install(f"rep{rep}/item{index}")
            try:
                result, took, error = _run_item(item)
            finally:
                tracer.remove()
            elapsed += took
            outputs.record(index, item, result, error)
        spent += elapsed
        rates[on].append(workload.reference / elapsed)
        if on:
            reps.append((tracer.self_times(f"rep{rep}/"), Counter(tracer.counts)))
            tracer.counts.clear()
    counts = reps[0][1]
    if any(rep_counts != counts for _, rep_counts in reps):
        raise WorkCountMismatch([dict(rep_counts) for _, rep_counts in reps])
    setup_times = tracer.self_times("setup")
    metrics: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".s"):
            metrics[name] = setup_times[name] + statistics.median(t[name] for t, _ in reps)
        elif not name.startswith("trace.") and name not in RATIOS:
            metrics[name] = setup_counts[name] + counts[name]
    for name, (numerator, denominator) in RATIOS.items():
        metrics[name] = metrics[numerator] / metrics[denominator] if metrics[denominator] else 0.0
    metrics["trace.items"] = workload.reference
    metrics["trace.traced_items_per_s"] = statistics.median(rates[True])
    metrics["trace.untraced_items_per_s"] = statistics.median(rates[False])
    metrics["trace.overhead_items_per_s"] = (
        metrics["trace.traced_items_per_s"] - metrics["trace.untraced_items_per_s"]
    )
    return metrics


def run_traced(setup, args, workdir: Path, recorded) -> tuple[dict, bool, list[str], object]:
    import tracing

    tracer = tracing.Tracer(extra_modules=("workloads",))
    tracer.install("setup")
    try:
        workload = setup(args.seed, str(workdir))
    finally:
        tracer.remove()
    outputs = Outputs(workload.reference, recorded)
    notes = [f"{name} = {num} / {den}" for name, (num, den) in RATIOS.items()]
    try:
        values, counts_ok = traced(workload, outputs, tracer, args.seconds), True
    except WorkCountMismatch as exc:
        print(f"work counts differ between traced repeats: {exc}", file=sys.stderr)
        values, counts_ok = {}, False
    spans = workdir.parent / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(str(spans))
    notes.append(f"spans written to {spans.relative_to(ROOT)}")
    return values, counts_ok, notes, (workload, outputs)


def run_untraced(setup, args, workdir: Path, recorded) -> tuple[dict, bool, list[str], object]:
    """End-to-end metrics, with every time divided by the host's slowness.

    The host's slowness is the run's median calibration probe over
    ``CALIBRATION_S``; probes run after each set-up and through the timed
    loop.  On a shared machine the host's speed drifts by tens of percent
    over minutes, and the probes take that drift out of the metrics while
    leaving in every change to the program.  Raw values are in the record.
    """
    setup_times, probes = [], []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        import_s = _import_seconds()
        start = time.perf_counter()
        workload = setup(args.seed, str(workdir))
        setup_times.append(import_s + time.perf_counter() - start)
        probes.append(calibrate())
    gc.collect()
    outputs = Outputs(workload.reference, recorded)
    times = measure(workload, outputs, args.seconds, probes)
    raw = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(times) / sum(times),
        "item_s_p50": statistics.median(times),
    }
    slowness = statistics.median(probes) / CALIBRATION_S
    values = {
        "setup_s": raw["setup_s"] / slowness,
        "items_per_s": raw["items_per_s"] * slowness,
        "item_s_p50": raw["item_s_p50"] / slowness,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        "setup repeats (fresh-interpreter import + set-up): "
        + " ".join(f"{t:.4f}" for t in setup_times) + " s",
        f"host slowness {slowness:.4f} (median of {len(probes)} calibration probes "
        f"over {CALIBRATION_S} s); raw " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ]
    if len(times) >= P90_MIN_ITEMS:
        p90 = statistics.quantiles(times, n=10)[8]
        notes.append(f"item_s_p90 {p90 / slowness:.6f} s (raw {p90:.6f} s) over {len(times)} items")
    else:
        notes.append(f"item_s_p90 not reported: {len(times)} items < {P90_MIN_ITEMS}")
    return values, True, notes, (workload, outputs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"store this run's reference-set digests in {DIGESTS.name} instead of checking them",
    )
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.SETUPS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.SETUPS)}")
    all_digests = json.loads(DIGESTS.read_text())
    recorded = None if args.record_digests else all_digests.get(args.workload, {}).get(str(args.seed))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = run_traced if args.trace else run_untraced
    try:
        values, counts_ok, notes, (workload, outputs) = run(
            workloads.SETUPS[args.workload], args, workdir, recorded
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = outputs.digest()
    if args.record_digests and digest is not None:
        all_digests.setdefault(args.workload, {})[str(args.seed)] = outputs.reference
        DIGESTS.write_text(json.dumps(all_digests, indent=2, sort_keys=True) + "\n")
        state = f"recorded in {DIGESTS.name}"
    elif recorded is None:
        state = "no digest recorded for this seed"
    else:
        state = f"checked against {DIGESTS.name}"
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{args.seconds:g} s; default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}")
    print(f"git {_git_sha()}; src sha256 {_source_digest()}")
    print(f"python {platform.python_version()}; nproc {os.cpu_count()}; one caller, one thread")
    print(f"items {outputs.attempted} (reference set {workload.reference}, rounds of "
          f"{workload.round}); fail_ratio {outputs.failed}/{outputs.attempted}")
    for note in notes:
        print(note)
    print(f"reference digest {digest} ({state})")

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": outputs.failed == 0 and counts_ok and digest is not None,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
