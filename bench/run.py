"""Benchmark for the delib command, driven in-process as a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues one ``delib`` command at a time through
``delib.cli.main``; the next starts when the previous one has finished.  A
run builds its inputs from the seed (set-up, timed several times), then runs
whole rounds of the workload's commands until the round boundary nearest
to ``--seconds``, and checks every round's outputs against the
benchmark's own computations.  Every round runs the same commands; before
each command the benchmark times its own reference loop, and the timing
metrics are a command's mean time over the rounds in units of that loop's
mean time over the run (see ``reference_loop``).  A traced run runs each
command both untraced and traced, and reports the difference as the
tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A failed check
makes the run exit with code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import types
from fractions import Fraction
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_PASSES = 4  # per batch: before the first round, and after each round
REFERENCE_LOOPS = 2  # timed before each command of an untraced round

sys.path.insert(0, BENCH_DIR)

import checkers  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Context, Result  # noqa: E402

def import_delib() -> types.SimpleNamespace:
    """Import the package afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "delib" or m.startswith("delib.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"delib.{layer}") for layer in tracing.LAYERS}
    origin = os.path.dirname(os.path.dirname(os.path.abspath(mods["cli"].__file__)))
    if origin != SRC:
        raise ImportError(f"delib was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def execute(op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = op.call()
    except SystemExit as exc:  # argparse rejections
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught exception is a traceback for a CLI user
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    return Result(op, rc, out.getvalue(), err.getvalue(), seconds, error)


def reference_loop():
    """A fixed piece of pure-Python work, about 1 ms, that uses no delib code.

    On a shared 2-vCPU virtual machine the same command takes up to 1.7
    times as long in some stretches, seconds to minutes long, as in others,
    and how much of a 30 s run falls in slow stretches changes from run to
    run.  The loop is timed between commands all through the run, so
    its mean time slows with the commands; a command's mean time divided by
    the loop's (a "ref") changes by a few percent from run to run where the
    seconds change by up to a third.  Fraction sums, small-integer bit
    counts and dict stores are what delib's own loops do.
    """
    total, bits, seen = Fraction(0), 0, {}
    for i in range(1, 200):
        total += Fraction(1, i)
        for m in range(i, i + 24):
            bits += (m & 0x5A5A).bit_count() < 4
        seen[i & 63] = (total, bits)
    return bits


def run_round(workload, ctx, reference_times) -> list[Result]:
    results = []
    for op in workload.ops(ctx):
        for _ in range(REFERENCE_LOOPS):
            start = perf_counter()
            reference_loop()
            reference_times.append(perf_counter() - start)
        results.append(execute(op))
    return results


def run_paired_round(workload, ctx, tracer) -> tuple[list[Result], list[Result]]:
    """Each command twice in a row, once untraced and once traced.

    Returns the untraced and the traced results.  Pairing each command with
    its own untraced run, and swapping which of the two goes first from one
    command to the next, keeps the machine's drift out of the difference,
    the tracing overhead.
    """
    untraced, traced = [], []
    for i, op in enumerate(workload.ops(ctx)):
        for on in (False, True) if i % 2 == 0 else (True, False):
            tracer.enabled = on
            (traced if on else untraced).append(execute(op))
        tracer.enabled = False
    return untraced, traced


def check_round(workload, ctx, results) -> str | None:
    """None when every output is right, else the first reason it is not."""
    unexpected = [r for r in results if not r.ok and r.op.accept is None]
    if unexpected:
        r = unexpected[0]
        return f"{r.op.label} failed: rc={r.rc} {r.error or r.err.strip()}"
    try:
        workload.check(ctx, results)
    except checkers.CheckFailed as exc:
        return str(exc)
    except (LookupError, ValueError, OSError) as exc:  # an output or file not in the expected form
        return f"{type(exc).__name__}: {exc}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "delib")):
        print(f"error: no delib package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    checkers.selftest()
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        return measure(workload, args, tag, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def set_up(workload, seed, pass_dir, tracer=None) -> tuple[Context, float]:
    """One set-up pass into a fresh directory; traced when a tracer is given."""
    os.makedirs(pass_dir)
    start = perf_counter()
    delib = import_delib()
    if tracer is not None:
        tracing.install(tracer)
        tracer.enabled = True
    ctx = Context(delib, pass_dir, seed)
    workload.setup(ctx)
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    return ctx, seconds


def measure(workload, args, tag, work) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)  # the metric names and units reported
    traced = bool(args.trace)
    tracer = tracing.Tracer() if traced else None

    # Set-up: import the package and write the inputs.  An untraced run
    # sets up again after every round, so that the passes sample the
    # machine at several moments of the run.
    setup_times = []

    def setup_batch(last_tracer=None):
        for i in range(SETUP_PASSES):
            pass_dir = os.path.join(work, f"setup-{len(setup_times)}")
            ctx, seconds = set_up(workload, args.seed, pass_dir, last_tracer if i == SETUP_PASSES - 1 else None)
            setup_times.append(seconds)
        return ctx

    ctx = setup_batch(tracer)
    setup_stats = tracer.take() if traced else None

    # Timed phase: whole rounds while at least half of the next one is
    # expected to fall within --seconds, so that the run ends at the round
    # boundary nearest to it.  A traced run keeps the spans of its first round.
    rounds, results, untraced, reference_times, problems = 0, [], [], [], []
    started = perf_counter()
    while True:
        if traced:
            tracer.keep_spans = not rounds
            round_untraced, round_results = run_paired_round(workload, ctx, tracer)
            untraced.extend(round_untraced)
        else:
            round_results = run_round(workload, ctx, reference_times)
        rounds += 1
        results.extend(round_results)
        problem = check_round(workload, ctx, round_results)
        if problem:
            problems.append(problem)
        if not traced:
            setup_batch()
        elapsed = perf_counter() - started
        if elapsed + elapsed / rounds / 2 > args.seconds:
            break

    attempted = len(results)
    failed = sum(1 for r in results if not r.ok)
    if traced:
        stats = tracing.combine(setup_stats, tracer.take(), rounds)
        metrics = tracing.layer_metrics(stats)
        traced_wall = sum(mean_times(results).values())
        overhead = traced_wall - sum(mean_times(untraced).values())
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / (traced_wall - overhead)
        declared = "per_layer"
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.write_spans(os.path.join(OUT, "spans", f"{tag}.csv"))
    else:
        metrics = end_to_end(setup_times, results, statistics.fmean(reference_times))
        declared = "end_to_end"
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in benchmark[declared]},
    }
    for problem in problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    op_seconds = {}
    for r in results:
        op_seconds.setdefault(r.op.label, []).append(r.seconds)
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    with open(os.path.join(OUT, "runs", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=rounds, setup_times=setup_times, reference_times=reference_times, op_seconds=op_seconds), fh, indent=2)
    print(json.dumps(result))
    return 0 if not problems else 1


def mean_times(results) -> dict[str, float]:
    """Each command's mean time over the rounds, in seconds."""
    times = {}
    for r in results:
        times.setdefault(r.op.label, []).append(r.seconds)
    return {label: statistics.fmean(t) for label, t in times.items()}


def end_to_end(setup_times, results, reference) -> dict[str, float]:
    """The end-to-end metrics; times are in refs, multiples of ``reference`` seconds."""
    refs = {label: t / reference for label, t in mean_times(results).items()}
    first = {}  # each command's first result: its kind, outcome and output
    for r in results:
        first.setdefault(r.op.label, r)

    def total(kind):
        return sum(refs[label] for label, r in first.items() if r.op.kind == kind and r.ok)

    steps = sum(int(r.out.split("steps=", 1)[1].split()[0]) for r in first.values() if r.op.kind == "simulate" and r.ok)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_ref": sum(refs.values()),
        "solve_ref_p50": statistics.median(refs[label] for label, r in first.items() if r.op.kind == "solve" and r.ok),
        "transitions_per_ref": steps / total("simulate"),
        "verify_ref": total("verify"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


if __name__ == "__main__":
    sys.exit(main())
