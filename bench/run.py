"""Benchmark of the hafs CLI verbs on seeded workloads.

    python3 bench/run.py --workload enumerate|verify|solve|large \\
        --seed N --seconds S --trace 0|1

Run it from the root of the repository; the program is imported from
``src/``.  One operation is one in-process call of
``hafs.cli.run(argv, stdin=<framework text>, stdout=<buffer>)``, which
covers reading and parsing the text, the work and the JSON output.  One
client runs the workload's operations in a closed loop, in whole rounds,
until ``--seconds`` have passed; every output is then checked against the
benchmark's own computations (``checks.py``) and every later round
against the first.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``, per round.  Results and span traces go to ``.bench_out/``.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import hafs  # noqa: E402
    import hafs.cli  # noqa: E402
except ImportError as exc:
    sys.exit(f"bench: cannot import hafs from {os.path.join(ROOT, 'src')}: {exc}")
# CPU seconds of this process from its start to the program imported (numpy
# included): one cold set-up, which leaves out the time other tenants of a
# shared machine hold the processor.
SETUP_S = time.process_time()

import argparse  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

CHECKERS = {"enumerate": checks.check_enumerate, "verify": checks.check_verify,
            "solve": checks.check_solve, "large": checks.check_large}


MIN_ROUNDS = 5
# A fixed pure-Python loop timed before every operation.  Its time on a
# quiet reference machine is about CALIBRATION_S (README); the median of
# the samples within CALIBRATION_WINDOW operations of an operation, over
# that, is how much slower the machine ran around it.  The arithmetic loop
# stays in the core's caches, like the small frameworks of most workloads;
# `large` walks structures of several MB, which slow down more when other
# tenants share the caches, so it is calibrated by a walk over as many.
CALIBRATION_STEPS = 20_000
CALIBRATION_S = {"arithmetic": 0.0012, "memory": 0.0014}
CALIBRATION_WINDOW = 10


def arithmetic_loop() -> float:
    t0 = time.process_time()
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc += i * i % 7
    return (time.process_time() - t0) / CALIBRATION_S["arithmetic"]


@functools.cache
def calibration_items() -> list[dict]:
    return [{"a": i, "b": str(i)} for i in range(CALIBRATION_STEPS)]


def memory_loop() -> float:
    items = calibration_items()
    t0 = time.process_time()
    acc = 0
    for item in items:
        acc += item["a"] + len(item["b"])
    return (time.process_time() - t0) / CALIBRATION_S["memory"]


CALIBRATION = {"enumerate": arithmetic_loop, "verify": arithmetic_loop,
               "solve": arithmetic_loop, "large": memory_loop}


def local_slowdowns(samples) -> list[list[float]]:
    """Each operation's slowdown: the median of the round's samples from
    CALIBRATION_WINDOW operations before it to as many after it."""
    w = CALIBRATION_WINDOW
    return [[statistics.median(row[max(0, j - w):j + w + 1]) for j in range(len(row))]
            for row in samples]


def run_rounds(cases, seconds: float, tracer, calibration):
    """Repeat every operation of ``cases`` in order, in whole rounds, until
    at least MIN_ROUNDS rounds are done and ``seconds`` of wall time have
    passed.

    Operations are timed in CPU seconds of this process, which leave out
    the time other tenants hold the processor.  A ``calibration`` sample,
    the machine's slowdown at that moment, is taken before every
    operation, so the caller can remove the slower spells of a shared
    machine.  Returns the first round's outputs, every round's raw times
    and calibration samples, the count of operations and whether a later
    round's output differed from the first.
    """
    ops = [(i, argv) for i, case in enumerate(cases) for argv in case[2]]
    first, times, samples = {}, [], []
    attempted = 0
    drift = False
    start = time.perf_counter()
    while len(times) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        times.append([])
        samples.append([])
        for i, argv in ops:
            stdin, stdout, stderr = io.StringIO(cases[i][1]), io.StringIO(), io.StringIO()
            samples[-1].append(calibration())
            if tracer:
                tracer.operation = attempted
            t0 = time.process_time()
            rc = hafs.cli.run(list(argv), stdin=stdin, stdout=stdout, stderr=stderr)
            times[-1].append(time.process_time() - t0)
            result = (rc, stdout.getvalue())
            if len(times) == 1:
                first[i, argv] = result
            elif result != first[i, argv]:
                drift = True
            attempted += 1
    print(f"bench: timed phase took {time.perf_counter() - start:.2f} s wall, "
          f"{sum(map(sum, times)):.2f} s CPU in {len(times)} rounds; slowdown per round "
          + " ".join(f"{statistics.median(row):.3f}" for row in samples), file=sys.stderr)
    return first, times, samples, attempted, drift


def check_outputs(workload, cases, first) -> tuple[list[str], int]:
    """Problems found in the first round's outputs, and the number of
    operations per round that failed: those showing a kept fault, plus any
    that exited non-zero in a case with a problem."""
    problems, failed = [], 0
    for i, (fw, _, ops, extra) in enumerate(cases):
        out = {argv: first[i, argv] for argv in ops}
        try:
            failed += len(CHECKERS[workload](fw, ops, out, extra))
        except (checks.CheckError, KeyError, ValueError, TypeError) as exc:
            problems.append(f"{workload} case {i}: {type(exc).__name__}: {exc}\n{fw.canonical()}")
            failed += sum(rc != 0 for rc, _ in out.values())
    return problems, failed


def tail_percentile(samples) -> tuple[float, float]:
    """The highest of p50/p75/p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    best = (50.0, statistics.median(ordered))
    for p in (75.0, 90.0, 99.0, 99.9):
        if len(ordered) * (1 - p / 100) >= 10:
            best = (p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))])
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    cases = gen.WORKLOADS[opts.workload](random.Random(opts.seed))
    tracer = None
    if opts.trace:
        tracer = tracing.Tracer()
        tracer.install(hafs)
    try:
        first, times, samples, attempted, drift = run_rounds(cases, opts.seconds, tracer,
                                                         CALIBRATION[opts.workload])
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = len(times)
    raw = [statistics.median(op) for op in zip(*times)]
    slowdowns = local_slowdowns(samples)
    best = [statistics.median(t / x for t, x in zip(op, xs))
            for op, xs in zip(zip(*times), zip(*slowdowns))]

    problems, failed_per_round = check_outputs(opts.workload, cases, first)
    failed = failed_per_round * rounds
    if drift:
        problems.append("a later round's output differs from the first round's")
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    print(f"bench: uncalibrated: "
          f"{len(raw) / sum(raw):.2f} op/s, p50 {statistics.median(raw) * 1e3:.3f} ms",
          file=sys.stderr)
    p_tail, tail = tail_percentile(best)
    print(f"bench: {opts.workload} seed={opts.seed} trace={opts.trace}: {attempted} ops "
          f"({failed} failed), {len(best)} per round; calibrated medians: "
          f"{len(best) / sum(best):.2f} op/s, p50 {statistics.median(best) * 1e3:.3f} ms, "
          f"p{p_tail:g} {tail * 1e3:.3f} ms over {len(best)} operations", file=sys.stderr)

    if tracer:
        totals = tracer.totals()
        values = {}
        for name, unit in tracing.metric_names():
            span, _, field = name.rpartition(".")
            if field == "calls":
                value = totals.get(span, (0, 0.0))[0]
            elif field == "self_s":
                value = totals.get(span, (0, 0.0))[1]
            else:
                value = tracer.counters.get(name, 0)
            values[name] = {"value": value / rounds, "unit": unit}
        metrics = values
    else:
        metrics = {
            "setup_s": {"value": SETUP_S, "unit": "s"},
            "ops_per_s": {"value": len(best) / sum(best), "unit": "op/s"},
            "op_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{opts.workload}-seed{opts.seed}-trace{opts.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "op_seconds": times, "slowdown_samples": samples}, fh)
    if tracer:
        tracer.dump(stem + ".spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
