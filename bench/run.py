#!/usr/bin/env python3
"""Benchmark of the negotiations library.

    python3 bench/run.py --workload learn-exec --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) from a single process, one call at a
time, on inputs made from the seed. Set-up is repeated SETUP_ROUNDS times,
imports included, and timed. The batch and the membership stream are then
repeated for as many whole repetitions as fit in `--seconds` (at least one),
every output is checked against the references, and the last line printed is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

The end-to-end times are scaled by the host-speed calibration in
calibrate.py; the raw ones are printed too. With `--trace 0` the metrics are
the end-to-end ones. With `--trace 1`
untraced and traced repetitions alternate; the per-layer metrics come from
the first traced one, and the spans are written to .bench_trace/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = tracing.PACKAGE
MODULES = ("model", "traces", "teacher", "soundness", "automata", "learn_exec",
           "learn_paths", "generate", "formats")
SETUP_ROUNDS = 3
KERNEL_EVERY = 10
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 80.0)
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "membership_distinct": "count",
    "equivalence_total": "count",
    "member_p50_ms": "ms",
    "member_tail_ms": "ms",
}


class SetupError(Exception):
    """The library cannot be found or imported from the checkout."""


def load_library() -> SimpleNamespace:
    """Import the package afresh from the checkout's src/."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {src}")
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
    if Path(lib.model.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise SetupError(f"{PACKAGE} was imported from {lib.model.__file__}, not from {src}")
    return lib


# -- one repetition -------------------------------------------------------------------


def _call(fn, *args):
    """(output, seconds); a call that raises is recorded, never fatal."""
    start = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:
        out = {"error": f"{type(exc).__name__}: {exc}"}
    return out, perf_counter() - start


def repetition(lib, setup):
    """One pass over the batch and the stream. The stream is cut into one
    slice per batch call and each slice follows its call, so the stream's
    samples are spread over the whole run like the batch's. The calibration
    kernel runs before each call and every KERNEL_EVERY queries."""
    start = perf_counter()
    teachers = [lib.teacher.Teacher(target.negotiation) for target, _ in setup.stream]
    queries = [(teacher.member_exec_query, word)
               for teacher, (_, words) in zip(teachers, setup.stream) for word in words]
    cut = len(setup.items)
    outputs, times, answers, latencies, kernels = [], [], [], [], []
    for i, (label, call) in enumerate(setup.items):
        kernels.append(calibrate.kernel())
        out, seconds = _call(call)
        outputs.append((label, out))
        times.append(seconds)
        chunk = queries[i * len(queries) // cut:(i + 1) * len(queries) // cut]
        for j, (query, word) in enumerate(chunk):
            if j % KERNEL_EVERY == KERNEL_EVERY - 1:
                kernels.append(calibrate.kernel())
            answer, seconds = _call(query, word)
            answers.append(answer)
            latencies.append(seconds)
    elapsed = perf_counter() - start
    stream_stats = [teacher.stats.to_json() for teacher in teachers]
    return SimpleNamespace(outputs=outputs, times=times, answers=answers,
                           latencies=latencies, host=statistics.median(kernels),
                           stream_stats=stream_stats, elapsed=elapsed,
                           digest=digest(lib, outputs, answers, stream_stats))


def plain(lib, x):
    """JSON-able view of an output: negotiations as serialized, witnesses
    and configurations by their fields."""
    if isinstance(x, lib.model.Negotiation):
        return lib.formats.serialize(x)
    if isinstance(x, lib.model.Configuration):
        return list(x.nodes)
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, dict):
        return {k: plain(lib, v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(lib, v) for v in x]
    return x


def digest(lib, outputs, answers, stream_stats) -> str:
    """Hash of everything the library answered: learned negotiations,
    counterexamples, teacher counters and verdicts."""
    doc = {"batch": plain(lib, outputs), "stream": answers, "stream_stats": stream_stats}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check(lib, setup, rep) -> list:
    failures = []
    good = []
    for label, out in rep.outputs:
        if "error" in out:
            failures.append(f"{label}: {out['error']}")
        else:
            good.append((label, out))
    failures += setup.check(lib, good)
    answers = iter(rep.answers)
    for target, words in setup.stream:
        for word in words:
            answer = next(answers)
            if answer != lib.model.member_exec(target.negotiation, word):
                failures.append(f"{target.label}: teacher answered {answer!r} "
                                f"on {' '.join(word)}")
    return failures


# -- statistics ------------------------------------------------------------------------


def per_call_median(samples: list) -> list:
    """Element-wise median over repetitions of equally long sample lists."""
    return [statistics.median(column) for column in zip(*samples)]


def tail(values: list):
    """(percentile, value): the highest listed percentile with at least ten
    samples above it, by the nearest-rank rule."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def fits(begin, seconds, last) -> bool:
    """Whether one more repetition, as long as the last one, ends within
    the measured time: a run never overshoots by a whole repetition."""
    return perf_counter() - begin + last <= seconds


# -- runs -------------------------------------------------------------------------------


def untraced_run(workload, seed, seconds, tiny):
    raw_setup, setup_times = [], []
    for _ in range(SETUP_ROUNDS):
        start = perf_counter()
        lib = load_library()
        setup = WORKLOADS[workload](lib, seed, tiny)
        raw_setup.append(perf_counter() - start)
        host = statistics.median(calibrate.kernel() for _ in range(KERNEL_EVERY))
        setup_times.append(raw_setup[-1] * calibrate.REFERENCE_S / host)
    describe(workload, seed, setup)
    reps = []
    begin = perf_counter()
    while not reps or fits(begin, seconds, reps[-1].elapsed):
        reps.append(repetition(lib, setup))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, attempted, notes = evaluate(lib, setup, reps)

    def scaled(samples):
        """Per-call medians over repetitions, of raw and of scaled samples."""
        raw = per_call_median([getattr(r, samples) for r in reps])
        return raw, per_call_median([[t * calibrate.REFERENCE_S / r.host
                                      for t in getattr(r, samples)] for r in reps])

    raw_times, times = scaled("times")
    raw_ms, latencies_ms = ([t * 1000 for t in ts] for ts in scaled("latencies"))
    q, tail_ms = tail(latencies_ms)
    stats = [o["stats"] for _, o in reps[0].outputs if o.get("stats")] + reps[0].stream_stats
    metrics = {
        "wall_s": sum(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "membership_distinct": sum(s["membership_distinct"] for s in stats),
        "equivalence_total": sum(s["equivalence_total"] for s in stats),
        "member_p50_ms": statistics.median(latencies_ms),
        "member_tail_ms": tail_ms,
    }
    print(f"repetitions: {len(reps)} in {perf_counter() - begin:.1f} s; "
          f"batch medians over {len(reps)} runs of {len(setup.items)} calls")
    print(f"member latency: per-query medians of {len(latencies_ms)} queries; "
          f"member_tail_ms is p{q:g}")
    print(f"host: calibration kernel median {statistics.median(r.host for r in reps) * 1000:.4f} ms, "
          f"times scaled to {calibrate.REFERENCE_S * 1000:g} ms; raw wall_s {sum(raw_times):.4f}, "
          f"raw setup_s {statistics.median(raw_setup):.4f}, raw member_p50_ms "
          f"{statistics.median(raw_ms):.4f}, raw member_tail_ms {tail(raw_ms)[1]:.4f}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return failed, attempted, notes, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                      for k, v in metrics.items()}


def traced_run(workload, seed, seconds, tiny):
    lib = load_library()
    with tracing.Tracer(lib) as setup_tracer:
        setup = WORKLOADS[workload](lib, seed, tiny)
    describe(workload, seed, setup)
    plain_reps, traced_reps, walls = [], [], []
    first = None
    begin = perf_counter()
    while not traced_reps or fits(begin, seconds, plain_reps[-1].elapsed + walls[-1]):
        plain_reps.append(repetition(lib, setup))
        with tracing.Tracer(lib) as tr:
            start = perf_counter()
            with tr.root():
                rep = repetition(lib, setup)
            walls.append(perf_counter() - start)
        traced_reps.append(rep)
        if first is None:
            first = tr
    failed, attempted, notes = evaluate(lib, setup, plain_reps + traced_reps)
    # self-checks of the traced run
    called = first.called() | setup_tracer.called()
    for name, where in tracing.PREDICTIONS.items():
        if workload in where and name not in called:
            notes.append(f"trace: {name} is predicted to matter here but was never called")
    wall = walls[0]
    # slack for the host pausing the process between the outer clock reads
    # and the root span's own
    if abs(first.self_time_sum() - wall) > 0.02 * wall + 0.005:
        notes.append(f"trace: self times sum to {first.self_time_sum():.4f} s, "
                     f"traced wall time is {wall:.4f} s")
    if {r.digest for r in traced_reps} != {plain_reps[0].digest}:
        notes.append("trace: the traced digest differs from the untraced one")
    metrics = first.metrics()
    metrics.update(setup_tracer.metrics(only={"generate.generate"}))
    overhead = statistics.median(walls) / statistics.median(r.elapsed for r in plain_reps)
    metrics["trace.overhead_ratio"] = overhead
    path = ROOT / ".bench_trace" / f"{workload}.spans"
    first.dump(str(path))
    print(f"trace: {len(first.span_name)} spans written to {path.relative_to(ROOT)}; "
          f"overhead ratio {overhead:.3f} over {len(walls)} traced repetitions")
    units = {name: unit for name, unit, _ in tracing.per_layer_names()}
    return failed, attempted, notes, {k: {"value": metrics[k], "unit": units[k]} for k in units}


def describe(workload, seed, setup):
    print(f"workload {workload} seed {seed}: {len(setup.items)} batch calls, "
          f"{sum(len(w) for _, w in setup.stream)} stream queries")
    for label, size in setup.described:
        print(f"input {label}: " + " ".join(f"{k}={v}" for k, v in size.items()))


def evaluate(lib, setup, reps):
    """Check outputs (once per distinct digest) and count failures."""
    calls = len(setup.items) + sum(len(w) for _, w in setup.stream)
    by_digest = {}
    failed = 0
    for rep in reps:
        if rep.digest not in by_digest:
            by_digest[rep.digest] = check(lib, setup, rep)
        failed += len(by_digest[rep.digest])
    notes = [f for fails in by_digest.values() for f in fails[:5]]
    if len(by_digest) > 1:
        notes.append(f"repetitions gave {len(by_digest)} different digests")
    print(f"digest {reps[0].digest}")
    print(f"failed_ratio = {failed}/{calls * len(reps)} = {failed / (calls * len(reps)):g}")
    return failed, calls * len(reps), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    run = traced_run if args.trace else untraced_run
    try:
        failed, attempted, notes, metrics = run(args.workload, args.seed, args.seconds, args.tiny)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"FAILED: {note}")
    result = {"correct": not notes and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
