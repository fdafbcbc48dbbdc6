"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --metrics   # every metric, by name and unit

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs once untraced, then with every layer wrapped
(``layers.py``), prints the workload's layer table and reports the
per-layer metrics.  Either way the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
and the exit code is non-zero when any correctness gate failed.  See
``NOTES.md`` beside this file.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is a single-process, single-worker run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import layers  # noqa: E402
import suite  # noqa: E402

#: Untimed repetitions never go below this, however short ``--seconds``.
MIN_REPS = 3
#: A traced run: one untraced repetition, then at least this many traced.
MIN_TRACED_REPS = 2
#: Fresh interpreters that each time the set-up, besides this process.
SETUP_PROBES = 4
#: ``PYTHONHASHSEED`` of every benchmark interpreter.
HASH_SEED = "0"

#: (metric, unit, definition) — must match BENCHMARK.json.
#: Every time is in reference seconds (``hostclock``): host seconds scaled
#: by the speed of a fixed reference loop timed beside the work.
END_TO_END = (
    ("setup_s", "s", "import repro and build the workload's objects and "
     "empty caches; median of this process and 4 fresh interpreters"),
    ("wall_s", "s", "one cold pass: the sum over its parts (points, "
     "experiments, blocks of 512 fleet completions) of each part's median "
     "over the repetitions"),
    ("cached_wall_s", "s", "the same for one warm pass (result cache full; "
     "schedule cache warm on fleet_serve)"),
    ("req_per_s", "1/s", "operations one cold pass resolves per wall_s "
     "(fleet submissions, conformance points, sweep points)"),
    ("peak_rss_mb", "MB", "ru_maxrss of the benchmark process"),
)

#: (metric, unit, definition) — the per-layer metrics of a traced run.
PER_LAYER = (
    ("noc.run_s", "s", "self time in NocSimulator.run"),
    ("noc.runs", "count", "NocSimulator.run calls"),
    ("noc.flits", "count", "SimStats.flits_delivered, summed"),
    ("noc.events", "count", "SimStats.events_processed, summed"),
    ("noc.sim_cycles", "count", "SimStats.cycles, summed"),
    ("noc.idle_cycles_skipped", "count", "SimStats.idle_cycles_skipped"),
    ("noc.arbitration_conflicts", "count", "SimStats.arbitration_conflicts"),
    ("noc.us_per_flit", "us", "noc.run_s per delivered flit"),
    ("core.build_s", "s", "self time in build_schedule"),
    ("core.builds", "count", "build_schedule calls"),
    ("core.timing_s", "s", "self time in schedule_timing"),
    ("core.execute_s", "s", "self time in execute_schedule"),
    ("core.validate_s", "s", "self time in validate_schedule"),
    ("collectives.reference_s", "s", "self time in functional.execute"),
    ("collectives.timing_s", "s", "self time in every backend's timing"),
    ("collectives.timing_calls", "count", "backend timing calls"),
    ("schedcache.s", "s", "self time in ScheduleCache methods"),
    ("schedcache.schedule_hits", "count", "SchedCacheCounters"),
    ("schedcache.schedule_misses", "count", "SchedCacheCounters"),
    ("schedcache.profile_misses", "count", "SchedCacheCounters"),
    ("schedcache.timing_replays", "count", "SchedCacheCounters"),
    ("schedcache.timing_fallbacks", "count", "SchedCacheCounters"),
    ("schedcache.hit_ratio", "ratio", "(schedule hits + timing replays) / "
     "all schedule and timing lookups"),
    ("runner.key_s", "s", "self time in cache_key (canonicalize included)"),
    ("runner.put_s", "s", "self time in ResultCache.put"),
    ("runner.get_s", "s", "self time in ResultCache.get"),
    ("runner.points", "count", "points run or served, all passes"),
    ("runner.cache_hits", "count", "result-cache hits, all passes"),
    ("runner.cache_misses", "count", "result-cache misses, all passes"),
    ("faults.s", "s", "self time in collective_under_faults"),
    ("workloads.s", "s", "self time in compare_backends"),
    ("service.select_s", "s", "self time in AdmissionQueue.select"),
    ("service.occurrences", "count", "service.occurrences counter"),
    ("service.price_s", "s", "self time in PimnetBackend.schedule_times"),
    ("service.price_calls", "count", "PimnetBackend.schedule_times calls"),
    ("service.submit_calls", "count", "CollectiveService.submit calls "
     "(async: counted, not timed)"),
    ("service.admitted", "count", "service.admitted counter"),
    ("service.rejected", "count", "service.rejected counter"),
    ("service.peak_queue_depth", "count", "deepest shard admission queue"),
    ("service.sim_p50_s", "s", "simulated latency p50, cold drive"),
    ("service.sim_p99_s", "s", "simulated latency p99, cold drive"),
    ("reject_frac", "ratio", "fleet rejected / submitted, cold drive"),
    ("fleet.route_s", "s", "self time in shard_ranking"),
    ("fleet.submit_calls", "count", "FleetRouter.submit calls "
     "(async: counted, not timed)"),
    ("fleet.rerouted", "count", "fleet rerouted outcomes"),
    ("fleet.failed", "count", "fleet failed outcomes"),
    ("fleet.reroute_ratio", "ratio", "rerouted / submitted, cold drive"),
    ("metrics.s", "s", "self time in MetricsRegistry.counter/.histogram "
     "and LogBucketSketch.observe"),
    ("metrics.calls", "count", "calls to those three"),
    ("loop.other_s", "s", "fleet_serve: traced wall minus all span self "
     "time (asyncio dispatch and async entry points); 0 elsewhere"),
    ("unattributed_s", "s", "traced wall minus all span self time"),
    ("traced_wall_s", "s", "host seconds of one traced repetition"),
    ("trace_overhead_frac", "ratio", "traced wall / untraced wall - 1"),
    ("fail_frac", "ratio", "failed / attempted operations of the run"),
)

#: Per-layer time metrics: metric -> span.
SPAN_TIMES = {
    "noc.run_s": "noc.run",
    "core.build_s": "core.build",
    "core.timing_s": "core.timing",
    "core.execute_s": "core.execute",
    "core.validate_s": "core.validate",
    "collectives.reference_s": "collectives.reference",
    "collectives.timing_s": "collectives.timing",
    "schedcache.s": "schedcache",
    "runner.key_s": "runner.key",
    "runner.put_s": "runner.put",
    "runner.get_s": "runner.get",
    "faults.s": "faults",
    "workloads.s": "workloads",
    "service.select_s": "service.select",
    "service.price_s": "service.price",
    "fleet.route_s": "fleet.route",
    "metrics.s": "metrics",
}
#: Per-layer call counts: metric -> span.
SPAN_CALLS = {
    "noc.runs": "noc.run",
    "core.builds": "core.build",
    "collectives.timing_calls": "collectives.timing",
    "service.price_calls": "service.price",
    "service.submit_calls": "service.submit",
    "fleet.submit_calls": "fleet.submit",
    "metrics.calls": "metrics",
}
#: Per-layer metrics read from the program's own counters.
PROGRAM_COUNTS = (
    "schedcache.schedule_hits",
    "schedcache.schedule_misses",
    "schedcache.profile_misses",
    "schedcache.timing_replays",
    "schedcache.timing_fallbacks",
    "runner.points",
    "runner.cache_hits",
    "runner.cache_misses",
    "service.occurrences",
    "service.admitted",
    "service.rejected",
    "service.peak_queue_depth",
    "fleet.rerouted",
    "fleet.failed",
)


@dataclass
class Rep:
    """One repetition: a cold pass and its warm passes, checked.

    ``wall_s`` / ``warm_walls_s`` are raw host seconds.  ``cold_parts``
    / ``warm_parts`` split each pass into its parts, ``(host seconds,
    scale to reference seconds)`` each, in an order fixed by the
    workload, so part ``i`` is the same work in every repetition.
    """

    wall_s: float
    warm_walls_s: list[float]
    cold_parts: list[tuple[float, float]]
    warm_parts: list[list[tuple[float, float]]]
    requests: int
    verdict: suite.Verdict
    counts: dict[str, int]
    values: dict[str, float]
    spans: tuple[dict, dict, dict] | None = None

    @property
    def body_s(self) -> float:
        return self.wall_s + sum(self.warm_walls_s)


def timed_setup(name: str, seed: int) -> tuple[suite.Workload, float]:
    """Import ``repro`` and build the workload's objects; timed, in
    reference seconds (the reference loop runs just before and after)."""
    before = hostclock.reference_time()
    start = time.perf_counter()
    import repro  # noqa: F401

    workload = suite.WORKLOADS[name]()
    workload.build(seed)
    host_s = time.perf_counter() - start
    speed = (before + hostclock.reference_time()) / 2
    return workload, host_s * hostclock.REFERENCE_S / speed


def timed_pass(
    run_pass: Callable[[hostclock.PassClock], Any], probe: bool
) -> tuple[Any, float, list[tuple[float, float]]]:
    """One pass: its output, raw host seconds and parts."""
    gc.collect()
    clock = hostclock.PassClock(probe)
    start = time.perf_counter()
    clock.begin()
    try:
        output = run_pass(clock)
    finally:
        clock.end()
    return output, time.perf_counter() - start, clock.parts


def one_rep(
    workload: suite.Workload, tracer: layers.Tracer | None,
    probe: bool = True,
) -> Rep:
    """A cold pass and its warm passes; ``probe=False`` gauges no host
    speed, so the raw walls hold only the workload's own time."""
    workload.fresh()
    if tracer is not None:
        tracer.reset()
    cold, wall, cold_parts = timed_pass(workload.cold, probe)
    warms, warm_walls, warm_parts = [], [], []
    for _ in range(workload.warm_passes):
        warm, warm_wall, parts = timed_pass(workload.warm, probe)
        warms.append(warm)
        warm_walls.append(warm_wall)
        warm_parts.append(parts)
    spans = tracer.snapshot() if tracer is not None else None
    return Rep(
        wall_s=wall,
        warm_walls_s=warm_walls,
        cold_parts=cold_parts,
        warm_parts=warm_parts,
        requests=workload.requests(cold),
        verdict=workload.check(cold, warms),
        counts=workload.counts(cold, warms),
        values=workload.values(cold),
        spans=spans,
    )


def repeat(
    workload: suite.Workload, seconds: float, minimum: int,
    tracer: layers.Tracer | None = None, probe: bool = True,
) -> list[Rep]:
    """Repeat until ``seconds`` are used: a repetition starts only while
    at least half of the last one's time is left, so a run of long
    repetitions ends near ``seconds`` rather than one repetition past."""
    deadline = time.perf_counter() + seconds
    reps: list[Rep] = []
    last_s = 0.0
    while len(reps) < minimum or time.perf_counter() + last_s / 2 < deadline:
        start = time.perf_counter()
        reps.append(one_rep(workload, tracer, probe))
        last_s = time.perf_counter() - start
    return reps


def setup_probes(name: str, seed: int) -> list[float]:
    """Time the set-up in fresh interpreters (imports are not cached)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def determinism_problems(reps: list[Rep]) -> list[str]:
    """Exact counters must repeat between repetitions of one seed."""
    problems = []
    first = reps[0]
    for index, rep in enumerate(reps[1:], start=1):
        for label, ours, theirs in (
            ("counters", first.counts, rep.counts),
            ("simulated values", first.values, rep.values),
        ):
            if ours != theirs:
                keys = sorted(
                    k for k in set(ours) | set(theirs)
                    if ours.get(k) != theirs.get(k)
                )
                problems.append(
                    f"repetition {index} {label} differ from repetition 0: "
                    f"{', '.join(keys)}"
                )
    traced = [rep for rep in reps if rep.spans is not None]
    for rep in traced[1:]:
        if rep.spans[1:] != traced[0].spans[1:]:
            problems.append("span counts differ between traced repetitions")
    return problems


def end_to_end(
    name: str, seed: int, reps: list[Rep], setup_s: float
) -> dict[str, float]:
    """A pass time is the sum over its parts of each part's median
    reference seconds over the repetitions (see ``hostclock``)."""
    setups = [setup_s, *setup_probes(name, seed)]
    wall = median_of_parts([r.cold_parts for r in reps])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cached_wall_s": median_of_parts(
            [parts for r in reps for parts in r.warm_parts]
        ),
        "req_per_s": reps[0].requests / wall,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }


def median_of_parts(
    passes: list[list[tuple[float, float]]], scaled: bool = True
) -> float:
    """Sum over part ``i`` of its median time over ``passes``: reference
    seconds, or raw host seconds with ``scaled=False``."""
    return sum(
        statistics.median(
            host * scale if scaled else host for host, scale in samples
        )
        for samples in zip(*passes, strict=True)
    )


def speed_scale(reps: list[Rep]) -> float:
    """Median scale from host to reference seconds over all cold parts."""
    return statistics.median(
        scale for rep in reps for _, scale in rep.cold_parts
    )


def per_layer(
    name: str, untraced: Rep, traced: list[Rep], fail_frac: float
) -> tuple[dict[str, float], str]:
    """Per-layer metrics, averaged over traced repetitions, and the table."""
    spans = sorted({s for rep in traced for s in rep.spans[0]})
    self_s = {
        span: statistics.fmean(rep.spans[0].get(span, 0.0) for rep in traced)
        for span in spans
    }
    _, calls, noc = traced[0].spans
    counts = traced[0].counts
    wall = statistics.fmean(rep.body_s for rep in traced)
    remainder = wall - sum(self_s.values())
    metrics: dict[str, float] = {}
    for metric, span in SPAN_TIMES.items():
        metrics[metric] = self_s.get(span, 0.0)
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = calls.get(span, 0)
    for metric in layers.NOC_STATS:
        metrics[metric] = noc.get(metric, 0)
    for metric in PROGRAM_COUNTS:
        metrics[metric] = counts.get(metric, 0)
    flits = metrics["noc.flits"]
    metrics["noc.us_per_flit"] = (
        1e6 * metrics["noc.run_s"] / flits if flits else 0.0
    )
    lookups = sum(
        counts.get(f"schedcache.{k}", 0)
        for k in ("schedule_hits", "schedule_misses", "timing_replays",
                  "timing_fallbacks", "profile_misses")
    )
    useful = counts.get("schedcache.schedule_hits", 0) + counts.get(
        "schedcache.timing_replays", 0
    )
    metrics["schedcache.hit_ratio"] = useful / lookups if lookups else 0.0
    for metric in ("service.sim_p50_s", "service.sim_p99_s", "reject_frac",
                   "fleet.reroute_ratio"):
        metrics[metric] = traced[0].values.get(metric, 0.0)
    metrics["loop.other_s"] = remainder if name == "fleet_serve" else 0.0
    metrics["unattributed_s"] = remainder
    metrics["traced_wall_s"] = wall
    metrics["trace_overhead_frac"] = (
        statistics.median(r.body_s for r in traced) / untraced.body_s - 1.0
    )
    metrics["fail_frac"] = fail_frac
    table = layers.format_layer_table(name, wall, self_s, calls)
    return metrics, table


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload, setup_s = timed_setup(name, seed)
    try:
        workload.generate()
        # Untimed, but checked: lazy first-call work lands here, so the
        # first timed repetition is no slower than the rest.
        warmup = one_rep(workload, None, probe=not trace)
        if not trace:
            reps = repeat(workload, seconds, MIN_REPS)
            checked = [warmup, *reps]
            problems = determinism_problems(checked)
        else:
            untraced = one_rep(workload, None, probe=False)
            tracer = layers.Tracer()
            tracer.install()
            try:
                traced = repeat(
                    workload, max(0.0, seconds - untraced.body_s),
                    MIN_TRACED_REPS, tracer, probe=False,
                )
            finally:
                tracer.uninstall()
            checked = [warmup, untraced, *traced]
            problems = determinism_problems(checked)
            for rep in traced:
                _, calls, noc = rep.spans
                problems += layers.binding_problems(
                    name, calls, noc, rep.counts
                )
    finally:
        workload.close()
    # Each repetition's counter comparison is one more checked operation.
    attempted = sum(r.verdict.attempted for r in checked) + len(checked)
    failed = sum(r.verdict.failed for r in checked) + len(problems)
    problems = [p for r in checked for p in r.verdict.problems] + problems
    fail_frac = failed / attempted
    host = {}
    if trace:
        metrics, table = per_layer(name, untraced, traced, fail_frac)
        units = {m: u for m, u, _ in PER_LAYER}
    else:
        metrics = end_to_end(name, seed, reps, setup_s)
        table = ""
        units = {m: u for m, u, _ in END_TO_END}
        host = {
            "raw wall_s": median_of_parts(
                [r.cold_parts for r in reps], scaled=False
            ),
            "reference scale": speed_scale(reps),
        }
    return {
        "workload": name,
        "seed": seed,
        "reps": len(checked),
        "problems": problems,
        "table": table,
        "host": host,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m: {"value": metrics[m], "unit": units[m]} for m in units
            },
        },
    }


def print_metric_list() -> None:
    for title, rows in (("end to end (--trace 0)", END_TO_END),
                        ("per layer (--trace 1)", PER_LAYER)):
        print(title)
        for metric, unit, definition in rows:
            print(f"  {metric:28s} {unit:6s} {definition}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metrics", action="store_true",
                        help="list every metric with its unit and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.metrics:
        print_metric_list()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        workload, setup_s = timed_setup(args.workload, args.seed)
        workload.close()
        print(repr(setup_s))
        return 0

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = outcome["result"]
    print(
        f"perfbench {outcome['workload']} seed={outcome['seed']} "
        f"repetitions={outcome['reps']} attempted={result['attempted']} "
        f"failed={result['failed']} "
        f"fail_frac={result['failed'] / result['attempted']:.6g}"
    )
    for problem in outcome["problems"]:
        print(f"  FAIL {problem}")
    if outcome["table"]:
        print(outcome["table"])
    for metric, entry in result["metrics"].items():
        print(f"  {metric:28s} {entry['value']:>16.6g} {entry['unit']}")
    for label, value in outcome["host"].items():
        print(f"  ({label:26s} {value:>16.6g})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # String hashing is randomised per interpreter, and host time moves
    # with it from process to process; every run uses one hash seed.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
