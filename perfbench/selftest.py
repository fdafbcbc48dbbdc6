"""Self-tests of the benchmark: does it catch what it claims to catch?

Run from the root of a checkout (about two minutes on two cores)::

    python3 perfbench/selftest.py

1. A doctored program output is counted in ``failed`` / ``fail_frac``
   on every workload, and makes ``run.py`` exit non-zero.
2. A slowdown injected into one wrapped layer (``ResultCache.put``)
   shows in that layer's row of the traced run and in the end-to-end
   metric the layer map predicts (``wall_s`` on ``sweep``), not in the
   one it predicts flat (``cached_wall_s``).
3. Every correctness gate holds on a held-out seed, with exact counters
   repeating between repetitions of that seed.
4. Without the program beside it, ``run.py`` exits non-zero and prints
   no result.
5. ``BENCHMARK.json`` declares exactly the metrics ``run.py`` reports.

Exit code 0 when all pass.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import suite  # noqa: E402

sys.path.insert(0, str(run.SRC))

#: A seed no tuning run used.
HELD_OUT_SEED = 7919
#: Busy-wait injected into every ResultCache.put call.
INJECTED_S = 10e-3


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


@contextlib.contextmanager
def patched(owner: Any, attr: str, make: Callable[[Any], Any]) -> Iterator[None]:
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def quick(min_reps: int = 1, min_traced: int = 1) -> Iterator[None]:
    """Fewer repetitions and no set-up probes, for speed."""
    saved = run.MIN_REPS, run.MIN_TRACED_REPS, run.SETUP_PROBES
    run.MIN_REPS, run.MIN_TRACED_REPS, run.SETUP_PROBES = (
        min_reps, min_traced, 0
    )
    try:
        yield
    finally:
        run.MIN_REPS, run.MIN_TRACED_REPS, run.SETUP_PROBES = saved


def metrics_of(outcome: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in outcome["result"]["metrics"].items()}


# --------------------------------------------------------------------------
# 1. doctored outputs
# --------------------------------------------------------------------------


def test_doctored_sweep_exits_nonzero() -> None:
    from repro.runner.executor import ExperimentRun

    def make(original):
        def format(self):
            text = original(self)
            return text + " " if self.experiment_id == "fig11" else text
        return format

    with quick(), patched(ExperimentRun, "format", make):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run.main(["--workload", "sweep", "--seconds", "0"])
    expect(code != 0, f"doctored sweep exited {code}")
    expect("fig11: output != golden" in out.getvalue(),
           "doctored fig11 output not reported")
    result = out.getvalue().strip().splitlines()[-1]
    expect('"correct": false' in result, "result line not marked incorrect")


def test_doctored_fleet_price_is_counted() -> None:
    from repro.core.pimnet import PimnetBackend

    def make(original):
        def schedule_times(self, request):
            times = dict(original(self, request))
            busiest = max(times, key=times.get)
            times[busiest] *= 1.0 + 1e-9
            return times
        return schedule_times

    with quick(), patched(PimnetBackend, "schedule_times", make):
        outcome = run.run("fleet_serve", suite.DEFAULT_SEED, 0, False)
    result = outcome["result"]
    expect(not result["correct"] and result["failed"] > 0,
           f"mispriced fleet counted {result['failed']} failures")


def test_doctored_conformance_flits_are_counted() -> None:
    import repro.conformance.engine as engine

    def make(original):
        def run_point(point, *args, **kwargs):
            report = original(point, *args, **kwargs)
            if point.label() == "all_reduce@2x2x1/256B":
                # The report still says ok: only the benchmark's own
                # conservation check can see the lost flit.
                report["checks"]["conservation"]["delivered_flits"] -= 1
            return report
        return run_point

    with quick(), patched(engine, "run_point", make):
        outcome = run.run("conformance", suite.DEFAULT_SEED, 0, False)
    result = outcome["result"]
    expect(result["failed"] >= 1, "lost flit not counted")
    expect(any("not conserved" in p for p in outcome["problems"]),
           "lost flit not reported")


# --------------------------------------------------------------------------
# 2. injected slowdown
# --------------------------------------------------------------------------


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_slow_result_cache_writes_show_where_predicted() -> None:
    from repro.runner.cache import ResultCache

    def make(original):
        def put(self, *args, **kwargs):
            _busy(INJECTED_S)
            return original(self, *args, **kwargs)
        return put

    def measure() -> tuple[dict, dict, float]:
        with quick(min_reps=3, min_traced=2):
            traced = metrics_of(run.run("sweep", 0, 0, True))
            outcome = run.run("sweep", 0, 0, False)
        return traced, metrics_of(outcome), outcome["host"]["reference scale"]

    base_traced, base, _ = measure()
    with patched(ResultCache, "put", make):
        slow_traced, slow, scale = measure()
    injected = INJECTED_S * base_traced["runner.cache_misses"]
    put_delta = slow_traced["runner.put_s"] - base_traced["runner.put_s"]
    expect(0.8 * injected <= put_delta <= 1.5 * injected,
           f"runner.put_s moved {put_delta:.3f} s for {injected:.3f} s "
           "injected")
    for metric in ("runner.get_s", "runner.key_s", "unattributed_s"):
        moved = slow_traced[metric] - base_traced[metric]
        expect(abs(moved) < 0.25 * injected,
               f"{metric} absorbed {moved:.3f} s of the slowdown")
    # The busy-wait is host time; wall_s is in reference seconds.
    wall_delta = slow["wall_s"] - base["wall_s"]
    expect(wall_delta >= 0.7 * injected * scale,
           f"wall_s moved {wall_delta:.3f} s for {injected * scale:.3f} "
           "reference s injected")
    cached_delta = slow["cached_wall_s"] - base["cached_wall_s"]
    expect(cached_delta < 0.25 * injected,
           f"cached_wall_s moved {cached_delta:.3f} s; predicted flat")


# --------------------------------------------------------------------------
# 3. held-out seed
# --------------------------------------------------------------------------


def test_gates_hold_on_a_held_out_seed() -> None:
    for name in suite.WORKLOADS:
        with quick():
            outcome = run.run(name, HELD_OUT_SEED, 0, False)
        result = outcome["result"]
        expect(result["correct"] and result["failed"] == 0,
               f"{name} at seed {HELD_OUT_SEED}: {outcome['problems']}")
        expect(outcome["reps"] >= 2, f"{name}: counters compared once")


# --------------------------------------------------------------------------
# 4. no program, no result
# --------------------------------------------------------------------------


def test_fails_without_the_program() -> None:
    lonely = suite.WORK_DIR / "lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    lonely.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", lonely)
        shutil.copytree(HERE, lonely / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=lonely, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(suite.WORK_DIR, ignore_errors=True)
    expect(done.returncode != 0, "exited 0 without the program")
    expect('"correct"' not in done.stdout, "printed a result line")


# --------------------------------------------------------------------------
# 5. the declared metrics are the reported ones
# --------------------------------------------------------------------------


def test_benchmark_json_matches_the_metric_lists() -> None:
    import json

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, rows in (("end_to_end", run.END_TO_END),
                      ("per_layer", run.PER_LAYER)):
        ours = [(metric, unit) for metric, unit, _ in rows]
        theirs = [(m["name"], m["unit"]) for m in declared[key]]
        expect(ours == theirs, f"BENCHMARK.json {key} != run.py")
    expect(sorted(w["name"] for w in declared["workloads"])
           == sorted(suite.WORKLOADS), "BENCHMARK.json workloads != suite.py")


TESTS = [
    test_benchmark_json_matches_the_metric_lists,
    test_fails_without_the_program,
    test_doctored_sweep_exits_nonzero,
    test_doctored_fleet_price_is_counted,
    test_doctored_conformance_flits_are_counted,
    test_slow_result_cache_writes_show_where_predicted,
    test_gates_hold_on_a_held_out_seed,
]


def main() -> int:
    failures = 0
    for test in TESTS:
        start = time.perf_counter()
        try:
            test()
        except SelfTestFailure as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__} "
                  f"({time.perf_counter() - start:.1f} s)")
    print(f"{len(TESTS) - failures}/{len(TESTS)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
