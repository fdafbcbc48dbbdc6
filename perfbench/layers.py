"""Outside-in layer tracing: timed wrappers around each layer's entry points.

The benchmark measures ``repro`` from outside the package.  For a traced
run it replaces each layer's public entry point with a wrapper that
records a span: the wrapper keeps a stack of open spans, so a span's
*self* time is its duration minus the time of the spans it encloses.

Functions are wrapped in their defining module *and* in every loaded
``repro`` module that imported them by name (``conformance.engine``
binds ``validate_schedule`` and ``NocSimulator`` at import time, for
example); methods are wrapped on their class.  A span name that binds
nothing raises, and :func:`binding_problems` checks span counts against
the program's own counters, so a missed binding fails loudly.

Only synchronous calls are timed.  ``async`` entry points are counted
but not timed; their time lands in the unattributed remainder, which on
``fleet_serve`` is ``loop.other_s`` (asyncio dispatch).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: (span, "module" for a function or "module:Class" for a method, attr).
#: The class name ``CollectiveBackend+`` means every subclass that
#: defines the method itself.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("noc.run", "repro.noc.simulator:NocSimulator", "run"),
    ("core.build", "repro.core.schedule", "build_schedule"),
    ("core.timing", "repro.core.schedule", "schedule_timing"),
    ("core.execute", "repro.core.schedule", "execute_schedule"),
    ("core.validate", "repro.core.validate", "validate_schedule"),
    ("collectives.reference", "repro.collectives.functional", "execute"),
    ("collectives.timing", "repro.collectives.backend:CollectiveBackend+",
     "timing"),
    ("schedcache", "repro.schedcache.cache:ScheduleCache", "build"),
    ("schedcache", "repro.schedcache.cache:ScheduleCache", "profile"),
    ("schedcache", "repro.schedcache.cache:ScheduleCache", "timing"),
    ("schedcache", "repro.schedcache.cache:ScheduleCache", "calibration"),
    ("schedcache", "repro.schedcache.cache:ScheduleCache", "noc_cycles"),
    ("runner.key", "repro.runner.cache", "cache_key"),
    ("runner.put", "repro.runner.cache:ResultCache", "put"),
    ("runner.get", "repro.runner.cache:ResultCache", "get"),
    ("faults", "repro.faults.engine", "collective_under_faults"),
    ("workloads", "repro.workloads.base", "compare_backends"),
    ("service.select", "repro.service.admission:AdmissionQueue", "select"),
    ("service.price", "repro.core.pimnet:PimnetBackend", "schedule_times"),
    ("fleet.route", "repro.fleet.router", "shard_ranking"),
    ("metrics", "repro.observability.metrics:MetricsRegistry", "counter"),
    ("metrics", "repro.observability.metrics:MetricsRegistry", "histogram"),
    ("metrics", "repro.observability.histo:LogBucketSketch", "observe"),
)

#: Async entry points: counted, never timed.
COUNTED: tuple[tuple[str, str, str], ...] = (
    ("fleet.submit", "repro.fleet.router:FleetRouter", "submit"),
    ("service.submit", "repro.service.service:CollectiveService", "submit"),
)

#: Modules loaded before wrapping, so every by-name import is in place.
PRELOAD = (
    "repro.experiments",
    "repro.conformance",
    "repro.fleet",
    "repro.service",
    "repro.faults",
    "repro.workloads",
    "repro.collectives.host_baseline",
    "repro.collectives.host_path",
    "repro.collectives.dimm_link",
    "repro.collectives.ndp_bridge",
    "repro.collectives.ideal_software",
)

#: ``SimStats`` fields summed over every ``NocSimulator.run``.
NOC_STATS = {
    "noc.flits": "flits_delivered",
    "noc.events": "events_processed",
    "noc.sim_cycles": "cycles",
    "noc.idle_cycles_skipped": "idle_cycles_skipped",
    "noc.arbitration_conflicts": "arbitration_conflicts",
}


class Tracer:
    """Span self time and call counts, plus ``SimStats`` totals."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.noc: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.noc.clear()

    def snapshot(self) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
        return dict(self.self_s), dict(self.calls), dict(self.noc)

    # -- wrappers ------------------------------------------------------

    def timed(
        self,
        span: str,
        fn: Callable,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[span] += elapsed - children[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, span: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[span] += 1
            return await fn(*args, **kwargs)

        return wrapper

    def _record_noc(self, stats: Any) -> None:
        for name, field in NOC_STATS.items():
            self.noc[name] += getattr(stats, field)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`SPANS` and :data:`COUNTED`."""
        for module in PRELOAD:
            importlib.import_module(module)
        for span, where, attr in SPANS:
            hook = self._record_noc if span == "noc.run" else None
            bound = self._patch(
                where, attr, lambda fn, s=span, h=hook: self.timed(s, fn, h)
            )
            if not bound:
                raise RuntimeError(f"span {span}: {where}.{attr} bound nothing")
        for span, where, attr in COUNTED:
            if not self._patch(where, attr, lambda fn, s=span: self.counted(s, fn)):
                raise RuntimeError(f"span {span}: {where}.{attr} bound nothing")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, where: str, attr: str, wrap: Callable) -> int:
        module_name, _, class_name = where.partition(":")
        module = importlib.import_module(module_name)
        if not class_name:
            return self._patch_function(module, attr, wrap)
        if class_name.endswith("+"):
            base = getattr(module, class_name[:-1])
            classes = _subclasses(base)
        else:
            classes = [getattr(module, class_name)]
        bound = 0
        for cls in classes:
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrap(original))
            bound += 1
        return bound

    def _patch_function(self, module: Any, attr: str, wrap: Callable) -> int:
        original = getattr(module, attr)
        wrapped = wrap(original)
        bound = 0
        for name, loaded in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            namespace = getattr(loaded, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, wrapped)
                    bound += 1
        return bound


def _subclasses(base: type) -> list[type]:
    found = [base]
    for cls in found:
        found.extend(s for s in cls.__subclasses__() if s not in found)
    return found


def binding_problems(
    workload: str, calls: dict[str, int], noc: dict[str, int],
    counts: dict[str, int],
) -> list[str]:
    """Span counts that disagree with the program's own counters."""
    expect: list[tuple[str, int, int]] = []
    if workload in ("conformance", "sweep"):
        expect += [
            ("runner.key calls == points", calls.get("runner.key", 0),
             counts["runner.points"]),
            ("runner.get calls == points", calls.get("runner.get", 0),
             counts["runner.points"]),
            ("runner.put calls == cache misses", calls.get("runner.put", 0),
             counts["runner.cache_misses"]),
        ]
    if workload == "conformance":
        computed = counts["runner.cache_misses"]
        expect += [
            ("noc.run calls == computed points", calls.get("noc.run", 0),
             computed),
            ("core.validate calls == computed points",
             calls.get("core.validate", 0), computed),
            ("collectives.reference calls == computed points",
             calls.get("collectives.reference", 0), computed),
            ("SimStats flits == reported flits", noc.get("noc.flits", 0),
             counts["conformance.flits"]),
        ]
    if workload == "fleet_serve":
        expect += [
            ("service.select calls == service.occurrences",
             calls.get("service.select", 0), counts["service.occurrences"]),
            ("fleet.route calls == fleet submissions",
             calls.get("fleet.route", 0), counts["fleet.submitted"]),
            ("FleetRouter.submit calls == fleet submissions",
             calls.get("fleet.submit", 0), counts["fleet.submitted"]),
            ("CollectiveService.submit calls == service.submitted",
             calls.get("service.submit", 0), counts["service.submitted"]),
        ]
    problems = [
        f"{what}: {got} != {want}" for what, got, want in expect if got != want
    ]
    builds = calls.get("core.build", 0)
    if builds < counts.get("schedcache.schedule_misses", 0):
        problems.append(
            f"core.build calls {builds} < schedcache misses "
            f"{counts['schedcache.schedule_misses']}"
        )
    return problems


def format_layer_table(
    workload: str, wall_s: float, self_s: dict[str, float],
    calls: dict[str, int],
) -> str:
    """Span self times plus the remainder; the rows sum to ``wall_s``."""
    attributed = sum(self_s.values())
    remainder = wall_s - attributed
    rest = (
        "unattributed (= loop.other_s)" if workload == "fleet_serve"
        else "unattributed"
    )
    lines = [
        f"layer table: {workload} (per repetition, traced wall "
        f"{wall_s:.4f} s)",
        f"  {'span':32s} {'self s':>10s} {'% wall':>7s} {'calls':>10s}",
    ]
    for span, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {span:32s} {seconds:10.4f} {100 * seconds / wall_s:6.1f}% "
            f"{calls.get(span, 0):10d}"
        )
    lines.append(
        f"  {rest:32s} {remainder:10.4f} {100 * remainder / wall_s:6.1f}%"
    )
    lines.append(f"  {'total':32s} {attributed + remainder:10.4f} 100.0%")
    return "\n".join(lines)
