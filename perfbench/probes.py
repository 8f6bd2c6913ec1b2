"""Outside-in instrumentation for the benchmark: work counters and spans.

Nothing here edits ``src/``. Every probe replaces a public function at the
place the program looks it up — a class attribute for methods, a module
attribute for functions — with a wrapper that calls the original.

Two kinds of probe:

* :class:`WorkCounters` is installed on *every* run. It only counts, at a
  few entry points (simulator runs, control ticks, perf reads, routing
  decisions) — no clock reads, no spans — so the exact work counters are
  recorded on the untraced runs too. The counting is not free: a counted
  tick, perf read or routing decision costs about 0.27 us more on a 2-CPU
  x86-64 host under CPython 3.11, about 0.055 s (1.5 %) of fleet-scale's
  timed phase, which makes 69,120 ticks and 138,240 perf reads, and less
  on the other workloads. A change that removes such calls also saves
  their counting.
* :class:`SpanTracer` is installed only on the separate traced run. It
  records one span (name, start, end, parent) per wrapped call in flat
  in-memory arrays and writes them out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

#: Span name -> the public callables it wraps, as (module, attribute path).
#: A class path wraps the method where instances look it up; a module path
#: wraps the function where callers (the program or this benchmark) look it
#: up. Subclass overrides are listed one by one: each is looked up on its
#: own class.
TRACED: dict[str, tuple[tuple[str, str], ...]] = {
    "sim.run_until": (("repro.sim.engine", "Simulator.run_until"),),
    "traces.generate": (("repro.traces", "generate_trace"),),
    "workloads.server_submit": (
        ("repro.workloads.ml.base", "InferenceServerTask.submit"),
    ),
    "workloads.apply_rates": (
        ("repro.workloads.base", "Task.apply_rates"),
        ("repro.workloads.ml.base", "TrainingTask.apply_rates"),
        ("repro.workloads.ml.base", "InferenceServerTask.apply_rates"),
        ("repro.workloads.cpu.base", "BatchTask.apply_rates"),
    ),
    "accel.pcie_transfer": (("repro.accel.pcie", "PcieLink.transfer"),),
    "hw.notify_change": (("repro.hw.machine", "Machine.notify_change"),),
    "hw.solve": (("repro.hw.contention", "ContentionSolver.solve"),),
    "hw.solve_signature": (
        ("repro.hw.contention", "ContentionSolver.solve_signature"),
    ),
    "hostif.perf_read": (
        ("repro.hostif.perf", "PerfCounters.read"),
        ("repro.hostif.perf", "PerfCounters.read_kelp"),
    ),
    "control.tick": (("repro.control.loop", "ControlLoop.tick"),),
    "control.decide": (
        ("repro.control.governors", "KelpGovernor.decide"),
        ("repro.control.governors", "CoreThrottleGovernor.decide"),
        ("repro.control.governors", "MbaGovernor.decide"),
    ),
    "fleet.route": (
        ("repro.fleet.index", "RoutingIndex.choose"),
        ("repro.fleet.routing", "RandomRouter.choose"),
        ("repro.fleet.routing", "LeastLoadedRouter.choose"),
        ("repro.fleet.routing", "InterferenceAwareRouter.choose"),
    ),
    "fleet.member_submit": (("repro.fleet.member", "FleetMember.submit"),),
    "fleet.sample": (("repro.fleet.member", "FleetMember.sample"),),
    "fleet.batch_tick": (("repro.fleet.batch", "BatchQueue.tick"),),
    "fleet.finish": (("repro.fleet.orchestrator", "FleetOrchestrator.finish"),),
    "serve.step": (("repro.serve.service", "FleetService.step"),),
    "serve.save": (("repro.serve.service", "FleetService.save"),),
    "serve.restore": (("repro.serve.service", "FleetService.restore"),),
    "experiments.colocation": (
        ("repro.experiments.common", "run_colocation"),
    ),
    "experiments.standalone": (
        ("repro.experiments.common", "standalone_performance"),
    ),
}


def _patch(module_name: str, path: str, make_wrapper) -> None:
    """Replace ``module.path`` with ``make_wrapper(original)``.

    A classmethod is unwrapped to its function and re-wrapped as a
    classmethod, so binding behaves exactly as before.
    """
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    is_classmethod = isinstance(raw, classmethod)
    func = raw.__func__ if is_classmethod else raw
    wrapped = functools.wraps(func)(make_wrapper(func))
    setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)


class WorkCounters:
    """Exact, machine-independent work counts, summed over the process.

    Solver counters come from the program's own ``global_stats()``; these
    are the ones it keeps per object or not at all: events dispatched by
    every simulator, control ticks (with their no-op share and knob writes),
    perf-counter reads, and routing decisions (with how many took the
    reference scan instead of the incremental index).
    """

    def __init__(self) -> None:
        self.events = 0
        self.ticks = 0
        self.noop_ticks = 0
        self.history_records = 0
        self.actuation_writes = 0
        self.perf_reads = 0
        self.route_calls = 0
        self.scan_fallbacks = 0

    def install(self) -> None:
        counters = self

        def count_events(run_until):
            def counted(sim, *args, **kwargs):
                before = sim.dispatched_events
                try:
                    return run_until(sim, *args, **kwargs)
                finally:
                    counters.events += sim.dispatched_events - before

            return counted

        def count_tick(tick):
            def counted(loop):
                before = loop.noop_ticks
                record = tick(loop)
                counters.ticks += 1
                counters.noop_ticks += loop.noop_ticks - before
                if record is not None:
                    counters.history_records += 1
                    counters.actuation_writes += record.writes
                return record

            return counted

        def count_read(read):
            def counted(*args, **kwargs):
                counters.perf_reads += 1
                return read(*args, **kwargs)

            return counted

        def count_route(choose, scan: bool):
            def counted(*args, **kwargs):
                counters.route_calls += 1
                if scan:
                    counters.scan_fallbacks += 1
                return choose(*args, **kwargs)

            return counted

        _patch("repro.sim.engine", "Simulator.run_until", count_events)
        _patch("repro.control.loop", "ControlLoop.tick", count_tick)
        for path in ("PerfCounters.read", "PerfCounters.read_kelp"):
            _patch("repro.hostif.perf", path, count_read)
        _patch(
            "repro.fleet.index",
            "RoutingIndex.choose",
            lambda f: count_route(f, scan=False),
        )
        for cls in ("RandomRouter", "LeastLoadedRouter", "InterferenceAwareRouter"):
            _patch(
                "repro.fleet.routing",
                f"{cls}.choose",
                lambda f: count_route(f, scan=True),
            )

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class SpanTracer:
    """In-memory span recorder over the :data:`TRACED` call sites.

    Spans live in flat arrays (name id, parent index, start, end, and
    ``outer``: no enclosing span of the same name, so re-entrant calls are
    not double-counted in inclusive time).
    """

    def __init__(self) -> None:
        self.names = list(TRACED)
        self.name_ids = array("i")
        self.parents = array("q")
        self.outer = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)

    def install(self) -> None:
        for name_id, sites in enumerate(TRACED.values()):
            for module_name, path in sites:
                _patch(module_name, path, self._span_wrapper(name_id))

    def _span_wrapper(self, name_id: int):
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        name_ids, parents, outer = self.name_ids, self.parents, self.outer
        starts, ends = self.starts, self.ends

        def make(func):
            def traced(*args, **kwargs):
                index = len(starts)
                name_ids.append(name_id)
                parents.append(stack[-1] if stack else -1)
                outer.append(depth[name_id] == 0)
                depth[name_id] += 1
                stack.append(index)
                ends.append(0.0)
                starts.append(clock())
                try:
                    return func(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                    depth[name_id] -= 1

            return traced

        return make

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans (calls are strictly nested in one thread).
        """
        n = len(self.starts)
        ids = np.frombuffer(self.name_ids, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parents, dtype=np.int64, count=n)
        outer = np.frombuffer(self.outer, dtype=np.int8, count=n).astype(bool)
        durations = np.frombuffer(self.ends, dtype=np.float64, count=n) - (
            np.frombuffer(self.starts, dtype=np.float64, count=n)
        )
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=n
        )
        self_time = durations - child_time
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        inclusive = np.bincount(ids[outer], weights=durations[outer], minlength=k)
        self_sum = np.bincount(ids, weights=self_time, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "s": float(inclusive[i]),
                "self_s": float(self_sum[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write every span to ``path`` (``.npz``: names plus four arrays)."""
        n = len(self.starts)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parents, dtype=np.int64, count=n),
            start=np.frombuffer(self.starts, dtype=np.float64, count=n),
            end=np.frombuffer(self.ends, dtype=np.float64, count=n),
        )
