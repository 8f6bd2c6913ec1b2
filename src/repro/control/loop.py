"""The shared control loop: sample → decide → actuate → record.

:class:`ControlLoop` owns the tick skeleton every managed policy used to
re-implement: draw one sample from the :class:`~repro.control.sensors`
suite, ask the :class:`~repro.control.governors.Governor` for a decision,
enforce the decided knob values through the
:class:`~repro.control.actuators.HostControlPlane`, and append one
:class:`~repro.control.records.ControlTickRecord` to :attr:`history`.

Enforcement order is the historical one (low-task cpusets → prefetcher
MSRs → backfill cpusets → MBA cap), so a fault-free run replays the exact
write sequence of the pre-refactor policies. A ``None`` decision (a
dormant governor) still consumes the sample — the perf window keeps its
historical cadence — but performs no writes and records nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.control.actuators import HostControlPlane
from repro.control.governors import Governor
from repro.control.records import ControlTickRecord
from repro.control.sensors import SensorSuite

if TYPE_CHECKING:
    from repro.node import Node


class ControlLoop:
    """One node's sense→decide→enforce tick, with unified history."""

    def __init__(
        self,
        node: "Node",
        governor: Governor,
        sensors: SensorSuite,
        plane: HostControlPlane,
    ) -> None:
        self.node = node
        self.governor = governor
        self.sensors = sensors
        self.plane = plane
        #: One :class:`ControlTickRecord` per engaged tick, in time order.
        self.history: list[ControlTickRecord] = []
        #: Engaged ticks whose enforcement produced zero actuation writes
        #: (every knob already held the decided value): the machine was
        #: never notified, so no contention re-solve ran at all.
        self.noop_ticks = 0
        #: Telemetry-blackout support: while ``now < _hold_until`` the loop
        #: reuses the last pre-hold sample instead of reading the sensors —
        #: the governor keeps deciding on a frozen, stale view of the node.
        self._held_sample = None
        self._hold_until = 0.0

    def hold_sensors(self, until: float) -> None:
        """Freeze the sensor view until ``until`` (telemetry blackout).

        Ticks before ``until`` reuse the most recent real sample; the perf
        window is not read, so after the hold the first fresh sample spans
        the whole blackout. No-op until at least one real sample exists.
        """
        self._hold_until = max(self._hold_until, until)

    def tick(self) -> ControlTickRecord | None:
        """Run one control interval; ``None`` when the governor is dormant."""
        node = self.node
        plane = self.plane
        machine = node.machine
        plane.begin_tick()
        now = machine.sim.now
        if now < self._hold_until and self._held_sample is not None:
            m = self._held_sample
        else:
            m = self.sensors.sample()
            self._held_sample = m
        decision = self.governor.decide(m)
        if decision is None:
            return None

        # All enforcement writes land at one simulated instant; the hold
        # coalesces their notify_change storm into (at most) one re-solve.
        # A fully-deduplicated tick — every knob already at its decided
        # value — performs zero writes and therefore never re-solves.
        machine.begin_hold()
        try:
            if decision.lo_task_mask is not None:
                for task in node.lo_tasks:
                    plane.set_task_cpus(task, decision.lo_task_mask)
            if decision.prefetcher_count is not None:
                plane.set_lo_prefetchers(decision.prefetcher_count)
            if decision.backfill_mask is not None:
                for task in node.backfill_tasks:
                    plane.set_task_cpus(task, decision.backfill_mask)
            if decision.mb_percent is not None:
                clos, percent = decision.mb_percent
                plane.set_mb_percent(clos, percent)
        finally:
            machine.end_hold()
        writes = plane.writes_this_tick
        if writes == 0:
            self.noop_ticks += 1

        record = ControlTickRecord(
            time=now,
            lo_cores=decision.lo_cores,
            lo_prefetchers=decision.lo_prefetchers,
            backfill_cores=(
                decision.backfill_cores if node.backfill_tasks else 0
            ),
            action_hi=decision.action_hi,
            action_lo=decision.action_lo,
            measurements=m,
            extra=decision.extra,
            writes=writes,
        )
        self.history.append(record)
        return record
