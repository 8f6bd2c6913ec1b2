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

A scheduler may stop ticking a quiescent loop. After a tick, :attr:`steady`
says whether the loop sits at a fixed point: a zero-write tick that
returned the governor's previous decision, on an unchanged solve state,
with a reading equal to the previous one, under perfect sensors, no sensor
hold and no deferred writes. :meth:`settled_band` adds that no rounding
drift of later readings can flip a watermark comparison. The scheduler then
calls :meth:`suspend`, and later :meth:`replay` for the skipped instants,
in order, as arithmetic only: the perf reads advance the telemetry
integrals exactly as the ticks would have, and the ticks' records are kept
as a compact run that :attr:`history` expands when read. Anything that
changes the loop's inputs from outside a tick (a governor swap, a sensor
hold, a knob write) first calls the scheduler back so that it can catch
up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.control.actuators import HostControlPlane
from repro.control.governors import Governor, KelpGovernor
from repro.control.records import ControlTickRecord
from repro.control.sensors import PerfectSensors, SensorSuite
from repro.core.measurements import KelpMeasurements

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
        self._governor = governor
        self.sensors = sensors
        self.plane = plane
        #: Tick records in time order; replayed ticks sit in it as
        #: :class:`_ReplayedRun` entries until :attr:`history` expands them.
        self._history: list = []
        self._runs = 0
        #: Engaged ticks whose enforcement produced zero actuation writes
        #: (every knob already held the decided value): the machine was
        #: never notified, so no contention re-solve ran at all.
        self.noop_ticks = 0
        #: No-op ticks accounted by :meth:`replay` instead of run (also
        #: counted in :attr:`noop_ticks`).
        self.elided_ticks = 0
        #: Telemetry-blackout support: while ``now < _hold_until`` the loop
        #: reuses the last pre-hold sample instead of reading the sensors —
        #: the governor keeps deciding on a frozen, stale view of the node.
        self._held_sample: KelpMeasurements | None = None
        self._hold_until = 0.0
        #: Whether the last tick left the loop at a fixed point (see the
        #: module docstring).
        self.steady = False
        #: The last decision and the solve-state count seen by the last tick.
        self._decision = None
        self._state_changes = -1
        #: The scheduler's catch-up callback while it skips ticks.
        self._wake: Callable[[], None] | None = None

    @property
    def governor(self) -> Governor:
        """The decision kernel (swappable; a swap catches the loop up first)."""
        return self._governor

    @governor.setter
    def governor(self, governor: Governor) -> None:
        self.touch()
        self._governor = governor

    @property
    def history(self) -> list[ControlTickRecord]:
        """One :class:`ControlTickRecord` per engaged tick, in time order."""
        if self._runs:
            self._history = [
                record
                for entry in self._history
                for record in (
                    entry.records()
                    if isinstance(entry, _ReplayedRun)
                    else (entry,)
                )
            ]
            self._runs = 0
        return self._history

    @property
    def last_sample(self) -> KelpMeasurements | None:
        """The sample the last tick decided on (``None`` before any)."""
        return self._held_sample

    def hold_sensors(self, until: float) -> None:
        """Freeze the sensor view until ``until`` (telemetry blackout).

        Ticks before ``until`` reuse the most recent real sample; the perf
        window is not read, so after the hold the first fresh sample spans
        the whole blackout. No-op until at least one real sample exists.
        """
        self.touch()
        self._hold_until = max(self._hold_until, until)

    # ------------------------------------------------------------ elision
    def settled_band(
        self, until: float, window: float
    ) -> tuple[float, float, float, float] | None:
        """The reading's rounding band if the loop may stop ticking.

        Requires a :attr:`steady` last tick of a Kelp governor over perfect
        sensors, and that no reading within the band of the last one — the
        band covering every later tick up to ``until``, about ``window``
        apart (:meth:`PerfCounters.kelp_band`) — flips a watermark
        comparison. ``None`` when the loop must keep ticking.
        """
        governor = self._governor
        if not (
            self.steady
            and isinstance(governor, KelpGovernor)
            and isinstance(self.sensors, PerfectSensors)
        ):
            return None
        m = self._held_sample
        node = self.node
        band = node.perf.kelp_band(
            node.accel_socket,
            node.hi_subdomain,
            (m.socket_bw, m.socket_latency, m.saturation, m.hipri_bw),
            until,
            window,
        )
        return band if governor.settled(m, band) else None

    def suspend(self, wake: Callable[[], None]) -> None:
        """Note that the scheduler stopped ticking this loop.

        Until :meth:`resume`, a governor swap, a sensor hold or a knob
        write through the plane calls ``wake`` first.
        """
        self._wake = wake
        self.plane.before_write = wake

    def resume(self) -> None:
        """Note that the scheduler ticks this loop again."""
        self._wake = None
        self.plane.before_write = None

    def touch(self) -> None:
        """Let a suspended loop's scheduler catch up before a change."""
        if self._wake is not None:
            self._wake()

    def replay(self, instants: list[float]) -> KelpMeasurements:
        """Account the skipped ticks at past ``instants`` (ascending, none
        after the clock); returns the last one's sample.

        Valid only in the state :meth:`settled_band` vouched for: the
        governor would return its previous decision and every knob holds,
        so each tick reduces to its windowed perf read and a zero-write
        record carrying the previous record's knob values and actions.
        """
        readings = self.sensors.replay(instants)
        history = self._history
        last = history[-1]
        if isinstance(last, _ReplayedRun):
            last.times.extend(instants)
            last.readings.extend(readings)
        else:
            history.append(_ReplayedRun(last, list(instants), readings))
            self._runs += 1
        self.noop_ticks += len(instants)
        self.elided_ticks += len(instants)
        m = KelpMeasurements(*readings[-1])
        self._held_sample = m
        return m

    def tick(self) -> ControlTickRecord | None:
        """Run one control interval; ``None`` when the governor is dormant."""
        node = self.node
        plane = self.plane
        machine = node.machine
        plane.begin_tick()
        now = machine.sim.now
        previous = self._held_sample
        held = now < self._hold_until and previous is not None
        if held:
            m = previous
        else:
            m = self.sensors.sample()
            self._held_sample = m
        decision = self._governor.decide(m)
        if decision is None:
            self.steady = False
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
        state_changes = machine.telemetry.state_changes
        self.steady = (
            writes == 0
            and decision is self._decision
            and state_changes == self._state_changes
            and not held
            and m == previous
            and not plane.writes_pending
        )
        self._decision = decision
        self._state_changes = state_changes

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
        self._history.append(record)
        return record


class _ReplayedRun:
    """Consecutive replayed ticks: their instants and perf readings, plus
    the record before them, whose knob values and actions they repeat."""

    __slots__ = ("template", "times", "readings")

    def __init__(
        self,
        template: ControlTickRecord,
        times: list[float],
        readings: list[tuple[float, float, float, float, float]],
    ) -> None:
        self.template = template
        self.times = times
        self.readings = readings

    def records(self) -> list[ControlTickRecord]:
        last = self.template
        return [
            ControlTickRecord(
                time=time,
                lo_cores=last.lo_cores,
                lo_prefetchers=last.lo_prefetchers,
                backfill_cores=last.backfill_cores,
                action_hi=last.action_hi,
                action_lo=last.action_lo,
                measurements=KelpMeasurements(*reading),
                extra=last.extra,
            )
            for time, reading in zip(self.times, self.readings)
        ]
