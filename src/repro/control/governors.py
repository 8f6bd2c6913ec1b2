"""Governors: the decision layer of the control plane.

A :class:`Governor` turns one sensor sample into a
:class:`GovernorDecision` — the actions it chose plus the concrete knob
values the :class:`~repro.control.loop.ControlLoop` should enforce. The
three governors here are the decision kernels extracted verbatim from the
historical policy ``tick`` methods, so the refactored loop reproduces the
old trajectories bit-for-bit:

* :class:`KelpGovernor` — Algorithm 1 (the THROTTLE/BOOST/NOP comparisons
  per subdomain) plus the Algorithm 2 plan updates, lifted from the old
  ``KelpRuntime.tick``. The ``manage_*`` flags keep their historical
  quirks: ``manage_lo_cores=False`` reverts a core *move* wholesale (the
  prefetcher move rides along only when cores did not change) and
  ``manage_prefetchers=False`` freezes the prefetcher count while letting
  cores move.
* :class:`CoreThrottleGovernor` — the CT one-core-at-a-time feedback loop.
  It stays dormant (``decide`` returns ``None``) until :meth:`engage` is
  called with the initial grant, and emits a cpuset mask only on a
  non-NOP tick, exactly as the old policy wrote it.
* :class:`MbaGovernor` — the MB%-step feedback loop of the Section VI-D
  MBA configuration; the throttle value is surfaced both as the
  ``lo_prefetchers`` knob slot (the historical Fig 11/12 encoding) and as
  an ``("mb_percent", …)`` extra.

Governors never touch the machine: every physical write goes through the
:class:`~repro.control.actuators.HostControlPlane` in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.core.actions import (
    Action,
    HiPriorityPlan,
    LoPriorityPlan,
    config_hi_priority,
    config_lo_priority,
)
from repro.core.measurements import KelpMeasurements
from repro.core.watermarks import QosProfile

if TYPE_CHECKING:
    from repro.node import Node


@dataclass(frozen=True)
class GovernorDecision:
    """One tick's decision: actions taken plus knob values to enforce.

    ``None`` in a knob field means *leave that knob alone this tick* (the
    loop performs no write for it); a non-``None`` value is the desired
    state, which the actuator facade dedupes against what is already in
    effect.
    """

    #: High-priority-subdomain (backfill) decision.
    action_hi: Action
    #: Low-priority-subdomain decision.
    action_lo: Action
    #: Cores granted to low-priority tasks (reported knob value).
    lo_cores: int
    #: Prefetcher-enabled low cores (MBA reuses the slot for its MB%).
    lo_prefetchers: int
    #: Cores granted to backfilled tasks (plan value; the loop records 0
    #: when no backfill tasks are resident).
    backfill_cores: int
    #: Desired cpuset for every low-priority task (``None`` = no write).
    lo_task_mask: frozenset[int] | None = None
    #: Desired cpuset for every backfilled task (``None`` = no write).
    backfill_mask: frozenset[int] | None = None
    #: Desired number of prefetcher-enabled low cores (``None`` = no write).
    prefetcher_count: int | None = None
    #: Desired ``(clos, percent)`` MBA throttle (``None`` = no write).
    mb_percent: tuple[int, int] | None = None
    #: Policy-specific knob values copied onto the tick record.
    extra: tuple[tuple[str, float], ...] = ()


class Governor(Protocol):
    """Anything that can turn a measurement sample into a decision."""

    def decide(self, m: KelpMeasurements) -> GovernorDecision | None:
        """Decide on one sample; ``None`` = not engaged, skip this tick."""
        ...


class KelpGovernor:
    """Algorithm 1/2: the Kelp decision kernel for one node.

    Holds the two resource plans (:class:`HiPriorityPlan` for backfill,
    :class:`LoPriorityPlan` for the low subdomain) and updates them via the
    Algorithm 2 procedures each tick. ``profile`` is a plain mutable
    attribute — swapping it mid-run retargets the controller, as the
    backpressure experiments do.
    """

    def __init__(
        self,
        node: "Node",
        profile: QosProfile,
        manage_lo_cores: bool = True,
        manage_backfill: bool = True,
        manage_prefetchers: bool = True,
    ) -> None:
        self._node = node
        self.profile = profile
        self.manage_lo_cores = manage_lo_cores
        self.manage_backfill = manage_backfill
        self.manage_prefetchers = manage_prefetchers
        # Topology is immutable: freeze the subdomain core tuples once and
        # build each cpuset mask once per core count.
        self._lo_cores = node.lo_subdomain_cores()
        self._hi_cores = node.hi_subdomain_cores()
        self._lo_masks: dict[int, frozenset[int]] = {}
        self._backfill_masks: dict[int, frozenset[int]] = {}
        #: The last decision, returned again while nothing in it changes.
        self._last: GovernorDecision | None = None
        lo_cores = len(self._lo_cores)
        self._hi_plan = HiPriorityPlan(
            core_num=profile.max_backfill_cores,
            min_core_num=profile.min_backfill_cores,
            max_core_num=profile.max_backfill_cores,
        )
        self._lo_plan = LoPriorityPlan(
            core_num=lo_cores,
            prefetcher_num=lo_cores,
            min_core_num=profile.min_lo_cores,
            max_core_num=lo_cores,
        )

    # ------------------------------------------------------------ access
    @property
    def hi_plan(self) -> HiPriorityPlan:
        """Current backfill resource plan."""
        return self._hi_plan

    @property
    def lo_plan(self) -> LoPriorityPlan:
        """Current low-priority resource plan."""
        return self._lo_plan

    # ------------------------------------------------------------ decide
    def decide(self, m: KelpMeasurements) -> GovernorDecision:
        """One pass of Algorithm 1: decide actions, update plans."""
        profile = self.profile

        # Lines 4-9: high-priority-subdomain (backfill) decision.
        if profile.hipri_bw.above(m.hipri_bw) or profile.socket_latency.above(
            m.socket_latency
        ):
            action_hi = Action.THROTTLE
        elif profile.hipri_bw.below(m.hipri_bw) and profile.socket_latency.below(
            m.socket_latency
        ):
            action_hi = Action.BOOST
        else:
            action_hi = Action.NOP

        # Lines 10-15: low-priority-subdomain decision.
        if (
            profile.socket_bw.above(m.socket_bw)
            or profile.socket_latency.above(m.socket_latency)
            or profile.saturation.above(m.saturation)
        ):
            action_lo = Action.THROTTLE
        elif (
            profile.socket_bw.below(m.socket_bw)
            and profile.socket_latency.below(m.socket_latency)
            and profile.saturation.below(m.saturation)
        ):
            action_lo = Action.BOOST
        else:
            action_lo = Action.NOP

        # Lines 16-18: Algorithm 2 plan updates, gated by the manage flags.
        if self.manage_backfill:
            self._hi_plan = config_hi_priority(self._hi_plan, action_hi)
        new_lo = config_lo_priority(self._lo_plan, action_lo)
        if not self.manage_lo_cores and new_lo.core_num != self._lo_plan.core_num:
            new_lo = self._lo_plan  # cores frozen; prefetcher move only
        if not self.manage_prefetchers:
            new_lo = LoPriorityPlan(
                core_num=new_lo.core_num,
                prefetcher_num=self._lo_plan.prefetcher_num,
                min_core_num=new_lo.min_core_num,
                max_core_num=new_lo.max_core_num,
            )
        self._lo_plan = new_lo
        lo_cores = new_lo.core_num
        lo_prefetchers = new_lo.prefetcher_num
        backfill_cores = self._hi_plan.core_num

        lo_task_mask: frozenset[int] | None = None
        if self.manage_lo_cores:
            lo_task_mask = self._lo_masks.get(lo_cores)
            if lo_task_mask is None:
                lo_task_mask = frozenset(self._lo_cores[:lo_cores])
                self._lo_masks[lo_cores] = lo_task_mask
        prefetcher_count = lo_prefetchers if self.manage_prefetchers else None
        backfill_mask: frozenset[int] | None = None
        if self.manage_backfill and self._node.backfill_tasks:
            backfill_mask = self._backfill_masks.get(backfill_cores)
            if backfill_mask is None:
                # Backfill occupies the *highest* hi-subdomain core ids so
                # the ML task keeps the lowest ones; a plan throttled to zero
                # cores must yield an *empty* cpuset (parked tasks), not a
                # lingering one-core mask stealing hi-subdomain bandwidth.
                backfill_mask = (
                    frozenset(self._hi_cores[-backfill_cores:])
                    if backfill_cores > 0
                    else frozenset()
                )
                self._backfill_masks[backfill_cores] = backfill_mask

        last = self._last
        if (
            last is not None
            and last.action_hi is action_hi
            and last.action_lo is action_lo
            and last.lo_cores == lo_cores
            and last.lo_prefetchers == lo_prefetchers
            and last.backfill_cores == backfill_cores
            and last.lo_task_mask is lo_task_mask
            and last.backfill_mask is backfill_mask
            and last.prefetcher_count == prefetcher_count
        ):
            return last
        self._last = GovernorDecision(
            action_hi=action_hi,
            action_lo=action_lo,
            lo_cores=lo_cores,
            lo_prefetchers=lo_prefetchers,
            backfill_cores=backfill_cores,
            lo_task_mask=lo_task_mask,
            backfill_mask=backfill_mask,
            prefetcher_count=prefetcher_count,
        )
        return self._last


class CoreThrottleGovernor:
    """CT: reactive one-core-at-a-time throttling of the low tasks.

    Dormant until :meth:`engage` supplies the initial core grant (the old
    policy set it in ``plan_cpu``); while dormant the loop still samples —
    preserving the historical perf-window cadence — but records nothing.
    """

    def __init__(self, node: "Node", profile: QosProfile, ml_cores: int) -> None:
        self._node = node
        self.profile = profile
        self._ml_cores = ml_cores
        self._lo_cores: int | None = None

    def engage(self, cores: int) -> None:
        """Arm the controller with the current low-task core grant."""
        self._lo_cores = cores

    @property
    def lo_cores(self) -> int | None:
        """The current grant (``None`` while dormant)."""
        return self._lo_cores

    def _spare(self) -> tuple[int, ...]:
        return self._node.accel_socket_cores()[self._ml_cores:]

    def decide(self, m: KelpMeasurements) -> GovernorDecision | None:
        """One CT feedback step; ``None`` until engaged."""
        if self._lo_cores is None:
            return None
        profile = self.profile
        spare = self._spare()
        if profile.socket_bw.above(m.socket_bw) or profile.socket_latency.above(
            m.socket_latency
        ):
            action = Action.THROTTLE
            self._lo_cores = max(1, self._lo_cores - 1)
        elif profile.socket_bw.below(m.socket_bw) and profile.socket_latency.below(
            m.socket_latency
        ):
            action = Action.BOOST
            self._lo_cores = min(len(spare), self._lo_cores + 1)
        else:
            action = Action.NOP
        mask: frozenset[int] | None = None
        if action is not Action.NOP:
            mask = frozenset(spare[: self._lo_cores])
        return GovernorDecision(
            action_hi=Action.NOP,
            action_lo=action,
            lo_cores=self._lo_cores,
            lo_prefetchers=self._lo_cores,
            backfill_cores=0,
            lo_task_mask=mask,
        )


class MbaGovernor:
    """MBA: feedback control over one CLOS's memory-bandwidth throttle.

    Steps the MB% cap down under bandwidth/latency pressure and back up
    when both clear, within ``[floor, ceiling]``. The cap is emitted as a
    knob write only on a non-NOP tick (the historical write pattern); the
    actuator facade's read-back dedup additionally drops re-writes of a
    value already in effect at the clamp bounds.
    """

    def __init__(
        self,
        node: "Node",
        profile: QosProfile,
        ml_cores: int,
        clos: int,
        step: int = 10,
        floor: int = 10,
        ceiling: int = 100,
    ) -> None:
        self._node = node
        self.profile = profile
        self._ml_cores = ml_cores
        self._clos = clos
        self._step = step
        self._floor = floor
        self._ceiling = ceiling
        self.mb_percent = ceiling

    def decide(self, m: KelpMeasurements) -> GovernorDecision:
        """One MBA feedback step."""
        profile = self.profile
        if profile.socket_bw.above(m.socket_bw) or profile.socket_latency.above(
            m.socket_latency
        ):
            action = Action.THROTTLE
            self.mb_percent = max(self._floor, self.mb_percent - self._step)
        elif profile.socket_bw.below(m.socket_bw) and profile.socket_latency.below(
            m.socket_latency
        ):
            action = Action.BOOST
            self.mb_percent = min(self._ceiling, self.mb_percent + self._step)
        else:
            action = Action.NOP
        spare = len(self._node.accel_socket_cores()[self._ml_cores:])
        return GovernorDecision(
            action_hi=Action.NOP,
            action_lo=action,
            lo_cores=spare,
            # Report the throttle as the raw knob in the prefetcher slot's
            # units (the historical Fig 11/12 encoding), and by name too.
            lo_prefetchers=self.mb_percent,
            backfill_cores=0,
            mb_percent=(
                (self._clos, self.mb_percent)
                if action is not Action.NOP
                else None
            ),
            extra=(("mb_percent", float(self.mb_percent)),),
        )
