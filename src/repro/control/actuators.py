"""The actuation layer: every knob write goes through one journaled facade.

The :class:`HostControlPlane` is the only sanctioned way for a controller to
change host state. It routes each write through the node's
:mod:`repro.hostif` controllers (cpuset masks, prefetcher MSRs,
CAT/resctrl, MBA caps) — killing the historical ``Node`` convenience-method
bypasses — and adds the two things the bare surfaces lack:

* **Dedup + journal**: a write whose requested value is already in effect
  is dropped before it touches the machine, so a quiescent controller
  (NOP/NOP tick, unchanged plans) performs *zero* physical writes; every
  write that does happen lands in :attr:`journal` as an
  :class:`~repro.control.records.ActuationRecord`.
* **Fault injection**: an :class:`ActuationFaultConfig` makes runtime
  writes fail (with bounded retry) or defer to the next tick, modelling
  lost MSR/cpuset writes on a busy host. Setup-time writes (CAT
  partitioning, group creation) are journaled but never faulted.
* **Fault windows**: timed ``(start, stop)`` intervals during which every
  runtime write fails deterministically — a *stuck actuator*. Windows are
  checked before the stochastic fault path and consume no RNG draws, so
  the flat-rate fault stream (and any run without windows) is bit-identical
  whether or not windows exist in the config. The live
  :attr:`HostControlPlane.fault_windows` list is mutable so a fleet-level
  incident schedule can arm and disarm a stuck actuator mid-run.

All randomness comes from a seeded :class:`numpy.random.Generator`, so
fault runs stay deterministic across process pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.control.records import ActuationRecord
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.node import Node
    from repro.hostif.cpuset import PlaceableTask

#: Seed-stream tag for the fault draws.
_STREAM_FAULTS = 0x41_46


@dataclass(frozen=True)
class ActuationFaultConfig:
    """Declarative actuation-fault knobs (all off by default)."""

    #: Probability each physical write attempt fails (retried up to
    #: :attr:`max_retries` times; a fully failed write leaves the knob as
    #: it was and is journaled ``failed``).
    fail_prob: float = 0.0
    #: Probability a first-attempt write is delayed to the next tick
    #: (journaled ``deferred``; it lands before the next decision acts).
    defer_prob: float = 0.0
    #: Retries after the first failed attempt.
    max_retries: int = 2
    #: Base seed for the fault random stream.
    seed: int = 0
    #: ``(start, stop)`` sim-time intervals during which every runtime
    #: write fails deterministically (a stuck actuator). Checked before
    #: the stochastic path; never consumes RNG draws.
    windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.fail_prob < 1.0:
            raise ConfigurationError("fail_prob must be in [0, 1)")
        if not 0.0 <= self.defer_prob < 1.0:
            raise ConfigurationError("defer_prob must be in [0, 1)")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        for window in self.windows:
            start, stop = window
            if not start < stop:
                raise ConfigurationError(
                    f"fault window {window!r} must have start < stop"
                )

    @property
    def active(self) -> bool:
        """True when any fault injection is enabled."""
        return self.fail_prob > 0 or self.defer_prob > 0 or bool(self.windows)

    @property
    def stochastic(self) -> bool:
        """True when the per-write probabilistic faults are enabled."""
        return self.fail_prob > 0 or self.defer_prob > 0


class HostControlPlane:
    """Journaled, dedup'd, fault-injectable actuator facade over one node."""

    def __init__(
        self, node: "Node", faults: ActuationFaultConfig | None = None
    ) -> None:
        self._node = node
        # Only the *stochastic* faults need the RNG path; a windows-only
        # config must not create (or ever draw from) a fault stream, so a
        # run that adds windows leaves the flat-rate stream untouched.
        self.faults = (
            faults if faults is not None and faults.stochastic else None
        )
        self._rng = (
            np.random.default_rng(
                np.random.SeedSequence((faults.seed, _STREAM_FAULTS))
            )
            if self.faults is not None
            else None
        )
        #: Live stuck-actuator windows. Seeded from the config; mutable so
        #: incident schedules can arm/disarm windows mid-run.
        self.fault_windows: list[tuple[float, float]] = (
            list(faults.windows) if faults is not None else []
        )
        #: Every physical write (or failed/deferred attempt), in order.
        self.journal: list[ActuationRecord] = []
        #: Writes deferred by fault injection, applied at the next tick.
        self._pending: list[tuple[str, str, str, Callable[[], None]]] = []
        self._tick_mark = 0
        #: ``(msr.generation, count)`` of the last :meth:`set_lo_prefetchers`
        #: whose read-back found every core already as requested.
        self._prefetchers_verified: tuple[int, int] | None = None

    # ------------------------------------------------------------ tick API
    def begin_tick(self) -> None:
        """Mark a tick boundary and land any deferred writes from the last.

        Deferred writes apply *before* the new decision acts, so a delayed
        actuation can still be overridden by the tick that follows it —
        exactly the race a slow MSR/cgroup write loses on a real host. The
        landing writes share one recompute hold, so they cost at most one
        re-solve; a tick with nothing pending touches no machine state.
        """
        if self._pending:
            pending, self._pending = self._pending, []
            machine = self._node.machine
            machine.begin_hold()
            try:
                for kind, target, value, op in pending:
                    op()
                    self._journal(kind, target, value, "applied", attempts=1)
            finally:
                machine.end_hold()
        self._tick_mark = len(self.journal)

    @property
    def writes_this_tick(self) -> int:
        """Journal entries since the last :meth:`begin_tick`."""
        return len(self.journal) - self._tick_mark

    # ------------------------------------------------------------- cpusets
    def set_task_cpus(
        self, task: "PlaceableTask", cores: frozenset[int] | set[int]
    ) -> int:
        """Pin ``task`` to ``cores`` (empty = park); no-op when in effect."""
        cores = frozenset(cores)
        if not cores:
            if task.parked:
                return 0
            return self._write(
                "cpuset",
                task.task_id,
                "parked",
                partial(self._node.cpuset.set_cpus, task, cores),
            )
        if not task.parked and task.placement.cores == cores:
            return 0
        return self._write(
            "cpuset",
            task.task_id,
            _render_mask(cores),
            partial(self._node.cpuset.set_cpus, task, cores),
        )

    # --------------------------------------------------------- prefetchers
    def set_lo_prefetchers(self, count: int) -> int:
        """Enable prefetchers on exactly ``count`` low-subdomain cores.

        Cores are enabled lowest-id first (the fixed order the runtime
        writes MSR ``0x1A4`` in); only cores whose current MSR state
        differs are written. The per-core read-back is skipped when the
        same ``count`` was last verified write-free and no MSR has been
        written since (the interface's write generation is unchanged).
        """
        msr = self._node.msr
        verified = (msr.generation, count)
        if verified == self._prefetchers_verified:
            return 0
        cores = self._node.lo_subdomain_cores()
        enable = max(0, min(count, len(cores)))
        writes = 0
        states = msr.prefetcher_states(cores)
        for index, core in enumerate(cores):
            enabled = index < enable
            if states[index] == enabled:
                continue
            writes += self._write(
                "msr",
                f"core{core}",
                "on" if enabled else "off",
                partial(msr.set_prefetchers, core, enabled),
            )
        self._prefetchers_verified = verified if writes == 0 else None
        return writes

    # ----------------------------------------------------------- resctrl
    def set_mb_percent(self, clos: int, percent: int) -> int:
        """Set the MBA throttle of ``clos``; no-op when already in effect."""
        if self._node.resctrl.mb_percent(clos) == percent:
            return 0
        return self._write(
            "mba",
            f"clos{clos}",
            f"{percent}%",
            partial(self._node.resctrl.set_mb_percent, clos, percent),
        )

    def create_clos_group(self, clos: int) -> int:
        """Define a class of service (setup-time; journaled, never faulted)."""
        return self._write(
            "resctrl",
            f"clos{clos}",
            "create",
            partial(self._node.resctrl.create_group, clos),
            faultable=False,
        )

    def dedicate_llc_ways(self, clos: int, ways: int) -> int:
        """Give ``clos`` an exclusive CAT partition (setup-time write)."""
        return self._write(
            "resctrl",
            f"clos{clos}",
            f"ways={ways}",
            partial(self._node.resctrl.dedicate_ways, clos, ways),
            faultable=False,
        )

    def setup_mb_percent(self, clos: int, percent: int) -> int:
        """Initialize a CLOS's MBA throttle (setup-time; never faulted)."""
        return self._write(
            "mba",
            f"clos{clos}",
            f"{percent}%",
            partial(self._node.resctrl.set_mb_percent, clos, percent),
            faultable=False,
        )

    # ----------------------------------------------------------- internals
    def _write(
        self,
        kind: str,
        target: str,
        value: str,
        op: Callable[[], None],
        faultable: bool = True,
    ) -> int:
        """Perform one physical write, with fault injection when enabled.

        Returns the number of journal entries added (always 1: applied,
        deferred or failed).
        """
        if faultable and self.fault_windows and self._in_fault_window():
            # Stuck actuator: deterministic failure, no RNG draw — the
            # stochastic stream advances exactly as it would without the
            # window, keeping flat-rate runs bit-identical.
            self._journal(kind, target, value, "failed")
            return 1
        faults = self.faults
        if faults is None or not faultable:
            op()
            self._journal(kind, target, value, "applied")
            return 1
        assert self._rng is not None
        attempts = 0
        for attempt in range(faults.max_retries + 1):
            attempts += 1
            if float(self._rng.random()) < faults.fail_prob:
                continue  # this attempt was lost; bounded retry
            if (
                attempt == 0
                and faults.defer_prob > 0
                and float(self._rng.random()) < faults.defer_prob
            ):
                self._pending.append((kind, target, value, op))
                self._journal(kind, target, value, "deferred", attempts)
                return 1
            op()
            self._journal(kind, target, value, "applied", attempts)
            return 1
        self._journal(kind, target, value, "failed", attempts)
        return 1

    def _in_fault_window(self) -> bool:
        now = self._node.sim.now
        return any(start <= now < stop for start, stop in self.fault_windows)

    def _journal(
        self, kind: str, target: str, value: str, status: str, attempts: int = 1
    ) -> None:
        self.journal.append(
            ActuationRecord(
                time=self._node.sim.now,
                kind=kind,
                target=target,
                value=value,
                status=status,
                attempts=attempts,
            )
        )


def _render_mask(cores: frozenset[int]) -> str:
    """Compact ``4-9,12`` rendering of a core mask for the journal."""
    ids = sorted(cores)
    spans: list[str] = []
    start = prev = ids[0]
    for core in ids[1:]:
        if core == prev + 1:
            prev = core
            continue
        spans.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = core
    spans.append(str(start) if start == prev else f"{start}-{prev}")
    return ",".join(spans)
