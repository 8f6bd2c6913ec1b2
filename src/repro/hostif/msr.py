"""MSR interface: per-core L2/L1 prefetcher control (MSR 0x1A4).

Intel documents four prefetcher-disable bits in ``MSR_MISC_FEATURE_CONTROL``
(0x1A4): L2 hardware prefetcher, L2 adjacent-line prefetcher, DCU streamer
and DCU IP prefetcher. Kelp toggles all four together per core; the hardware
model keys its traffic/speed interpolation off whether *any* prefetching is
active on a core, so we expose the documented register layout but collapse it
to a per-core enable internally.
"""

from __future__ import annotations

from repro.errors import HostInterfaceError
from repro.hw.machine import Machine

#: Address of MSR_MISC_FEATURE_CONTROL.
MSR_MISC_FEATURE_CONTROL = 0x1A4
#: All four prefetcher-disable bits set.
PREFETCH_DISABLE_ALL = 0b1111
#: All prefetchers enabled (no disable bits).
PREFETCH_ENABLE_ALL = 0b0000


class MsrInterface:
    """Read/write the prefetcher-control MSR on simulated cores."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._raw: dict[int, int] = {}
        # The spec is frozen, so the core-range bound never changes; caching
        # it keeps per-tick MSR read-backs off the sum-over-sockets path.
        self._total_cores = machine.spec.total_cores
        #: Bumped by every register write (``wrmsr``, ``set_prefetchers``,
        #: ``enable_all``): a reader that saw generation ``g`` knows the
        #: registers are unchanged while it still reads ``g``.
        self.generation = 0

    def rdmsr(self, core: int, address: int) -> int:
        """Read an MSR; only ``0x1A4`` is modeled."""
        self._check(core, address)
        return self._raw.get(core, PREFETCH_ENABLE_ALL)

    def wrmsr(self, core: int, address: int, value: int) -> None:
        """Write an MSR; any disable bit set turns the core's prefetch off."""
        self._check(core, address)
        if not 0 <= value <= 0b1111:
            raise HostInterfaceError(f"value {value:#x} out of range for 0x1A4")
        self._raw[core] = value
        self.generation += 1
        enabled = value == PREFETCH_ENABLE_ALL
        if self._machine.prefetchers.is_enabled(core) != enabled:
            self._machine.prefetchers.set_enabled(core, enabled)
            self._machine.notify_change()

    def set_prefetchers(self, core: int, enabled: bool) -> None:
        """Convenience wrapper: enable/disable all prefetchers on ``core``."""
        self.wrmsr(
            core,
            MSR_MISC_FEATURE_CONTROL,
            PREFETCH_ENABLE_ALL if enabled else PREFETCH_DISABLE_ALL,
        )

    def prefetchers_enabled(self, core: int) -> bool:
        """Whether all prefetchers are active on ``core``."""
        return self.rdmsr(core, MSR_MISC_FEATURE_CONTROL) == PREFETCH_ENABLE_ALL

    def prefetcher_states(self, cores: tuple[int, ...]) -> list[bool]:
        """Per-core prefetcher state for an ascending run of core ids.

        Batch form of :meth:`prefetchers_enabled` for the per-tick MSR
        read-back dedup: one range check instead of one rdmsr round-trip
        per core.
        """
        if cores and not (0 <= cores[0] and cores[-1] < self._total_cores):
            raise HostInterfaceError("core id out of range")
        raw_get = self._raw.get
        return [
            raw_get(core, PREFETCH_ENABLE_ALL) == PREFETCH_ENABLE_ALL
            for core in cores
        ]

    def enable_all(self) -> None:
        """Restore prefetching on every core (teardown between experiments)."""
        self._raw.clear()
        self.generation += 1
        self._machine.prefetchers.enable_all()
        self._machine.notify_change()

    def _check(self, core: int, address: int) -> None:
        if address != MSR_MISC_FEATURE_CONTROL:
            raise HostInterfaceError(f"MSR {address:#x} is not modeled")
        if not 0 <= core < self._total_cores:
            raise HostInterfaceError(f"core {core} out of range")
