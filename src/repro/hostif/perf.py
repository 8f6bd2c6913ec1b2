"""Simulated perf-counter interface.

Kelp makes four measurements every control interval (Section IV-D):

* **socket memory bandwidth** — IMC CAS counters, summed per socket;
* **memory latency** — a loaded-latency proxy (occupancy/inserts ratio);
* **memory saturation** — the ``FAST_ASSERTED`` uncore event divided by
  elapsed cycles (fraction of time the distress signal was asserted);
* **high-priority subdomain bandwidth** — CAS counters of that subdomain's
  channel group only.

Counters are windowed: each named reader keeps its own last-read snapshot, so
multiple consumers (the policy loop, experiment recorders) can sample at
different frequencies without disturbing one another.

Readers that sample at the same simulated instant share the work: the
integrals cannot move while the clock stands still, so every reader that
marks that instant holds the *same* snapshot copy, and a :meth:`read_kelp`
whose window (previous mark, now) matches the last one computed returns that
result instead of recomputing it. A node's governor and its fleet sampler
tick together, so on an aligned tick the second read is a lookup; readers
whose windows really differ (a held or re-phased loop, a member rejoining a
fleet) miss and compute as usual.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.machine import Machine
from repro.hw.telemetry import TelemetrySnapshot


@dataclass(frozen=True)
class PerfReading:
    """One windowed sample of the Kelp measurement set."""

    #: Window length, simulated seconds.
    elapsed: float
    #: Average bandwidth per socket, GB/s.
    socket_bandwidth_gbps: dict[int, float]
    #: Worst average loaded-latency factor per socket (>= 1 unloaded).
    socket_latency_factor: dict[int, float]
    #: Worst average FAST_ASSERTED fraction per socket, [0, 1].
    socket_saturation: dict[int, float]
    #: Average bandwidth per subdomain, GB/s.
    subdomain_bandwidth_gbps: dict[int, float]
    #: Average distress core-throttle factor per socket (diagnostics).
    socket_throttle: dict[int, float]


class PerfCounters:
    """Windowed reads over the machine's telemetry integrals."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._marks: dict[str, TelemetrySnapshot] = {}
        #: The last snapshot copy taken and the instant it was taken at;
        #: every reader marking that same instant shares it.
        #: (Simulated time is never negative, so nothing matches at first.)
        self._mark: TelemetrySnapshot | None = None
        self._mark_time = -1.0
        #: The last computed :meth:`read_kelp` as ``(previous mark, key,
        #: result)``, the key being ``(now, socket, hi_subdomain, number of
        #: integrated controllers)``. The count guards against a solve at
        #: the same instant adding a zero-valued controller, which would
        #: change the read's defaults.
        self._last_kelp: tuple | None = None
        # Topology is immutable; freeze the per-socket subdomain tuples once
        # instead of re-deriving them on every windowed read.
        topo = machine.topology
        self._socket_subdomains: tuple[tuple[int, tuple[int, ...]], ...] = tuple(
            (socket_id, topo.subdomains_of_socket(socket_id))
            for socket_id in range(topo.num_sockets)
        )

    def read(self, reader: str = "default") -> PerfReading:
        """Sample all Kelp counters since this reader's previous call.

        The first call for a reader covers the window since t=0.
        """
        telemetry = self._machine.telemetry
        now = self._machine.sim.now
        previous = self._marks.get(reader)
        if previous is None:
            previous = TelemetrySnapshot()
        window = telemetry.window_since(previous, now)
        self._marks[reader] = self._mark_at(now)

        socket_bw: dict[int, float] = {}
        socket_lat: dict[int, float] = {}
        socket_sat: dict[int, float] = {}
        for socket_id, subdomains in self._socket_subdomains:
            socket_bw[socket_id] = window.bandwidth_of(subdomains)
            socket_lat[socket_id] = window.max_latency_factor(subdomains)
            socket_sat[socket_id] = window.max_saturation(subdomains)
        # The window's dicts are freshly built per read and never aliased, so
        # they can be handed to the (frozen) reading without a copy.
        return PerfReading(
            elapsed=window.elapsed,
            socket_bandwidth_gbps=socket_bw,
            socket_latency_factor=socket_lat,
            socket_saturation=socket_sat,
            subdomain_bandwidth_gbps=window.mc_bandwidth_gbps,
            socket_throttle=window.socket_throttle,
        )

    def read_kelp(
        self, reader: str, socket: int, hi_subdomain: int
    ) -> tuple[float, float, float, float, float]:
        """The four Kelp scalars (plus elapsed) since the reader's last call.

        Returns ``(socket_bw, socket_latency, saturation, hipri_bw,
        elapsed)`` for one socket — the exact fields
        :func:`repro.core.measurements.measure_node` and the fleet member
        sampler consume every control tick. Bit-identical to deriving them
        from :meth:`read` (same per-key delta/divide expressions, same
        summation and max order over the socket's subdomain tuple), but
        skips materializing the full per-socket/per-subdomain dicts — this
        is the hottest call in a day-long fleet replay. The reader's mark is
        a full snapshot, so mixing :meth:`read` and :meth:`read_kelp` on one
        reader name stays windowed correctly.
        """
        machine = self._machine
        now = machine.sim.now
        previous = self._marks.get(reader)
        self._marks[reader] = self._mark_at(now)
        current = machine.telemetry.snapshot
        key = (now, socket, hi_subdomain, len(current.mc_bytes))
        last = self._last_kelp
        if last is not None and last[0] is previous and last[1] == key:
            return last[2]
        value = self._compute_kelp(current, previous, socket, hi_subdomain)
        self._last_kelp = (previous, key, value)
        return value

    def _mark_at(self, now: float) -> TelemetrySnapshot:
        """A snapshot copy of the integrals advanced to ``now``.

        A copy taken earlier at the same instant is reused (the integrals
        are already advanced to it). A solve at that instant can only add
        zero-valued controller keys, and a missing key reads as 0.0
        wherever a mark serves as the previous snapshot.
        """
        if self._mark_time != now:
            telemetry = self._machine.telemetry
            telemetry.advance(now)
            self._mark = telemetry.copy_snapshot()
            self._mark_time = now
        return self._mark

    def _compute_kelp(
        self,
        current: TelemetrySnapshot,
        previous: TelemetrySnapshot | None,
        socket: int,
        hi_subdomain: int,
    ) -> tuple[float, float, float, float, float]:
        """The :meth:`read_kelp` scalars over ``previous`` → ``current``."""
        subdomains = self._socket_subdomains[socket][1]
        if previous is None:
            prev_time = 0.0
            prev_bytes = prev_lat = prev_sat = _EMPTY
        else:
            prev_time = previous.time
            prev_bytes = previous.mc_bytes
            prev_lat = previous.mc_latency
            prev_sat = previous.mc_saturation
        elapsed = max(current.time - prev_time, 0.0)
        if elapsed <= 0:
            # Degenerate window: the documented defaults, as in window_since.
            return 0.0, 1.0, 0.0, 0.0, elapsed
        cur_bytes = current.mc_bytes
        cur_lat = current.mc_latency
        cur_sat = current.mc_saturation
        # Explicit loops, but the same accumulation order as the dict-built
        # path: ``sum()`` over the subdomain tuple starting from int 0, and
        # ``max()`` keeping the first maximal element.
        socket_bw = 0
        socket_latency = saturation = None
        for m in subdomains:
            socket_bw += (
                (cur_bytes[m] - prev_bytes.get(m, 0.0)) / elapsed
                if m in cur_bytes
                else 0.0
            )
            lat = (
                (cur_lat[m] - prev_lat.get(m, 0.0)) / elapsed
                if m in cur_lat
                else 1.0
            )
            if socket_latency is None or lat > socket_latency:
                socket_latency = lat
            sat = (
                (cur_sat[m] - prev_sat.get(m, 0.0)) / elapsed
                if m in cur_sat
                else 0.0
            )
            if saturation is None or sat > saturation:
                saturation = sat
        hipri_bw = (
            (cur_bytes[hi_subdomain] - prev_bytes.get(hi_subdomain, 0.0))
            / elapsed
            if hi_subdomain in cur_bytes
            else 0.0
        )
        return socket_bw, socket_latency, saturation, hipri_bw, elapsed

    def reset(self, reader: str = "default") -> None:
        """Forget a reader's mark; its next read starts a fresh window."""
        self._marks.pop(reader, None)


#: Shared empty previous-integral mapping for first reads (never mutated).
_EMPTY: dict[int, float] = {}
