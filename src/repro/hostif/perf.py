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

A control loop whose node is quiescent may stop ticking and replay the
skipped reads later, in order (:meth:`replay_kelp`); :meth:`kelp_band`
bounds how far such later reads can drift from the last one through float
rounding alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
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
        return self._kelp_at(reader, socket, hi_subdomain, self._machine.sim.now)

    def _kelp_at(
        self, reader: str, socket: int, hi_subdomain: int, now: float
    ) -> tuple[float, float, float, float, float]:
        """:meth:`read_kelp` with the clock at ``now``."""
        previous = self._marks.get(reader)
        self._marks[reader] = self._mark_at(now)
        current = self._machine.telemetry.snapshot
        key = (now, socket, hi_subdomain, len(current.mc_bytes))
        last = self._last_kelp
        if last is not None and last[0] is previous and last[1] == key:
            return last[2]
        value = self._compute_kelp(current, previous, socket, hi_subdomain)
        self._last_kelp = (previous, key, value)
        return value

    def replay_kelp(
        self, reader: str, socket: int, hi_subdomain: int, instants: list[float]
    ) -> list[tuple[float, float, float, float, float]]:
        """:meth:`read_kelp` at each of ``instants`` in turn, after the fact.

        For a reader that skipped reads at past instants the integrals have
        not been advanced beyond (strictly ascending, none after the clock):
        the integrals advance through every instant exactly as those reads
        would have advanced them, and each result is the one that read
        would have returned, bit for bit.

        One pass over all the instants: the integrals come from
        :meth:`~repro.hw.telemetry.TelemetryAccumulator.advance_through`,
        and each field is an elementwise array operation in the scalar
        read's order (delta, then divide; the socket sum from zero in
        subdomain order; ``max`` keeping the first maximal value). Results
        are plain Python floats. Only the snapshots a later read or a
        checkpoint can see are built: the reader's new mark (shared as the
        instant's mark) and the previous mark the read memo holds.
        """
        machine = self._machine
        now = machine.sim.now
        if len(instants) == 1 and instants[0] == now:
            # A replay of one read at the clock is that read. The bulk pass
            # below pays a fixed NumPy call overhead several times one
            # read's cost; a run that samples elided members every tick
            # (telemetry, hooks) replays exactly this, once per member-tick.
            return [self._kelp_at(reader, socket, hi_subdomain, now)]
        if not instants[-1] <= now:
            raise SimulationError(
                f"cannot replay a read at {instants[-1]}: the clock is at {now}"
            )
        telemetry = machine.telemetry
        mark, mark_time = self._mark, self._mark_time
        series = telemetry.advance_through(instants)
        count = len(instants)
        previous = self._marks.get(reader)
        if previous is None:
            prev_time = 0.0
            prev_bytes = prev_lat = prev_sat = _EMPTY
        else:
            prev_time = previous.time
            prev_bytes = previous.mc_bytes
            prev_lat = previous.mc_latency
            prev_sat = previous.mc_saturation

        # The rows the reads use: time, then each integrated controller's
        # three integrals. Column 0 becomes the reader's previous mark, so
        # each column difference is the scalar read's ``current - previous``.
        bytes_rows = series.rows["mc_bytes"]
        lat_rows = series.rows["mc_latency"]
        sat_rows = series.rows["mc_saturation"]
        subdomains = self._socket_subdomains[socket][1]
        picked = [0]
        firsts = [prev_time]
        for m in (*subdomains, hi_subdomain):
            if m in bytes_rows:
                picked += (bytes_rows[m], lat_rows[m], sat_rows[m])
                firsts += (
                    prev_bytes.get(m, 0.0),
                    prev_lat.get(m, 0.0),
                    prev_sat.get(m, 0.0),
                )
        window = series.values[picked]
        window[:, 0] = firsts
        deltas = window[:, 1:] - window[:, :-1]
        elapsed = np.maximum(deltas[0], 0.0)
        # Only the first window can be degenerate (the instants after it are
        # strictly ascending); divide it by 1.0 and overwrite it below.
        degenerate = elapsed[0] <= 0
        divisor = elapsed
        if degenerate:
            divisor = elapsed.copy()
            divisor[0] = 1.0
        averages = iter(deltas[1:] / divisor)
        socket_bw = 0.0
        socket_latency = saturation = None
        for m in subdomains:
            if m in bytes_rows:
                bw, lat, sat = next(averages), next(averages), next(averages)
            else:
                bw, lat, sat = np.full((3, count), _MISSING)
            socket_bw = socket_bw + bw
            socket_latency = lat if socket_latency is None else np.where(
                lat > socket_latency, lat, socket_latency
            )
            saturation = sat if saturation is None else np.where(
                sat > saturation, sat, saturation
            )
        if hi_subdomain in bytes_rows:
            hipri_bw = next(averages)
        else:
            hipri_bw = np.zeros(count)
        values = list(
            zip(
                socket_bw.tolist(),
                socket_latency.tolist(),
                saturation.tolist(),
                hipri_bw.tolist(),
                elapsed.tolist(),
            )
        )
        if degenerate:
            # The documented defaults, as in window_since.
            values[0] = (0.0, 1.0, 0.0, 0.0, values[0][4])

        last = instants[-1]
        if mark_time != last:
            self._mark = telemetry.copy_snapshot()
            self._mark_time = last
        if count == 1:
            before = previous
        elif count == 2 and mark_time == instants[0]:
            before = mark
        else:
            before = series.snapshot(count - 1)
        self._marks[reader] = self._mark
        self._last_kelp = (
            before, (last, socket, hi_subdomain, len(bytes_rows)), values[-1]
        )
        return values

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

    def kelp_band(
        self,
        socket: int,
        hi_subdomain: int,
        reading: tuple[float, float, float, float],
        until: float,
        window: float,
    ) -> tuple[float, float, float, float]:
        """Rounding bounds on later :meth:`read_kelp` results.

        ``reading`` holds the first four :meth:`read_kelp` fields of a read
        whose whole window saw the solve state now in force. While that
        state stays in force, every later read over windows about
        ``window`` wide ending by ``until`` differs from ``reading`` by less
        than the returned band, field by field: each windowed average is
        ``(I_j - I_{j-1}) / e_j`` over integrals advanced in steps, and the
        only error against the true rate ``r`` is rounding, below
        ``2u (r + I / e)`` per controller, ``u`` the float epsilon and ``I``
        the integral's size. The band doubles that for the two reads
        compared, again for a window split by another reader's advance,
        counts every controller a sum adds, and takes a further factor of
        two as headroom.
        """
        snapshot = self._machine.telemetry.snapshot
        subdomains = self._socket_subdomains[socket][1]
        span = max(until - snapshot.time, 0.0) + window

        def band(rate: float, integrals: dict, keys, count: int) -> float:
            level = max(abs(integrals.get(m, 0.0)) for m in keys)
            level += abs(rate) * span
            return 16.0 * _EPSILON * count * (abs(rate) + 2.0 * level / window)

        socket_bw, latency, saturation, hipri_bw = reading
        return (
            band(socket_bw, snapshot.mc_bytes, subdomains, len(subdomains)),
            band(latency, snapshot.mc_latency, subdomains, 1),
            band(saturation, snapshot.mc_saturation, subdomains, 1),
            band(hipri_bw, snapshot.mc_bytes, (hi_subdomain,), 1),
        )

    def share_mark(self, reader: str, source: str) -> None:
        """Give ``reader`` the mark ``source`` holds: its next window starts
        where ``source``'s last one ended."""
        self._marks[reader] = self._marks[source]

    def reset(self, reader: str = "default") -> None:
        """Forget a reader's mark; its next read starts a fresh window."""
        self._marks.pop(reader, None)


#: Shared empty previous-integral mapping for first reads (never mutated).
_EMPTY: dict[int, float] = {}
#: A controller missing from the integrals reads 0.0 bandwidth, latency
#: factor 1.0 and 0.0 saturation.
_MISSING = ((0.0,), (1.0,), (0.0,))
#: Float spacing at 1.0.
_EPSILON = sys.float_info.epsilon
