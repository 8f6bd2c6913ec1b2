"""The four runtime measurements Kelp samples each interval (Section IV-D).

``MeasureSocket`` and ``MeasureHiPriority`` of Algorithm 1 map to one
windowed perf read: socket bandwidth and latency from the IMC counters,
saturation from the ``FAST_ASSERTED`` uncore event, and the high-priority
subdomain's bandwidth from that channel group's CAS counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.node import Node


@dataclass(frozen=True)
class KelpMeasurements:
    """One control-interval sample on the accelerator-local socket."""

    #: ``bw_s``: socket memory bandwidth, GB/s.
    socket_bw: float
    #: ``lat_s``: loaded-latency factor (1.0 = unloaded).
    socket_latency: float
    #: ``sat_s``: fraction of cycles the distress signal was asserted.
    saturation: float
    #: ``bw_h``: high-priority-subdomain bandwidth, GB/s.
    hipri_bw: float
    #: Window length, simulated seconds.
    elapsed: float


def measure_node(node: Node, reader: str = "kelp") -> KelpMeasurements:
    """Sample all four measurements since this reader's previous call."""
    # read_kelp returns the fields in KelpMeasurements' declaration order.
    return KelpMeasurements(
        *node.perf.read_kelp(reader, node.accel_socket, node.hi_subdomain)
    )
