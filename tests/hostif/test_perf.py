"""Tests for the simulated perf-counter interface."""

from __future__ import annotations

import pickle
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hostif.perf import PerfCounters
from repro.hw.placement import Placement
from repro.hw.spec import tpu_host_spec
from repro.node import Node
from repro.sim import Simulator
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload
from repro.workloads.cpu.stream import stream_profile


def start_stream(node: Node, threads: int = 8) -> BatchTask:
    task = BatchTask(
        "stream",
        node.machine,
        Placement(cores=frozenset(range(4, 12)), mem_weights={0: 0.5, 1: 0.5}),
        stream_profile(threads),
    )
    task.start()
    return task


class TestPerfCounters:
    def test_idle_machine_reads_zero(self, node: Node) -> None:
        node.sim.run_until(1.0)
        reading = node.perf.read()
        assert reading.socket_bandwidth_gbps[0] == pytest.approx(0.0)
        assert reading.socket_latency_factor[0] == pytest.approx(1.0)
        assert reading.socket_saturation[0] == 0.0

    def test_bandwidth_reflects_running_task(self, node: Node) -> None:
        start_stream(node)
        node.perf.read("r")  # reset window
        node.sim.run_until(2.0)
        reading = node.perf.read("r")
        assert reading.socket_bandwidth_gbps[0] > 30.0
        assert reading.socket_bandwidth_gbps[1] == pytest.approx(0.0)

    def test_windows_are_per_reader(self, node: Node) -> None:
        start_stream(node)
        node.sim.run_until(1.0)
        first = node.perf.read("a")
        node.sim.run_until(2.0)
        second_a = node.perf.read("a")
        full_b = node.perf.read("b")
        assert second_a.elapsed == pytest.approx(1.0)
        assert full_b.elapsed == pytest.approx(2.0)
        assert first.elapsed == pytest.approx(1.0)

    def test_saturation_reported_under_heavy_load(self, node: Node) -> None:
        task = BatchTask(
            "dram",
            node.machine,
            Placement(
                cores=frozenset(node.lo_subdomain_cores()), mem_weights={1: 1.0}
            ),
            cpu_workload("dram", "H"),
        )
        task.start()
        node.perf.read("r")
        node.sim.run_until(1.0)
        reading = node.perf.read("r")
        assert reading.socket_saturation[0] > 0.5
        assert reading.subdomain_bandwidth_gbps[1] > 0.0

    def test_reset_restarts_window(self, node: Node) -> None:
        start_stream(node)
        node.sim.run_until(1.0)
        node.perf.read("r")
        node.perf.reset("r")
        node.sim.run_until(2.0)
        reading = node.perf.read("r")
        assert reading.elapsed == pytest.approx(2.0)


# ------------------------------------------------------------ shared reads
#: Readers of the shared-read property test: "kelp" and "fleet" read the
#: node's accel socket, "x" reads the remote one.
_READERS = ("kelp", "fleet", "x")

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])),
        st.tuples(st.sampled_from(["read_kelp", "read"]), st.sampled_from(_READERS)),
        st.tuples(st.sampled_from(["load", "unload"]), st.just("")),
    ),
    min_size=1,
    max_size=40,
)


def _bits(values) -> tuple[bytes, ...]:
    """Exact float encodings, so 0.0 vs -0.0 or 1-ulp drift cannot hide."""
    return tuple(struct.pack("<d", float(v)) for v in values)


def _scalars(reading, socket: int, hi: int) -> tuple[float, ...]:
    """The read_kelp tuple derived from a full :meth:`PerfCounters.read`."""
    return (
        reading.socket_bandwidth_gbps[socket],
        reading.socket_latency_factor[socket],
        reading.socket_saturation[socket],
        reading.subdomain_bandwidth_gbps.get(hi, 0.0),
        reading.elapsed,
    )


class _SharedReadRig:
    """One node whose readers share a PerfCounters, plus one fresh unshared
    reference PerfCounters per reader over the same machine."""

    def __init__(self) -> None:
        self.node = Node.create(tpu_host_spec(), Simulator())
        topology = self.node.machine.topology
        remote = 1 - self.node.accel_socket
        self.keys = {
            "kelp": (self.node.accel_socket, self.node.hi_subdomain),
            "fleet": (self.node.accel_socket, self.node.hi_subdomain),
            "x": (remote, topology.subdomains_of_socket(remote)[0]),
        }
        self.refs = {r: PerfCounters(self.node.machine) for r in _READERS}
        self.tasks: list[BatchTask] = []
        self.loads = 0
        start_stream(self.node)

    def step(self, op: str, arg) -> None:
        node = self.node
        if op == "advance":
            node.sim.run_until(node.sim.now + arg)
        elif op == "load" and len(self.tasks) < 3:
            # A solve at the current instant, possibly between two reads.
            self.loads += 1
            task = BatchTask(
                f"dram{self.loads}",
                node.machine,
                Placement(
                    cores=frozenset(node.lo_subdomain_cores()),
                    mem_weights={node.lo_subdomain: 1.0},
                ),
                cpu_workload("dram", "H"),
            )
            task.start()
            self.tasks.append(task)
        elif op == "unload" and self.tasks:
            self.tasks.pop(0).stop()
        elif op == "read_kelp":
            socket, hi = self.keys[arg]
            got = node.perf.read_kelp(arg, socket, hi)
            want = _scalars(self.refs[arg].read(arg), socket, hi)
            assert _bits(got) == _bits(want), (arg, node.sim.now)
        elif op == "read":
            got = node.perf.read(arg)
            want = self.refs[arg].read(arg)
            assert got == want, (arg, node.sim.now)


class TestSharedReads:
    """Readers marking the same instant share one snapshot copy and one
    read_kelp computation; every read stays bit-identical to a fresh,
    unshared read over the same window."""

    @given(_steps, st.integers(min_value=0, max_value=40))
    @example(
        # First reads at t=0, a zero-width re-read, aligned then
        # phase-shifted windows, and read()/read_kelp() mixed on "x".
        [
            ("read_kelp", "kelp"), ("read_kelp", "fleet"), ("read", "x"),
            ("read_kelp", "kelp"), ("advance", 0.5), ("read_kelp", "kelp"),
            ("load", ""), ("read_kelp", "fleet"), ("read_kelp", "x"),
            ("advance", 0.25), ("read_kelp", "kelp"), ("advance", 0.25),
            ("read_kelp", "fleet"), ("read_kelp", "kelp"), ("read", "x"),
        ],
        7,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_unshared_reads(self, steps, pickle_at: int) -> None:
        rig = _SharedReadRig()
        for index, (op, arg) in enumerate(steps):
            if index == pickle_at:
                # A checkpoint round-trip keeps the shared marks shared.
                rig = pickle.loads(pickle.dumps(rig))
            rig.step(op, arg)

    def test_aligned_readers_share_one_computation(self, node: Node) -> None:
        start_stream(node)
        args = (node.accel_socket, node.hi_subdomain)
        node.perf.read_kelp("kelp", *args)
        node.perf.read_kelp("fleet", *args)
        node.sim.run_until(1.0)
        first = node.perf.read_kelp("kelp", *args)
        assert node.perf.read_kelp("fleet", *args) is first
        # A reader on another window misses and computes its own read.
        node.sim.run_until(1.5)
        node.perf.read_kelp("kelp", *args)
        node.perf.reset("fleet")
        assert node.perf.read_kelp("fleet", *args)[4] == pytest.approx(1.5)
