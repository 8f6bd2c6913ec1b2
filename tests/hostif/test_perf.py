"""Tests for the simulated perf-counter interface."""

from __future__ import annotations

import pickle
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hostif.perf import PerfCounters
from repro.hw.placement import Placement
from repro.hw.spec import tpu_host_spec
from repro.hw.telemetry import TelemetryAccumulator
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


def _chain(start: float, interval: float, count: int) -> list[float]:
    """``count`` tick instants along the scheduler's float chain
    ``t + interval``."""
    instants = [start + interval]
    while len(instants) < count:
        instants.append(instants[-1] + interval)
    return instants


def _perf_state(node: Node) -> bytes:
    """Everything a later read or a checkpoint sees of the perf counters
    and the integrals: marks (and which readers share one), the shared
    mark, the read memo and the snapshot, pickled (so float types, key
    order and bit patterns all count)."""
    perf = node.perf
    return pickle.dumps(
        (
            perf._marks,
            perf._mark,
            perf._mark_time,
            perf._last_kelp,
            node.machine.telemetry.snapshot,
        )
    )


class TestReplayedReads:
    """``replay_kelp`` after the fact equals ``read_kelp`` at each instant
    on the clock, bit for bit, and leaves the same integrals and marks."""

    @staticmethod
    def _node() -> Node:
        node = Node.create(tpu_host_spec(), Simulator())
        start_stream(node)  # one constant solve state, no events
        return node

    @staticmethod
    def _drive_one(node: Node, at: float, missing: bool) -> None:
        """From ``at``, a solve state driving only the accel socket's last
        controller: the others keep integrals no state drives or, with
        ``missing``, were never integrated at all (fresh integrals)."""
        node.sim.run_until(at)
        state = node.machine.state
        kept = node.machine.topology.subdomains_of_socket(node.accel_socket)[-1]
        if missing:
            node.machine.telemetry = TelemetryAccumulator()
        node.machine.telemetry.set_state(
            replace(
                state,
                mc_loads={kept: state.mc_loads[kept]},
                socket_pressures={
                    node.accel_socket: state.socket_pressures[node.accel_socket]
                },
            ),
            at,
        )

    @given(
        st.lists(st.floats(0.05, 3.0), min_size=1, max_size=8),
        st.floats(0.0, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reads_on_the_clock(self, gaps, offset) -> None:
        live, late = self._node(), self._node()
        args = (live.accel_socket, live.hi_subdomain)
        instants = []
        for node in (live, late):
            node.sim.run_until(offset)
            node.perf.read_kelp("kelp", *args)
        for gap in gaps:
            instants.append((instants[-1] if instants else offset) + gap)
        want = []
        for instant in instants:
            live.sim.run_until(instant)
            want.append(live.perf.read_kelp("kelp", *args))
        late.sim.run_until(instants[-1])
        got = late.perf.replay_kelp("kelp", *args, instants)
        assert [_bits(v) for v in got] == [_bits(v) for v in want]
        assert late.machine.telemetry.snapshot == live.machine.telemetry.snapshot
        # The next read on the clock sees the same window in both.
        for node in (live, late):
            node.sim.run_until(instants[-1] + 1.0)
        assert _bits(late.perf.read_kelp("kelp", *args)) == _bits(
            live.perf.read_kelp("kelp", *args)
        )

    @given(
        offset=st.floats(0.0, 30.0),
        interval=st.sampled_from([10.0, 0.1, 1.0 / 3.0, 7.3]),
        count=st.one_of(st.integers(1, 6), st.integers(1000, 1100)),
        marked=st.booleans(),
        touch=st.sampled_from([None, "advance", "read"]),
        drive_one=st.sampled_from([None, "idle", "missing"]),
        shared=st.booleans(),
        clock_after=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    @example(
        offset=5.0, interval=10.0, count=1000, marked=True, touch=None,
        drive_one=None, shared=False, clock_after=True,
    )
    @example(
        offset=5.0, interval=0.1, count=2, marked=True, touch="read",
        drive_one="idle", shared=True, clock_after=True,
    )
    @example(
        offset=4.0, interval=0.1, count=3, marked=True, touch=None,
        drive_one="missing", shared=False, clock_after=True,
    )
    @example(  # a degenerate first window
        offset=0.0, interval=1.0, count=3, marked=True, touch="read",
        drive_one=None, shared=False, clock_after=False,
    )
    def test_bulk_catch_up_matches_reads_on_the_clock(
        self, offset, interval, count, marked, touch, drive_one, shared,
        clock_after,
    ) -> None:
        """A catch-up the way a waking fleet member replays it: a chain of
        tick instants, from a reader with or without a previous mark,
        optionally starting at the integrals' own time (a zero-width first
        step, with or without another reader's mark there), over
        controllers a previous state seeded but the current one leaves
        idle (or never integrated), with a second reader sharing the
        mark."""
        live, late = self._node(), self._node()
        args = (live.accel_socket, live.hi_subdomain)
        instants = _chain(offset, interval, count)
        if touch is not None:
            instants = [offset, *instants[:-1]]
        for node in (live, late):
            if drive_one is not None:
                self._drive_one(node, offset / 2, drive_one == "missing")
            node.sim.run_until(offset / 2)
            if marked:
                node.perf.read_kelp("kelp", *args)
                if shared:
                    node.perf.share_mark("fleet", "kelp")
            node.sim.run_until(offset)
            if touch == "advance":
                node.machine.telemetry.advance(offset)
            elif touch == "read":
                node.perf.read_kelp("fleet", *args)
        want = []
        for instant in instants:
            live.sim.run_until(instant)
            want.append(live.perf.read_kelp("kelp", *args))
        # The catch-up runs at the last instant or later (a wake between
        # ticks).
        late.sim.run_until(instants[-1] + (interval / 2 if clock_after else 0.0))
        got = late.perf.replay_kelp("kelp", *args, instants)
        assert all(type(x) is float for v in got for x in v)
        assert [_bits(v) for v in got] == [_bits(v) for v in want]
        assert _perf_state(late) == _perf_state(live)
        # The next reads on the clock, by the replayed reader and by a
        # second reader handed its mark, see the same windows in both.
        for node in (live, late):
            node.sim.run_until(instants[-1] + interval)
            node.perf.share_mark("fleet", "kelp")
        for reader in ("kelp", "fleet"):
            assert _bits(late.perf.read_kelp(reader, *args)) == _bits(
                live.perf.read_kelp(reader, *args)
            )
        assert _perf_state(late) == _perf_state(live)

    def test_refuses_instants_the_integrals_passed(self, node: Node) -> None:
        start_stream(node)
        args = (node.accel_socket, node.hi_subdomain)
        node.sim.run_until(2.0)
        node.perf.read_kelp("fleet", *args)
        with pytest.raises(SimulationError, match="already advanced"):
            node.perf.replay_kelp("kelp", *args, [1.0, 2.0])

    def test_refuses_instants_out_of_order_or_after_the_clock(
        self, node: Node
    ) -> None:
        start_stream(node)
        args = (node.accel_socket, node.hi_subdomain)
        node.sim.run_until(5.0)
        before = _perf_state(node)
        with pytest.raises(SimulationError, match="at 6.0: the clock is at 5.0"):
            node.perf.replay_kelp("kelp", *args, [1.0, 6.0])
        with pytest.raises(SimulationError, match="through 2.0: instants must"):
            node.perf.replay_kelp("kelp", *args, [1.0, 2.0, 2.0, 3.0])
        with pytest.raises(SimulationError, match="through 1.5: instants must"):
            node.perf.replay_kelp("kelp", *args, [1.0, 2.0, 1.5])
        # A refused replay reads and integrates nothing.
        assert _perf_state(node) == before
