"""Actuator facade: journaling, dedup, and fault injection."""

from __future__ import annotations

import pytest

from repro.control.actuators import ActuationFaultConfig, HostControlPlane
from repro.errors import ConfigurationError
from repro.hostif.msr import MSR_MISC_FEATURE_CONTROL, PREFETCH_DISABLE_ALL
from repro.hw.placement import Placement
from repro.hw.spec import tpu_host_spec
from repro.node import Node
from repro.sim import Simulator
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.stream import stream_profile


@pytest.fixture
def task(node: Node) -> BatchTask:
    placement = Placement(cores=frozenset(range(4, 8)), mem_weights={0: 1.0})
    task = BatchTask("lo", node.machine, placement, stream_profile(4))
    task.start()
    return task


class TestDedupAndJournal:
    def test_cpuset_write_journaled_once(self, node: Node, task: BatchTask) -> None:
        plane = HostControlPlane(node)
        assert plane.set_task_cpus(task, {4, 5}) == 1
        assert task.placement.cores == frozenset({4, 5})
        # Re-writing the in-effect mask is dropped before the machine.
        assert plane.set_task_cpus(task, {4, 5}) == 0
        assert len(plane.journal) == 1
        record = plane.journal[0]
        assert (record.kind, record.target, record.value, record.status) == (
            "cpuset", "lo", "4-5", "applied"
        )

    def test_park_dedup(self, node: Node, task: BatchTask) -> None:
        plane = HostControlPlane(node)
        assert plane.set_task_cpus(task, frozenset()) == 1
        assert task.parked
        assert plane.set_task_cpus(task, frozenset()) == 0
        assert [r.value for r in plane.journal] == ["parked"]

    def test_prefetcher_writes_only_changed_cores(self, node: Node) -> None:
        plane = HostControlPlane(node)
        cores = node.lo_subdomain_cores()
        # All cores start enabled: disabling all but 2 writes len-2 MSRs.
        assert plane.set_lo_prefetchers(2) == len(cores) - 2
        assert plane.set_lo_prefetchers(2) == 0  # already in effect
        assert plane.set_lo_prefetchers(3) == 1  # one core flips back on
        assert all(r.kind == "msr" for r in plane.journal)

    def test_mba_dedup_reads_live_state(self, node: Node) -> None:
        plane = HostControlPlane(node)
        plane.create_clos_group(2)
        assert plane.set_mb_percent(2, 60) == 1
        assert plane.set_mb_percent(2, 60) == 0
        # A write that bypassed the plane is still seen by the dedup.
        node.resctrl.set_mb_percent(2, 30)
        assert plane.set_mb_percent(2, 30) == 0
        assert plane.set_mb_percent(2, 60) == 1

    def test_writes_this_tick_resets_at_begin_tick(
        self, node: Node, task: BatchTask
    ) -> None:
        plane = HostControlPlane(node)
        plane.begin_tick()
        plane.set_task_cpus(task, {4, 5})
        assert plane.writes_this_tick == 1
        plane.begin_tick()
        assert plane.writes_this_tick == 0


class TestFaultInjection:
    def test_config_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            ActuationFaultConfig(fail_prob=1.0)
        with pytest.raises(ConfigurationError):
            ActuationFaultConfig(defer_prob=-0.1)
        with pytest.raises(ConfigurationError):
            ActuationFaultConfig(max_retries=-1)
        assert not ActuationFaultConfig().active
        assert ActuationFaultConfig(fail_prob=0.1).active

    def test_failed_write_leaves_knob_unchanged(
        self, node: Node, task: BatchTask
    ) -> None:
        faults = ActuationFaultConfig(fail_prob=0.999, max_retries=2, seed=1)
        plane = HostControlPlane(node, faults)
        plane.set_task_cpus(task, {4, 5})
        record = plane.journal[-1]
        assert record.status == "failed"
        assert record.attempts == 3  # first try + 2 retries
        assert task.placement.cores == frozenset(range(4, 8))

    def test_deferred_write_lands_at_next_tick(
        self, node: Node, task: BatchTask
    ) -> None:
        faults = ActuationFaultConfig(defer_prob=0.999, seed=2)
        plane = HostControlPlane(node, faults)
        plane.begin_tick()
        plane.set_task_cpus(task, {4, 5})
        assert plane.journal[-1].status == "deferred"
        assert task.placement.cores == frozenset(range(4, 8))  # not yet
        plane.begin_tick()  # the deferred write lands before the decision
        assert task.placement.cores == frozenset({4, 5})
        assert plane.journal[-1].status == "applied"

    def test_setup_writes_never_faulted(self, node: Node) -> None:
        faults = ActuationFaultConfig(fail_prob=0.999, max_retries=0, seed=3)
        plane = HostControlPlane(node, faults)
        plane.create_clos_group(1)
        plane.dedicate_llc_ways(1, 6)
        plane.setup_mb_percent(1, 100)
        assert [r.status for r in plane.journal] == ["applied"] * 3

    def test_window_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            ActuationFaultConfig(windows=((5.0, 5.0),))
        with pytest.raises(ConfigurationError):
            ActuationFaultConfig(windows=((10.0, 5.0),))
        windows_only = ActuationFaultConfig(windows=((1.0, 2.0),))
        assert windows_only.active
        assert not windows_only.stochastic

    def test_writes_fail_only_inside_window(
        self, node: Node, task: BatchTask
    ) -> None:
        faults = ActuationFaultConfig(windows=((5.0, 10.0),))
        plane = HostControlPlane(node, faults)
        plane.set_task_cpus(task, {4, 5})
        assert plane.journal[-1].status == "applied"
        node.sim.run_until(5.0)  # window start is inclusive
        plane.set_task_cpus(task, {4, 6})
        assert plane.journal[-1].status == "failed"
        assert task.placement.cores == frozenset({4, 5})  # knob unchanged
        node.sim.run_until(10.0)  # window stop is exclusive
        plane.set_task_cpus(task, {4, 6})
        assert plane.journal[-1].status == "applied"
        assert task.placement.cores == frozenset({4, 6})

    def test_live_windows_are_mutable(self, node: Node, task: BatchTask) -> None:
        plane = HostControlPlane(node)
        assert plane.fault_windows == []
        plane.fault_windows.append((0.0, 1.0))
        plane.set_task_cpus(task, {4, 5})
        assert plane.journal[-1].status == "failed"
        plane.fault_windows.clear()
        plane.set_task_cpus(task, {4, 5})
        assert plane.journal[-1].status == "applied"

    def test_windows_never_touch_the_stochastic_stream(
        self, node: Node
    ) -> None:
        def stochastic_statuses(with_window: bool) -> list[str]:
            placement = Placement(
                cores=frozenset(range(4, 8)), mem_weights={0: 1.0}
            )
            task = BatchTask("w", node.machine, placement, stream_profile(4))
            task.start()
            start = node.sim.now
            windows = ((start, start + 0.5),) if with_window else ()
            plane = HostControlPlane(
                node,
                ActuationFaultConfig(
                    fail_prob=0.4, max_retries=0, seed=11, windows=windows
                ),
            )
            if with_window:
                # In-window writes fail deterministically and must not
                # advance the RNG the flat-rate stream draws from.
                for _ in range(5):
                    plane.set_task_cpus(task, frozenset({4}))
                    assert plane.journal[-1].status == "failed"
                node.sim.run_until(start + 0.5)  # window expires
            out = []
            for width in (2, 3, 2, 3, 2, 3, 2, 3):
                plane.set_task_cpus(task, frozenset(range(4, 4 + width)))
                out.append(plane.journal[-1].status)
            task.stop()
            return out

        with_window = stochastic_statuses(True)
        without = stochastic_statuses(False)
        assert with_window == without
        assert "failed" in without  # the flat rate actually bites

    def test_fault_stream_is_deterministic(self, node: Node) -> None:
        def statuses() -> list[str]:
            placement = Placement(
                cores=frozenset(range(4, 8)), mem_weights={0: 1.0}
            )
            task = BatchTask("d", node.machine, placement, stream_profile(4))
            task.start()
            plane = HostControlPlane(
                node,
                ActuationFaultConfig(fail_prob=0.4, max_retries=0, seed=11),
            )
            out = []
            for width in (2, 3, 2, 3, 2, 3, 2, 3):
                plane.set_task_cpus(task, frozenset(range(4, 4 + width)))
                out.append(plane.journal[-1].status)
            task.stop()
            return out

        first, second = statuses(), statuses()
        assert first == second
        assert "failed" in first  # the fault rate actually bites


def _drive_prefetchers(
    script, faults: ActuationFaultConfig | None, clear_cache: bool
) -> tuple[list[dict], list[bool], int]:
    """Run a tick script through one fresh node's plane.

    Returns the journal rows, the final low-core MSR states and how many
    per-core read-backs the plane made. ``clear_cache`` drops the plane's
    verified-prefetcher memo before every call: the reference behaviour.
    """
    node = Node.create(tpu_host_spec(), Simulator())
    plane = HostControlPlane(node, faults)
    msr = node.msr
    cores = node.lo_subdomain_cores()
    read_backs = 0
    states = msr.prefetcher_states

    def counted_states(run):
        nonlocal read_backs
        read_backs += 1
        return states(run)

    msr.prefetcher_states = counted_states
    for op, arg in script:
        if op == "tick":
            plane.begin_tick()
            if clear_cache:
                plane._prefetchers_verified = None
            plane.set_lo_prefetchers(arg)
        elif op == "enable_all":
            msr.enable_all()
        elif op == "wrmsr":
            msr.wrmsr(cores[arg], MSR_MISC_FEATURE_CONTROL, PREFETCH_DISABLE_ALL)
        elif op == "set_prefetchers":
            msr.set_prefetchers(cores[arg], True)
        node.sim.run_until(node.sim.now + 0.5)
    rows = [record.as_dict() for record in plane.journal]
    return rows, states(cores), read_backs


class TestPrefetcherReadBackDedup:
    """A repeated prefetcher count skips the per-core MSR read-back only
    while no MSR was written since the last write-free verification."""

    def test_out_of_band_msr_writes_force_read_back(self) -> None:
        script = [
            ("tick", 2), ("tick", 2), ("tick", 2),
            ("enable_all", None), ("tick", 2), ("tick", 2),
            ("wrmsr", 0), ("tick", 2),
            ("set_prefetchers", 3), ("tick", 2), ("tick", 2), ("tick", 2),
        ]
        cached, cached_states, cached_reads = _drive_prefetchers(
            script, None, clear_cache=False
        )
        reference, reference_states, reference_reads = _drive_prefetchers(
            script, None, clear_cache=True
        )
        assert cached == reference
        assert cached_states == reference_states
        ticks = sum(1 for op, _ in script if op == "tick")
        assert reference_reads == ticks
        # Only the third and last ticks follow a write-free tick with no
        # MSR write in between; every out-of-band write forced a read-back.
        assert cached_reads == ticks - 2

    @pytest.mark.parametrize("seed", range(4))
    def test_deferred_and_failed_writes_force_read_back(self, seed: int) -> None:
        faults = ActuationFaultConfig(
            fail_prob=0.35, defer_prob=0.35, max_retries=0, seed=seed
        )
        counts = [2, 2, 2, 5, 5, 5, 1, 1, 1, 1, 4, 4, 4, 0, 0, 0, 3, 3, 3, 3]
        script = [("tick", count) for count in counts]
        cached, cached_states, cached_reads = _drive_prefetchers(
            script, faults, clear_cache=False
        )
        reference, reference_states, _ = _drive_prefetchers(
            script, faults, clear_cache=True
        )
        assert cached == reference
        assert cached_states == reference_states
        assert cached_reads < len(script)
        statuses = {row["status"] for row in cached}
        assert {"deferred", "failed"} <= statuses
