"""Tests for time-integrated telemetry."""

from __future__ import annotations

import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hw.contention import TrafficSource
from repro.hw.machine import Machine
from repro.hw.spec import tpu_host_spec
from repro.hw.telemetry import TelemetryAccumulator
from repro.sim import Simulator


def make_state(machine: Machine, demand: float):
    src = TrafficSource(
        source_id="s", task_id="s", demand_gbps=demand,
        mem_weights={0: 1.0}, cores=frozenset({0}), threads=1,
    )
    return machine.solver.solve([src])


class TestTelemetryAccumulator:
    def test_window_averages_constant_state(self, machine: Machine) -> None:
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 10.0), now=0.0)
        mark = acc.copy_snapshot()
        window = acc.window_since(mark, now=4.0)
        assert window.elapsed == pytest.approx(4.0)
        assert window.mc_bandwidth_gbps[0] == pytest.approx(13.0)  # pf inflation

    def test_window_averages_piecewise_state(self, machine: Machine) -> None:
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 10.0), now=0.0)
        acc.set_state(make_state(machine, 20.0), now=1.0)
        mark_zero = acc.copy_snapshot()  # at t=1
        window = acc.window_since(mark_zero, now=3.0)
        assert window.mc_bandwidth_gbps[0] == pytest.approx(26.0)

    def test_independent_readers(self, machine: Machine) -> None:
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 10.0), now=0.0)
        early = acc.copy_snapshot()
        acc.advance(2.0)
        late = acc.copy_snapshot()
        w_early = acc.window_since(early, now=4.0)
        w_late = acc.window_since(late, now=4.0)
        assert w_early.elapsed == pytest.approx(4.0)
        assert w_late.elapsed == pytest.approx(2.0)

    def test_helpers(self, machine: Machine) -> None:
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 50.0), now=0.0)
        mark = acc.copy_snapshot()
        window = acc.window_since(mark, now=1.0)
        assert window.bandwidth_of((0, 1)) >= window.bandwidth_of((0,))
        assert window.max_latency_factor((0, 1)) >= 1.0
        assert 0.0 <= window.max_saturation((0, 1)) <= 1.0

    def test_zero_width_window_reports_defaults(self, machine: Machine) -> None:
        """Regression: two reads at the same instant must not fabricate data.

        The old code floored the elapsed time at 1e-12, so the degenerate
        window divided the (zero) integral deltas by an epsilon and the
        documented defaults were unreachable. A zero-width window now
        reports elapsed 0.0 and the per-signal defaults.
        """
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 50.0), now=0.0)
        acc.advance(2.0)
        mark = acc.copy_snapshot()
        window = acc.window_since(mark, now=2.0)  # double read, same time
        assert window.elapsed == 0.0
        assert window.mc_bandwidth_gbps[0] == 0.0
        assert window.mc_latency_factor[0] == 1.0
        assert window.mc_saturation[0] == 0.0
        assert window.socket_throttle[0] == 1.0

    def test_window_after_degenerate_read_recovers(self, machine: Machine) -> None:
        """A zero-width read must not poison the next, real window."""
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 10.0), now=0.0)
        mark = acc.copy_snapshot()
        acc.window_since(mark, now=0.0)  # degenerate
        window = acc.window_since(mark, now=4.0)
        assert window.elapsed == pytest.approx(4.0)
        assert window.mc_bandwidth_gbps[0] == pytest.approx(13.0)

    def test_time_never_goes_backwards(self) -> None:
        acc = TelemetryAccumulator()
        acc.advance(5.0)
        acc.advance(3.0)  # clamped, no exception
        assert acc.snapshot.time == 5.0


def _bits(snapshot) -> tuple:
    """Exact encodings of every integral, in key order, plus the time."""
    return (
        struct.pack("<d", snapshot.time),
        *(
            tuple((key, struct.pack("<d", value)) for key, value in values.items())
            for values in (
                snapshot.mc_bytes,
                snapshot.mc_latency,
                snapshot.mc_saturation,
                snapshot.socket_throttle,
            )
        ),
    )


def _chain(start: float, interval: float, count: int) -> list[float]:
    """``count`` instants along the float chain ``t + interval``."""
    instants = [start + interval]
    while len(instants) < count:
        instants.append(instants[-1] + interval)
    return instants


class TestAdvanceThrough:
    """``advance_through`` equals ``advance`` at each instant, bit for bit."""

    @staticmethod
    def _pair(demand: float, idle: bool, at: float):
        """Two accumulators in the same state: a solve state in force from
        t=0, then (``idle``) one driving controller 0 only from ``at``, so
        the others keep integrals no state drives."""
        state = make_state(Machine(tpu_host_spec(), Simulator()), demand)
        accs = (TelemetryAccumulator(), TelemetryAccumulator())
        for acc in accs:
            acc.set_state(state, 0.0)
            if idle:
                acc.set_state(
                    replace(
                        state,
                        mc_loads={0: state.mc_loads[0]},
                        socket_pressures={0: state.socket_pressures[0]},
                    ),
                    at,
                )
            else:
                acc.advance(at)
        return accs

    @given(
        demand=st.floats(1.0, 60.0),
        interval=st.floats(0.01, 20.0),
        at=st.floats(0.0, 50.0),
        count=st.one_of(st.integers(1, 8), st.integers(1000, 1200)),
        zero_width=st.booleans(),
        idle=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_stepwise_advance(
        self, demand, interval, at, count, zero_width, idle
    ) -> None:
        stepwise, bulk = self._pair(demand, idle, at)
        times = _chain(at, interval, count)
        if zero_width:
            times = [at, *times[:-1]]
        want = []
        for t in times:
            stepwise.advance(t)
            want.append(_bits(stepwise.copy_snapshot()))
        series = bulk.advance_through(times)
        assert _bits(bulk.snapshot) == _bits(stepwise.snapshot)
        assert type(bulk.snapshot.time) is float
        assert [_bits(series.snapshot(j + 1)) for j in range(count)] == want

    def test_refuses_instants_out_of_order(self, machine: Machine) -> None:
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 10.0), 0.0)
        acc.advance(2.0)
        before = _bits(acc.snapshot)
        with pytest.raises(SimulationError, match="already advanced to 2.0"):
            acc.advance_through([1.0, 3.0])
        with pytest.raises(SimulationError, match="through 3.0: instants must"):
            acc.advance_through([2.5, 3.0, 3.0])
        with pytest.raises(SimulationError, match="through 2.75: instants must"):
            acc.advance_through([3.0, 4.0, 2.75])
        # A refused run integrates nothing.
        assert _bits(acc.snapshot) == before
