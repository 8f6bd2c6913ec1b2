"""Quiescent tick elision: skipped control ticks, replayed later as
arithmetic, leave every output bit-identical to ticking every interval."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.governors import KelpGovernor
from repro.control.loop import ControlLoop
from repro.errors import SimulationError
from repro.fleet.config import BatchJobSpec
from repro.fleet.member import FleetMember
from repro.fleet.orchestrator import FleetOrchestrator, fleet_config_for_trace
from repro.sim import Simulator
from repro.workloads.ml.catalog import ml_workload

_ROOT = Path(__file__).resolve().parents[2]


def _load_capture_module():
    """Import scripts/capture_golden.py (the sparse idle-fleet scenario)."""
    spec = importlib.util.spec_from_file_location(
        "capture_golden", _ROOT / "scripts" / "capture_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CAPTURE = _load_capture_module()


def _ticking(run):
    """``run()`` with the quiescence predicate forced false, so that every
    node ticks every interval (the reference the elided run must equal)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FleetMember, "_quiescent", lambda self, now: False)
        return run()


# ------------------------------------------------------------ fleet level
#: Dyadic arrival instants in [0, 40): exact under the replay generator's
#: relative-delay chain; whole seconds sit on the 1 s control grid.
_ARRIVAL = st.one_of(
    st.integers(0, 39).map(float),
    st.integers(0, 40 * 16 - 1).map(lambda k: k / 16),
)
_EPOCH = st.integers(1, 50)


@st.composite
def _schedules(draw):
    """epoch -> list of service actions (a random lifecycle story)."""
    plan: dict[int, list] = {}

    def add(epoch, action):
        plan.setdefault(epoch, []).append(action)

    node = st.integers(0, 3)
    if draw(st.booleans()):
        add(draw(_EPOCH), lambda svc: svc.orchestrator.queue.add_job(
            BatchJobSpec("stream", 4)))
    if draw(st.booleans()):
        pinned = draw(node)
        add(draw(_EPOCH), lambda svc: svc.orchestrator.queue.add_job(
            BatchJobSpec("stitch", 2), member=svc.orchestrator.members[pinned]))
    if draw(st.booleans()):
        blind, length = draw(node), draw(st.floats(0.5, 8.0))
        add(draw(_EPOCH), lambda svc: svc.orchestrator.members[
            blind].begin_blackout(svc.time_s + length))
    if draw(st.booleans()):
        dead, at = draw(node), draw(_EPOCH)
        add(at, lambda svc: svc.orchestrator.members[dead].fail())
        add(at + draw(st.integers(1, 6)),
            lambda svc: svc.orchestrator.members[dead].restart())
    if draw(st.booleans()):
        at = draw(_EPOCH)
        add(at, lambda svc: svc.shrink())
        add(at + draw(st.integers(1, 8)), lambda svc: svc.grow())
    if draw(st.booleans()):
        add(draw(_EPOCH), lambda svc: svc.swap_routing("least-loaded"))
    return {
        epoch: (lambda svc, actions=actions: [a(svc) for a in actions])
        for epoch, actions in plan.items()
    }


class TestElidedEqualsTicking:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        arrivals=st.lists(_ARRIVAL, min_size=1, max_size=12).map(sorted),
        schedule=_schedules(),
        collect=st.booleans(),
    )
    def test_random_sparse_replays(self, arrivals, schedule, collect) -> None:
        def run():
            return CAPTURE.idle_sparse_run(
                arrivals,
                duration_s=40.0,
                collect_telemetry=collect,
                actions=schedule,
            )

        elided = run()
        ticking = _ticking(run)
        assert ticking.pop("elided_ticks") == 0
        elided.pop("elided_ticks")
        assert elided == ticking

    def test_the_golden_scenario_elides_most_idle_ticks(self) -> None:
        elided = CAPTURE.idle_sparse_run(collect_telemetry=False)
        ticking = _ticking(lambda: CAPTURE.idle_sparse_run(
            collect_telemetry=False))
        noop = sum(row["writes"] == 0 for row in ticking["controller"])
        assert elided["elided_ticks"] > noop // 2
        ticking.pop("elided_ticks")
        elided.pop("elided_ticks")
        assert elided == ticking


class TestHooksAttached:
    def test_incident_runs_match_ticking(self) -> None:
        """With the incident engine's hooks every member is sampled every
        tick while its control ticks are elided; all five incident classes
        and their remediation (governor swaps, drains, quarantine) see the
        same fleet either way."""
        import json

        from repro.experiments.fleet_incidents import run_fleet_incidents
        from repro.traces import TraceGenConfig

        def run():
            result = run_fleet_incidents(
                gen=TraceGenConfig(
                    seed=3, duration_s=600.0, rate_qps=0.05,
                    burst_multiplier=1.0,
                ),
                nodes=3,
                routing="random",
                interval=2.0,
                warmup=20.0,
                seed=7,
                incident_seed=5,
            )
            return json.dumps(result.artifact(), sort_keys=True, default=str)

        replayed: list[float] = []
        replay = ControlLoop.replay
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                ControlLoop,
                "replay",
                lambda loop, instants: (
                    replayed.extend(instants), replay(loop, instants)
                )[1],
            )
            elided = run()
        assert len(replayed) > 500
        assert elided == _ticking(run)


class TestHorizon:
    def test_advance_past_duration_matches_ticking(self) -> None:
        """Members elided up to the duration wake when the clock passes
        it, and elide again under a guarantee reaching the new end."""

        def run():
            trace = CAPTURE.sparse_trace((1.0, 2.0), 10.0)
            orchestrator = FleetOrchestrator(
                fleet_config_for_trace(trace, nodes=2, interval=1.0),
                trace=trace,
                collect_telemetry=False,
            )
            orchestrator.setup()
            orchestrator.advance(10.0)
            orchestrator.advance(30.5)
            orchestrator.members[1].submit(0)
            orchestrator.advance(60.0)
            result = orchestrator.finish()
            return (
                result.summary(),
                [m.controller_history() for m in orchestrator.members],
                [m.actuation_journal() for m in orchestrator.members],
                result.elided_ticks,
            )

        *elided, elided_ticks = run()
        *ticking, ticking_ticks = _ticking(run)
        assert ticking_ticks == 0
        assert elided_ticks > 2 * 40  # most ticks past t=10 were elided
        assert elided == ticking


# ----------------------------------------------------------- member level
def _member(sim: Simulator) -> FleetMember:
    member = FleetMember(
        index=0,
        sim=sim,
        factory=ml_workload("rnn1"),
        policy_name="KP",
        interval=0.5,
        warmup=0.0,
        seed=7,
        horizon=100.0,
    )
    member.start()
    return member


def _pair(
    monkeypatch: pytest.MonkeyPatch, until: float
) -> tuple[FleetMember, FleetMember]:
    """The same idle member twice: one elides ticks, one never does (its
    quiescence predicate is forced false)."""
    elided = _member(Simulator())
    ticking = _member(Simulator())
    monkeypatch.setattr(ticking, "_quiescent", lambda now: False)
    for member in (elided, ticking):
        member.sim.run_until(until)
    assert elided._elided_at is not None
    assert ticking._elided_at is None
    return elided, ticking


class TestMemberElision:
    def test_idle_member_stops_ticking(self, monkeypatch) -> None:
        elided, ticking = _pair(monkeypatch, 20.0)
        assert elided.sim.dispatched_events < ticking.sim.dispatched_events
        loop = elided.policy.loop
        assert loop.elided_ticks == 0  # nothing replayed yet
        assert elided.controller_history() == ticking.controller_history()
        assert loop.elided_ticks > 30
        assert loop.noop_ticks == ticking.policy.loop.noop_ticks
        assert elided._elided_at is None  # the history read woke it

    def test_submission_replays_up_to_and_including_a_tick_instant(
        self, monkeypatch
    ) -> None:
        elided, ticking = _pair(monkeypatch, 20.0)
        for member in (elided, ticking):
            member.sim.run_until(25.0)  # exactly a tick instant
            member.submit(0)
            member.sim.run_until(40.0)
        assert elided.controller_history() == ticking.controller_history()
        assert elided.node.perf.read_kelp(
            "kelp", 0, elided.node.hi_subdomain
        ) == ticking.node.perf.read_kelp("kelp", 0, ticking.node.hi_subdomain)

    def test_batch_placement_and_blackout_wake_the_member(
        self, monkeypatch
    ) -> None:
        from repro.workloads.cpu.catalog import cpu_workload

        elided, ticking = _pair(monkeypatch, 20.0)
        for member in (elided, ticking):
            member.begin_blackout(23.3)
            member.sim.run_until(30.0)
            member.place_job("job0", cpu_workload("stitch", 2), warmup=0.0)
            member.sim.run_until(35.0)
            member.remove_job("job0")
            member.sim.run_until(60.0)
        assert elided.policy.loop.elided_ticks > 0
        assert elided.controller_history() == ticking.controller_history()
        assert elided.actuation_journal() == ticking.actuation_journal()

    def test_loop_inputs_changed_from_outside_wake_the_member(
        self, monkeypatch
    ) -> None:
        member, _ = _pair(monkeypatch, 20.0)
        loop = member.policy.loop
        loop.governor = loop.governor  # a swap, even to the same kernel
        assert member._elided_at is None
        member.sim.run_until(40.0)
        assert member._elided_at is not None
        member.policy.control_plane.set_lo_prefetchers(0)
        assert member._elided_at is None
        assert isinstance(loop.governor, KelpGovernor)

    def test_unannounced_state_change_is_detected(
        self, monkeypatch
    ) -> None:
        member, _ = _pair(monkeypatch, 20.0)
        member.node.machine.set_priority_mode(True)  # bypasses every wake
        member.sim.run_until(21.0)
        with pytest.raises(SimulationError, match="without waking"):
            member.wake()
