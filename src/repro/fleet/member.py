"""One fleet node: machine + isolation policy + inference server + batch slots.

A :class:`FleetMember` owns everything node-local that the single-node
experiments build by hand — the :class:`~repro.node.Node`, the
per-node isolation policy (prepared and ticking on its own control loop),
and the pipelined inference server the fleet routes requests to. On top it
adds the two things only a fleet needs: request attribution (which tenant
owns which in-flight request) and dynamic batch-job slots the cluster queue
places into and evicts from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.node import Node
from repro.control.actuators import ActuationFaultConfig
from repro.control.records import ActuationRecord, ControlTickRecord
from repro.control.sensors import SensorConfig
from repro.core.policies import IsolationPolicy, make_policy
from repro.core.policies.base import ROLE_BACKFILL, ROLE_LO
from repro.errors import SchedulingError
from repro.fleet.config import SATURATED_BW_FRACTION
from repro.sim import Simulator
from repro.sim.engine import PRIORITY_CONTROL
from repro.workloads.cpu.base import BatchProfile, BatchTask
from repro.workloads.ml.base import InferenceServerTask
from repro.workloads.ml.catalog import MlInstance, MlWorkloadFactory


def _mix_seed(*parts: int) -> int:
    """A stable 32-bit seed from a tuple of integer parts."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


@dataclass(frozen=True)
class NodeSignals:
    """One control-interval snapshot of a node, as the fleet sees it.

    The routing layer and the batch queue act on these signals only — they
    never reach into the node's machine directly, mirroring how a cluster
    scheduler consumes per-node telemetry exports rather than raw counters.
    """

    node_index: int
    time: float
    #: Accel-socket bandwidth over the window, GB/s.
    socket_bw_gbps: float
    #: Worst loaded-latency factor on the accel socket (1.0 = unloaded).
    latency_factor: float
    #: FAST_ASSERTED fraction on the accel socket, [0, 1].
    saturation: float
    #: High-priority-subdomain bandwidth, GB/s.
    hipri_bw_gbps: float
    #: Requests in flight + queued on the node's inference server.
    inflight: int
    queued: int
    #: Batch jobs currently resident on the node.
    batch_jobs: int
    #: The Fig 2 statistic: socket bandwidth above 70 % of peak.
    saturated: bool
    #: Hi-subdomain watermarks tripped (eviction signal for the queue).
    hot: bool

    def pressure(self) -> float:
        """Scalar interference pressure used by interference-aware routing.

        Saturation dominates; loaded latency above 1.0 adds a secondary
        term. Rounded so that float jitter cannot reorder near-ties and
        break run-to-run determinism.
        """
        return round(self.saturation + 0.5 * max(self.latency_factor - 1.0, 0.0), 9)


class FleetMember:
    """One managed node inside a fleet simulation."""

    def __init__(
        self,
        index: int,
        sim: Simulator,
        factory: MlWorkloadFactory,
        policy_name: str,
        interval: float,
        warmup: float,
        seed: int,
        accel_socket: int = 0,
        on_complete: (
            Callable[["FleetMember", int, bool, float, float], None] | None
        ) = None,
        sensors: SensorConfig | None = None,
        faults: ActuationFaultConfig | None = None,
    ) -> None:
        self.index = index
        self.sim = sim
        self._factory = factory
        self._warmup = warmup
        self._seed = seed
        self.node: Node = Node.create(factory.host_spec(), sim, accel_socket=accel_socket)
        # Derive node-scoped degradation seeds so every member draws an
        # independent noise/fault stream even under one shared config.
        from dataclasses import replace as _replace

        if sensors is not None and sensors.degraded:
            sensors = _replace(
                sensors, seed=_mix_seed(sensors.seed, index, seed)
            )
        if faults is not None and faults.active:
            faults = _replace(faults, seed=_mix_seed(faults.seed, index, seed))
        self.policy: IsolationPolicy = make_policy(
            policy_name,
            self.node,
            ml_cores=factory.default_cores(),
            interval=interval,
            sensors=sensors,
            faults=faults,
        )
        self.policy.prepare()
        # ``load_fraction=0`` builds the server with *no* load generator:
        # arrivals come from the fleet's tenant generators via the router.
        self.instance: MlInstance = factory.build(
            self.node.machine,
            self.policy.ml_placement(),
            warmup_until=warmup,
            seed=seed,
            load_fraction=0.0,
        )
        self._interval = interval
        self._on_complete = on_complete
        self._cancel_policy_loop: Callable[[], None] | None = None
        #: FIFO of ``(tenant, counted)`` ownership records per request-start
        #: timestamp. ``counted`` is the request's admission epoch: whether
        #: it was admitted inside the measurement window, decided once at
        #: admission so completion-side accounting can never disagree.
        self._owners: dict[float, deque[tuple[int, bool]]] = {}
        #: Latest telemetry snapshot (None before the first control tick).
        self.last_signals: NodeSignals | None = None
        #: Consecutive samples with the hot predicate true (eviction patience).
        self.hot_streak = 0
        #: job_id -> live BatchTask list for resident batch jobs.
        self._jobs: dict[str, list[BatchTask]] = {}
        #: Every batch task this node ever ran (live + evicted), for accounting.
        self.batch_task_history: list[BatchTask] = []
        self._peak_bw = self.node.machine.spec.sockets[accel_socket].peak_bw_gbps
        #: Liveness: a dead member silently drops submissions and exports a
        #: frozen telemetry snapshot (nothing fleet-visible announces the
        #: death — detection is the incident layer's job).
        self.alive = True
        #: Observer for events that may change this member's routing key
        #: (load, telemetry, liveness, rotation). The orchestrator points
        #: this at the incremental routing index; every key-changing event
        #: below must call it — including paths that bypass the fleet
        #: router, like the incident engine's direct intruder submissions.
        self.on_state_change: (
            Callable[["FleetMember", str], None] | None
        ) = None
        #: Whether the admission router may send this member traffic. Stays
        #: True through a *silent* death (the black hole); remediation or
        #: an explicit orchestrator kill pulls the member from rotation.
        #: A property so that every rotation flip notifies the routing
        #: index, no matter who performs it.
        self._in_rotation = True
        #: Whether the batch queue may place new jobs here.
        self.accepts_batch = True
        #: Times this member has died (salts the restart seed).
        self.deaths = 0
        #: Fleet telemetry blackout: ``sample()`` re-exports the last
        #: snapshot while ``sim.now`` is before this instant.
        self.blackout_until = 0.0
        self._frozen_load = 0

    @property
    def in_rotation(self) -> bool:
        """Whether the admission router may send this member traffic."""
        return self._in_rotation

    @in_rotation.setter
    def in_rotation(self, value: bool) -> None:
        self._in_rotation = bool(value)
        if self.on_state_change is not None:
            self.on_state_change(self, "rotation")

    def _notify(self, kind: str) -> None:
        if self.on_state_change is not None:
            self.on_state_change(self, kind)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the inference server and the node policy's control loop."""
        self.instance.start()
        self.server.completion_listeners.append(self._complete)
        if self.policy.has_control_loop:
            self._cancel_policy_loop = self.sim.every(
                self._interval,
                self.policy.tick,
                label=f"fleet:policy:{self.index}",
                priority=PRIORITY_CONTROL,
            )

    def stop(self) -> None:
        """Stop the control loop, resident batch jobs and the server."""
        if self._cancel_policy_loop is not None:
            self._cancel_policy_loop()
            self._cancel_policy_loop = None
        for job_id in list(self._jobs):
            self.remove_job(job_id)
        try:
            self.server.completion_listeners.remove(self._complete)
        except ValueError:
            pass  # already detached (a dead member)
        self.instance.stop()

    def fail(self) -> int:
        """Die silently mid-run: crash the server, drop every request.

        Queued and in-flight requests are lost without completing — their
        admission-epoch ``counted`` flags were decided at submit time, so
        each counted loss is automatically an SLO miss at finalize. Resident
        batch tasks freeze where they stand (their meters stop integrating)
        but stay in :attr:`job_ids` — the cluster queue still believes they
        are running until someone requeues them. Nothing is announced to
        the fleet: :attr:`in_rotation` stays True and :meth:`sample` keeps
        exporting the last pre-death snapshot.

        Returns the number of *counted* requests dropped.
        """
        if not self.alive:
            return 0
        self.alive = False
        self.deaths += 1
        self._frozen_load = self.load
        if self._cancel_policy_loop is not None:
            self._cancel_policy_loop()
            self._cancel_policy_loop = None
        try:
            self.server.completion_listeners.remove(self._complete)
        except ValueError:  # pragma: no cover - defensive
            pass
        dropped = sum(
            1
            for owners in self._owners.values()
            for _, counted in owners
            if counted
        )
        self._owners.clear()
        self.server.abort()
        self.instance.stop()
        for tasks in self._jobs.values():
            for task in tasks:
                task.meter.set_rate(0.0, self.sim.now)
                task.stop()
        if self.last_signals is None:
            self.last_signals = self._offline_signals()
        self._notify("load")
        return dropped

    def restart(self) -> None:
        """Boot a fresh server after a death (the node rejoined).

        The machine, policy and control plane survive the reboot (host
        state is persistent); the inference server is rebuilt from the
        factory with a restart-salted seed. Batch tasks killed by the
        death stay dead — re-placing their jobs is the queue's decision.
        Telemetry resumes fresh on the next :meth:`sample`.
        """
        if self.alive:
            return
        self.instance = self._factory.build(
            self.node.machine,
            self.policy.ml_placement(),
            warmup_until=self._warmup,
            seed=_mix_seed(self._seed, 0xDEAD, self.deaths),
            load_fraction=0.0,
        )
        self.alive = True
        self.instance.start()
        self.server.completion_listeners.append(self._complete)
        if self.policy.has_control_loop:
            self._cancel_policy_loop = self.sim.every(
                self._interval,
                self.policy.tick,
                label=f"fleet:policy:{self.index}",
                priority=PRIORITY_CONTROL,
            )
        self._notify("load")  # the rebooted server starts empty

    def begin_blackout(self, until: float) -> None:
        """Black out telemetry until ``until``: the fleet sees a frozen
        snapshot, and the node policy's own control loop keeps deciding on
        its last pre-blackout sensor sample (it is blind too)."""
        self.blackout_until = max(self.blackout_until, until)
        loop = self.policy.loop
        if loop is not None:
            loop.hold_sensors(until)
        if self.last_signals is None:
            self.last_signals = self._offline_signals()
            self._notify("signals")

    # ------------------------------------------------------------- serving
    @property
    def server(self) -> InferenceServerTask:
        """The node's pipelined inference server."""
        task = self.instance.task
        assert isinstance(task, InferenceServerTask)
        return task

    @property
    def load(self) -> int:
        """Requests in flight plus queued (the least-loaded routing key).

        A dead member reports its load frozen at the instant of death —
        the load balancer's view stops updating, which is exactly what
        makes a silently dead node a traffic magnet for least-loaded
        routing (its apparent load never grows).
        """
        if not self.alive:
            return self._frozen_load
        return self.server.inflight + self.server.queued

    def submit(
        self, tenant: int, demand: float = 1.0, counted: bool = True
    ) -> None:
        """Accept one request on behalf of ``tenant``.

        ``counted`` records the admission epoch (admitted inside the
        measurement window or not); ``demand`` scales the request's service
        requirement (trace job families). A dead member black-holes the
        request: it was already counted as offered at admission and will
        never complete, i.e. it is an SLO miss.
        """
        if not self.alive:
            return
        self._owners.setdefault(self.sim.now, deque()).append((tenant, counted))
        self.server.submit(demand)
        if self.on_state_change is not None:
            self.on_state_change(self, "load")

    def _complete(self, start: float, end: float) -> None:
        if self.on_state_change is not None:
            # The server already released the request, so the load-keyed
            # routing index must be refreshed even for unowned traffic.
            self.on_state_change(self, "load")
        owners = self._owners.get(start)
        if not owners:  # pragma: no cover - foreign traffic, defensive
            return
        tenant, counted = owners.popleft()
        if not owners:
            del self._owners[start]
        if self._on_complete is not None:
            self._on_complete(self, tenant, counted, start, end)

    # ----------------------------------------------------------- telemetry
    def sample(self) -> NodeSignals:
        """One windowed telemetry read, refreshed into :attr:`last_signals`.

        The hot predicate mirrors the THROTTLE side of Algorithm 1's
        low-priority decision: the queue should not keep (or add) batch work
        on a node whose socket-level watermarks are tripping.

        A dead or blacked-out member re-exports its last snapshot instead
        of reading the perf window: its ``time`` field stops advancing,
        which is the only fleet-visible trace of the failure (the
        telemetry-silence detector keys on exactly this).
        """
        now = self.sim.now
        if not self.alive or now < self.blackout_until:
            if self.last_signals is None:  # pragma: no cover - defensive
                self.last_signals = self._offline_signals()
                self._notify("signals")
            return self.last_signals
        node = self.node
        profile = self.policy.profile
        socket_bw, latency, saturation, hipri_bw, _ = node.perf.read_kelp(
            "fleet", node.accel_socket, node.hi_subdomain
        )
        hot = (
            profile.saturation.above(saturation)
            or profile.socket_latency.above(latency)
            or profile.socket_bw.above(socket_bw)
        )
        server = self.server
        signals = NodeSignals(
            node_index=self.index,
            time=now,
            socket_bw_gbps=socket_bw,
            latency_factor=latency,
            saturation=saturation,
            hipri_bw_gbps=hipri_bw,
            inflight=server.inflight,
            queued=server.queued,
            batch_jobs=len(self._jobs),
            saturated=socket_bw >= SATURATED_BW_FRACTION * self._peak_bw,
            hot=hot,
        )
        self.last_signals = signals
        self.hot_streak = self.hot_streak + 1 if hot else 0
        if self.on_state_change is not None:
            self.on_state_change(self, "signals")
        return signals

    def _offline_signals(self) -> NodeSignals:
        """An all-quiet snapshot for members that die before any sample."""
        return NodeSignals(
            node_index=self.index,
            time=0.0,
            socket_bw_gbps=0.0,
            latency_factor=1.0,
            saturation=0.0,
            hipri_bw_gbps=0.0,
            inflight=0,
            queued=0,
            batch_jobs=len(self._jobs),
            saturated=False,
            hot=False,
        )

    # ---------------------------------------------------------- batch jobs
    @property
    def job_count(self) -> int:
        """Batch jobs currently resident on this node."""
        return len(self._jobs)

    @property
    def job_ids(self) -> tuple[str, ...]:
        """Resident job ids in placement order."""
        return tuple(self._jobs)

    def place_job(self, job_id: str, profile: BatchProfile, warmup: float) -> None:
        """Create, register and start the tasks of one batch job."""
        if job_id in self._jobs:
            raise SchedulingError(f"job {job_id!r} already on node {self.index}")
        roles: dict[str, list[BatchTask]] = {ROLE_LO: [], ROLE_BACKFILL: []}
        tasks: list[BatchTask] = []
        for plan in self.policy.plan_cpu(profile):
            task = BatchTask(
                task_id=f"{job_id}/{plan.task_id}",
                machine=self.node.machine,
                placement=plan.placement,
                profile=plan.profile,
                warmup_until=warmup,
            )
            tasks.append(task)
            roles.setdefault(plan.role, []).append(task)
        self.policy.register(roles)
        for task in tasks:
            task.start()
        self._jobs[job_id] = tasks
        self.batch_task_history.extend(tasks)

    def remove_job(self, job_id: str) -> None:
        """Stop one job's tasks and forget them in the node's role lists.

        The role lists matter: the Kelp runtime's enforcement pass iterates
        ``node.lo_tasks``/``node.backfill_tasks`` every tick, so an evicted
        task left behind would keep receiving cpuset writes forever.
        """
        tasks = self._jobs.pop(job_id, None)
        if tasks is None:
            raise SchedulingError(f"job {job_id!r} not on node {self.index}")
        for task in tasks:
            # Freeze the meter at the eviction instant: a detached task no
            # longer receives solver rates, and a stale non-zero rate would
            # extrapolate phantom units to the end of the run.
            task.meter.set_rate(0.0, self.sim.now)
            task.stop()
            if task in self.node.lo_tasks:
                self.node.lo_tasks.remove(task)
            if task in self.node.backfill_tasks:
                self.node.backfill_tasks.remove(task)

    # ------------------------------------------------------------- metrics
    def controller_history(self) -> list[ControlTickRecord]:
        """The node policy's unified control tick records."""
        return self.policy.tick_history()

    def actuation_journal(self) -> list[ActuationRecord]:
        """Every physical knob write the node's control plane performed."""
        return self.policy.actuation_journal()

    def batch_throughput(self, measurement_end: float) -> float:
        """Aggregate post-warmup units/s over every task this node ran."""
        return sum(
            task.throughput(measurement_end) for task in self.batch_task_history
        )

    def rng_stream(self, base_seed: int, tag: int) -> np.random.Generator:
        """A node-scoped RNG stream (deterministic in (seed, node, tag))."""
        return np.random.default_rng(
            np.random.SeedSequence((base_seed, self.index, tag))
        )
