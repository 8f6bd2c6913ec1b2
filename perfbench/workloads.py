"""The four benchmark workloads: inputs from a seed, a timed run, checks.

Each workload is split into ``prepare(seed, scratch)`` (set-up: trace
generation and fleet/service assembly, reported as ``setup_s``) and
``execute(state, lap)`` (the timed phase, reported as ``wall_s``), which
calls ``lap()`` at regular points so the worker can time the phase in laps.
``execute`` returns an :class:`Outcome` holding the canonical simulated
outputs, the correctness checks, and the facts the metrics divide by.
``scratch`` is a directory the workload may write to (checkpoints); the
worker removes it afterwards.

The program is imported lazily, inside the functions, so ``run.py``
can read the check lists without importing it.

Program entry points are looked up through their module at call time
(``common.run_colocation``, ``traces.generate_trace``) so the traced run's
wrappers, installed on those module attributes, see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

#: fig13 simulated horizon per cell, seconds (6 s warm-up + 6 s measured).
FIG13_DURATION_S = 12.0
#: Replay trace horizon for day-replay and fleet-scale: three hours from
#: midnight of the generator's diurnal day, ticked every 10 s (the paper's
#: controller period), so both replays run 1,080 control ticks per node.
REPLAY_HORIZON_S = 3 * 3600.0
REPLAY_INTERVAL_S = 10.0
#: Mean burst cycle of the replay traces (the generator default is 600 s).
REPLAY_BURST_CYCLE_S = 200.0
#: Timed-phase laps per replay (the clock advances in equal steps).
REPLAY_CHUNKS = 48
#: day-replay: 4 KP nodes, ~20k requests, about 4.6 requests per node-tick.
DAY_NODES = 4
DAY_RATE_QPS = 3.0
#: fleet-scale: 64 KP nodes, ~1.3k requests, about one per 50 node-ticks.
SCALE_NODES = 64
SCALE_RATE_QPS = 0.2
#: serve-ops: a 10-minute trace stepped in 1 s epochs over 4 nodes.
SERVE_HORIZON_S = 600.0
SERVE_RATE_QPS = 20.0
SERVE_NODES = 4
SERVE_EPOCH_S = 1.0
SERVE_BURST_CYCLE_S = 20.0
#: Epochs at which serve-ops checkpoints; the middle one is restored.
SERVE_SAVE_EVERY = 100
SERVE_RESTORE_EPOCH = 300
#: Epochs per timed-phase lap.
SERVE_LAP_EVERY = 25
#: (epoch, FleetService command, arguments) applied after that epoch is
#: stepped. Split around the restore point so the restored run replays the
#: grow and the shrink.
SERVE_COMMANDS: tuple[tuple[int, str, tuple[str, ...]], ...] = (
    (60, "evict_tenant", ("ads",)),
    (120, "admit_tenant", ("ads",)),
    (180, "swap_routing", ("random",)),
    (240, "swap_routing", ("least-loaded",)),
    (330, "grow", ()),
    (420, "shrink", ()),
)

FIG13_CHECKS = (
    "kp_ml_slowdown_below_0.75x_bl",
    "kp_ml_slowdown_below_ct",
    "kp_cpu_above_0.85x_ct",
    "kp_ml_slowdown_at_least_sd_minus_0.02",
    "kp_cpu_above_1.10x_sd",
    "cells_finite_positive",
)
REPLAY_CHECKS = (
    "good_le_completed_le_offered",
    "tenant_offered_sums_to_total",
    "window_offered_sums_to_total",
    "attainment_in_unit_interval",
)
SERVE_CHECKS = REPLAY_CHECKS + ("restored_equals_uninterrupted",)


@dataclass
class Outcome:
    """What one timed run produced."""

    #: Canonical simulated outputs, hashed into ``sim_digest``.
    canonical: str
    checks: dict[str, bool]
    #: Requests the metric ``host_us_per_request`` divides by.
    requests: int
    #: Node-ticks ``host_us_per_node_tick`` divides by: nodes times the
    #: control ticks scheduled for each over the simulated horizon. Fixed by
    #: the workload's inputs, not by how many ticks the program runs.
    node_ticks: int
    #: Simulated seconds advanced, summed over every simulation run.
    sim_seconds: float
    #: Workload-specific outputs (Kelp claims, attainment, checkpoints).
    outputs: dict[str, float] = field(default_factory=dict)

    @property
    def sim_digest(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- fig13
def prepare_fig13(seed: int, scratch: str) -> dict:
    from repro.experiments import common, fig13_overall

    return {"common": common, "fig13": fig13_overall, "seed": seed}


def execute_fig13(state: dict, lap) -> Outcome:
    """The program's own ``run_fig13``, with every cell seeded and timed.

    ``run_fig13`` looks ``run_colocation`` up on its module; the stand-in
    put there for the run applies the seed, calls the real function
    through ``common`` (where the traced run's wrapper sits) and closes a
    lap per cell.
    """
    common, fig13 = state["common"], state["fig13"]
    seed = state["seed"]

    def seeded_cell(config, **kwargs):
        result = common.run_colocation(replace(config, seed=seed), **kwargs)
        lap()
        return result

    original = fig13.run_colocation
    fig13.run_colocation = seeded_cell
    try:
        fig = fig13.run_fig13(duration=FIG13_DURATION_S)
    finally:
        fig13.run_colocation = original
    cells = fig.cells
    slowdown = {p: fig.ml_slowdown_average(p) for p in ("BL", "CT", "KP-SD", "KP")}
    cpu = {p: fig.cpu_throughput_hmean(p) for p in ("BL", "CT", "KP-SD", "KP")}
    values = [v for c in cells for v in (c.ml_slowdown, c.cpu_norm_throughput)]
    passed = (
        slowdown["KP"] < 0.75 * slowdown["BL"],
        slowdown["KP"] < slowdown["CT"],
        cpu["KP"] > 0.85 * cpu["CT"],
        slowdown["KP"] >= slowdown["KP-SD"] - 0.02,
        cpu["KP"] > 1.10 * cpu["KP-SD"],
        all(math.isfinite(v) and v > 0 for v in values),
    )
    # Each matrix cell is one simulation, and every ML workload adds one
    # standalone baseline run (cached within the process).
    simulations = len(cells) + len({c.ml for c in cells})
    return Outcome(
        canonical="\n".join(
            f"{c.ml},{c.cpu},{c.policy},{c.ml_slowdown!r},{c.cpu_norm_throughput!r}"
            for c in cells
        ),
        checks=dict(zip(FIG13_CHECKS, passed)),
        requests=simulations,
        # One node per cell, one tick per control interval; BL cells run no
        # control loop but count too, so the matrix alone fixes the figure.
        node_ticks=len(cells) * _scheduled_ticks(
            0.0, FIG13_DURATION_S, common.DEFAULT_INTERVAL
        ),
        sim_seconds=simulations * FIG13_DURATION_S,
        outputs={
            "kelp_ml_slowdown_cut": 1.0 - slowdown["KP"] / slowdown["BL"],
            "kelp_cpu_gain_vs_subdomain": cpu["KP"] / cpu["KP-SD"] - 1.0,
        },
    )


def _scheduled_ticks(start: float, end: float, interval: float) -> int:
    """Periodic ticks (at ``interval``, ``2 * interval``, ...) in
    ``(start, end]``."""
    return math.floor(end / interval) - math.floor(start / interval)


# -------------------------------------------------------------- replays
def _replay_trace(seed: int, horizon_s: float, rate_qps: float, burst_cycle_s: float):
    """The generator's default traffic shape, with bursts every
    ``burst_cycle_s`` on average (ON for 5 % of it, as by default) so that
    the short horizon holds many burst cycles and the request count varies
    little from seed to seed."""
    import repro.traces as traces

    return traces.generate_trace(
        traces.TraceGenConfig(
            seed=seed,
            duration_s=horizon_s,
            rate_qps=rate_qps,
            burst_on_s=0.05 * burst_cycle_s,
            burst_off_s=0.95 * burst_cycle_s,
        )
    )


def _prepare_replay(seed: int, nodes: int, rate_qps: float) -> dict:
    from repro.fleet.orchestrator import FleetOrchestrator, fleet_config_for_trace

    trace = _replay_trace(seed, REPLAY_HORIZON_S, rate_qps, REPLAY_BURST_CYCLE_S)
    config = fleet_config_for_trace(
        trace, nodes=nodes, seed=seed, interval=REPLAY_INTERVAL_S
    )
    orchestrator = FleetOrchestrator(config, collect_telemetry=False, trace=trace)
    orchestrator.setup()
    return {"orchestrator": orchestrator, "requests": len(trace)}


def prepare_day_replay(seed: int, scratch: str) -> dict:
    return _prepare_replay(seed, DAY_NODES, DAY_RATE_QPS)


def prepare_fleet_scale(seed: int, scratch: str) -> dict:
    return _prepare_replay(seed, SCALE_NODES, SCALE_RATE_QPS)


def _result_canonical(result) -> str:
    return json.dumps(result.summary(), sort_keys=True) + repr(result.node_stats)


def _replay_checks(result) -> dict[str, bool]:
    tenants = result.tenants
    return dict(
        zip(
            REPLAY_CHECKS,
            (
                result.good_total <= result.completed_total <= result.offered_total
                and all(t.completed <= t.offered for t in tenants),
                sum(t.offered for t in tenants) == result.offered_total,
                sum(row["offered"] for row in result.windows) == result.offered_total
                and sum(row["offered"] for row in result.window_fleet)
                == result.offered_total,
                0.0 <= result.serving_yield <= 1.0
                and all(0.0 <= t.attainment <= 1.0 for t in tenants),
            ),
        )
    )


def execute_replay(state: dict, lap) -> Outcome:
    orchestrator = state["orchestrator"]
    duration = orchestrator.config.duration
    # Stepping the clock is bit-identical to one run_until to the horizon.
    for k in range(1, REPLAY_CHUNKS + 1):
        orchestrator.advance(duration * k / REPLAY_CHUNKS)
        lap()
    result = orchestrator.finish()
    lap()
    config = orchestrator.config
    return Outcome(
        canonical=_result_canonical(result),
        checks=_replay_checks(result),
        requests=state["requests"],
        node_ticks=config.nodes
        * _scheduled_ticks(0.0, config.duration, config.interval),
        sim_seconds=orchestrator.config.duration,
        outputs={
            "slo_attainment": result.serving_yield,
            "traces.requests": float(state["requests"]),
        },
    )


# ------------------------------------------------------------ serve-ops
def prepare_serve_ops(seed: int, scratch: str) -> dict:
    from repro.fleet.orchestrator import fleet_config_for_trace
    from repro.serve import AutoscalerConfig, FleetService

    trace = _replay_trace(seed, SERVE_HORIZON_S, SERVE_RATE_QPS, SERVE_BURST_CYCLE_S)
    config = fleet_config_for_trace(trace, nodes=SERVE_NODES, seed=seed)
    # The trace offers ~2 % of the 4-node fleet's capacity, below the band:
    # the autoscaler retires nodes down to the floor early on, and bursts can
    # grow the fleet back, never past the nodes already built.
    autoscaler = AutoscalerConfig(
        min_nodes=2,
        max_nodes=SERVE_NODES,
        high_utilization=0.08,
        low_utilization=0.03,
        epochs_up=3,
        epochs_down=10,
        cooldown_epochs=20,
    )
    service = FleetService(
        config,
        trace=trace,
        collect_telemetry=False,
        autoscaler=autoscaler,
        epoch_s=SERVE_EPOCH_S,
    )
    service.start()
    return {"service": service, "trace": trace, "scratch": scratch}


def _apply_commands(service, epoch: int) -> None:
    for at, command, args in SERVE_COMMANDS:
        if at == epoch:
            getattr(service, command)(*args)


def _epoch_node_ticks(service) -> int:
    """Members built times the control ticks scheduled in the epoch the
    service steps next (boundaries as ``FleetService.step`` sets them).

    A retired member stays simulated with its control loop, so it counts,
    as a BL cell does in fig13; grow and shrink set the member count.
    """
    config = service.config
    start = min(config.duration, service.epoch * service.epoch_s)
    end = min(config.duration, (service.epoch + 1) * service.epoch_s)
    ticks = _scheduled_ticks(start, end, config.interval)
    return len(service.orchestrator.members) * ticks


def _serve_canonical(service, result) -> str:
    return "\n".join(
        (
            _result_canonical(result),
            repr(service.commands),
            json.dumps([s.as_dict() for s in service.snapshots], sort_keys=True),
        )
    )


def execute_serve_ops(state: dict, lap) -> Outcome:
    from repro.serve import FleetService

    service = state["service"]
    trace = state["trace"]
    scratch = state["scratch"]
    save_ms: list[float] = []
    restore_path = os.path.join(scratch, f"epoch{SERVE_RESTORE_EPOCH}.ckpt")
    epochs = node_ticks = 0
    while not service.done:
        node_ticks += _epoch_node_ticks(service)
        service.step()
        epochs += 1
        _apply_commands(service, service.epoch)
        if service.epoch % SERVE_LAP_EVERY == 0:
            lap()
        if service.epoch % SERVE_SAVE_EVERY == 0 and not service.done:
            path = os.path.join(scratch, f"epoch{service.epoch}.ckpt")
            started = time.perf_counter()
            service.save(path)
            save_ms.append((time.perf_counter() - started) * 1e3)
    result = service.finish()

    started = time.perf_counter()
    restored = FleetService.restore(restore_path, trace=trace)
    restore_ms = (time.perf_counter() - started) * 1e3
    checkpoint_bytes = os.path.getsize(restore_path)
    while not restored.done:
        node_ticks += _epoch_node_ticks(restored)
        restored.step()
        epochs += 1
        _apply_commands(restored, restored.epoch)
        if restored.epoch % SERVE_LAP_EVERY == 0:
            lap()
    restored_result = restored.finish()
    lap()

    canonical = _serve_canonical(service, result)
    checks = _replay_checks(result)
    checks["restored_equals_uninterrupted"] = (
        _serve_canonical(restored, restored_result) == canonical
        and repr(restored_result) == repr(result)
    )
    save_ms.sort()
    return Outcome(
        canonical=canonical,
        checks=checks,
        requests=len(trace),
        node_ticks=node_ticks,
        sim_seconds=epochs * SERVE_EPOCH_S,
        outputs={
            "slo_attainment": result.serving_yield,
            "traces.requests": float(len(trace)),
            "checkpoint_save_ms": save_ms[len(save_ms) // 2],
            "checkpoint_restore_ms": restore_ms,
            "checkpoint_bytes": float(checkpoint_bytes),
            "serve.commands": float(
                sum(not c.startswith("autoscale-") for _, c in service.commands)
            ),
            "serve.autoscale_actions": float(
                sum(c.startswith("autoscale-") for _, c in service.commands)
            ),
        },
    )


#: name -> (prepare, execute, check names).
WORKLOADS = {
    "fig13": (prepare_fig13, execute_fig13, FIG13_CHECKS),
    "day-replay": (prepare_day_replay, execute_replay, REPLAY_CHECKS),
    "fleet-scale": (prepare_fleet_scale, execute_replay, REPLAY_CHECKS),
    "serve-ops": (prepare_serve_ops, execute_serve_ops, SERVE_CHECKS),
}
