#!/usr/bin/env python
"""Capture the golden-equivalence snapshots under ``tests/golden/``.

The control-plane refactor carries a hard guarantee: under
:class:`~repro.control.sensors.PerfectSensors` with actuation faults
disabled, experiment summaries are **bit-identical** to the pre-refactor
implementation. This script produces the reference artifacts the
``tests/integration/test_golden_equivalence.py`` suite compares against:

* ``fig13_small.json`` — a reduced Fig 13 matrix (one ML workload, two CPU
  mixes, all four policies) at an 8 s horizon;
* ``fleet_sim_small.json`` — the per-trial summaries of a 4-node KP fleet
  with batch jobs, two trials;
* ``fleet_divergent_small.json`` — a short KP trace replay, stepped through
  :class:`~repro.serve.service.FleetService`, on the paths where a member's
  fleet sampler and its Kelp governor read perf windows that differ: a
  telemetry blackout, a fail/restart (re-phased control loop), degraded
  sensors, actuation faults, a mid-run grow and a shrink/grow that
  recommissions a retired member. Pins the summary plus every telemetry,
  controller and actuation row;
* ``fleet_idle_sparse_small.json`` — a sparse KP trace replay over mostly
  idle nodes, stepped through :class:`~repro.serve.service.FleetService`:
  long idle spells, arrivals exactly on control-tick instants, a batch job
  placed onto an idle node, a blackout and a fail/restart of idle nodes, a
  shrink and a recommissioning grow, and a horizon that ends in an idle
  spell. Pins the summary plus every telemetry, controller and actuation
  row, and the summary, node stats and controller rows of the same run
  without telemetry collection (its controller rows must equal the
  collected run's, so only a flag records that).

Run it only when an intentional behaviour change invalidates the goldens::

    PYTHONPATH=src python scripts/capture_golden.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "tests", "golden"
)

#: Reduced Fig 13 shape shared with the equivalence test.
FIG13_KWARGS = dict(
    duration=8.0,
    ml_workloads=("cnn1",),
    mixes=(("stream", 12), ("stitch", 4)),
)

#: Reduced fleet-sim shape shared with the equivalence test.
FLEET_KWARGS = dict(
    nodes=4,
    policy="KP",
    routing="interference-aware",
    ml="rnn1",
    batch_jobs=2,
    duration=4.0,
    warmup=1.0,
    trials=2,
    seed=0,
)


def fig13_summary() -> dict:
    """The reduced Fig 13 matrix as an exactly-comparable JSON object."""
    from repro.experiments.fig13_overall import run_fig13

    result = run_fig13(**FIG13_KWARGS)
    return {
        f"{c.ml}+{c.cpu}:{c.policy}": {
            "ml_slowdown": c.ml_slowdown,
            "cpu_norm_throughput": c.cpu_norm_throughput,
        }
        for c in result.cells
    }


def fleet_summary(jobs: int | None = None) -> list[dict]:
    """The reduced fleet-sim per-trial summaries."""
    from repro.experiments.fleet_sim import run_fleet_sim

    result = run_fleet_sim(jobs=jobs, **FLEET_KWARGS)
    return [dict(s) for s in result.summaries]


#: Reduced trace-replay shape for the divergent-window scenario. The 0.75 s
#: epoch is off the 0.5 s control grid, so members restarted or added at an
#: epoch boundary tick out of phase with the fleet sampler.
DIVERGENT_TRACE = dict(seed=11, duration_s=30.0, rate_qps=40.0)
DIVERGENT_EPOCH_S = 0.75


def fleet_divergent_summary() -> dict:
    """The divergent-window replay: summary plus telemetry/controller/
    actuation rows."""
    from repro.control.actuators import ActuationFaultConfig
    from repro.control.sensors import SensorConfig
    from repro.fleet.config import uniform_batch_jobs
    from repro.fleet.orchestrator import fleet_config_for_trace
    from repro.serve.service import FleetService
    from repro.traces.generate import TraceGenConfig, generate_trace

    trace = generate_trace(TraceGenConfig(**DIVERGENT_TRACE))
    config = fleet_config_for_trace(
        trace,
        nodes=3,
        policy="KP",
        batch_jobs=uniform_batch_jobs(3),
        sensors=SensorConfig(
            staleness_period=1.0, noise_sigma=0.05, dropout_prob=0.1, seed=3
        ),
        faults=ActuationFaultConfig(
            fail_prob=0.3, defer_prob=0.2, max_retries=1, seed=4
        ),
    )
    service = FleetService(
        config, trace=trace, collect_telemetry=True, epoch_s=DIVERGENT_EPOCH_S
    )
    service.start()
    members = service.orchestrator.members
    # epoch -> action applied at that epoch boundary (sim time epoch * 0.75).
    actions = {
        6: lambda: members[0].begin_blackout(service.time_s + 2.6),
        9: lambda: members[1].fail(),
        13: lambda: members[1].restart(),
        15: service.grow,
        22: service.shrink,
        27: service.grow,
    }
    while not service.done:
        service.step()
        action = actions.get(service.epoch)
        if action is not None:
            action()
    result = service.finish()
    return {
        "summary": result.summary(),
        "commands": [list(c) for c in service.commands],
        "telemetry": list(result.telemetry),
        "controller": list(result.controller),
        "actuation": list(result.actuation),
    }


#: Sparse arrival times for the idle-fleet scenario, seconds. Every value is
#: dyadic, so the replay generator's relative-delay chain fires each arrival
#: at exactly this instant; 3.0, 20.0 and 75.0 sit on the 1 s control grid,
#: and two requests share t=20.0.
IDLE_SPARSE_ARRIVALS = (
    1.25, 3.0, 3.0625, 5.5, 8.125, 8.25, 8.375, 8.5, 14.0, 20.0, 20.0,
    26.75, 33.5, 41.0, 41.015625, 52.5, 63.25, 75.0, 75.5, 88.125, 99.75,
    101.0,
)
IDLE_SPARSE_DURATION_S = 120.0
IDLE_SPARSE_INTERVAL_S = 1.0
IDLE_SPARSE_EPOCH_S = 0.75


def sparse_trace(arrivals, duration_s: float):
    """A two-tenant, two-family trace with the given arrival instants."""
    import numpy as np

    from repro.traces.schema import Trace, TraceFamily, TraceTenant

    count = len(arrivals)
    return Trace(
        arrivals_s=np.asarray(arrivals, dtype=np.float64),
        tenant_ids=np.arange(count, dtype=np.int64) % 2,
        family_ids=(np.arange(count, dtype=np.int64) // 3) % 2,
        tenants=(
            TraceTenant(name="search", slo_p99_ms=60.0, weight=2.0),
            TraceTenant(name="ads", slo_p99_ms=60.0, weight=1.0),
        ),
        families=(
            TraceFamily(name="nominal", demand=1.0, weight=0.7),
            TraceFamily(name="short", demand=0.5, weight=0.3),
        ),
        duration_s=duration_s,
    )


def idle_sparse_run(
    arrivals=IDLE_SPARSE_ARRIVALS,
    duration_s: float = IDLE_SPARSE_DURATION_S,
    epoch_s: float = IDLE_SPARSE_EPOCH_S,
    collect_telemetry: bool = True,
    actions: dict | None = None,
) -> dict:
    """Replay a sparse trace over 4 KP nodes through ``FleetService``
    (1 s control interval, off the epoch grid).

    ``actions`` maps an epoch number to a callable taking the service,
    applied right after that epoch is stepped; the default schedule is the
    golden scenario's. Returns the summary, commands, node stats and the
    telemetry, controller and actuation rows (controller and actuation rows
    are read off the members, so they exist without telemetry collection),
    plus the count of elided control ticks.
    """
    from repro.fleet.config import BatchJobSpec
    from repro.fleet.orchestrator import fleet_config_for_trace
    from repro.serve.service import FleetService

    trace = sparse_trace(arrivals, duration_s)
    config = fleet_config_for_trace(
        trace,
        nodes=4,
        policy="KP",
        routing="interference-aware",
        interval=IDLE_SPARSE_INTERVAL_S,
    )
    service = FleetService(
        config,
        trace=trace,
        collect_telemetry=collect_telemetry,
        epoch_s=epoch_s,
    )
    service.start()
    orchestrator = service.orchestrator
    if actions is None:
        members = orchestrator.members

        def place_unpinned(svc) -> None:
            svc.orchestrator.queue.add_job(BatchJobSpec("stream", 4))

        # epoch -> action at that boundary (sim time epoch * 0.75 s).
        actions = {
            16: place_unpinned,
            30: lambda svc: members[2].begin_blackout(svc.time_s + 6.0),
            40: lambda svc: members[1].fail(),
            47: lambda svc: members[1].restart(),
            60: lambda svc: svc.shrink(),
            80: lambda svc: svc.grow(),
            90: lambda svc: svc.grow(),
            100: lambda svc: svc.orchestrator.queue.add_job(
                BatchJobSpec("stitch", 2), member=members[0]
            ),
        }
    while not service.done:
        service.step()
        action = actions.get(service.epoch)
        if action is not None:
            action(service)
    result = service.finish()
    return {
        "summary": result.summary(),
        "commands": [list(c) for c in service.commands],
        "node_stats": [
            [s.index, s.completed, s.mean_latency_s, s.saturated_fraction,
             s.batch_jobs]
            for s in result.node_stats
        ],
        "telemetry": list(result.telemetry),
        "controller": [
            {"node": m.index, **r.as_dict()}
            for m in orchestrator.members
            for r in m.controller_history()
        ],
        "actuation": [
            {"node": m.index, **r.as_dict()}
            for m in orchestrator.members
            for r in m.actuation_journal()
        ],
        # Read defensively so that the golden can be regenerated on trees
        # that predate the counter.
        "elided_ticks": getattr(result, "elided_ticks", 0),
    }


def fleet_idle_sparse_summary() -> dict:
    """The idle-fleet golden: the scenario with and without telemetry."""
    full = idle_sparse_run(collect_telemetry=True)
    lean = idle_sparse_run(collect_telemetry=False)
    del full["elided_ticks"]
    full["lean"] = {
        key: lean[key] for key in ("summary", "commands", "node_stats")
    }
    full["lean"]["controller_equal"] = lean["controller"] == full["controller"]
    return full


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    fig13_path = os.path.join(GOLDEN_DIR, "fig13_small.json")
    with open(fig13_path, "w", encoding="utf-8") as handle:
        json.dump(fig13_summary(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {fig13_path}")

    fleet_path = os.path.join(GOLDEN_DIR, "fleet_sim_small.json")
    with open(fleet_path, "w", encoding="utf-8") as handle:
        json.dump(fleet_summary(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {fleet_path}")

    divergent_path = os.path.join(GOLDEN_DIR, "fleet_divergent_small.json")
    with open(divergent_path, "w", encoding="utf-8") as handle:
        json.dump(fleet_divergent_summary(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {divergent_path}")

    idle_path = os.path.join(GOLDEN_DIR, "fleet_idle_sparse_small.json")
    with open(idle_path, "w", encoding="utf-8") as handle:
        json.dump(fleet_idle_sparse_summary(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {idle_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
