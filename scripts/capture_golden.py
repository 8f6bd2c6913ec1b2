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
  controller and actuation row.

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
