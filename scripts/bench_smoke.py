#!/usr/bin/env python
"""Perf smoke benchmark: fixed experiment subset -> BENCH_PR<n>.json.

Runs a fixed, representative slice of the experiment registry four ways —
serial/parallel x cache-on/cache-off — plus one instrumented colocation mix,
one small fleet-sim run, one trace-scale probe (synthesize a 1M-request
24h trace, replay it over a 4-node fleet), one incident-loop probe
(inject / detect / remediate / score over an hour of traffic), and one
serving-control-plane probe (epoch-stepped FleetService with a
checkpoint/restore round trip), and writes a JSON trajectory
(wall-clock per experiment, solver cache hit-rate, events dispatched) that
later PRs can compare against.

Usage::

    python scripts/bench_smoke.py                  # writes BENCH_PR1.json
    python scripts/bench_smoke.py --jobs 8 --out BENCH_PR2.json
    make bench
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import time
from datetime import datetime, timezone

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.experiments import common as common_mod  # noqa: E402
from repro.experiments.common import MixConfig, run_colocation  # noqa: E402
from repro.experiments.suite import run_suite  # noqa: E402
from repro.hw.contention import (  # noqa: E402
    KnobVariant,
    clear_shared_cache,
    global_stats,
    reset_global_stats,
    set_cache_default,
)
from repro.parallel import maybe_profiled  # noqa: E402

#: The fixed benchmark subset: cheap motivation figure, two sweeps, one
#: policy matrix, and the workload table — a representative mix of solver-
#: and event-bound work. Keep this list stable across PRs.
SUBSET = ["fig02", "fig05", "fig09", "fig13", "table1"]
#: Simulated horizon for the subset, seconds.
DURATION = 16.0
#: The instrumented single-mix probe.
MIX = MixConfig(
    ml="cnn1", policy="KP", cpu="stream", intensity=1, duration=20.0, warmup=4.0
)
#: The fleet-scale probe: many nodes in one event loop is a different
#: performance profile (event-bound, many servers) than the mix probe.
FLEET = dict(
    nodes=8,
    policy="KP",
    routing="interference-aware",
    batch_jobs=4,
    batch_intensity=8,
    duration=6.0,
    warmup=2.0,
    seed=0,
)


def _fresh_state() -> None:
    """Reset cross-run memo state so every pass is measured cold.

    Also collect and freeze the heap: without this, objects surviving from
    *earlier* passes sit in the young generations and every pass after the
    first pays extra GC time scanning them — the passes would not be
    independent measurements (pyperf does the same).
    """
    common_mod._STANDALONE_CACHE.clear()
    clear_shared_cache()
    reset_global_stats()
    gc.collect()
    gc.freeze()


def _timed_suite(jobs: int | None, cache: bool) -> dict:
    set_cache_default(cache)
    _fresh_state()
    started = time.perf_counter()
    entries = run_suite(experiments=SUBSET, duration=DURATION, jobs=jobs)
    wall = time.perf_counter() - started
    record: dict = {
        "wall_s": round(wall, 3),
        "cache": cache,
        "jobs": jobs or 1,
        "per_experiment_s": {e.exp_id: round(e.seconds, 3) for e in entries},
    }
    if (jobs or 1) == 1:
        # Parallel workers keep their own counters; only serial runs can
        # report process-wide solver statistics meaningfully.
        record["solver"] = global_stats().as_dict()
    return record


def _timed_mix(cache: bool) -> dict:
    set_cache_default(cache)
    _fresh_state()
    started = time.perf_counter()
    result = run_colocation(MIX)
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 3),
        "cache": cache,
        "events_dispatched": result.events_dispatched,
        "solver_stats": result.solver_stats,
        "ml_perf_norm": result.ml_perf_norm,
    }


def _timed_fleet(cache: bool) -> dict:
    from repro.experiments.fleet_sim import run_fleet_sim

    set_cache_default(cache)
    _fresh_state()
    started = time.perf_counter()
    result = run_fleet_sim(**FLEET)
    wall = time.perf_counter() - started
    run = result.results[0]
    return {
        "wall_s": round(wall, 3),
        "cache": cache,
        "events_dispatched": run.events_dispatched,
        "efficiency": round(result.efficiency, 6),
        "fraction_saturated": round(result.fraction_saturated, 6),
        "serving_p99_ms": {
            row.name: None if row.p99_ms is None else round(row.p99_ms, 3)
            for row in result.tenant_rows
        },
    }


def _timed_trace(requests_target: int) -> dict:
    """The trace-scale probe: synthesize a day of traffic, replay it.

    Times the halves separately — generation is vectorized numpy and
    should stay sub-second even at 1M requests, while replay is the
    event-loop-bound half whose wall scales with the request count. The
    replay trial runs through :class:`FleetOrchestrator` directly (the
    exact config ``run_fleet_trace`` would build for trial 0) so the
    probe can also report the orchestrator's own phase walls — the
    replay loop vs the finalize/accounting pass.
    """
    from dataclasses import replace

    from repro.fleet.orchestrator import (
        FleetOrchestrator,
        fleet_config_for_trace,
    )
    from repro.parallel import point_seed
    from repro.traces import DAY_S, TraceGenConfig, generate_trace

    set_cache_default(True)
    _fresh_state()
    gen = TraceGenConfig(
        seed=0, duration_s=DAY_S, rate_qps=requests_target / DAY_S
    )
    started = time.perf_counter()
    trace = generate_trace(gen)
    generate_wall = time.perf_counter() - started
    base = fleet_config_for_trace(trace, nodes=4, seed=0)
    config = replace(base, seed=point_seed(0, 0))
    orchestrator = FleetOrchestrator(config, trace=trace)
    started = time.perf_counter()
    with maybe_profiled("fleet-trace-probe"):
        run = orchestrator.run()
    replay_wall = time.perf_counter() - started
    return {
        "requests_target": requests_target,
        "requests": len(trace),
        "nodes": config.nodes,
        "policy": config.policy,
        "routing": config.routing,
        "generate_wall_s": round(generate_wall, 3),
        "replay_wall_s": round(replay_wall, 3),
        "phases": {
            "generate_s": round(generate_wall, 3),
            **_phases(orchestrator),
        },
        "events_dispatched": run.events_dispatched,
        "events_per_s": round(
            run.events_dispatched / max(replay_wall, 1e-9)
        ),
        "serving_yield": round(run.serving_yield, 6),
        "efficiency": round(run.efficiency, 6),
    }


def _phases(orchestrator) -> dict:
    """The orchestrator's phase walls of one run, in run order."""
    return {
        phase: round(orchestrator.phase_walls.get(phase, 0.0), 3)
        for phase in ("setup_s", "replay_s", "catch_up_s", "accounting_s")
    }


#: Node counts for the fleet-replay scaling probe.
FLEET_REPLAY_NODES = (16, 64, 256)
#: Offered load for the scaling probe, requests/s over the full day. Low
#: on purpose: the probe isolates the per-tick fleet costs (sampling,
#: routing-index maintenance, batch-queue scans) that scale with node
#: count, rather than re-measuring the arrival-bound path _timed_trace
#: already covers.
FLEET_REPLAY_RATE_QPS = 2.0


def _timed_fleet_replay(node_counts=FLEET_REPLAY_NODES) -> dict:
    """The fleet-scaling probe: one day trace over 16/64/256 nodes.

    Every sweep point replays the *same* generated day-long trace, so the
    walls are directly comparable across fleet sizes: the arrival stream
    is constant and only the per-tick fleet work grows. Telemetry
    collection is off — the probe times the replay hot path, not the
    row-freezing of millions of telemetry samples. Each point reports the
    control ticks elided as quiescent and the wall per node-tick (nodes
    times the ticks scheduled per node); ``wall_ratio`` is the largest
    fleet's wall over the smallest's (the flat-per-node target is 1.5).
    """
    from dataclasses import replace

    from repro.fleet.orchestrator import (
        FleetOrchestrator,
        fleet_config_for_trace,
    )
    from repro.parallel import point_seed
    from repro.traces import DAY_S, TraceGenConfig, generate_trace

    set_cache_default(True)
    _fresh_state()
    gen = TraceGenConfig(
        seed=0, duration_s=DAY_S, rate_qps=FLEET_REPLAY_RATE_QPS
    )
    started = time.perf_counter()
    trace = generate_trace(gen)
    generate_wall = time.perf_counter() - started
    sweep = []
    for nodes in node_counts:
        base = fleet_config_for_trace(trace, nodes=nodes, seed=0)
        config = replace(base, seed=point_seed(0, 0))
        orchestrator = FleetOrchestrator(
            config, collect_telemetry=False, trace=trace
        )
        started = time.perf_counter()
        with maybe_profiled(f"fleet-replay-{nodes}n"):
            run = orchestrator.run()
        wall = time.perf_counter() - started
        node_ticks = nodes * math.floor(config.duration / config.interval)
        sweep.append(
            {
                "nodes": nodes,
                "routing": config.routing,
                "wall_s": round(wall, 3),
                "node_ticks": node_ticks,
                "elided_ticks": run.elided_ticks,
                "us_per_node_tick": round(wall / node_ticks * 1e6, 3),
                "phases": _phases(orchestrator),
                "events_dispatched": run.events_dispatched,
                "events_per_s": round(
                    run.events_dispatched / max(wall, 1e-9)
                ),
                "serving_yield": round(run.serving_yield, 6),
            }
        )
    return {
        "requests": len(trace),
        "rate_qps": FLEET_REPLAY_RATE_QPS,
        "trace_duration_s": DAY_S,
        "generate_wall_s": round(generate_wall, 3),
        "sweep": sweep,
        "wall_ratio": round(
            sweep[-1]["wall_s"] / max(sweep[0]["wall_s"], 1e-9), 3
        ),
    }


def _timed_incidents() -> dict:
    """The incident-loop probe: inject, detect, remediate, score.

    One hour of generated traffic, all five incident classes, three runs
    of the same trace (clean / no-remediation / remediation) — the
    fleet-incidents family's full counterfactual pipeline. The wall
    covers all three runs plus detection, localization, playbook
    execution and scoring; the scorecard numbers double as a sanity
    check that the committed probe still detects and remediates.
    """
    from repro.experiments.fleet_incidents import run_fleet_incidents
    from repro.traces import TraceGenConfig

    set_cache_default(True)
    _fresh_state()
    gen = TraceGenConfig(
        seed=3, duration_s=3600.0, rate_qps=1.0, burst_multiplier=1.0
    )
    started = time.perf_counter()
    result = run_fleet_incidents(
        gen=gen,
        nodes=3,
        routing="random",
        interval=10.0,
        warmup=20.0,
        seed=7,
        incident_seed=5,
    )
    wall = time.perf_counter() - started
    card = result.scorecards[0]
    return {
        "wall_s": round(wall, 3),
        "requests": result.requests,
        "incidents": len(result.schedule),
        "detected": sum(
            1 for s in card.incidents if s.detection_latency_s is not None
        ),
        "localized": sum(1 for s in card.incidents if s.localization_correct),
        "damage_norem": card.total_damage_norem,
        "damage_rem": card.total_damage_rem,
        "damage_avoided": card.total_damage_norem - card.total_damage_rem,
    }


def _timed_serve() -> dict:
    """The serving-control-plane probe: step, checkpoint, restore, verify.

    Ten simulated minutes of trace-driven traffic stepped epoch by epoch
    through :class:`FleetService`, checkpointed at the halfway epoch,
    restored into a second service, and both run to the end. Reports the
    stepping throughput (epochs/s), the checkpoint file size, the
    save/restore walls, and whether the restored run finished
    bit-identical to the uninterrupted one — the identity check doubles
    as a committed regression probe for the checkpoint format.
    """
    import tempfile

    from repro.fleet.orchestrator import fleet_config_for_trace
    from repro.serve import FleetService
    from repro.traces import TraceGenConfig, generate_trace

    set_cache_default(True)
    _fresh_state()
    gen = TraceGenConfig(seed=11, duration_s=600.0, rate_qps=20.0)
    trace = generate_trace(gen)
    config = fleet_config_for_trace(trace, nodes=4, seed=5)
    service = FleetService(
        config, trace=trace, collect_telemetry=False, epoch_s=1.0
    )
    half = 300
    started = time.perf_counter()
    service.start()
    while service.epoch < half:
        service.step()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "serve-probe.ckpt")
        save_started = time.perf_counter()
        service.save(path)
        save_wall = time.perf_counter() - save_started
        checkpoint_bytes = os.path.getsize(path)
        restore_started = time.perf_counter()
        restored = FleetService.restore(path, trace=trace)
        restore_wall = time.perf_counter() - restore_started
    service.run_to_end()
    result = service.finish()
    wall = time.perf_counter() - started
    restored.run_to_end()
    restored_result = restored.finish()
    epochs = service.epoch
    return {
        "wall_s": round(wall, 3),
        "epochs": epochs,
        "epoch_s": 1.0,
        "requests": len(trace),
        "nodes": config.nodes,
        "epochs_per_s": round(epochs / max(wall, 1e-9)),
        "checkpoint_bytes": checkpoint_bytes,
        "save_wall_s": round(save_wall, 4),
        "restore_wall_s": round(restore_wall, 4),
        "restore_identical": repr(result) == repr(restored_result),
    }


def _timed_batch_probe(variants: int = 64) -> dict:
    """Vectorized what-if vs the scalar reference over one live source set.

    Builds a small colocated machine, then scores ``variants`` MBA-cap
    candidates twice — once through :meth:`ContentionSolver.solve_variant`
    (the scalar semantic reference) and once through the numpy batch fixed
    point — and reports both walls plus the solver's ``batch_points``
    counter. The two paths agree bit-for-bit on solver outputs; this probe
    only times them.
    """
    from repro.hw.machine import Machine
    from repro.hw.placement import Placement
    from repro.hw.spec import MachineSpec
    from repro.sim import Simulator
    from repro.workloads.cpu.base import BatchTask
    from repro.workloads.cpu.catalog import cpu_workload

    set_cache_default(True)
    _fresh_state()
    machine = Machine(MachineSpec(), Simulator())
    BatchTask(
        "probe-a",
        machine,
        Placement(cores=frozenset(range(0, 8)), mem_weights={0: 0.7, 1: 0.3}),
        cpu_workload("stream", 8),
    ).start()
    BatchTask(
        "probe-b",
        machine,
        Placement(cores=frozenset(range(8, 16)), mem_weights={2: 1.0}),
        cpu_workload("dram", "H"),
    ).start()
    grid = [
        KnobVariant(mba_caps=((0, 0.1 + 0.9 * i / max(variants - 1, 1)),))
        for i in range(variants)
    ]
    sources = [
        source for task in machine.tasks() for source in task.traffic_sources()
    ]
    solver = machine.solver
    started = time.perf_counter()
    for variant in grid:
        solver.solve_variant(sources, variant)
    scalar_wall = time.perf_counter() - started
    started = time.perf_counter()
    machine.what_if(grid)
    batch_wall = time.perf_counter() - started
    stats = solver.stats.as_dict()
    return {
        "variants": variants,
        "scalar_wall_s": round(scalar_wall, 4),
        "batch_wall_s": round(batch_wall, 4),
        "speedup_batch": round(scalar_wall / max(batch_wall, 1e-9), 3),
        "batch_points": stats["batch_points"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="workers for the parallel pass (default: min(4, cpu_count))",
    )
    parser.add_argument("--out", default="BENCH_PR1.json")
    parser.add_argument(
        "--trace-requests", type=int, default=1_000_000,
        help="request count for the trace-scale probe (default: 1M; "
        "0 skips the probe)",
    )
    parser.add_argument(
        "--fleet-replay-nodes", default=None,
        help="comma-separated node counts for the fleet-replay scaling "
        "probe (default: 16,64,256; 0 skips the probe)",
    )
    args = parser.parse_args(argv)
    if args.fleet_replay_nodes is None:
        replay_nodes = FLEET_REPLAY_NODES
    else:
        replay_nodes = tuple(
            int(n) for n in args.fleet_replay_nodes.split(",") if int(n) > 0
        )
    cpu_count = os.cpu_count() or 1
    jobs = args.jobs if args.jobs is not None else min(4, cpu_count)

    suite_serial_on = _timed_suite(jobs=None, cache=True)
    suite_serial_off = _timed_suite(jobs=None, cache=False)
    # Honesty on single-core hosts: a process pool cannot speed anything up
    # there (the sweep engine falls back to serial anyway), so rather than
    # reporting a meaningless ~1.0x, skip the pass and publish null.
    run_parallel = jobs > 1 and cpu_count > 1
    suite_parallel_on = (
        _timed_suite(jobs=jobs, cache=True) if run_parallel else None
    )
    batch_probe = _timed_batch_probe()
    mix_on = _timed_mix(cache=True)
    mix_off = _timed_mix(cache=False)
    fleet_on = _timed_fleet(cache=True)
    fleet_off = _timed_fleet(cache=False)
    trace = (
        _timed_trace(args.trace_requests) if args.trace_requests > 0 else None
    )
    fleet_replay = (
        _timed_fleet_replay(replay_nodes) if replay_nodes else None
    )
    incidents = _timed_incidents()
    serve = _timed_serve()
    set_cache_default(None)

    report = {
        "meta": {
            "bench": "smoke",
            "generated": datetime.now(timezone.utc).isoformat(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": cpu_count,
            "jobs_requested": jobs,
            "parallel_skipped_reason": (
                None if run_parallel else "single-cpu host or jobs<=1"
            ),
            "subset": SUBSET,
            "duration_s": DURATION,
        },
        "suite": {
            "serial_cache_on": suite_serial_on,
            "serial_cache_off": suite_serial_off,
            "parallel_cache_on": suite_parallel_on,
            "speedup_cache": round(
                suite_serial_off["wall_s"] / max(suite_serial_on["wall_s"], 1e-9),
                3,
            ),
            "speedup_parallel": (
                round(
                    suite_serial_on["wall_s"]
                    / max(suite_parallel_on["wall_s"], 1e-9),
                    3,
                )
                if suite_parallel_on
                else None
            ),
        },
        "solver_fast_paths": batch_probe,
        "mix": {
            "config": {
                "ml": MIX.ml, "policy": MIX.policy, "cpu": MIX.cpu,
                "duration": MIX.duration,
            },
            "cache_on": mix_on,
            "cache_off": mix_off,
            "speedup_cache": round(
                mix_off["wall_s"] / max(mix_on["wall_s"], 1e-9), 3
            ),
        },
        "fleet": {
            "config": dict(FLEET),
            "cache_on": fleet_on,
            "cache_off": fleet_off,
            "speedup_cache": round(
                fleet_off["wall_s"] / max(fleet_on["wall_s"], 1e-9), 3
            ),
        },
        "trace": trace,
        "fleet_replay": fleet_replay,
        "incidents": incidents,
        "serve": serve,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    hit_rate = mix_on["solver_stats"].get("hit_rate", 0.0)
    print(f"wrote {args.out}")
    print(
        f"suite: serial cache-on {suite_serial_on['wall_s']}s, "
        f"cache-off {suite_serial_off['wall_s']}s "
        f"(cache speedup {report['suite']['speedup_cache']}x)"
    )
    if suite_parallel_on:
        print(
            f"suite: --jobs {jobs} {suite_parallel_on['wall_s']}s "
            f"(parallel speedup {report['suite']['speedup_parallel']}x "
            f"on {cpu_count} cpu)"
        )
    else:
        print(f"suite: parallel pass skipped ({cpu_count} cpu); speedup null")
    print(
        f"batch: {batch_probe['variants']} variants scalar "
        f"{batch_probe['scalar_wall_s']}s vs batch "
        f"{batch_probe['batch_wall_s']}s "
        f"({batch_probe['speedup_batch']}x)"
    )
    print(
        f"mix:   cache-on {mix_on['wall_s']}s, cache-off {mix_off['wall_s']}s, "
        f"hit-rate {hit_rate:.2%}, events {mix_on['events_dispatched']}"
    )
    print(
        f"fleet: cache-on {fleet_on['wall_s']}s, "
        f"cache-off {fleet_off['wall_s']}s, "
        f"efficiency {fleet_on['efficiency']:.3f}, "
        f"events {fleet_on['events_dispatched']}"
    )
    if trace:
        print(
            f"trace: {trace['requests']} requests over {trace['nodes']} "
            f"nodes ({trace['routing']}) generate "
            f"{trace['generate_wall_s']}s, replay {trace['replay_wall_s']}s "
            f"({trace['events_per_s']} events/s; accounting "
            f"{trace['phases']['accounting_s']}s)"
        )
    if fleet_replay:
        sweep = fleet_replay["sweep"]
        for point in sweep:
            print(
                f"fleet-replay: {point['nodes']:>3} nodes "
                f"{point['wall_s']}s ({point['us_per_node_tick']} us/node-tick, "
                f"{point['elided_ticks']}/{point['node_ticks']} ticks elided; "
                f"setup {point['phases']['setup_s']}s, replay "
                f"{point['phases']['replay_s']}s, catch-up "
                f"{point['phases']['catch_up_s']}s, accounting "
                f"{point['phases']['accounting_s']}s)"
            )
        print(
            f"fleet-replay: {sweep[-1]['nodes']}-node / {sweep[0]['nodes']}-node "
            f"wall ratio {fleet_replay['wall_ratio']} (target <= 1.5)"
        )
    print(
        f"incidents: {incidents['wall_s']}s for 3 runs, "
        f"{incidents['detected']}/{incidents['incidents']} detected, "
        f"{incidents['localized']}/{incidents['incidents']} localized, "
        f"damage {incidents['damage_norem']} -> {incidents['damage_rem']}"
    )
    print(
        f"serve: {serve['epochs']} epochs in {serve['wall_s']}s "
        f"({serve['epochs_per_s']} epochs/s), checkpoint "
        f"{serve['checkpoint_bytes']} bytes, save {serve['save_wall_s']}s, "
        f"restore {serve['restore_wall_s']}s, restore identical: "
        f"{serve['restore_identical']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
