"""Repository benchmark: one workload, several fresh-process repetitions.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig13 --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats the untraced workload, each repetition in a fresh
process, until ``--seconds`` is used (at least three repetitions), and
reports the median of every end-to-end metric. ``--trace 1`` runs one
traced repetition plus untraced ones and reports the per-layer metrics;
``trace.overhead`` compares the two. The last stdout line is one JSON
object: ``correct``, ``attempted`` and ``failed`` count correctness checks,
``metrics`` maps each metric name to its value and unit. See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import (  # noqa: E402
    SETUP_ELASTICITY,
    WALL_ELASTICITY,
    calibrated,
)
from workloads import WORKLOADS  # noqa: E402

#: Untraced repetitions per run, at least; more while the budget allows.
MIN_REPS = 3
#: Untraced repetitions in a traced run (the ``trace.overhead`` baseline).
MIN_REPS_TRACED = 2
MAX_REPS = 25
#: Every run ends within this many seconds, whatever a repetition does.
DEADLINE_S = 170.0
_median = statistics.median


def _calibrated_laps(rep: dict) -> list[float]:
    loops = rep["loops"]
    return [
        calibrated(lap, loops[i + 1], loops[i + 2], WALL_ELASTICITY)
        for i, lap in enumerate(rep["laps"])
    ]


def _calibrated_setup(rep: dict) -> float:
    loops = rep["loops"]
    return calibrated(rep["setup_s"], loops[0], loops[1], SETUP_ELASTICITY)


def calibrated_wall(reps: list[dict]) -> float:
    """Calibrated seconds of the timed phase: each lap's median over the
    repetitions, summed (every repetition runs the same laps)."""
    laps = zip(*(_calibrated_laps(r) for r in reps))
    return sum(_median(lap) for lap in laps)


#: name -> (unit, value over the untraced repetitions).
END_TO_END = {
    "wall_s": ("s", calibrated_wall),
    "setup_s": ("s", lambda reps: _median([_calibrated_setup(r) for r in reps])),
    "peak_rss_mb": ("MB", lambda reps: _median([r["peak_rss_mb"] for r in reps])),
    "host_us_per_request": (
        "us",
        lambda reps: calibrated_wall(reps) / reps[0]["requests"] * 1e6,
    ),
    "host_us_per_node_tick": (
        "us",
        lambda reps: calibrated_wall(reps) / reps[0]["node_ticks"] * 1e6,
    ),
    "epochs_per_s": (
        "1/s",
        lambda reps: reps[0]["sim_seconds"] / calibrated_wall(reps),
    ),
}


class _Layers:
    """Per-layer view of one traced repetition (plus untraced baselines)."""

    def __init__(self, traced: dict, reps: list[dict], failures: float) -> None:
        self.spans = traced["spans"]
        self.counters = traced["counters"]
        self.solver = traced["solver"]
        self.node_ticks = traced["node_ticks"]
        self.untraced_outputs = [r["outputs"] for r in reps]
        self.overhead = calibrated_wall([traced]) / calibrated_wall(reps) - 1
        self.failures = failures

    def calls(self, name: str) -> float:
        return float(self.spans[name]["calls"])

    def s(self, name: str) -> float:
        return self.spans[name]["s"]

    def self_s(self, name: str) -> float:
        return self.spans[name]["self_s"]

    def count(self, name: str) -> float:
        return float(self.counters[name])

    def per_node_tick(self, name: str) -> float:
        return self.counters[name] / self.node_ticks

    def output(self, name: str) -> float:
        """A workload output; timings are medians over the untraced runs."""
        values = [o[name] for o in self.untraced_outputs if name in o]
        return _median(values) if values else 0.0


#: name -> (unit, value from a :class:`_Layers`).
PER_LAYER = {
    "sim.events": ("count", lambda x: x.count("events")),
    "sim.self_s": ("s", lambda x: x.self_s("sim.run_until")),
    "sim.us_per_event": (
        "us",
        lambda x: x.self_s("sim.run_until") / max(x.count("events"), 1) * 1e6,
    ),
    "traces.generate_s": ("s", lambda x: x.s("traces.generate")),
    "traces.requests": ("count", lambda x: x.output("traces.requests")),
    "workloads.server_submits": (
        "count",
        lambda x: x.calls("workloads.server_submit"),
    ),
    "workloads.apply_rates_calls": (
        "count",
        lambda x: x.calls("workloads.apply_rates"),
    ),
    "workloads.apply_rates_s": ("s", lambda x: x.s("workloads.apply_rates")),
    "accel.pcie_transfers": ("count", lambda x: x.calls("accel.pcie_transfer")),
    "accel.pcie_transfer_s": ("s", lambda x: x.s("accel.pcie_transfer")),
    "hw.notify_change_calls": ("count", lambda x: x.calls("hw.notify_change")),
    "hw.notify_change_s": ("s", lambda x: x.s("hw.notify_change")),
    "hw.notify_change_self_s": ("s", lambda x: x.self_s("hw.notify_change")),
    "hw.solve_calls": ("count", lambda x: x.calls("hw.solve")),
    "hw.solve_s": ("s", lambda x: x.s("hw.solve")),
    "hw.solve_signature_s": ("s", lambda x: x.s("hw.solve_signature")),
    "hw.solver.cache_hit_rate": ("ratio", lambda x: x.solver["hit_rate"]),
    "hw.solver.fixed_point_rounds": (
        "count",
        lambda x: float(x.solver["fixed_point_rounds"]),
    ),
    "hw.solver.signature_short_circuits": (
        "count",
        lambda x: float(x.solver["signature_short_circuits"]),
    ),
    "hw.solver.static_reuse": ("count", lambda x: float(x.solver["static_reuse"])),
    "hw.solver.incremental_solves": (
        "count",
        lambda x: float(x.solver["incremental_solves"]),
    ),
    "hw.solver.shared_hits": ("count", lambda x: float(x.solver["shared_hits"])),
    "hostif.perf_reads": ("count", lambda x: x.count("perf_reads")),
    "hostif.perf_reads_per_node_tick": (
        "ratio",
        lambda x: x.per_node_tick("perf_reads"),
    ),
    "hostif.perf_read_s": ("s", lambda x: x.s("hostif.perf_read")),
    "control.ticks": ("count", lambda x: x.count("ticks")),
    "control.tick_s": ("s", lambda x: x.s("control.tick")),
    "control.tick_self_s": ("s", lambda x: x.self_s("control.tick")),
    "control.noop_ticks": ("count", lambda x: x.count("noop_ticks")),
    "control.noop_tick_ratio": ("ratio", lambda x: x.per_node_tick("noop_ticks")),
    "control.decide_s": ("s", lambda x: x.s("control.decide")),
    "control.actuation_writes": ("count", lambda x: x.count("actuation_writes")),
    "control.history_records": ("count", lambda x: x.count("history_records")),
    "fleet.route_calls": ("count", lambda x: x.count("route_calls")),
    "fleet.route_s": ("s", lambda x: x.s("fleet.route")),
    "fleet.route_scan_fallbacks": ("count", lambda x: x.count("scan_fallbacks")),
    "fleet.member_submit_s": ("s", lambda x: x.s("fleet.member_submit")),
    "fleet.sample_calls": ("count", lambda x: x.calls("fleet.sample")),
    "fleet.sample_s": ("s", lambda x: x.s("fleet.sample")),
    "fleet.batch_tick_s": ("s", lambda x: x.s("fleet.batch_tick")),
    "fleet.accounting_s": ("s", lambda x: x.s("fleet.finish")),
    "serve.steps": ("count", lambda x: x.calls("serve.step")),
    "serve.step_self_s": ("s", lambda x: x.self_s("serve.step")),
    "serve.save_s": ("s", lambda x: x.s("serve.save")),
    "serve.restore_s": ("s", lambda x: x.s("serve.restore")),
    "serve.commands": ("count", lambda x: x.output("serve.commands")),
    "serve.autoscale_actions": (
        "count",
        lambda x: x.output("serve.autoscale_actions"),
    ),
    "experiments.colocation_runs": (
        "count",
        lambda x: x.calls("experiments.colocation"),
    ),
    "experiments.colocation_s": ("s", lambda x: x.s("experiments.colocation")),
    "experiments.standalone_s": ("s", lambda x: x.s("experiments.standalone")),
    "trace.overhead": ("ratio", lambda x: x.overhead),
    "slo_attainment": ("ratio", lambda x: x.output("slo_attainment")),
    "kelp_ml_slowdown_cut": ("ratio", lambda x: x.output("kelp_ml_slowdown_cut")),
    "kelp_cpu_gain_vs_subdomain": (
        "ratio",
        lambda x: x.output("kelp_cpu_gain_vs_subdomain"),
    ),
    "checkpoint_save_ms": ("ms", lambda x: x.output("checkpoint_save_ms")),
    "checkpoint_restore_ms": ("ms", lambda x: x.output("checkpoint_restore_ms")),
    "checkpoint_bytes": ("bytes", lambda x: x.output("checkpoint_bytes")),
    "check_failures": ("ratio", lambda x: x.failures),
}


def _run_rep(workload: str, seed: int, traced: bool, timeout: float) -> dict | None:
    """One repetition in a fresh process; ``None`` if it failed."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if traced:
        command.append("--traced")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(reps: list[dict], lost: bool, checks: tuple[str, ...]) -> tuple:
    """(attempted, failed) over workload checks and repeatability checks.

    A lost repetition (it raised or timed out) fails every workload check.
    Every repetition after the first, traced or not, must reproduce the
    first one's ``sim_digest`` and work and solver counters exactly.
    """
    attempted = failed = 0
    for rep in reps:
        attempted += len(rep["checks"])
        failed += sum(not ok for ok in rep["checks"].values())
    if lost:
        attempted += len(checks)
        failed += len(checks)
    for rep in reps[1:]:
        attempted += 2
        failed += rep["sim_digest"] != reps[0]["sim_digest"]
        failed += (rep["counters"], rep["solver"]) != (
            reps[0]["counters"],
            reps[0]["solver"],
        )
    return attempted, failed


def _describe(reps: list[dict], traced: dict | None) -> None:
    first = (reps or [traced])[0]
    print(f"repetitions: {len(reps)} untraced" + (", 1 traced" if traced else ""))
    print(f"sim_digest: {first['sim_digest']}")
    print(f"requests: {first['requests']}, node-ticks: {first['node_ticks']}")
    print("work counters: " + json.dumps(first["counters"], sort_keys=True))
    print("solver counters: " + json.dumps(first["solver"], sort_keys=True))
    for rep in reps:
        print(
            f"  rep wall {rep['wall_s']:.4f} s measured, "
            f"{sum(_calibrated_laps(rep)):.4f} s calibrated; setup "
            f"{rep['setup_s']:.4f} s measured, {_calibrated_setup(rep):.4f} s "
            f"calibrated; rss {rep['peak_rss_mb']:.1f} MB"
        )
    for name, ok in first["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, value in sorted(first["outputs"].items()):
        print(f"output {name}: {value!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"no program source under {os.path.join(ROOT, 'src')}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2

    started = time.perf_counter()

    def run_rep(traced: bool) -> dict | None:
        remaining = started + DEADLINE_S - time.perf_counter()
        return _run_rep(args.workload, args.seed, traced, timeout=remaining)

    traced = run_rep(traced=True) if args.trace else None
    lost = bool(args.trace) and traced is None
    reps: list[dict] = []
    minimum = MIN_REPS_TRACED if args.trace else MIN_REPS
    while len(reps) < MAX_REPS and not lost:
        rep_started = time.perf_counter()
        rep = run_rep(traced=False)
        if rep is None:
            lost = True
            break
        reps.append(rep)
        now = time.perf_counter()
        if len(reps) >= minimum and now + (now - rep_started) - started > args.seconds:
            break

    everything = reps + ([traced] if traced is not None else [])
    attempted, failed = _tally(everything, lost, WORKLOADS[args.workload][2])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if lost:
        result["metrics"] = {}
        print(json.dumps(result))
        return 1
    _describe(reps, traced)
    if args.trace:
        layers = _Layers(traced, reps, failed / attempted)
        table = {name: (unit, f(layers)) for name, (unit, f) in PER_LAYER.items()}
    else:
        table = {name: (unit, f(reps)) for name, (unit, f) in END_TO_END.items()}
    for name, (unit, value) in table.items():
        print(f"{name:36s} {value!r} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (unit, value) in table.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
