"""One benchmark repetition, in a fresh process.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/worker.py --workload fig13 --seed 0 [--traced]

Runs the workload's set-up and timed phase once and prints one JSON object
on its last stdout line: measured times per lap with the calibration loop's
time around each (see ``calibrate.py``), peak RSS,
the exact work counters, the solver's counters, the check verdicts and the
``sim_digest``. With ``--traced`` it also wraps the program's public calls
in spans, writes the spans under ``.perfbench/`` and adds the per-span-name
summary.

Every repetition gets its own process because the solver's process-wide
memo and the standalone-baseline cache would otherwise carry over between
repetitions; a user pays to fill them on every invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

from calibrate import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")


def main(argv: list[str] | None = None) -> int:
    # Import the program as an installed one runs: from cached bytecode
    # (written on first use) even where the environment turns caching off,
    # so set-up measures the program's imports, not compiling its source.
    sys.dont_write_bytecode = False
    # Calibration loop seconds: before set-up, then after set-up and after
    # every lap, so interval i is bracketed by loops[i] and loops[i + 1].
    loops = [calibrate()]
    setup_from = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import probes
    from workloads import WORKLOADS

    prepare, execute, _ = WORKLOADS[args.workload]
    counters = probes.WorkCounters()
    counters.install()
    tracer = None
    if args.traced:
        tracer = probes.SpanTracer()
        tracer.install()
    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    laps: list[float] = []

    def lap() -> None:
        """Close one lap: time it, then re-measure the machine's speed."""
        nonlocal mark
        laps.append(time.perf_counter() - mark)
        loops.append(calibrate())
        mark = time.perf_counter()

    try:
        state = prepare(args.seed, scratch)
        setup_s = time.perf_counter() - setup_from
        loops.append(calibrate())
        mark = time.perf_counter()
        outcome = execute(state, lap)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    from repro.hw.contention import global_stats

    report = {
        "setup_s": setup_s,
        "wall_s": sum(laps),
        "laps": laps,
        "loops": loops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": outcome.requests,
        "node_ticks": outcome.node_ticks,
        "sim_seconds": outcome.sim_seconds,
        "outputs": outcome.outputs,
        "checks": outcome.checks,
        "sim_digest": outcome.sim_digest,
        "counters": counters.as_dict(),
        "solver": global_stats().as_dict(),
    }
    if tracer is not None:
        report["spans"] = tracer.summary()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(
            os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
