"""Golden equivalence: the refactored control plane changes no numbers.

The layered control plane (sensors -> governors -> actuators) is a pure
refactor when sensing is perfect and fault injection is off: these tests
compare live runs against JSON snapshots captured *before* the refactor
(``scripts/capture_golden.py``), bit-for-bit after JSON round-tripping.

Both artifacts are checked serially and through the process pool
(``jobs=4``): the per-point seed chain must make worker count invisible.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
_GOLDEN = _ROOT / "tests" / "golden"


def _load_capture_module():
    """Import scripts/capture_golden.py (shares the reduced run shapes)."""
    spec = importlib.util.spec_from_file_location(
        "capture_golden", _ROOT / "scripts" / "capture_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def capture():
    return _load_capture_module()


def _roundtrip(obj):
    """Normalize through JSON exactly like the stored golden was."""
    return json.loads(json.dumps(obj))


def _golden(name: str):
    with open(_GOLDEN / name, encoding="utf-8") as handle:
        return json.load(handle)


class TestFig13Equivalence:
    def test_reduced_matrix_matches_golden(self, capture) -> None:
        assert _roundtrip(capture.fig13_summary()) == _golden(
            "fig13_small.json"
        )


class TestFleetSimEquivalence:
    def test_serial_matches_golden(self, capture) -> None:
        assert _roundtrip(capture.fleet_summary()) == _golden(
            "fleet_sim_small.json"
        )

    def test_process_pool_matches_golden(self, capture) -> None:
        assert _roundtrip(capture.fleet_summary(jobs=4)) == _golden(
            "fleet_sim_small.json"
        )

    def test_process_pool_matches_golden_even_on_one_cpu(
        self, capture, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Force the pool path so single-CPU CI still exercises workers.

        ``run_points`` falls back to serial on one CPU, which would make the
        ``jobs=4`` variant above vacuously identical there. Pretending the
        host has 4 CPUs routes the same run through real worker processes.
        """
        import repro.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        try:
            assert _roundtrip(capture.fleet_summary(jobs=4)) == _golden(
                "fleet_sim_small.json"
            )
        finally:
            parallel_mod.shutdown_pool()


class TestDivergentWindowEquivalence:
    """The replay whose fleet sampler and governor read differing perf
    windows (blackout, fail/restart, degraded sensors, actuation faults,
    mid-run grow, shrink/grow recommission) stays bit-identical."""

    @pytest.fixture(scope="class")
    def live(self, capture):
        return _roundtrip(capture.fleet_divergent_summary())

    @pytest.fixture(scope="class")
    def golden(self):
        return _golden("fleet_divergent_small.json")

    @pytest.mark.parametrize(
        "section", ["summary", "commands", "telemetry", "controller", "actuation"]
    )
    def test_section_matches_golden(self, live, golden, section) -> None:
        assert live[section] == golden[section]

    def test_scenario_exercises_the_divergent_paths(self, golden) -> None:
        statuses = {row["status"] for row in golden["actuation"]}
        assert {"deferred", "failed"} <= statuses
        assert [cmd for _, cmd in golden["commands"]] == [
            "grow:3", "shrink:3", "grow:3"
        ]
        assert golden["summary"]["requests_dropped"] > 0
