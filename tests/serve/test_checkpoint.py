"""Checkpoint/restore bit-identity — the serving control plane's core claim.

A service checkpointed at epoch T and restored — in this process or a
fresh one — must finish with byte-identical results (summary, windows,
epoch snapshots, command log) to the uninterrupted run.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.fleet.orchestrator import fleet_config_for_trace
from repro.serve import AutoscalerConfig, FleetService, checkpoint_meta
from repro.traces import TraceGenConfig, generate_trace

_SRC = Path(__file__).resolve().parents[2] / "src"
_GEN = TraceGenConfig(seed=11, duration_s=20.0, rate_qps=12.0)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(_GEN)


@pytest.fixture(scope="module")
def config(trace):
    return fleet_config_for_trace(trace, nodes=3, seed=5)


def _outcome(service: FleetService) -> tuple:
    result = service.finish()
    return (
        repr(result),
        tuple(s.as_dict() for s in service.snapshots),
        tuple(service.commands),
    )


def _run_with_plan(service: FleetService, save_path=None, save_at=None):
    """Drive to the end, applying a fixed command plan, optionally saving."""
    tenant = service.config.tenants[0].name
    while not service.done:
        if service.epoch == 3:
            service.evict_tenant(tenant)
        if service.epoch == 8:
            service.admit_tenant(tenant)
            service.swap_routing("random")
        if save_at is not None and service.epoch == save_at:
            service.save(save_path)
        service.step()
    return service


class TestRoundTrip:
    def test_restore_matches_uninterrupted(
        self, config, trace, tmp_path
    ) -> None:
        path = str(tmp_path / "ckpt.bin")
        original = FleetService(config, trace=trace, epoch_s=1.0)
        original.start()
        _run_with_plan(original, save_path=path, save_at=6)
        baseline = _outcome(original)

        restored = FleetService.restore(path, trace=trace)
        assert restored.epoch == 6
        _run_with_plan(restored)
        assert _outcome(restored) == baseline

    def test_restore_with_autoscaler_state(
        self, config, trace, tmp_path
    ) -> None:
        path = str(tmp_path / "ckpt.bin")
        scaler = AutoscalerConfig(
            min_nodes=1, max_nodes=4, epochs_down=2, cooldown_epochs=1
        )
        original = FleetService(
            config, trace=trace, epoch_s=1.0, autoscaler=scaler
        )
        original.start()
        while not original.done:
            if original.epoch == 7:
                original.save(path)
            original.step()
        baseline = _outcome(original)

        restored = FleetService.restore(path, trace=trace)
        while not restored.done:
            restored.step()
        assert _outcome(restored) == baseline

    def test_fresh_process_restore_is_bit_identical(
        self, config, trace, tmp_path
    ) -> None:
        path = tmp_path / "ckpt.bin"
        out = tmp_path / "restored.json"
        original = FleetService(config, trace=trace, epoch_s=1.0)
        original.start()
        _run_with_plan(original, save_path=str(path), save_at=6)
        baseline = _outcome(original)

        code = f"""
import json
from repro.serve import FleetService
from repro.traces import TraceGenConfig, generate_trace

trace = generate_trace(TraceGenConfig(
    seed={_GEN.seed}, duration_s={_GEN.duration_s}, rate_qps={_GEN.rate_qps},
))
service = FleetService.restore({str(path)!r}, trace=trace)
tenant = service.config.tenants[0].name
while not service.done:
    if service.epoch == 8:
        service.admit_tenant(tenant)
        service.swap_routing("random")
    service.step()
result = service.finish()
payload = {{
    "result": repr(result),
    "snapshots": [s.as_dict() for s in service.snapshots],
    "commands": [list(row) for row in service.commands],
}}
with open({str(out)!r}, "w") as handle:
    json.dump(payload, handle)
"""
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"},
        )
        payload = json.loads(out.read_text())
        assert payload["result"] == baseline[0]
        assert tuple(payload["snapshots"]) == baseline[1]
        assert [tuple(row) for row in payload["commands"]] == list(baseline[2])


class TestValidation:
    def test_meta_readable_without_state(self, config, trace, tmp_path) -> None:
        path = str(tmp_path / "ckpt.bin")
        service = FleetService(config, trace=trace, epoch_s=1.0)
        service.start()
        service.step()
        meta = service.save(path)
        assert checkpoint_meta(path) == meta
        assert meta["epoch"] == 1 and meta["time_s"] == 1.0

    def test_rejects_wrong_trace(self, config, trace, tmp_path) -> None:
        path = str(tmp_path / "ckpt.bin")
        service = FleetService(config, trace=trace, epoch_s=1.0)
        service.start()
        service.step()
        service.save(path)
        other = generate_trace(
            TraceGenConfig(seed=99, duration_s=20.0, rate_qps=12.0)
        )
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            FleetService.restore(path, trace=other)
        with pytest.raises(ConfigurationError, match="pass the driving trace"):
            FleetService.restore(path)

    def test_rejects_foreign_file(self, tmp_path) -> None:
        path = tmp_path / "junk.bin"
        path.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(ConfigurationError, match="not a"):
            FleetService.restore(str(path))
        with pytest.raises(ConfigurationError, match="not a"):
            checkpoint_meta(str(path))

    def test_rejects_missing_or_corrupt_file(self, tmp_path) -> None:
        missing = str(tmp_path / "nope.bin")
        with pytest.raises(ConfigurationError, match="cannot read checkpoint"):
            FleetService.restore(missing)
        with pytest.raises(ConfigurationError, match="cannot read checkpoint"):
            checkpoint_meta(missing)
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(b"this is not a pickle")
        with pytest.raises(ConfigurationError, match="not a"):
            FleetService.restore(str(corrupt))


class TestFormatVersion:
    def test_rejects_a_v1_checkpoint_naming_the_format(self, tmp_path) -> None:
        """A checkpoint from before the v2 graph must be refused cleanly,
        not fail with an AttributeError on its first replayed tick."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "format": "repro-serve-checkpoint/v1",
                    "epoch": 3,
                    "time_s": 3.0,
                    "sequence_base": 0,
                    "trace_digest": None,
                    "payload": b"",
                }
            )
        )
        for read in (FleetService.restore, checkpoint_meta):
            with pytest.raises(ConfigurationError) as info:
                read(str(path))
            message = str(info.value)
            assert "repro-serve-checkpoint/v1" in message
            assert "repro-serve-checkpoint/v2" in message


#: A sparse trace: nodes sit idle, with their control ticks elided, for
#: most of the run.
_SPARSE = TraceGenConfig(seed=4, duration_s=40.0, rate_qps=0.5)


class TestElidedCheckpoint:
    def test_save_while_elided_restores_in_a_fresh_process(
        self, tmp_path
    ) -> None:
        trace = generate_trace(_SPARSE)
        config = fleet_config_for_trace(trace, nodes=3, seed=2, interval=1.0)
        path = tmp_path / "elided.ckpt"
        out = tmp_path / "restored.json"
        original = FleetService(config, trace=trace, epoch_s=1.5)
        original.start()
        while original.epoch < 12:
            original.step()
        members = original.orchestrator.members
        assert any(m._elided_at is not None for m in members)
        original.save(str(path))
        while not original.done:
            original.step()
        baseline = _outcome(original)
        assert "elided_ticks=0)" not in baseline[0]  # some ticks were elided

        code = f"""
import json
from repro.serve import FleetService
from repro.traces import TraceGenConfig, generate_trace

trace = generate_trace(TraceGenConfig(
    seed={_SPARSE.seed}, duration_s={_SPARSE.duration_s},
    rate_qps={_SPARSE.rate_qps},
))
service = FleetService.restore({str(path)!r}, trace=trace)
while not service.done:
    service.step()
result = service.finish()
payload = {{
    "result": repr(result),
    "snapshots": [s.as_dict() for s in service.snapshots],
    "commands": [list(row) for row in service.commands],
}}
with open({str(out)!r}, "w") as handle:
    json.dump(payload, handle)
"""
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"},
        )
        payload = json.loads(out.read_text())
        assert payload["result"] == baseline[0]
        assert tuple(payload["snapshots"]) == baseline[1]
        assert [tuple(row) for row in payload["commands"]] == list(baseline[2])
