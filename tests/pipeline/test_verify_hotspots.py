"""``protect_all(verify=True)`` profiles hot spots only for a metrics sink.

A verify task runs the baseline and the protected image.  The emulator
attaches a :class:`~repro.emu.HotspotProfiler` whenever the active
metrics registry is enabled, so the task's captured registry must
follow the parent's: with telemetry off nobody reads the profile.
"""

import pytest

import repro.pipeline.runner as runner
from repro import telemetry
from repro.emu import hotspots
from repro.pipeline import protect_all


@pytest.fixture()
def profilers(monkeypatch, small_gzip):
    """Every HotspotProfiler built while protecting the small gzip."""
    monkeypatch.delenv("REPRO_HOTSPOTS", raising=False)
    monkeypatch.setattr(runner, "build_program_cached", lambda name: small_gzip)
    built = []

    class Counted(hotspots.HotspotProfiler):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(hotspots, "HotspotProfiler", Counted)
    return built


def test_verify_without_telemetry_builds_no_hotspot_profiler(profilers):
    with telemetry.telemetry_session(metrics=False, tracing=False):
        [result] = protect_all(["gzip"], verify=True, use_cache=False)
    assert result.behaviour_preserved is True
    assert profilers == []


def test_verify_under_telemetry_exports_hotspots(profilers):
    with telemetry.telemetry_session() as (metrics, _tracer):
        [result] = protect_all(["gzip"], verify=True, use_cache=False)
        names = {sample["name"] for sample in metrics.to_dict().values()}
    assert result.behaviour_preserved is True
    assert profilers
    assert "emu.hot.block" in names and "emu.hot.mnemonic" in names
