"""``protect_all(verify=True)`` builds no block profile.

A verify task runs the baseline and the protected image.  Only a
profile run (§VII-B selection, ``repro profile``) attaches a
:class:`~repro.emu.Profiler`; the corpus configs name their
verification function, so protecting and verifying profile nothing.
"""

import pytest

import repro.pipeline.runner as runner
from repro import telemetry
from repro.emu import profiler as profiler_mod
from repro.pipeline import protect_all


@pytest.fixture()
def profilers(monkeypatch, small_gzip):
    """Every Profiler built while protecting the small gzip."""
    monkeypatch.setattr(runner, "build_program_cached", lambda name: small_gzip)
    built = []

    class Counted(profiler_mod.Profiler):
        def __init__(self, image):
            super().__init__(image)
            built.append(self)

    monkeypatch.setattr(profiler_mod, "Profiler", Counted)
    return built


def test_verify_without_telemetry_builds_no_hotspot_profiler(profilers):
    with telemetry.telemetry_session(metrics=False, tracing=False):
        [result] = protect_all(["gzip"], verify=True, use_cache=False)
    assert result.behaviour_preserved is True
    assert profilers == []
