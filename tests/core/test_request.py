"""``protect_request``: the one path a protect request takes.

The CLI, serve and ``protect_all`` all call it, so its run order, its
budget and its verdict are checked here once, on the small wget.
"""

import pytest

import repro.core.protector as protector
import repro.corpus.program as corpus_program
from repro.core import Parallax, ProtectConfig, protect_request
from repro.emu import StepLimitExceeded

CONFIG = ProtectConfig(strategy="xor", verification_functions=["digest_wget"])


@pytest.fixture
def calls(monkeypatch):
    """Record the two runs (with their engine and budget) and protect,
    in call order, at the names the request looks them up by."""
    log = []

    def tap(owner, attr, label):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            log.append((label, kwargs.get("engine"), kwargs.get("max_steps")))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    tap(corpus_program, "run_image", "baseline")
    tap(protector, "run_image", "protected")
    tap(Parallax, "protect", "protect")
    return log


def test_baseline_run_then_protect_then_protected_run(calls, small_wget):
    request = protect_request(small_wget, CONFIG)
    assert [label for label, _, _ in calls] == ["baseline", "protect", "protected"]
    assert request.baseline.steps < request.run.steps
    assert request.divergence is None
    assert request.behaviour_preserved is True


def test_unverified_request_runs_nothing(calls, small_wget):
    request = protect_request(small_wget, CONFIG, verify=False)
    assert [label for label, _, _ in calls] == ["protect"]
    assert request.protected.report.chains
    assert request.baseline is None and request.run is None
    assert request.divergence is None and request.overhead_percent is None
    assert request.behaviour_preserved is None


@pytest.mark.parametrize("engine", ["step", "block"])
def test_engine_and_budget_reach_both_runs(calls, small_wget, engine):
    request = protect_request(small_wget, CONFIG, engine=engine, max_steps=1000)
    runs = [(engine_, steps) for label, engine_, steps in calls if label != "protect"]
    assert runs == [(engine, 1000), (engine, 1000)]
    assert isinstance(request.baseline.fault, StepLimitExceeded)
    assert isinstance(request.run.fault, StepLimitExceeded)


def test_engines_give_the_same_outcome(small_wget):
    def outcome(engine, max_steps):
        request = protect_request(
            small_wget, CONFIG, engine=engine, max_steps=max_steps
        )
        return [
            (run.exit_status, run.steps, run.cycles, run.stdout, repr(run.fault))
            for run in (request.baseline, request.run)
        ] + [request.divergence, request.overhead_percent]

    for max_steps in (1000, protector.RUN_MAX_STEPS):
        assert outcome("step", max_steps) == outcome("block", max_steps)


def test_overhead_is_the_cycle_ratio(small_wget):
    request = protect_request(small_wget, CONFIG)
    expected = 100 * (request.run.cycles / request.baseline.cycles - 1)
    assert request.overhead_percent == expected
    assert request.overhead_percent > 0
