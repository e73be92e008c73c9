"""One behaviour verdict on every surface.

A protected run that matches its baseline in everything but the exit
status has not preserved behaviour.  The CLI, serve's ``verify`` job,
``protect_all --verify`` and the attack scorer must all say so, and
name the exit status as the field that differed.
"""

import json

import pytest

from repro.attacks import score_run
from repro.cli import main
from repro.core.protector import ProtectedProgram
from repro.emu import RunResult
from repro.pipeline import protect_all
from repro.serve.jobs import execute_job, make_task

REASON = "exit status diverged"


@pytest.fixture
def exit_status_differs(monkeypatch, small_wget):
    """Protected runs exit with status + 1; every surface builds the
    small test wget instead of the full corpus program."""
    real_run = ProtectedProgram.run

    def run(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        return RunResult(
            result.exit_status + 1,
            result.steps,
            result.cycles,
            result.stdout,
            result.fault,
        )

    monkeypatch.setattr(ProtectedProgram, "run", run)
    monkeypatch.setattr("repro.cli.build_program", lambda name: small_wget)
    for module in ("repro.serve.jobs", "repro.pipeline.runner"):
        monkeypatch.setattr(
            f"{module}.build_program_cached", lambda name: small_wget
        )


def test_cli_protect_reports_the_exit_status(capsys, exit_status_differs):
    assert main(["protect", "wget"]) == 1
    out = capsys.readouterr().out
    assert f"ERROR: protected program diverged from baseline: {REASON}" in out


def test_cli_protect_json_reports_the_exit_status(capsys, exit_status_differs):
    assert main(["protect", "wget", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["behaviour_preserved"] is False
    assert report["divergence"] == REASON


def test_serve_verify_reports_the_exit_status(exit_status_differs):
    payload = execute_job(make_task("verify", "wget"))
    assert payload["behaviour_preserved"] is False
    assert payload["divergence"] == REASON


def test_protect_all_verify_reports_divergence(exit_status_differs):
    (result,) = protect_all(["wget"], jobs=1, verify=True, use_cache=False)
    assert result.behaviour_preserved is False


def test_score_run_names_the_exit_status():
    goal = RunResult(0, 100, 200, b"out")
    outcome = score_run("exit", RunResult(1, 100, 200, b"out"), goal)
    assert outcome.detected
    assert outcome.reason == REASON
