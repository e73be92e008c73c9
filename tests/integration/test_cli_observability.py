"""CLI observability surface: labels, the journal dump and
signal-triggered telemetry dumps."""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.telemetry import prometheus_text

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture
def cli_small_wget(monkeypatch, small_wget):
    """Route the CLI's program builder at the fast test corpus."""
    monkeypatch.setattr("repro.cli.build_program", lambda name: small_wget)


def _read_ndjson(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_label_flag_scopes_exported_metrics(tmp_path, capsys, cli_small_wget):
    metrics_path = tmp_path / "m.json"
    assert main([
        "protect", "wget",
        "--label", "request=r1", "--label", "tenant=acme",
        "--metrics", str(metrics_path),
    ]) == 0
    samples = json.loads(metrics_path.read_text())
    key = 'protect.runs{request="r1",tenant="acme"}'
    assert key in samples
    assert samples[key]["labels"] == {"request": "r1", "tenant": "acme"}
    prom = prometheus_text(samples)
    assert 'protect_runs_total{request="r1",tenant="acme"} 1' in prom


def test_malformed_label_rejected():
    with pytest.raises(SystemExit):
        main(["protect", "wget", "--label", "no-equals-sign"])


@pytest.mark.parametrize(
    "flags",
    [pytest.param(["--label", "request=r7"], id="labeled")],
)
def test_journal_flag_dumps_events_and_summary(
    tmp_path, capsys, cli_small_wget, flags
):
    journal_path = tmp_path / "j.ndjson"
    assert main(["protect", "wget", *flags, "--journal", str(journal_path)]) == 0
    records = _read_ndjson(journal_path)
    # events in recorded order, then one summary trailer
    assert records[-1]["type"] == "journal_summary"
    summary = records[-1]
    events = records[:-1]
    assert events and all(e["type"] == "event" for e in events)
    assert any(e["kind"] == "protect" for e in events)
    assert all(e.get("ctx") == {"request": "r7"} for e in events)
    assert summary["recorded"] == len(events)
    assert summary["dropped"] == 0
    assert summary["capacity"] == 8192


def test_sigterm_dumps_telemetry_before_dying(tmp_path):
    """A killed run still writes its exports (crash-dump satellite)."""
    metrics_path = tmp_path / "m.json"
    journal_path = tmp_path / "j.ndjson"
    trace_path = tmp_path / "t.json"
    script = textwrap.dedent(
        f"""
        import os, sys, time
        sys.argv = [
            "repro", "run", "gzip",
            "--metrics", {str(metrics_path)!r},
            "--journal", {str(journal_path)!r},
            "--trace", {str(trace_path)!r},
        ]
        import repro.cli, repro.corpus, repro.telemetry

        real_build = repro.corpus.build_program

        def build_and_signal(name):
            program = real_build(name)
            repro.telemetry.get_metrics().counter("before_kill").inc()
            os.kill(os.getpid(), {int(signal.SIGTERM)})
            time.sleep(60)  # never reached: SIGTERM fires on return
            return program

        repro.cli.build_program = build_and_signal
        sys.exit(repro.cli.main(sys.argv[1:]))
        """
    )
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        timeout=120,
    )
    # the handler re-raises, so the process still dies by SIGTERM
    assert proc.returncode == -signal.SIGTERM, proc.stderr.decode()
    samples = json.loads(metrics_path.read_text())
    assert samples["before_kill"]["value"] == 1, samples
    records = _read_ndjson(journal_path)
    assert any(r["type"] == "journal_summary" for r in records)
    assert "traceEvents" in json.loads(trace_path.read_text())
