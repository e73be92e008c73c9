"""The command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.telemetry import prometheus_text


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("wget", "gcc", "lame"):
        assert name in out


def test_run_gzip(capsys):
    assert main(["run", "gzip"]) == 0
    out = capsys.readouterr().out
    assert "exit" in out and "cycles" in out


def test_run_with_debugger_refused(capsys):
    # wget refuses to run under a debugger (exit 99, still a clean exit)
    assert main(["run", "wget", "--debugger"]) == 0
    assert "99" in capsys.readouterr().out


def test_analyze(capsys):
    assert main(["analyze", "gzip"]) == 0
    out = capsys.readouterr().out
    assert "near-ret%" in out and "gzip" in out


def test_unknown_program_rejected():
    with pytest.raises(SystemExit):
        main(["run", "notaprogram"])


@pytest.mark.parametrize("argv", [
    ["serve", "--quota-rate", "1"],
    ["serve", "--quota-burst", "1"],
    ["serve", "--drain-timeout", "1"],
    ["coverage", "gzip", "--no-rules"],
    ["coverage", "gzip", "--max-functions", "1"],
    ["coverage", "gzip", "--max-insns", "1"],
    ["protect-all", "--no-cache"],
    ["protect", "gzip", "--chrome-trace", "t.json"],
    ["protect", "gzip", "--prom", "m.prom"],
    ["protect-all", "--recorder-events", "1"],
], ids=lambda argv: next(arg for arg in argv if arg.startswith("--")))
def test_removed_flags_are_usage_errors(argv, capsys):
    # Parse only: a flag argparse accepted would run the command.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_protect_help_lists_four_telemetry_flags(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["protect", "--help"])
    usage = capsys.readouterr().out.split("positional arguments")[0]
    assert set(re.findall(r"\[(--[a-z-]+)", usage)) == {
        "--strategy", "--engine", "--guard-chains", "--json",
        "--metrics", "--trace", "--journal", "--label",
    }


@pytest.fixture
def cli_small_wget(monkeypatch, small_wget):
    """Route the CLI's program builder at the fast test corpus."""
    monkeypatch.setattr("repro.cli.build_program", lambda name: small_wget)


def test_protect_json_and_telemetry_files(capsys, tmp_path, cli_small_wget):
    metrics_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.json"
    assert main([
        "protect", "wget", "--json",
        "--metrics", str(metrics_path), "--trace", str(trace_path),
    ]) == 0

    report = json.loads(capsys.readouterr().out)
    assert report["program"] == "wget"
    assert report["behaviour_preserved"] is True
    assert report["chains"] and report["chains"][0]["word_count"] > 0
    assert report["chains"][0]["gadget_addresses"]

    metrics = json.loads(metrics_path.read_text())
    assert metrics["gadgets.offsets_scanned"]["value"] > 0
    assert metrics["protect.chain_words"]["type"] == "histogram"
    assert metrics["protect.chain_words"]["count"] >= 1

    events = json.loads(trace_path.read_text())["traceEvents"]
    by_name = {e["name"]: e["args"] for e in events if e["ph"] == "X"}
    assert {"protect", "find_gadgets", "compile_chain", "emit_chain"} <= set(by_name)
    # find_gadgets and emit_chain nest under protect
    assert by_name["find_gadgets"]["parent_id"] == by_name["protect"]["span_id"]
    assert by_name["emit_chain"]["parent_id"] == by_name["protect"]["span_id"]


def test_protect_metrics_to_stdout(capsys, cli_small_wget):
    assert main(["protect", "wget", "--metrics", "-"]) == 0
    out = capsys.readouterr().out
    # summary text first, then the metrics JSON object
    payload = json.loads(out[out.index("\n{") :])
    assert "protect.chains_emitted" in payload


def test_profile_prints_cycle_table(capsys, cli_small_wget):
    assert main(["profile", "wget"]) == 0
    out = capsys.readouterr().out
    assert "function" in out and "cycles" in out
    assert "checksum_words" in out
    # the engine hot-spot table rides along with the function table
    assert "engine hot spots" in out
    assert "mnemonic" in out


def test_protect_trace_to_stdout(capsys, cli_small_wget):
    assert main(["protect", "wget", "--trace", "-"]) == 0
    out = capsys.readouterr().out
    # summary text first, then the Chrome trace on its own line
    (line,) = [l for l in out.splitlines() if l.startswith("{")]
    spans = [e for e in json.loads(line)["traceEvents"] if e["ph"] == "X"]
    names = {s["name"] for s in spans}
    assert {"protect", "find_gadgets", "emit_chain"} <= names
    assert all(s["dur"] >= 0 for s in spans)


def test_run_chrome_trace_is_valid_trace_event_json(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert main(["run", "gzip", "--trace", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert events, "trace must not be empty"
    for event in events:
        assert "ph" in event and "pid" in event and "tid" in event
    complete = [e for e in events if e["ph"] == "X"]
    assert complete
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
    assert "emulate" in {e["name"] for e in complete}


def test_protect_journal_and_metrics_files(tmp_path, capsys, cli_small_wget):
    journal_path = tmp_path / "j.jsonl"
    metrics_path = tmp_path / "m.json"
    assert main([
        "protect", "wget",
        "--journal", str(journal_path), "--metrics", str(metrics_path),
    ]) == 0
    capsys.readouterr()

    records = [json.loads(l) for l in journal_path.read_text().splitlines()]
    summaries = [r for r in records if r["type"] == "journal_summary"]
    assert len(summaries) == 1 and summaries[0]["recorded"] >= 1
    kinds = {r["kind"] for r in records if r["type"] == "event"}
    assert "protect" in kinds

    # the exported samples render as the Prometheus text /metrics serves
    prom = prometheus_text(json.loads(metrics_path.read_text()))
    assert "# TYPE" in prom
    assert "emu_instructions_total" in prom
    assert '_bucket{le="+Inf"}' in prom


def test_stats_dashboard_over_metrics(tmp_path, capsys, cli_small_wget):
    metrics_path = tmp_path / "m.json"
    assert main(["protect", "wget", "--metrics", str(metrics_path)]) == 0
    capsys.readouterr()
    assert main(["stats", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert f"{metrics_path} [metrics]" in out
    assert "engine block cache" in out
    assert "hit rate" in out
    assert "tier-2 page-version" in out and "tier-3 in-block store" in out
    assert "hottest mnemonics (top 10)" in out
    assert "run totals" in out


def test_stats_rejects_unrecognized_artifacts_with_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("")
    missing = tmp_path / "missing.json"
    assert main(["stats", str(bad), str(missing)]) == 2
    err = capsys.readouterr().err
    # one line per artifact, naming the path and the expected kinds
    lines = [l for l in err.splitlines() if "not a recognized" in l]
    assert len(lines) == 2
    assert str(bad) in lines[0] and str(missing) in lines[1]
    for line in lines:
        assert "(expected one of: metrics, journal, chrome, coverage)" in line


def test_stats_good_artifact_still_renders_after_bad_one(
    tmp_path, capsys, cli_small_wget
):
    metrics_path = tmp_path / "m.json"
    assert main(["protect", "wget", "--metrics", str(metrics_path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["stats", str(bad), str(metrics_path)]) == 2
    captured = capsys.readouterr()
    assert f"{metrics_path} [metrics]" in captured.out
    assert str(bad) in captured.err


def test_coverage_human_output(capsys, cli_small_wget):
    assert main(["coverage", "wget"]) == 0
    out = capsys.readouterr().out
    assert "Coverage map: wget" in out
    assert "protected bytes" in out
    assert "covered bytes" in out
    assert "!SPOF" in out or "!UNCOVERED" in out
    assert "digest_wget" in out


def test_coverage_json_artifact_round_trips_through_stats(
    tmp_path, capsys, cli_small_wget
):
    out_path = tmp_path / "nested" / "dirs" / "coverage.json"
    assert main(["coverage", "wget", "--json", "--out", str(out_path)]) == 0
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(out_path.read_text())  # parent dirs created
    assert stdout_payload == file_payload
    assert file_payload["type"] == "coverage"
    assert file_payload["program"] == "wget"
    for key in (
        "strategy", "chains", "protected_bytes", "covered_bytes",
        "coverage_fraction", "overlap_density", "spof_bytes",
        "spof_regions", "uncovered_bytes", "uncovered_regions",
        "rule_breakdown", "functions", "byte_map",
    ):
        assert key in file_payload, f"missing key {key}"
    assert file_payload["protected_bytes"] > 0
    assert file_payload["covered_bytes"] > 0
    assert 0.0 < file_payload["coverage_fraction"] <= 1.0
    assert file_payload["covered_bytes"] + file_payload["uncovered_bytes"] \
        == file_payload["protected_bytes"]
    # the RLE byte map tiles the protected set exactly
    byte_map = file_payload["byte_map"]
    assert sum(row[1] for row in byte_map) == file_payload["protected_bytes"]
    assert sum(row[1] for row in byte_map if row[2] > 0) \
        == file_payload["covered_bytes"]
    assert file_payload["rule_breakdown"], "no rule attribution"
    assert file_payload["functions"], "no per-function stats"

    assert main(["stats", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert f"{out_path} [coverage]" in out
    assert "protected bytes" in out


def test_export_flags_create_parent_directories(tmp_path, capsys, cli_small_wget):
    base = tmp_path / "deep"
    metrics_path = base / "a" / "m.json"
    journal_path = base / "b" / "j.jsonl"
    trace_path = base / "c" / "t.json"
    assert main([
        "protect", "wget",
        "--metrics", str(metrics_path), "--journal", str(journal_path),
        "--trace", str(trace_path),
    ]) == 0
    capsys.readouterr()
    for path in (metrics_path, journal_path, trace_path):
        assert path.exists(), path
        assert path.stat().st_size > 0, path


def test_journal_written_even_when_the_command_dies(tmp_path, monkeypatch, capsys):
    def explode(_name):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr("repro.cli.build_program", explode)
    journal_path = tmp_path / "crash.jsonl"
    with pytest.raises(RuntimeError):
        main(["run", "gzip", "--journal", str(journal_path)])
    capsys.readouterr()
    # the crash dump still landed: events (possibly none) + summary
    records = [json.loads(l) for l in journal_path.read_text().splitlines()]
    assert records[-1]["type"] == "journal_summary"
