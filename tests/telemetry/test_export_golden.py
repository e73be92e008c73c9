"""Golden telemetry exports: every artifact format, frozen end to end.

Four scenarios run end to end, and each exported artifact is compared
with a frozen copy under ``tests/telemetry/golden/``.  The exports are
metrics JSON, Chrome trace-event JSON and journal JSONL.  Each
scenario's Prometheus text is rendered from its metrics JSON with
``prometheus_text``, the renderer behind ``repro serve``'s ``/metrics``.
The scenarios:

* ``protect``: ``repro protect gzip`` with ``--metrics --trace
  --journal``;
* ``protect_labeled``: the same command under ``--label request=ci
  --label tenant=smoke``;
* ``protect_all``: ``repro protect-all --jobs 2`` on a fresh cache
  directory, so pool-worker telemetry is shipped home and merged;
* ``finder``: a serial ``find_gadgets`` over a three-section image
  under ``telemetry_context(request="r1")``, in process.

Only wall-clock and pid values are normalized.  Wall-clock values are
the time keys in :data:`TIME_KEYS` and the sums and buckets of
time-valued histograms.  Pids become ordinals: the
exporting process is ``<pid:0>`` and every pool worker is ``<pid:1>``,
because which worker runs which task is up to the scheduler.
Everything else must match exactly, key order included.

Regenerate after an intentional export change with::

    PYTHONPATH=src python -m tests.telemetry.test_export_golden

which reruns every scenario and rewrites the files under ``golden/``.
"""

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest

from repro import telemetry
from repro.binary import BinaryImage, Perm, Section
from repro.cache import cache_session
from repro.gadgets import find_gadgets
from repro.x86 import Assembler, EAX, EBX, ECX

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: Artifact file names: the three exports, then the Prometheus text
#: rendered from ``metrics.json``.
ARTIFACTS = ("metrics.json", "chrome.json", "journal.jsonl", "metrics.prom")

#: The scenarios; each produces every artifact.
SCENARIOS = ("protect", "protect_labeled", "protect_all", "finder")

#: Scenario artifacts without a golden.  The labeled scenario's
#: Prometheus text, rendered from JSON, sorts every label; the live
#: registry puts a context's base labels first, an order that
#: ``tests/telemetry/test_labels.py`` pins in process.
UNPINNED = {("protect_labeled", "metrics.prom")}

#: JSON keys whose values are wall-clock measurements.
TIME_KEYS = frozenset({
    "start_ts", "duration_s", "ts", "worker_ts", "dur", "elapsed_s",
    "seconds", "start_wall",
})

#: JSON keys whose values are process ids.
PID_KEYS = frozenset({"pid", "worker_pid"})

TIME = "<time>"

_EXPORT_FLAGS = (
    "--metrics", "metrics.json", "--trace", "chrome.json",
    "--journal", "journal.jsonl",
)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def _run_cli(outdir, argv):
    """Run ``python -m repro ARGV`` in ``outdir``; returns (stdout, pid)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=outdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    stdout, stderr = proc.communicate(timeout=600)
    assert proc.returncode == 0, stderr
    return stdout, proc.pid


def _multi_section_image():
    image = BinaryImage("multi")
    a = Assembler()
    a.pop(EAX); a.ret(); a.mov(EBX, EAX); a.ret()
    b = Assembler()
    b.pop(EBX); b.pop(ECX); b.ret(); b.nop(); b.ret()
    c = Assembler()
    c.mov(ECX, EBX); c.ret(); c.pop(EAX); c.ret()
    image.add_section(Section(".text", 0x1000, a.assemble(), Perm.RX))
    image.add_section(Section(".text2", 0x2000, b.assemble(), Perm.RX))
    image.add_section(Section(".text3", 0x3000, c.assemble(), Perm.RX))
    return image


def _run_finder(outdir):
    """``find_gadgets`` under a labeled context, exported the way the
    CLI exports (same writers)."""
    with cache_session(enabled=False), telemetry.telemetry_session(
        recorder=True
    ) as (metrics, tracer):
        with telemetry.telemetry_context(request="r1"):
            find_gadgets(_multi_section_image())
        recorder = telemetry.get_recorder()
        metrics.write_json(os.path.join(outdir, "metrics.json"))
        telemetry.write_chrome_trace(tracer, os.path.join(outdir, "chrome.json"))
        recorder.write_jsonl(os.path.join(outdir, "journal.jsonl"))
    return "", os.getpid()


def run_scenario(name, outdir):
    """Run one scenario into ``outdir``; returns (stdout, exporter pid)."""
    if name == "protect":
        return _run_cli(outdir, ["protect", "gzip", *_EXPORT_FLAGS, "--json"])
    if name == "protect_labeled":
        return _run_cli(outdir, [
            "protect", "gzip", *_EXPORT_FLAGS,
            "--label", "request=ci", "--label", "tenant=smoke", "--json",
        ])
    if name == "protect_all":
        return _run_cli(outdir, [
            "protect-all", "--jobs", "2", "--cache-dir", "cache",
            *_EXPORT_FLAGS,
        ])
    if name == "finder":
        return _run_finder(outdir)
    raise ValueError(name)


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------


def _is_time_family(name):
    return "seconds" in name


class _Normalizer:
    """Replaces wall-clock values with ``<time>`` and pids with ordinals."""

    def __init__(self, exporter_pid):
        self.exporter_pid = exporter_pid

    def pid(self, value):
        return "<pid:0>" if int(value) == self.exporter_pid else "<pid:1>"

    def value(self, obj):
        if isinstance(obj, dict):
            out = {}
            for key, item in obj.items():
                if key in TIME_KEYS and isinstance(item, (int, float)):
                    out[key] = TIME
                elif key in PID_KEYS and isinstance(item, int):
                    out[key] = self.pid(item)
                else:
                    out[key] = self.value(item)
            return out
        if isinstance(obj, list):
            return [self.value(item) for item in obj]
        if isinstance(obj, str):
            return re.sub(
                r"worker (\d+)", lambda m: "worker " + self.pid(m.group(1)), obj
            )
        return obj

    def metrics(self, samples):
        for sample in samples.values():
            if not _is_time_family(sample["name"]):
                continue
            if sample["type"] == "histogram":
                for key in ("sum", "sum_sq", "mean", "stddev", "min", "max"):
                    if key in sample:
                        sample[key] = TIME
                for bucket in sample["buckets"]:
                    bucket["count"] = TIME
            else:
                sample["value"] = TIME
        return samples

    def artifact(self, name, text):
        if name == "metrics.prom":
            lines = []
            for line in text.splitlines():
                family = re.split(r"[{ ]", line, 1)[0]
                if (
                    not line.startswith("#")
                    and _is_time_family(family)
                    and not family.endswith("_count")
                ):
                    line = line.rsplit(" ", 1)[0] + " " + TIME
                lines.append(line)
            return "\n".join(lines) + "\n"
        if name.endswith(".json"):
            obj = self.value(json.loads(text))
            if name == "metrics.json":
                obj = self.metrics(obj)
            return json.dumps(obj, indent=1) + "\n"
        return "".join(
            json.dumps(self.value(json.loads(line))) + "\n"
            for line in text.splitlines()
        )


def _read_artifact(outdir, artifact):
    if artifact == "metrics.prom":
        with open(os.path.join(outdir, "metrics.json")) as fh:
            return telemetry.prometheus_text(json.load(fh))
    with open(os.path.join(outdir, artifact)) as fh:
        return fh.read()


def normalized_artifacts(name, outdir):
    """Run scenario ``name``; returns ({artifact: normalized text}, stdout)."""
    stdout, pid = run_scenario(name, outdir)
    normalizer = _Normalizer(pid)
    out = {}
    for artifact in ARTIFACTS:
        if (name, artifact) not in UNPINNED:
            text = _read_artifact(outdir, artifact)
            out[artifact] = normalizer.artifact(artifact, text)
    return out, stdout


def _golden_path(scenario, artifact):
    return os.path.join(GOLDEN_DIR, scenario, artifact)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def scenario_run(tmp_path_factory):
    """Run each scenario at most once per module."""
    runs = {}

    def get(name):
        if name not in runs:
            outdir = str(tmp_path_factory.mktemp(name))
            runs[name] = normalized_artifacts(name, outdir)
        return runs[name]

    return get


@pytest.mark.parametrize(
    "scenario,artifact",
    [
        (s, a) for s in SCENARIOS for a in ARTIFACTS
        if (s, a) not in UNPINNED
    ],
)
def test_export_matches_golden(scenario, artifact, scenario_run):
    artifacts, _stdout = scenario_run(scenario)
    with open(_golden_path(scenario, artifact)) as fh:
        expected = fh.read()
    actual = artifacts[artifact]
    if actual != expected:
        diff = "".join(list(difflib.unified_diff(
            expected.splitlines(True), actual.splitlines(True),
            "golden", "actual",
        ))[:80])
        pytest.fail(
            f"{scenario}/{artifact} drifted from its golden export:\n{diff}"
        )


def test_protect_trace_nests_stages_under_protect(scenario_run):
    artifacts, _stdout = scenario_run("protect")
    events = json.loads(artifacts["chrome.json"])["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    (protect,) = [e["args"] for e in complete if e["name"] == "protect"]
    for child in ("find_gadgets", "compile_chain", "emit_chain"):
        found = [e["args"] for e in complete if e["name"] == child]
        assert found, child
        assert all(s["parent_id"] == protect["span_id"] for s in found), child


def test_protect_report_preserves_behaviour(scenario_run):
    _artifacts, stdout = scenario_run("protect")
    report = json.loads(stdout)
    assert report["behaviour_preserved"] is True
    assert report["chains"][0]["gadget_addresses"]


def regenerate():
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as outdir:
            artifacts, _stdout = normalized_artifacts(scenario, outdir)
        os.makedirs(os.path.join(GOLDEN_DIR, scenario), exist_ok=True)
        for artifact, text in artifacts.items():
            with open(_golden_path(scenario, artifact), "w") as fh:
                fh.write(text)
        print(f"{scenario}: {', '.join(sorted(artifacts))}")


if __name__ == "__main__":
    regenerate()
