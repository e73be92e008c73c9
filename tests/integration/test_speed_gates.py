"""The speed gates (benchmarks/bench_speed_gates.py): exit 0 at each
threshold, 1 just below it or on any differential mismatch, with the
three measurements stubbed."""

import importlib
import json
import os
import sys

import pytest

BENCHMARKS = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
)

#: A run signature; the stubs below make engines agree on it unless told not to.
SIGNATURE = (0, 1000, 2000, "6f6b", "None")


@pytest.fixture
def gate(monkeypatch, tmp_path):
    """The script, imported with its history disabled, writing its JSON
    under ``tmp_path``, with every measurement stubbed at its threshold."""
    monkeypatch.setenv("REPRO_BENCH_HISTORY", "")
    monkeypatch.syspath_prepend(BENCHMARKS)
    for name in ("_shared", "bench_speed_gates"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    module = importlib.import_module("bench_speed_gates")
    monkeypatch.setattr(module, "OUTPUT", str(tmp_path / "gates.json"))
    stub(monkeypatch, module)
    return module


def stub(monkeypatch, gate, engines=None, diverged=None, finder=2.0,
         finder_sets=("a", "a"), warm=5.0, warm_requests=1024,
         statuses=None):
    """Stub the three measurements.  ``engines`` maps a workload to its
    block/step speedup (2.0 by default); ``diverged`` is the (program,
    workload) whose block-engine signature differs; ``finder`` is the
    memoized/reference speedup and ``finder_sets`` the two gadget
    fingerprints; ``warm`` is warm/cold req/s; ``statuses`` the warm
    pass's HTTP statuses."""
    speedups = {"chain": 2.0, "program": 2.0, "profile": 2.0, **(engines or {})}

    def measure_engines(name):
        rows = {}
        for kind, speedup in speedups.items():
            block = [SIGNATURE]
            if (name, kind) == diverged:
                block = [SIGNATURE[:1] + (1001,) + SIGNATURE[2:]]
            rows[kind] = ({"step": 1000.0, "block": 1000.0 * speedup},
                          {"step": [SIGNATURE], "block": block})
        return rows

    def measure_finder(name):
        reference, memoized = (list(fp) for fp in finder_sets)
        return 4096, {"reference": (finder, reference), "memoized": (1.0, memoized)}

    def measure_serve():
        def one(requests, rps, codes):
            return {"requests": requests, "wall_s": requests / rps,
                    "req_per_s": rps, "statuses": codes, "roles": {}}
        return {"cold": one(128, 100.0, {200: 128}),
                "warm": one(warm_requests, 100.0 * warm,
                            statuses or {200: warm_requests})}

    monkeypatch.setattr(gate, "measure_engines", measure_engines)
    monkeypatch.setattr(gate, "measure_finder", measure_finder)
    monkeypatch.setattr(gate, "measure_serve", measure_serve)


def test_thresholds_and_program_lists(gate):
    assert (gate.MIN_ENGINE_SPEEDUP, gate.MIN_FINDER_SPEEDUP,
            gate.MIN_WARM_SPEEDUP) == (2.0, 2.0, 5.0)
    assert gate.ENGINE_PROGRAMS == ("wget", "nginx", "bzip2", "gzip")
    assert gate.FINDER_PROGRAMS == ("gzip", "wget")
    assert (gate.SERVE_CONCURRENCY, gate.WARM_REQUESTS) == (64, 1000)


def test_every_gate_at_its_threshold_passes(gate, capsys):
    assert gate.main() == 0
    payload = json.loads(open(gate.OUTPUT).read())
    assert payload["engines"]["speedup_geomean"] == {
        "chain": 2.0, "program": 2.0, "profile": 2.0,
    }
    assert set(payload["engines"]["programs"]) == set(gate.ENGINE_PROGRAMS)
    assert payload["finder"]["speedup_geomean"] == 2.0
    assert set(payload["finder"]["programs"]) == set(gate.FINDER_PROGRAMS)
    assert payload["serve"]["warm_speedup"] == 5.0
    assert "ERROR" not in capsys.readouterr().out


@pytest.mark.parametrize("case", [
    {"engines": {"chain": 1.99}},
    {"engines": {"program": 1.99}},
    {"engines": {"profile": 1.99}},
    {"finder": 1.99},
    {"warm": 4.99},
], ids=["chain", "program", "profile", "finder", "serve"])
def test_just_below_a_threshold_fails(monkeypatch, gate, capsys, case):
    stub(monkeypatch, gate, **case)
    assert gate.main() == 1
    assert "below required" in capsys.readouterr().out


@pytest.mark.parametrize("case, message", [
    ({"diverged": ("nginx", "profile")}, "engines diverged on nginx (profile)"),
    ({"diverged": ("gzip", "chain")}, "engines diverged on gzip (chain)"),
    ({"finder_sets": ("a", "b")}, "diverged from the reference on gzip"),
    ({"finder_sets": ("", "")}, "no gadgets found in wget"),
    ({"statuses": {200: 1023, 500: 1}}, "non-200 warm responses"),
    ({"warm_requests": 999}, "fewer than 1000"),
], ids=["engine-signature", "chain-signature", "finder-set", "empty-set",
        "non-200", "short-warm-pass"])
def test_a_differential_mismatch_fails(monkeypatch, gate, capsys, case, message):
    stub(monkeypatch, gate, **case)
    assert gate.main() == 1
    assert message in capsys.readouterr().out


def test_history_keeps_the_regression_gate_keys(monkeypatch, gate, tmp_path):
    """``check_regression.py --bench emulator|gadget_finder|serve``
    reads these keys."""
    monkeypatch.setattr(gate._shared, "HISTORY_DIR", str(tmp_path / "h"))
    assert gate.main() == 0

    def keys(bench):
        with open(tmp_path / "h" / f"{bench}.jsonl") as fh:
            return set(json.loads(fh.readline())["metrics"])

    assert keys("emulator") == {
        f"{name}.{kind}.{engine}_ips"
        for name in ("wget", "nginx", "bzip2", "gzip")
        for kind in ("chain", "program", "profile")
        for engine in ("step", "block")
    } | {f"{kind}_speedup_geomean" for kind in ("chain", "program", "profile")}
    assert keys("gadget_finder") == {
        "gzip.optimized_bytes_per_s", "gzip.speedup",
        "wget.optimized_bytes_per_s", "wget.speedup", "speedup_geomean",
    }
    assert keys("serve") == {"c64.cold_rps", "c64.warm_rps", "c64.warm_speedup"}
