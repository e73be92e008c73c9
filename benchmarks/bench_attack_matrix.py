"""§VI / §IX — the attack matrix, with detection-latency columns.

Static tampering vs the Wurster instruction-cache attack, against an
unprotected binary, self-checksumming, and Parallax.  Expected:

=============  ============  =======================
scheme         static patch  wurster i-cache patch
=============  ============  =======================
unprotected    undetected    undetected
checksumming   DETECTED      undetected  <- Wurster's result
parallax       DETECTED      DETECTED    <- the paper's contribution
=============  ============  =======================

Each detected cell also reports ``cycles_to_corruption`` (tamper ->
first execution of tampered bytes) and ``cycles_to_detection`` (tamper
-> externally observable failure), stamped by the emulator's
:class:`~repro.emu.TamperWatch`.  The Parallax rows tag the tampered
gadget's Fig. 6 rewrite rule so the telemetry histograms get one
``attacks.cycles_to_detection{attack=...,rule=...}`` labeled cell per
combination.

Alongside the matrix the benchmark measures Parallax's protection
coverage (fraction of protected bytes guarded by at least one chain)
and appends both to ``benchmarks/history/attack_matrix.jsonl``:
``coverage_percent`` directly and the latency as ``detection_speed``
(reciprocal geomean, so higher is better — the regression gate assumes
that).  Raw geomeans land in ``BENCH_attack_matrix.json``.
"""

import json
import math
import os

from repro.attacks import evaluate_patch_attack, evaluate_wurster_attack
from repro.baselines import ChecksummedProgram
from repro.binary import Patch
from repro.core import Parallax, ProtectConfig
from repro.corpus import build_gzip
from repro.coverage import build_coverage
from repro.rewrite import RewriteEngine

import _shared

COLD_FUNCTION = "gz_fill_005"

OUTPUT = os.environ.get(
    "REPRO_BENCH_ATTACK_MATRIX",
    os.path.join(os.path.dirname(__file__), "BENCH_attack_matrix.json"),
)


def _setting():
    program = build_gzip(blocks=2, positions=6)
    goal = program.run()
    cold = program.image.symbols[COLD_FUNCTION]
    parallax = Parallax(
        ProtectConfig(
            strategy="cleartext",
            verification_functions=["digest_gzip"],
            protect_addresses=list(range(cold.vaddr, cold.end)),
        )
    ).protect(program)
    checksummed = ChecksummedProgram(build_gzip(blocks=2, positions=6), guards=3)
    return program, goal, parallax, checksummed


def _patch(image, protected=None):
    symbol = image.symbols[COLD_FUNCTION]
    if protected is not None:
        addr = next(
            a for a in protected.report.chains[0].gadget_addresses
            if symbol.vaddr <= a < symbol.end
        )
    else:
        addr = symbol.vaddr + 8
    old = image.read(addr, 1)
    return Patch(addr, old, bytes([old[0] ^ 0xFF]))


def _geomean(values):
    values = [v for v in values if v]
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _fmt_cycles(value):
    return f"{value:,}" if value is not None else "-"


def run_matrix():
    """Build, protect, attack: returns (matrix cells, coverage map)."""
    program, goal, parallax, checksummed = _setting()
    rules = RewriteEngine().classify_gadgets(parallax.image)
    coverage = build_coverage(
        parallax.image, parallax.report, classify_rules=False
    )
    cells = {}
    for label, image, prot in (
        ("unprotected", program.image, None),
        ("checksumming", checksummed.image, None),
        ("parallax", parallax.image, parallax),
    ):
        patch = _patch(image, prot)
        rule = rules.get(patch.vaddr) if prot is not None else None
        cells[label] = (
            evaluate_patch_attack(image, [patch], goal, label, rule=rule),
            evaluate_wurster_attack(image, [patch], goal, label, rule=rule),
        )
    return cells, coverage


def test_attack_matrix(benchmark):
    cells, coverage = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    assert gate_failures(_report(cells, coverage)) == []


def _report(cells, coverage):
    """Print the matrix, write the artifact and history; return the
    artifact payload."""
    print()
    print("=== Attack matrix: detected? / cycles to corruption / detection ===")
    for label, (static, wurster) in cells.items():
        for kind, outcome in (("static", static), ("wurster", wurster)):
            verdict = "DETECTED" if outcome.detected else "undetected"
            print(
                f"{label:<14} {kind:<8} {verdict:<11} "
                f"corruption={_fmt_cycles(outcome.cycles_to_corruption):>12} "
                f"detection={_fmt_cycles(outcome.cycles_to_detection):>12}"
            )
    coverage_percent = 100.0 * coverage.coverage_fraction
    print(f"parallax coverage: {coverage.covered_bytes}/"
          f"{coverage.protected_bytes} protected bytes "
          f"({coverage_percent:.1f}%), {len(coverage.spof_addresses())} SPOF")

    detected = [
        o for pair in cells.values() for o in pair if o.detected
    ]
    detection_geomean = _geomean([o.cycles_to_detection for o in detected])
    corruption_geomean = _geomean(
        [o.cycles_to_corruption for o in detected
         if o.cycles_to_corruption is not None]
    )

    payload = {
        "matrix": {
            label: {
                "static": pair[0].to_dict(),
                "wurster": pair[1].to_dict(),
            }
            for label, pair in cells.items()
        },
        "coverage_percent": round(coverage_percent, 3),
        "spof_bytes": len(coverage.spof_addresses()),
        "cycles_to_detection_geomean": detection_geomean,
        "cycles_to_corruption_geomean": corruption_geomean,
    }
    if OUTPUT:
        with open(OUTPUT, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    history = {"coverage_percent": coverage_percent}
    if detection_geomean:
        # The regression gate wants higher-is-better: record the
        # reciprocal (detections per emulated gigacycle).
        history["detection_speed"] = 1e9 / detection_geomean
    _shared.record_history("attack_matrix", history)
    return payload


#: scheme -> (static detected, wurster detected), the table above.
EXPECTED_ROWS = {
    "unprotected": (False, False),
    "checksumming": (True, False),   # Wurster defeats it
    "parallax": (True, True),        # Parallax does not care
}


def gate_failures(payload):
    """Why ``payload`` fails its gates; empty when it passes.

    Every scheme must match the expected table, every detected attack
    must carry a finite, non-negative latency stamp, and coverage and
    the detection-latency geomean must be positive.
    """
    failures = []
    for label, cells in payload["matrix"].items():
        row = (cells["static"]["detected"], cells["wurster"]["detected"])
        if row != EXPECTED_ROWS[label]:
            failures.append(
                f"{label}: detected {row}, expected {EXPECTED_ROWS[label]}"
            )
        for attack, outcome in cells.items():
            latency = outcome["cycles_to_detection"]
            if outcome["detected"] and (latency is None or latency < 0):
                failures.append(
                    f"{label}/{attack}: detected with latency {latency}, "
                    "expected a stamp >= 0"
                )
    if not payload["coverage_percent"] > 0:
        failures.append("parallax covers no protected byte")
    if not (payload["cycles_to_detection_geomean"] or 0) > 0:
        failures.append("no positive detection-latency geomean")
    return failures


def main() -> int:
    """Standalone entry (no pytest-benchmark): run once, report,
    append history, exit 1 on a failed gate — used by the CI jobs so
    the regression gate always compares against a fresh same-job
    candidate."""
    failures = gate_failures(_report(*run_matrix()))
    for failure in failures:
        print(f"ERROR: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
