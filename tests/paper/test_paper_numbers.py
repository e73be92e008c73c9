"""The reproduction's paper numbers, frozen as one exact golden.

Emulator cycle counts are deterministic, so every number this
reproduction reports for the paper's evaluation is an exact integer:

* Fig. 5a — cycles of one ``digest_<program>`` call, native and under
  each hardening strategy, for the six corpus programs;
* Fig. 5b — whole-run cycles, baseline and protected, same 24 pairs;
* Fig. 6 — protectable ``.text`` bytes per rewriting rule and any rule;
* §V-C — per-call cycles of function chains vs µ-chains;
* §V-B — gadget-set sizes and the variant space of probabilistic chains;
* §III — overlapping-gadget uses with and without the preference;
* the ``repro coverage wget`` summary;
* the §VI / §IX attack matrix of ``benchmarks/bench_attack_matrix.py``:
  verdicts and detection-latency stamps.

The ``numbers`` fixture computes each once per module; the tests
compare them exactly with ``golden.json`` next to this file and assert
the paper's shape claims over the same values.  Ratios (slowdowns,
overhead percentages, Fig. 6 shares) are derived from the stored
integers, never stored.  A deliberate change to any number regenerates
the golden and prints the paper's tables::

    PYTHONPATH=src python -m tests.paper.test_paper_numbers

so the golden diff shows what moved.
"""

import difflib
import importlib
import json
import os

import pytest

from repro.core import Parallax, ProtectConfig, STRATEGIES, protect_microchains
from repro.corpus import (
    PROGRAM_NAMES,
    build_gzip,
    build_lame,
    build_program_cached,
    build_wget,
)
from repro.coverage import build_coverage
from repro.emu import Emulator
from repro.rewrite import RewriteEngine, format_fig6_table
from repro.rewrite.report import FIG6_RULES

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
BENCHMARKS = os.path.abspath(os.path.join(HERE, "..", "..", "benchmarks"))
REGEN = "PYTHONPATH=src python -m tests.paper.test_paper_numbers"

#: Every emulation runs on the block engine, the fast path.
ENGINE = "block"
#: Step budget of one whole Fig. 5b run.
RUN_STEPS = 300_000_000
#: Step budget of one verification-function call.
CALL_STEPS = 20_000_000

#: The small programs of the §V-C, §V-B and §III ablations.
SMALL_BUILDERS = {
    "wget": lambda: build_wget(blocks=2, chunks=10),
    "gzip": lambda: build_gzip(blocks=2, positions=6),
    "lame": lambda: build_lame(blocks=2, frames=6),
}


def call_cycles(program, image, function):
    """Cycles of one call of ``function`` on ``image``."""
    emulator = Emulator(image, max_steps=CALL_STEPS, engine=ENGINE)
    before = emulator.cycles
    emulator.call_function(
        image.symbols[function].vaddr, [12345, 7, program.data.addr("stats")]
    )
    return emulator.cycles - before


def protect(program, strategy="cleartext", **options):
    """``program`` with its ``digest_<name>`` translated into a chain."""
    config = ProtectConfig(
        strategy=strategy,
        verification_functions=[f"digest_{program.name}"],
        **options,
    )
    return Parallax(config).protect(program)


def measure_fig5():
    """Fig. 5a call cycles and Fig. 5b run cycles, program -> column."""
    fig5a, fig5b = {}, {}
    for name in PROGRAM_NAMES:
        program = build_program_cached(name)
        digest = f"digest_{name}"
        baseline = program.run(max_steps=RUN_STEPS, engine=ENGINE)
        assert not baseline.crashed, (name, baseline.fault)
        fig5a[name] = {"native": call_cycles(program, program.image, digest)}
        fig5b[name] = {"baseline": baseline.cycles}
        for strategy in STRATEGIES:
            protected = protect(program, strategy)
            fig5a[name][strategy] = call_cycles(program, protected.image, digest)
            run = protected.run(max_steps=RUN_STEPS, engine=ENGINE)
            divergence = run.divergence(baseline)
            assert divergence is None, (name, strategy, divergence)
            fig5b[name][strategy] = run.cycles
    return fig5a, fig5b


def fig6_reports():
    engine = RewriteEngine()
    return [
        engine.analyze(build_program_cached(name).image).report
        for name in PROGRAM_NAMES
    ]


def fig6_row(report):
    row = {rule: len(report.rule(rule)) for rule in FIG6_RULES}
    row["any"] = len(report.any_bytes())
    row["text_bytes"] = report.total_code_bytes
    return row


def measure_ablations():
    """§V-C, §V-B and §III.  The small wget's cleartext function chain
    is the §V-C function chain, the §V-B deterministic chain and the
    §III chain with the preference on."""
    microchains = {}
    for name, build in SMALL_BUILDERS.items():
        program = build()
        digest = f"digest_{name}"
        baseline = program.run()
        func = protect(program)
        micro = protect_microchains(program, digest)
        result = micro.run()
        assert not result.crashed and result.stdout == baseline.stdout, name
        microchains[name] = {
            "native": call_cycles(program, program.image, digest),
            "function_chain": call_cycles(program, func.image, digest),
            "microchains": call_cycles(program, micro.image, digest),
            "chain_count": micro.chain_count,
        }
        if name == "wget":
            wget, single = program, func.report.chains[0]

    prob = protect(wget, "linear").report.chains[0]
    variant_space = {
        "deterministic_gadgets": len(set(single.gadget_addresses)),
        "probabilistic_gadgets": len(set(prob.gadget_addresses)),
        "variants": prob.variants,
        "words": prob.word_count,
    }
    # protect_addresses=[] marks nothing, so nothing is preferred
    without = protect(wget, protect_addresses=[]).report.chains[0]
    overlap = {
        "with_preference": single.overlapping_used,
        "without_preference": without.overlapping_used,
    }
    return microchains, variant_space, overlap


def measure_coverage_wget():
    """The summary of ``repro coverage wget`` (auto-selected chain)."""
    protected = Parallax(ProtectConfig()).protect(build_program_cached("wget"))
    coverage = build_coverage(protected.image, protected.report)
    return {
        "protected_bytes": coverage.protected_bytes,
        "covered_bytes": coverage.covered_bytes,
        "spof_bytes": len(coverage.spof_addresses()),
        "rule_breakdown": dict(coverage.rule_breakdown),
    }


def measure_attack_matrix():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_BENCH_HISTORY", "")
        patch.syspath_prepend(BENCHMARKS)
        bench = importlib.import_module("bench_attack_matrix")
    cells, _coverage = bench.run_matrix()
    return {
        label: {
            kind: {
                "detected": outcome.detected,
                "cycles_to_corruption": outcome.cycles_to_corruption,
                "cycles_to_detection": outcome.cycles_to_detection,
            }
            for kind, outcome in zip(("static", "wurster"), pair)
        }
        for label, pair in cells.items()
    }


def measure():
    """Every golden number, plus the Fig. 6 reports for the table."""
    fig5a, fig5b = measure_fig5()
    reports = fig6_reports()
    microchains, variant_space, overlap = measure_ablations()
    numbers = {
        "fig5a_call_cycles": fig5a,
        "fig5b_run_cycles": fig5b,
        "fig6_bytes": {r.program: fig6_row(r) for r in reports},
        "microchains": microchains,
        "variant_space": variant_space,
        "overlap_preference": overlap,
        "coverage_wget": measure_coverage_wget(),
        "attack_matrix": measure_attack_matrix(),
    }
    return numbers, reports


def dumps(numbers):
    return json.dumps(numbers, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Ratios derived from the raw numbers
# ----------------------------------------------------------------------


def slowdown(numbers, name):
    """Fig. 5a: strategy -> chain call cycles / native call cycles."""
    row = numbers["fig5a_call_cycles"][name]
    return {s: row[s] / row["native"] for s in STRATEGIES}


def overhead_pct(numbers, name):
    """Fig. 5b: strategy -> protected run's extra cycles, in percent."""
    row = numbers["fig5b_run_cycles"][name]
    return {s: 100.0 * (row[s] / row["baseline"] - 1) for s in STRATEGIES}


def fig6_pct(numbers, name):
    """Fig. 6: rule (and "any") -> percent of .text bytes."""
    row = numbers["fig6_bytes"][name]
    return {
        rule: 100.0 * row[rule] / row["text_bytes"]
        for rule in FIG6_RULES + ("any",)
    }


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def numbers():
    return measure()[0]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


SECTIONS = (
    "fig5a_call_cycles",
    "fig5b_run_cycles",
    "fig6_bytes",
    "microchains",
    "variant_space",
    "overlap_preference",
    "coverage_wget",
    "attack_matrix",
)


def test_golden_has_exactly_the_measured_sections(numbers, golden):
    assert sorted(numbers) == sorted(SECTIONS)
    assert sorted(golden) == sorted(SECTIONS), f"regenerate with: {REGEN}"


@pytest.mark.parametrize("section", SECTIONS)
def test_numbers_match_golden(section, numbers, golden):
    expected = dumps(golden.get(section))
    actual = dumps(numbers[section])
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(True), actual.splitlines(True),
            "golden", "measured",
        ))
        pytest.fail(
            f"{section} drifted from tests/paper/golden.json:\n{diff}\n"
            "If the change is intended, regenerate the golden and say why "
            f"in the commit: {REGEN}"
        )


def test_fig5a_shape(numbers):
    clear = {}
    for name in PROGRAM_NAMES:
        row = slowdown(numbers, name)
        assert row["cleartext"] > 3.0, name          # chains are much slower...
        assert row["rc4"] > row["cleartext"], name   # ...and RC4 slower still
        assert row["xor"] >= row["cleartext"], name
        clear[name] = row["cleartext"]
    assert max(clear, key=clear.get) == "wget"  # paper: wget 46.7x (top)
    assert min(clear, key=clear.get) == "gcc"   # paper: gcc 3.7x (bottom)


def test_fig5b_shape(numbers):
    clear = {}
    for name in PROGRAM_NAMES:
        row = overhead_pct(numbers, name)
        for strategy, overhead in row.items():
            assert overhead < 5.0, (name, strategy, overhead)  # paper: < 4%
        assert row["cleartext"] <= row["rc4"], name
        clear[name] = row["cleartext"]
    assert min(clear, key=clear.get) == "gcc"  # paper: gcc cheapest (0.1%)


def test_fig6_shape(numbers):
    by_any = {}
    for name in PROGRAM_NAMES:
        row = fig6_pct(numbers, name)
        assert 2.0 <= row["existing_near_ret"] <= 8.0, name
        assert row["far_ret"] <= 1.5, name
        assert 35.0 <= row["immediate_mod"] <= 75.0, name
        assert 55.0 <= row["any"] <= 92.0, name
        by_any[name] = row["any"]
    assert max(by_any, key=by_any.get) == "gcc"   # paper: gcc 90% (top)
    assert min(by_any, key=by_any.get) == "lame"  # paper: lame 63% (bottom)


def test_microchains_cost_more_than_function_chains(numbers):
    # §V-C: every µ-chain pays its own prologue and epilogue
    for name, row in numbers["microchains"].items():
        assert row["microchains"] > row["function_chain"] * 1.3, name


def test_probabilistic_chains_verify_a_larger_gadget_set(numbers):
    space = numbers["variant_space"]
    assert space["probabilistic_gadgets"] > space["deterministic_gadgets"]
    assert space["variants"] ** space["words"] > 10**6


def test_overlapping_gadgets_are_preferred(numbers):
    overlap = numbers["overlap_preference"]
    assert overlap["with_preference"] > overlap["without_preference"]


# ----------------------------------------------------------------------
# Regeneration
# ----------------------------------------------------------------------


def print_tables(numbers, reports):
    header = f"{'program':<8}" + "".join(f"{s:>12}" for s in STRATEGIES)
    print("=== Figure 5a: verification function slowdown (x) ===")
    print(header)
    for name in PROGRAM_NAMES:
        row = slowdown(numbers, name)
        print(f"{name:<8}" + "".join(f"{row[s]:>11.1f}x" for s in STRATEGIES))
    print()
    print("=== Figure 5b: whole-program overhead (%) ===")
    print(header)
    for name in PROGRAM_NAMES:
        row = overhead_pct(numbers, name)
        print(f"{name:<8}" + "".join(f"{row[s]:>11.2f}%" for s in STRATEGIES))
    print()
    print("=== Figure 6: protectable code bytes (percent of .text) ===")
    print(format_fig6_table(reports))
    print()
    print("=== §V-C: function chains vs µ-chains (measured, per call) ===")
    print(f"{'program':<8}{'native':>8}{'func chain':>12}{'µ-chains':>10}"
          f"{'µ/func':>8}{'count':>7}")
    for name, row in numbers["microchains"].items():
        func, micro = row["function_chain"], row["microchains"]
        print(f"{name:<8}{row['native']:>8}{func:>12}{micro:>10}"
              f"{micro / func:>7.2f}x{row['chain_count']:>7}")
    print()
    space = numbers["variant_space"]
    variants, words = space["variants"], space["words"]
    print("=== §V-B variant space ===")
    print(f"deterministic chain gadget set : {space['deterministic_gadgets']}")
    print(f"probabilistic  chain gadget set: {space['probabilistic_gadgets']} "
          f"(across {variants} variants)")
    print(f"variant space upper bound      : {variants}^{words} = "
          f"{float(variants**words):.2e}")
    print()
    overlap = numbers["overlap_preference"]
    print("=== §III ablation: overlapping-gadget preference ===")
    print(f"overlapping gadget uses with preference   : "
          f"{overlap['with_preference']}")
    print(f"overlapping gadget uses without preference: "
          f"{overlap['without_preference']}")


def regenerate():
    numbers, reports = measure()
    with open(GOLDEN, "w") as fh:
        fh.write(dumps(numbers))
    print_tables(numbers, reports)
    print()
    print(f"wrote {os.path.relpath(GOLDEN)}")


if __name__ == "__main__":
    regenerate()
