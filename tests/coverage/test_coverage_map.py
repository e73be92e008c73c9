"""The static half of the integrity observatory: coverage maps.

The load-bearing property is *byte accuracy*: the map's covered set
must equal, byte for byte, the union of the chain records' gadget
spans intersected with the protected set — no more, no less — and the
RLE ``byte_map`` serialization must reconstruct it exactly.
"""

import json

import pytest

from repro.core.report import coalesce_addresses
from repro.coverage import CoverageMap, build_coverage
from repro.coverage.render import render_coverage
from repro.rewrite.report import FIG6_RULES


@pytest.fixture(scope="module")
def coverage(protected_wget_cleartext):
    return build_coverage(
        protected_wget_cleartext.image, protected_wget_cleartext.report
    )


# ----------------------------------------------------------------------
# Byte accuracy vs the protection report
# ----------------------------------------------------------------------

def test_covered_set_matches_report_exactly(protected_wget_cleartext, coverage):
    """Recompute coverage independently from the raw ChainRecord spans
    and require byte-for-byte equality with the map."""
    report = protected_wget_cleartext.report
    protected = set(report.protected_addresses)
    expected = {}
    for index, record in enumerate(report.chains):
        for address, end in record.gadget_spans.items():
            for byte in range(address, end):
                if byte in protected:
                    expected.setdefault(byte, set()).add(index)

    assert set(coverage.depth) == set(expected)
    for byte, chains in expected.items():
        assert coverage.chains_at[byte] == tuple(sorted(chains))
        assert coverage.depth[byte] == len(chains)
    # nothing outside the protected set ever counts as covered
    assert set(coverage.depth) <= protected


def test_aggregate_identities(coverage):
    assert coverage.protected_bytes == len(coverage.protected)
    assert coverage.covered_bytes == len(coverage.depth)
    assert coverage.covered_bytes + len(coverage.uncovered_addresses()) \
        == coverage.protected_bytes
    assert 0.0 <= coverage.coverage_fraction <= 1.0
    # SPOF bytes are exactly the depth-1 subset of covered bytes
    spof = coverage.spof_addresses()
    assert all(coverage.depth[b] == 1 for b in spof)
    assert set(spof) <= set(coverage.depth)
    if coverage.covered_bytes:
        assert coverage.overlap_density >= 1.0


def test_wget_has_real_coverage(coverage):
    # the premise of the paper: the chain's gadgets DO overlap code
    assert coverage.protected_bytes > 0
    assert coverage.covered_bytes > 0
    assert coverage.spof_addresses()  # single chain => everything SPOF
    assert coverage.overlap_density == pytest.approx(1.0)


def test_byte_map_rle_reconstructs_exactly(coverage):
    reconstructed = {}
    total = 0
    for start, length, depth, chains in coverage.byte_map():
        assert length > 0
        assert depth == len(chains)
        for byte in range(start, start + length):
            assert byte not in reconstructed  # rows never overlap
            reconstructed[byte] = tuple(chains)
        total += length
    assert total == coverage.protected_bytes
    for byte in coverage.protected:
        assert reconstructed[byte] == coverage.chains_at.get(byte, ())


def test_function_rollup_sums_to_totals(protected_wget_cleartext, coverage):
    """Per-function stats sum to the map totals restricted to symbol
    spans (bytes protected in emitted, symbol-less sections — e.g. the
    gadget section — appear only in the image-level totals)."""
    functions = coverage.functions()
    assert functions

    in_symbols = set()
    for sym in protected_wget_cleartext.image.symbols.functions():
        in_symbols.update(range(sym.vaddr, sym.end))
    protected = [b for b in coverage.protected if b in in_symbols]
    covered = [b for b in coverage.depth if b in in_symbols]
    spof = [b for b in coverage.spof_addresses() if b in in_symbols]

    assert sum(f.protected_bytes for f in functions) == len(protected)
    assert sum(f.covered_bytes for f in functions) == len(covered)
    assert sum(f.spof_bytes for f in functions) == len(spof)
    for f in functions:
        assert 0.0 <= f.coverage_fraction <= 1.0


def test_regions_coalesce(coverage):
    regions = coverage.uncovered_regions()  # (start, length) runs
    assert sum(length for _, length in regions) \
        == len(coverage.uncovered_addresses())
    # coalesce_addresses gives maximal, disjoint, sorted runs
    assert regions == coalesce_addresses(coverage.uncovered_addresses())
    for (s1, l1), (s2, _) in zip(regions, regions[1:]):
        assert s1 + l1 < s2  # maximal: a gap separates adjacent runs


# ----------------------------------------------------------------------
# Rule classification
# ----------------------------------------------------------------------

def test_rule_breakdown_uses_fig6_rules(coverage):
    assert coverage.rule_breakdown  # cleartext chains use real gadgets
    assert set(coverage.rule_breakdown) <= set(FIG6_RULES)
    # a rule can never guard more bytes than are covered at all
    for count in coverage.rule_breakdown.values():
        assert 0 < count <= coverage.covered_bytes


def test_classification_is_optional(protected_wget_cleartext):
    plain = build_coverage(
        protected_wget_cleartext.image,
        protected_wget_cleartext.report,
        classify_rules=False,
    )
    assert plain.rule_breakdown == {}
    # coverage numbers are identical with classification off
    full = build_coverage(
        protected_wget_cleartext.image, protected_wget_cleartext.report
    )
    assert plain.depth == full.depth


# ----------------------------------------------------------------------
# Serialization + artifact sniffing
# ----------------------------------------------------------------------

def test_to_dict_schema(coverage):
    payload = json.loads(coverage.to_json())
    assert payload["type"] == "coverage"
    assert payload["program"] == "wget"
    assert payload["protected_bytes"] == coverage.protected_bytes
    assert payload["covered_bytes"] == coverage.covered_bytes
    assert payload["spof_bytes"] == len(coverage.spof_addresses())
    assert payload["uncovered_bytes"] \
        == coverage.protected_bytes - coverage.covered_bytes
    assert payload["chains"] == coverage.chain_names
    assert len(payload["byte_map"]) == len(coverage.byte_map())
    assert payload["functions"]


def test_load_artifact_sniffs_coverage(tmp_path, coverage):
    from repro.telemetry import load_artifact, render_stats

    path = tmp_path / "cov.json"
    path.write_text(coverage.to_json())
    kind, payload = load_artifact(str(path))
    assert kind == "coverage"
    rendered = render_stats(kind, payload)
    assert "protected bytes" in rendered
    assert "wget" in rendered


# ----------------------------------------------------------------------
# Renderer
# ----------------------------------------------------------------------

def test_render_marks_spof_and_uncovered(protected_wget_cleartext, coverage):
    text = render_coverage(coverage)
    assert "Coverage map: wget" in text
    assert "!SPOF" in text
    assert "!UNCOVERED" in text
    assert coverage.chain_names[0] in text

