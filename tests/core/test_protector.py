"""The Parallax pipeline end to end (small workloads)."""

import pytest

from repro.core import Parallax, ProtectConfig, ProtectError
from repro.core.protector import GADGETS_BASE, STUBS_BASE


@pytest.mark.parametrize("strategy", ["cleartext", "xor", "rc4", "linear"])
def test_behaviour_preserved(small_wget, small_wget_baseline, strategy):
    config = ProtectConfig(strategy=strategy, verification_functions=["digest_wget"])
    protected = Parallax(config).protect(small_wget)
    result = protected.run()
    assert not result.crashed, result.fault
    assert result.stdout == small_wget_baseline.stdout
    assert result.exit_status == small_wget_baseline.exit_status


def test_protection_overhead_is_confined(small_wget, small_wget_baseline,
                                          protected_wget_cleartext):
    result = protected_wget_cleartext.run()
    # overhead exists but is bounded (tiny workload -> generous cap)
    assert small_wget_baseline.cycles < result.cycles
    assert result.cycles < small_wget_baseline.cycles * 2


def test_report_contents(protected_wget_cleartext):
    report = protected_wget_cleartext.report
    assert report.existing_gadgets > 0
    assert len(report.chains) == 1
    record = report.chains[0]
    assert record.function == "digest_wget"
    assert record.word_count > 10
    assert record.stub_addr == STUBS_BASE
    assert "digest_wget" in report.summary()


def test_report_carries_coverage_inputs(protected_wget_cleartext):
    """The report must record what was protected and which bytes each
    chain's gadgets span — the inputs the coverage map is built from."""
    report = protected_wget_cleartext.report
    assert report.protected_addresses
    assert report.protected_addresses == sorted(set(report.protected_addresses))
    record = report.chains[0]
    assert record.gadget_spans
    assert set(record.gadget_spans) <= set(record.gadget_addresses)
    for address, end in record.gadget_spans.items():
        assert end > address
    assert set(record.guarded_bytes()) == {
        b for a, e in record.gadget_spans.items() for b in range(a, e)
    }
    payload = report.to_dict()
    assert payload["protected_ranges"]
    assert payload["chains"][0]["gadget_spans"]


def test_chain_prefers_overlapping_gadgets(protected_wget_cleartext):
    record = protected_wget_cleartext.report.chains[0]
    assert record.overlapping_used > 0


def test_entry_redirected(small_wget, protected_wget_cleartext):
    image = protected_wget_cleartext.image
    entry = image.read(image.symbols["digest_wget"].vaddr, 1)
    assert entry == b"\xe9"  # jmp to the stub


def test_sections_added(protected_wget_rc4):
    image = protected_wget_rc4.image
    for name in (".stubs", ".ropdata", ".ropchains", ".ropcenc", ".parallaxrt"):
        assert image.has_section(name), name


def test_unknown_function_rejected(small_wget):
    config = ProtectConfig(verification_functions=["no_such_fn"])
    with pytest.raises(ProtectError):
        Parallax(config).protect(small_wget)


def test_auto_selection_path(small_wget, small_wget_baseline):
    protected = Parallax(ProtectConfig(strategy="cleartext")).protect(small_wget)
    assert protected.report.chains[0].function == "digest_wget"
    result = protected.run()
    assert result.stdout == small_wget_baseline.stdout


def test_linear_strategy_probabilistic(protected_wget_linear, small_wget_baseline):
    # several runs regenerate different variants but always compute right
    for _ in range(3):
        result = protected_wget_linear.run()
        assert not result.crashed
        assert result.stdout == small_wget_baseline.stdout
    record = protected_wget_linear.report.chains[0]
    assert record.variants == 4


def test_config_validation():
    with pytest.raises(ValueError):
        ProtectConfig(strategy="rot13")
