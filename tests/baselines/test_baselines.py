"""Checksumming and oblivious-hashing baselines."""

import pytest

from repro.attacks import evaluate_attack, run_tampered, stub_out_function
from repro.baselines import ChecksummedProgram, OHProgram


@pytest.fixture(scope="module")
def gzip_small():
    from repro.corpus import build_gzip
    return build_gzip(blocks=2, positions=6)


@pytest.fixture(scope="module")
def gzip_baseline(gzip_small):
    return gzip_small.run()


@pytest.fixture(scope="module")
def checksummed(gzip_small):
    return ChecksummedProgram(gzip_small, guards=3)


def test_checksummed_behaviour_preserved(checksummed, gzip_baseline):
    result = checksummed.run()
    assert not result.crashed
    assert result.stdout == gzip_baseline.stdout


def test_checksumming_detects_static_tamper(checksummed, gzip_baseline):
    patch = stub_out_function(checksummed.image, "checksum_words", 0)
    outcome = evaluate_attack(checksummed.image, [patch], gzip_baseline, "static")
    assert outcome.detected
    assert outcome.run.exit_status == 66  # the guard fired


def test_wurster_defeats_checksumming(checksummed, gzip_baseline):
    """The headline negative result: i-cache tampering sails through."""
    patch = stub_out_function(checksummed.image, "lz_match_len", 0)
    run = run_tampered(checksummed.image, [patch], code_view=True).run
    assert not run.crashed
    assert run.exit_status != 66          # guards never fire
    assert run.stdout != gzip_baseline.stdout  # yet tampered code ran


@pytest.fixture(scope="module")
def oh_protected(gzip_small):
    return OHProgram(gzip_small, instrument=["checksum_words"])


def test_oh_behaviour_preserved(oh_protected, gzip_baseline):
    result = oh_protected.run()
    assert not result.crashed
    assert result.stdout == gzip_baseline.stdout
    assert result.exit_status == gzip_baseline.exit_status


def test_oh_detects_tampering(oh_protected, gzip_baseline):
    patch = stub_out_function(oh_protected.image, "checksum_words", 0)
    outcome = evaluate_attack(oh_protected.image, [patch], gzip_baseline, "oh")
    assert outcome.detected
    assert outcome.run.exit_status == 66


def test_oh_survives_wurster(oh_protected, gzip_baseline):
    """OH hashes execution state, so the i-cache attack IS caught."""
    patch = stub_out_function(oh_protected.image, "checksum_words", 0)
    run = run_tampered(oh_protected.image, [patch], code_view=True).run
    assert run.exit_status == 66


def test_oh_cannot_protect_nondeterministic_code():
    """Instrumenting ptrace_detect makes the hash depend on the
    debugger: the check false-positives on the honest traced run —
    the exact limitation Parallax does not have (§VII/§IX)."""
    from repro.corpus import build_wget
    program = build_wget(blocks=1, chunks=2)
    oh = OHProgram(program, instrument=["ptrace_detect"])
    clean = oh.run()
    assert clean.exit_status == program.run().exit_status  # trained path fine
    traced = oh.run(debugger_attached=True)
    assert traced.exit_status == 66       # false positive: untampered abort
