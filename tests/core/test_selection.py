"""§VII-B verification-function selection."""

import pytest

from repro.core import (
    SelectionError, rank_candidates, select_verification_function,
)
from repro.core.selection import is_chain_translatable


def test_selects_the_digest(small_wget):
    assert select_verification_function(small_wget) == "digest_wget"


def test_candidate_ranking_fields(small_wget):
    infos = {i.name: i for i in rank_candidates(small_wget)}
    digest = infos["digest_wget"]
    assert digest.translatable
    assert digest.call_sites >= 2           # step 1
    assert 0 < digest.time_share < 0.02     # step 2
    # step 3: most op kinds among the eligible
    eligible = [
        i for i in infos.values()
        if i.translatable and 0 < i.time_share < 0.02
    ]
    assert digest.op_kinds == max(i.op_kinds for i in eligible)


def test_hot_functions_excluded(small_wget):
    infos = {i.name: i for i in rank_candidates(small_wget)}
    # the bulk-transfer helpers burn most cycles -> above threshold
    assert infos["checksum_words"].time_share > 0.02


def test_non_leaf_not_translatable(small_wget):
    assert not is_chain_translatable(small_wget.functions["main"])


def test_wget_profile_runs_to_completion(monkeypatch):
    # Regression: the profile used to stop at 5,000,000 of wget's
    # 6,791,849 steps and rank time shares of 74% of the run.
    from repro.core import selection
    from repro.corpus import build_program

    profiles = []
    original = selection.profile_run

    def spy(*args, **kwargs):
        profiles.append(original(*args, **kwargs))
        return profiles[-1]

    monkeypatch.setattr(selection, "profile_run", spy)
    assert select_verification_function(build_program("wget")) == "digest_wget"
    (result, profiler), = profiles
    assert result.fault is None
    assert result.steps == 6_791_849
    assert sum(p.steps for p in profiler.profiles.values()) == result.steps


def _spinning_program():
    """A program whose main loops forever."""
    from types import SimpleNamespace

    from repro.binary import BinaryImage, Perm, Section
    from repro.x86 import Assembler, EAX, Imm

    a = Assembler(base=0x1000)
    a.label("main")
    a.add(EAX, Imm(1, 32))
    a.jmp("main")
    image = BinaryImage("spin")
    image.add_section(Section(".text", 0x1000, a.assemble(), Perm.RX))
    image.add_function("main", 0x1000, a.here - 0x1000)
    image.entry = 0x1000
    return SimpleNamespace(name="spin", image=image, functions={})


def test_profile_that_hits_its_budget_raises(monkeypatch):
    # Regression: rank_candidates used to rank a profile that stopped at
    # its step budget as if it were the whole run.
    from repro.core import selection

    monkeypatch.setattr(selection, "RUN_MAX_STEPS", 20_000, raising=False)
    with pytest.raises(SelectionError, match="stopped after 20,000 steps"):
        rank_candidates(_spinning_program())
