"""Differential guarantees of the parallel, cached pipeline.

The load-bearing property: caching and parallelism are *pure
plumbing*.  Whatever combination of cache state and worker count a run
uses, every protected image must be byte-identical and every report
equal to the uncached sequential reference.
"""

import pytest

from repro.cache import cache_session
from repro.core import Parallax, ProtectConfig
from repro.corpus import PROGRAM_NAMES
from repro.pipeline import config_for_program, protect_all


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Full-corpus protect-all under four regimes sharing one cache dir."""
    cache_dir = str(tmp_path_factory.mktemp("parallax-cache"))
    with cache_session(cache_dir=cache_dir):
        uncached = protect_all(use_cache=False)
        cold = protect_all()
        warm = protect_all()
        parallel = protect_all(jobs=4)
    return {
        "uncached": uncached,
        "cold": cold,
        "warm": warm,
        "parallel": parallel,
    }


def test_all_regimes_cover_the_corpus_in_order(pipeline_runs):
    for results in pipeline_runs.values():
        assert [r.name for r in results] == list(PROGRAM_NAMES)


def test_images_byte_identical_across_regimes(pipeline_runs):
    reference = pipeline_runs["uncached"]
    for regime in ("cold", "warm", "parallel"):
        for ref, got in zip(reference, pipeline_runs[regime]):
            assert ref.image.canonical_bytes() == got.image.canonical_bytes(), (
                regime,
                got.name,
            )


def test_reports_identical_across_regimes(pipeline_runs):
    reference = pipeline_runs["uncached"]
    for regime in ("cold", "warm", "parallel"):
        for ref, got in zip(reference, pipeline_runs[regime]):
            assert ref.report.to_dict() == got.report.to_dict(), (regime, got.name)


def test_cache_hit_flags_reflect_cache_state(pipeline_runs):
    assert not any(r.cache_hit for r in pipeline_runs["uncached"])
    assert not any(r.cache_hit for r in pipeline_runs["cold"])
    assert all(r.cache_hit for r in pipeline_runs["warm"])
    assert all(r.cache_hit for r in pipeline_runs["parallel"])


def test_result_to_dict_shape(pipeline_runs):
    payload = pipeline_runs["warm"][0].to_dict()
    assert payload["program"] == PROGRAM_NAMES[0]
    assert payload["cache_hit"] is True
    assert payload["worker_pid"] > 0
    assert payload["elapsed_s"] >= 0
    assert "chains" in payload["report"]


def test_parallel_compute_matches_sequential_without_cache():
    """jobs=N must *compute* the same bytes, not merely replay a cache."""
    names = ["wget", "gzip"]
    with cache_session(enabled=False):
        sequential = protect_all(names=names, jobs=1, use_cache=False)
        fanned = protect_all(names=names, jobs=2, use_cache=False)
    pids = {r.worker_pid for r in fanned}
    assert len(pids) == 2  # genuinely ran in two processes
    for seq, par in zip(sequential, fanned):
        assert seq.image.canonical_bytes() == par.image.canonical_bytes()
        assert seq.report.to_dict() == par.report.to_dict()


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        protect_all(jobs=0)


def test_config_for_program_defaults_to_digest_function():
    config = config_for_program("nginx", None)
    assert config.verification_functions == ["digest_nginx"]
    explicit = config_for_program(
        "nginx", ProtectConfig(verification_functions=["digest_wget"])
    )
    assert explicit.verification_functions == ["digest_wget"]


def test_protect_one_respects_session_cache(small_wget):
    config = ProtectConfig(verification_functions=["digest_wget"])
    with cache_session():
        first = Parallax(config).protect(small_wget)
        second = Parallax(config).protect(small_wget)
    assert first.image.canonical_bytes() == second.image.canonical_bytes()
    # protect is a fresh namespace: the hit deserializes a new image,
    # never an alias
    assert first.image is not second.image
    with cache_session(enabled=False):
        recomputed = Parallax(config).protect(small_wget)
    assert recomputed.image.canonical_bytes() == first.image.canonical_bytes()
