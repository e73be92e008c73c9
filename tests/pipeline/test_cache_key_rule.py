"""The cache's one key rule: every namespace keys on the source digest.

An entry written by one version of the package's code must be a miss
for another version, whatever the namespace: the recompute stores a
new entry beside the orphaned one.  ``repro.cache._SOURCE_DIGEST``
stands in for an edit to the package source.
"""

import pytest

import repro.cache as cache_mod
from repro import telemetry
from repro.cache import cache_session, get_cache
from repro.core import Parallax, ProtectConfig
from repro.corpus import build_program_cached
from repro.gadgets import find_gadgets_in_bytes_cached
from repro.serve.jobs import job_key, make_task
from repro.x86 import Assembler, EAX, EBX


def _protect(small_wget):
    config = ProtectConfig(verification_functions=["digest_wget"])
    Parallax(config).protect(small_wget)


def _gadgets(_small_wget):
    a = Assembler()
    a.pop(EAX); a.ret(); a.mov(EBX, EAX); a.ret()
    find_gadgets_in_bytes_cached(a.assemble(), base=0x1000)


def _corpus(_small_wget):
    build_program_cached("gzip")


def _serve(_small_wget):
    # The server's _execute does exactly this around its pool submit.
    key = job_key(make_task("protect", "gzip", seed=3))
    cache = get_cache("serve")
    hit, _payload = cache.get(key)
    if not hit:
        cache.put(key, {"image": "stand-in payload"})


CASES = {"protect": _protect, "gadgets": _gadgets, "corpus": _corpus, "serve": _serve}


@pytest.mark.parametrize("namespace", sorted(CASES))
def test_other_source_digest_is_a_miss_and_stores_anew(
    namespace, small_wget, tmp_path, monkeypatch
):
    run = CASES[namespace]
    with telemetry.telemetry_session(metrics=True) as (metrics, _tracer):
        with cache_session(cache_dir=str(tmp_path)) as manager:
            monkeypatch.setattr(cache_mod, "_SOURCE_DIGEST", "a" * 64)
            run(small_wget)  # cold: miss + store
            run(small_wget)  # same code: hit
            monkeypatch.setattr(cache_mod, "_SOURCE_DIGEST", "b" * 64)
            run(small_wget)  # other code: miss + a second entry
            entries = manager.disk.entry_count(namespace)
        samples = metrics.to_dict()

    def count(event):
        return samples[f"cache.{namespace}.{event}"]["value"]

    assert (count("misses"), count("hits"), count("stores")) == (2, 1, 2)
    assert entries == 2
