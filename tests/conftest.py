"""Shared fixtures: small corpus variants so the suite stays fast.

Hypothesis profiles.  pytest imports this file before any test module,
so every ``@settings(max_examples=...)`` falls back to the profile
loaded here and keeps its own budget:

* ``tier1`` (loaded by default) draws the same examples on every run,
  so a red tier-1 points at the change under test, not at a new draw;
* ``random`` draws fresh examples each run and prints a reproduction
  blob for every failure.  Select it with
  ``pytest --hypothesis-profile=random`` (CI repeats the ``@given``
  modules under it); a failure it finds is pinned as an ``@example``.
"""

import pytest
from hypothesis import settings

from repro.core import Parallax, ProtectConfig
from repro.corpus import build_gzip, build_wget

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("random", database=None, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def small_wget():
    """wget with a tiny workload (still calls its digest each block)."""
    return build_wget(blocks=2, chunks=10)


@pytest.fixture(scope="session")
def small_gzip():
    return build_gzip(blocks=2, positions=6)


@pytest.fixture(scope="session")
def small_wget_baseline(small_wget):
    result = small_wget.run()
    assert not result.crashed
    return result


@pytest.fixture(scope="session")
def protected_wget_cleartext(small_wget):
    config = ProtectConfig(
        strategy="cleartext", verification_functions=["digest_wget"]
    )
    return Parallax(config).protect(small_wget)


@pytest.fixture(scope="session")
def protected_wget_rc4(small_wget):
    config = ProtectConfig(strategy="rc4", verification_functions=["digest_wget"])
    return Parallax(config).protect(small_wget)


@pytest.fixture(scope="session")
def protected_wget_linear(small_wget):
    config = ProtectConfig(
        strategy="linear", verification_functions=["digest_wget"]
    )
    return Parallax(config).protect(small_wget)
