"""Shared fixtures: small corpus variants so the suite stays fast."""

import pytest

from repro.core import Parallax, ProtectConfig
from repro.corpus import build_gzip, build_wget


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
