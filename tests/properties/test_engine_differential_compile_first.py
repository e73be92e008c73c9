"""``test_engine_differential`` with every block compiled on first dispatch.

The default threshold interprets cold code and compiles hot blocks
part-way through a run; compiling on first dispatch sends every block
through the compiled paths instead.
"""

import pytest

import repro.emu.blocks as blocks
from test_engine_differential import *  # noqa: F401,F403 -- re-collected here


@pytest.fixture(autouse=True)
def compile_on_first_dispatch(monkeypatch):
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
