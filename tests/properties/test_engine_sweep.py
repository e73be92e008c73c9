"""Fixed-seed engine sweep: generated programs, unprotected and
protected, give identical ``RunResult``s on every engine.

``test_engine_differential`` draws a few random seeds per run; this
module checks a fixed list of seeds, so every run compares the engines
on the same programs.  A longer sweep runs any range of seeds::

    PYTHONPATH=src python -m tests.properties.test_engine_sweep START STOP

It prints each disagreeing seed and exits 1 if there was one.
"""

import sys

import pytest

from repro.emu import ENGINES

if __package__:  # run with ``python -m``
    from .test_engine_differential import _make_program, _protect, _run_signature
else:  # collected by pytest, which puts this directory on sys.path
    from test_engine_differential import _make_program, _protect, _run_signature

#: The seeds ``test_engine_differential`` pins as examples, then the
#: first sixty.
SEEDS = (797, 315523193, 396008095, 1355172685, *range(60))


def check_seed(seed: int) -> None:
    """Assert that every engine runs ``seed``'s program and its
    protected image exactly as the step engine does, and that the
    protected run prints what the unprotected one prints."""
    program = _make_program(seed)
    stdouts = []
    for image in (program.image, _protect(program).image):
        sigs = {engine: _run_signature(image, engine) for engine in ENGINES}
        assert all(sig == sigs["step"] for sig in sigs.values()), sigs
        stdouts.append(sigs["step"][3])
    assert stdouts[0] == stdouts[1], stdouts


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree_on_a_generated_program(seed):
    check_seed(seed)


def main(argv) -> int:
    start, stop = (int(arg) for arg in argv)
    failed = 0
    for seed in range(start, stop):
        try:
            check_seed(seed)
        except Exception as exc:  # report every seed, not just the first
            failed += 1
            print(f"seed {seed}: {type(exc).__name__}: {exc}", flush=True)
    print(f"{stop - start - failed} of {stop - start} seeds agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
