"""Job-field validation: a mistyped field is a 400, never a coercion."""

import pytest

from repro.serve.jobs import JobValidationError, job_key, make_task


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None, [True]])
def test_guard_chains_must_be_a_bool(value):
    with pytest.raises(JobValidationError, match="guard_chains"):
        make_task("protect", "gzip", guard_chains=value)


def test_seed_must_be_an_int_not_a_bool():
    with pytest.raises(JobValidationError, match="seed"):
        make_task("protect", "gzip", seed=True)


def test_well_typed_fields_pass_through_unchanged():
    task = make_task("protect", "gzip", seed=3, guard_chains=True)
    assert task["guard_chains"] is True
    assert job_key(task) != job_key(make_task("protect", "gzip", seed=3))
