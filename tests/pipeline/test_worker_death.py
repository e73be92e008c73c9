"""A pool worker that dies mid-task fails the run with a typed error.

Each scenario runs in a child interpreter under a timeout, so a pool
that waits forever on its dead worker fails the test instead of hanging
the suite.  The child runs in its own session, and a timed-out child is
killed together with its workers.
"""

import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TIMEOUT_S = 60


def _kill_own_worker(_task):
    """Pool task that SIGKILLs the worker process running it."""
    assert multiprocessing.parent_process() is not None, "not in a worker"
    os.kill(os.getpid(), signal.SIGKILL)


def run_tasks_scenario():
    from repro.pipeline.pool import run_tasks

    list(run_tasks(_kill_own_worker, [{}, {}], jobs=2))


def protect_all_scenario():
    import repro.pipeline.runner as runner
    from repro.cache import cache_session

    runner._run_task = _kill_own_worker
    with cache_session(enabled=False):
        runner.protect_all(names=["gzip", "wget"], jobs=2)


_CHILD = """
import sys
from concurrent.futures.process import BrokenProcessPool
from tests.pipeline import test_worker_death as scenarios

try:
    getattr(scenarios, sys.argv[1])()
except BrokenProcessPool as exc:
    print("BrokenProcessPool:", exc)
    sys.exit(0)
sys.exit("the scenario finished without an error")
"""


@pytest.mark.parametrize("scenario", ["run_tasks_scenario", "protect_all_scenario"])
def test_killed_worker_raises_broken_process_pool(scenario):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")]
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, scenario],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"{scenario} hung for {TIMEOUT_S}s after a worker died")
    assert child.returncode == 0, output
    assert "BrokenProcessPool" in output
