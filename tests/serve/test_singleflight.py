"""Single-flight semantics: the invariants the serving layer rests on."""

import asyncio

import pytest

from repro.serve.singleflight import FOLLOWER, LEADER, SingleFlight


def run(coro):
    return asyncio.run(coro)


def test_concurrent_identical_requests_compute_exactly_once():
    async def body():
        sf = SingleFlight()
        calls = []

        async def compute():
            calls.append(1)
            await asyncio.sleep(0.01)
            return {"value": 42}

        results = await asyncio.gather(
            *(sf.run("key", compute) for _ in range(25))
        )
        return calls, results, sf

    calls, results, sf = run(body())
    assert len(calls) == 1
    roles = [role for _value, role in results]
    assert roles.count(LEADER) == 1
    assert roles.count(FOLLOWER) == 24
    # Everyone gets the leader's object — literally the same one.
    values = [value for value, _role in results]
    assert all(value is values[0] for value in values)
    assert sf.leaders == 1 and sf.followers == 24
    assert len(sf) == 0


def test_sequential_requests_each_lead():
    async def body():
        sf = SingleFlight()
        calls = []

        async def compute():
            calls.append(1)
            return len(calls)

        first = await sf.run("key", compute)
        second = await sf.run("key", compute)
        return calls, first, second

    calls, first, second = run(body())
    assert len(calls) == 2
    assert first == (1, LEADER)
    assert second == (2, LEADER)


def test_distinct_keys_do_not_coalesce():
    async def body():
        sf = SingleFlight()
        calls = []

        async def compute_for(key):
            calls.append(key)
            await asyncio.sleep(0.01)
            return key

        results = await asyncio.gather(
            *(sf.run(f"k{i}", lambda i=i: compute_for(f"k{i}")) for i in range(5))
        )
        return calls, results

    calls, results = run(body())
    assert sorted(calls) == [f"k{i}" for i in range(5)]
    assert all(role == LEADER for _value, role in results)


def test_leader_failure_propagates_and_does_not_poison():
    async def body():
        sf = SingleFlight()
        attempts = []

        async def failing():
            attempts.append(1)
            await asyncio.sleep(0.01)
            raise RuntimeError("boom")

        outcomes = await asyncio.gather(
            *(sf.run("key", failing) for _ in range(8)),
            return_exceptions=True,
        )
        # Every waiter — leader and followers — sees the same failure.
        assert len(attempts) == 1
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert len(sf) == 0  # key removed: the table is not poisoned

        async def healthy():
            return "recovered"

        value, role = await sf.run("key", healthy)
        return value, role

    value, role = run(body())
    assert (value, role) == ("recovered", LEADER)


def test_cancelled_follower_does_not_tear_down_shared_work():
    async def body():
        sf = SingleFlight()
        started = asyncio.Event()

        async def compute():
            started.set()
            await asyncio.sleep(0.05)
            return "done"

        leader_task = asyncio.ensure_future(sf.run("key", compute))
        await started.wait()
        follower_task = asyncio.ensure_future(sf.run("key", compute))
        await asyncio.sleep(0.01)
        follower_task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await follower_task
        return await leader_task

    assert run(body()) == ("done", LEADER)


def test_cancelled_leader_waiter_still_serves_followers():
    """Even the *leader's request* dying must not kill the computation:
    it runs in its own task and followers depend on it."""

    async def body():
        sf = SingleFlight()
        started = asyncio.Event()

        async def compute():
            started.set()
            await asyncio.sleep(0.05)
            return "survived"

        leader_task = asyncio.ensure_future(sf.run("key", compute))
        await started.wait()
        follower_task = asyncio.ensure_future(sf.run("key", compute))
        await asyncio.sleep(0.01)
        leader_task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await leader_task
        return await follower_task

    assert run(body()) == ("survived", FOLLOWER)


def test_is_inflight_tracks_lifecycle():
    async def body():
        sf = SingleFlight()
        release = asyncio.Event()

        async def compute():
            await release.wait()
            return 1

        task = asyncio.ensure_future(sf.run("key", compute))
        await asyncio.sleep(0.01)
        assert sf.is_inflight("key")
        release.set()
        await task
        assert not sf.is_inflight("key")

    run(body())


def test_fail_all_raises_in_every_waiter_and_frees_the_keys():
    async def body():
        sf = SingleFlight()
        release = asyncio.Event()

        async def compute():
            await release.wait()
            return "late"

        waiters = [
            asyncio.ensure_future(sf.run(key, compute))
            for key in ("a", "a", "b")
        ]
        await asyncio.sleep(0)  # every waiter reaches its await
        sf.fail_all(RuntimeError("cut"))
        outcomes = await asyncio.gather(*waiters, return_exceptions=True)
        in_flight = len(sf)
        release.set()  # the computations were left running
        await asyncio.sleep(0.01)
        return outcomes, in_flight, sf

    outcomes, in_flight, sf = run(body())
    assert [str(o) for o in outcomes] == ["cut", "cut", "cut"]
    assert all(isinstance(o, RuntimeError) for o in outcomes)
    assert in_flight == 0 and len(sf) == 0
    assert sf.leaders == 2 and sf.followers == 1
