"""Single-flight deduplication for concurrent identical requests.

Protection is a pure function of (bytes, config, seed), so two
concurrent requests with the same content key would compute the same
artifact twice.  :class:`SingleFlight` coalesces them: the first
arrival for a key becomes the **leader** and runs the computation; any
request arriving while it is in flight becomes a **follower** and
awaits the leader's future.  The result — or the leader's exception —
fans out to every waiter.

Semantics pinned by ``tests/serve/test_singleflight.py``:

* N concurrent calls with one key run the computation exactly once and
  all receive the *same object* (callers that must not share mutable
  state copy on their side; the server serializes to JSON, so sharing
  is free);
* the leader's exception propagates to every follower, and the key is
  removed from the in-flight table *before* the future resolves — a
  failure never poisons later requests, which start a fresh leader;
* the computation runs in its own task, so a follower (or even the
  leader's own request) being cancelled — a client disconnect — does
  not cancel the shared work other waiters depend on;
* :meth:`fail_all` hands every current waiter an exception without
  touching the computations, which the server uses to cut a drain
  short.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Tuple

__all__ = ["SingleFlight", "LEADER", "FOLLOWER"]

LEADER = "leader"
FOLLOWER = "follower"


class SingleFlight:
    """Coalesce concurrent computations per content key (asyncio)."""

    def __init__(self):
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Lifetime role counts (the server also exports these as
        #: ``serve.singleflight.{leader,follower}`` metrics).
        self.leaders = 0
        self.followers = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def is_inflight(self, key: str) -> bool:
        return key in self._inflight

    async def run(
        self, key: str, compute: Callable[[], Awaitable[Any]]
    ) -> Tuple[Any, str]:
        """Return ``(value, role)`` where role is leader or follower.

        ``compute`` is only invoked for the leader.  Followers never
        call it; they await the leader's future (shielded, so one
        cancelled waiter cannot tear down the shared result).
        """
        future = self._inflight.get(key)
        if future is not None:
            self.followers += 1
            return await asyncio.shield(future), FOLLOWER
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        self.leaders += 1
        # The computation runs in its own task: if this request's task
        # is cancelled mid-flight, followers still get their result.
        task = loop.create_task(self._lead(key, future, compute))
        try:
            return await asyncio.shield(future), LEADER
        finally:
            # Keep a reference until done so the task is never GC'd
            # mid-flight; exceptions are delivered via the future.
            del task

    def fail_all(self, exc: BaseException) -> None:
        """Raise ``exc`` in every waiter of every in-flight key."""
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(exc)
                future.exception()  # retrieved: no warning without waiters
        self._inflight.clear()

    async def _lead(self, key: str, future: asyncio.Future, compute) -> None:
        try:
            value = await compute()
        except BaseException as exc:  # noqa: BLE001 — fan out verbatim
            # Remove the key BEFORE resolving: a request arriving after
            # the failure must start a fresh leader, never observe the
            # poisoned future.
            self._inflight.pop(key, None)
            if not future.done():
                future.set_exception(exc)
                # Mark retrieved so a leaderless failure (every waiter
                # already cancelled) doesn't warn on GC.
                future.exception()
        else:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(value)
