"""Async single-flight: N identical concurrent requests, one execution.

The event-loop analogue of the thread-level
:class:`repro.pipeline.cache.CompileFlight`.  The first requester for a
key starts the work as an independent task; every requester (including
the first) awaits that task through ``asyncio.shield``, so:

* a cancelled *client* never cancels the shared in-flight work — the
  remaining waiters (and the warm cache) still get the result;
* a *failing* execution propagates its exception to every current
  waiter but is popped immediately, so the next request retries from
  scratch — failures are never cached as poison.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Hashable

__all__ = ["SingleFlight"]


class SingleFlight:
    """Coalesce concurrent calls by key onto one running task."""

    def __init__(self):
        self._inflight: Dict[Hashable, asyncio.Task] = {}
        self.leaders = 0
        self.coalesced = 0

    def inflight(self) -> int:
        return len(self._inflight)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._inflight

    async def do(self, key: Hashable,
                 thunk: Callable[[], Awaitable[Any]]) -> Any:
        """Run ``thunk()`` for *key*, or piggyback on the one in flight."""
        task = self._inflight.get(key)
        if task is None:
            self.leaders += 1
            task = asyncio.get_running_loop().create_task(thunk())
            self._inflight[key] = task
            task.add_done_callback(lambda t, k=key: self._done(k, t))
        else:
            self.coalesced += 1
        return await asyncio.shield(task)

    def _done(self, key: Hashable, task: asyncio.Task) -> None:
        if self._inflight.get(key) is task:
            del self._inflight[key]
        if not task.cancelled():
            task.exception()  # retrieved: no "never retrieved" warnings
