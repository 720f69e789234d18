"""Bounded admission queue in front of the execution tier.

The tier runs at most ``slots`` tasks concurrently; up to ``limit``
further executions may *wait* for a slot.  Beyond that the server
answers 429 — explicit backpressure with a ``Retry-After`` computed
from the observed task duration, instead of an ever-growing queue that
converts overload into timeouts for everyone.

A waiter can be displaced by drain: :meth:`acquire` races slot
acquisition against the drain event and reports which side won, so a
SIGTERM turns queued-but-unstarted work into journal entries instead
of abandoned executions (see :mod:`repro.serve.lifecycle`).
"""

from __future__ import annotations

import asyncio
from typing import Optional


class AdmissionQueue:
    """Execution slots plus a bounded waiting room."""

    def __init__(self, limit: int, slots: int):
        if limit < 0:
            raise ValueError(f"queue limit must be >= 0, got {limit!r}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots!r}")
        self.limit = limit
        self.slots = slots
        self._sem = asyncio.Semaphore(slots)
        self.waiting = 0       # admitted, waiting for a slot
        self.running = 0       # holding a slot
        self.rejected = 0      # turned away with 429
        self._ema_seconds = 0.1  # smoothed execution wall estimate

    @property
    def depth(self) -> int:
        """Requests admitted but not finished (waiting + running)."""
        return self.waiting + self.running

    def full(self) -> bool:
        """True when a new request would wait AND the waiting room is
        at capacity.  A free execution slot always admits — ``limit=0``
        means "no waiting room", not "no service"."""
        return self.waiting >= self.limit and self._sem.locked()

    def retry_after(self) -> int:
        """Whole-second Retry-After hint for a rejected request.

        Estimates how long the current backlog needs to get through the
        ``slots``-wide tier at the smoothed per-task duration; always at
        least one second so clients cannot busy-spin on 429s.
        """
        backlog = self.depth + 1
        eta = backlog * self._ema_seconds / max(1, self.slots)
        return max(1, int(eta + 0.999))

    def observe(self, wall_seconds: float) -> None:
        """Fold one finished execution's wall time into the estimate."""
        if wall_seconds > 0:
            self._ema_seconds += 0.2 * (wall_seconds - self._ema_seconds)

    async def acquire(self, draining: Optional[asyncio.Event] = None) -> bool:
        """Wait for an execution slot; returns False if drain won.

        Without ``draining`` this simply acquires.  With it, the wait
        races the drain event: if the server starts draining while this
        request is still queued, the slot wait is abandoned (False) and
        no slot is held.  The waiting/running accounting is updated
        either way.
        """
        if draining is not None and draining.is_set():
            return False
        self.waiting += 1
        got_slot = False
        try:
            if draining is None:
                await self._sem.acquire()
                got_slot = True
            else:
                acquired = asyncio.ensure_future(self._sem.acquire())
                drained = asyncio.ensure_future(draining.wait())
                try:
                    await asyncio.wait(
                        {acquired, drained},
                        return_when=asyncio.FIRST_COMPLETED)
                finally:
                    drained.cancel()
                    if not acquired.done():
                        acquired.cancel()
                    # reap: CancelledError if the wait was abandoned,
                    # True if acquisition raced the cancel and won
                    try:
                        got_slot = bool(await acquired)
                    except asyncio.CancelledError:
                        got_slot = False
                if not got_slot:
                    return False   # drain fired before a slot freed up
        except asyncio.CancelledError:
            # the caller itself was cancelled mid-wait; if the slot was
            # nevertheless granted in the same tick, hand it back
            if got_slot:
                self._sem.release()
            raise
        finally:
            self.waiting -= 1
        self.running += 1
        return True

    def release(self) -> None:
        self.running -= 1
        self._sem.release()

    async def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Wait until nothing is running (drain helper)."""
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while self.running > 0:
            if deadline is not None and loop.time() >= deadline:
                return False
            await asyncio.sleep(0.02)
        return True
