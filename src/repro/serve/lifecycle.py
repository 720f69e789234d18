"""Graceful shutdown for PhotonServe.

SIGTERM (or SIGINT) flips the server into *draining*:

1. new requests are refused with ``503 Service Unavailable`` and a
   ``Retry-After`` hint — a load balancer reads this as "stop sending";
2. requests already holding an execution slot run to completion and
   their responses are delivered normally — paid-for simulation work is
   never thrown away;
3. requests admitted but still *queued* are journaled — each one's raw
   request body is durably appended to ``pending.jsonl`` in the state
   directory — and answered 503 with ``"journaled": true``, so an
   operator (or the restarted server) can replay exactly what was shed.

The journal is a :class:`repro.durable.RecordLog`, the same sealed,
fsync'd, valid-prefix log as the sweep journal: a journaled request
survives the power loss that may well follow a SIGTERM, and a torn tail
left by a crash moves to ``pending.quarantined`` before the next append.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Dict, Optional

from ..durable import RecordLog

#: journal of requests shed during drain, one sealed record per line
PENDING_NAME = "pending.jsonl"


class Drained(Exception):
    """Raised into a queued request displaced by server drain."""

    def __init__(self, journaled: bool):
        super().__init__("server is draining")
        self.journaled = journaled


class DrainController:
    """Drain state plus the shed-request journal."""

    def __init__(self, state_dir: Optional[str] = None):
        self.log = (RecordLog(Path(state_dir) / PENDING_NAME,
                              "serve.pending") if state_dir else None)
        self.journaled = 0
        self._event: Optional[asyncio.Event] = None

    @property
    def draining(self) -> asyncio.Event:
        """The drain event (created lazily on the running loop)."""
        if self._event is None:
            self._event = asyncio.Event()
        return self._event

    def is_draining(self) -> bool:
        return self._event is not None and self._event.is_set()

    def begin(self) -> None:
        """Enter drain mode (idempotent; safe from a signal handler
        registered via ``loop.add_signal_handler``)."""
        self.draining.set()

    def journal(self, request: Dict[str, object]) -> bool:
        """Durably journal one shed request; False when no state dir.

        Failures to journal are deliberately not fatal mid-drain — the
        request is still answered 503, just without the journaled flag.
        """
        if self.log is None:
            return False
        try:
            self.log.append(request)
        except OSError:
            return False
        self.journaled += 1
        return True

    def close(self) -> None:
        if self.log is not None:
            self.log.close()
