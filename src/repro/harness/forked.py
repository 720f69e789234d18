"""Run independent calls side by side, each in a forked child.

:func:`run_forked` is how a cell's evaluations (full detail and each
sampled method) share the host's CPUs: every call runs in a child made
with :func:`os.fork`, at most one per CPU at a time, and sends its return
value back through a pipe with :mod:`pickle`.  Forking is what lets the
calls be closures — the workload factories PhotonBench and the tests
pass in — which the sweep tier, whose tasks are pickled to a pool,
cannot carry.

* A call that raises has its exception raised again in the caller, with
  the child's traceback text as its ``__cause__``; the calls after it
  are not run, as in a loop over the calls, and when several raise, the
  first in call order wins.
* A child that dies without a result — killed by a signal, or exited
  early — comes back as a :class:`ChildDied` value, for the caller to
  turn into a failed row.
* On every way out of :func:`run_forked`, an exception or
  ``KeyboardInterrupt`` included, the children still running are killed
  and every child is reaped.
* A child leaves with :func:`os._exit`: it never runs the caller's
  ``atexit`` hooks or flushes the caller's buffered files a second time.

Only the standard library's process primitives are used (no
``multiprocessing``): a simulation process loads no orchestration layer.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple


def cpu_slots() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class ChildDied:
    """A child ended without sending a result."""

    status: int   # the raw wait status

    def describe(self) -> str:
        if os.WIFSIGNALED(self.status):
            number = os.WTERMSIG(self.status)
            try:
                name = signal.Signals(number).name
            except ValueError:
                name = "unknown signal"
            return f"killed by signal {number} ({name})"
        return (f"exited with status {os.waitstatus_to_exitcode(self.status)}"
                " without a result")


class ChildTraceback(Exception):
    """The traceback text of an exception raised in a forked child."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(f"{type(exc).__qualname__}: {exc}")


@dataclass
class _Raised:
    """What a call raised, as a child sends it."""

    exc: BaseException
    text: str     # the child's traceback


def _child(call: Callable[[], object], write_fd: int) -> None:
    """The body of one child: run ``call``, send its value or what it
    raised."""
    code = 1
    try:
        try:
            payload = pickle.dumps(call(), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 - shipped to the caller
            payload = pickle.dumps(
                _Raised(_portable(exc), traceback.format_exc()),
                pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int) -> None:
    """Kill child ``pid`` if it still runs, then wait for it."""
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def run_forked(calls: Sequence[Callable[[], object]],
               ends: Callable[[int, object], bool] = lambda index, outcome:
               False) -> List[object]:
    """Each call's return value (or a :class:`ChildDied`), in call order.

    At most :func:`cpu_slots` children run at once.  A call that raises,
    or whose outcome ``ends(index, outcome)`` holds, ends the sequence
    as a loop over the calls would: later calls are killed or never
    started, and their entries are ``None``.  Once the earlier calls are
    done, the exception of the first call that raised is raised here.
    """
    results: List[object] = [None] * len(calls)
    end = len(calls)          # calls from here on are not needed
    waiting = list(range(len(calls)))[::-1]
    # read end -> (call index, child pid, bytes received so far)
    running: Dict[int, Tuple[int, int, List[bytes]]] = {}
    poller = select.poll()
    window = cpu_slots()
    try:
        while waiting or running:
            while waiting and len(running) < window:
                index = waiting.pop()
                read_fd, write_fd = os.pipe()
                # no KeyboardInterrupt between the fork and the
                # bookkeeping that lets the cleanup below find the child
                mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                              {signal.SIGINT})
                try:
                    pid = os.fork()
                    if pid == 0:
                        try:
                            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                            os.close(read_fd)
                            _child(calls[index], write_fd)
                        finally:
                            os._exit(1)
                    running[read_fd] = (index, pid, [])
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(write_fd)
                poller.register(read_fd, select.POLLIN)
            for read_fd, _event in poller.poll():
                if read_fd not in running:
                    continue          # killed below, earlier in this batch
                chunk = os.read(read_fd, 1 << 20)
                if chunk:
                    running[read_fd][2].append(chunk)
                    continue
                poller.unregister(read_fd)
                index, pid, chunks = running.pop(read_fd)
                os.close(read_fd)
                _, status = os.waitpid(pid, 0)
                # a child exits 0 only once its whole result is written
                if os.waitstatus_to_exitcode(status) != 0:
                    outcome = results[index] = ChildDied(status)
                else:
                    outcome = results[index] = pickle.loads(b"".join(chunks))
                if isinstance(outcome, _Raised) or ends(index, outcome):
                    end = index + 1
                    waiting = [i for i in waiting if i < end]
                    for fd in [fd for fd, (i, _pid, _chunks)
                               in running.items() if i >= end]:
                        _reap(running[fd][1])
                        del running[fd]
                        poller.unregister(fd)
                        os.close(fd)
    finally:
        for read_fd, (_index, pid, _chunks) in running.items():
            os.close(read_fd)
            _reap(pid)
    results[end:] = [None] * (len(calls) - end)
    last = results[end - 1] if end else None
    if isinstance(last, _Raised):
        raise last.exc from ChildTraceback(last.text)
    return results
